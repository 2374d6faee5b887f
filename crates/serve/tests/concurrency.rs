//! Concurrency contracts of the epoch store and the server:
//!
//! * pinning is torn-swap-free — a reader never observes a half-published
//!   epoch, under a publisher racing many pinning readers;
//! * a pinned epoch is never freed (its contents stay self-consistent for
//!   as long as the pin is held, across arbitrarily many publishes);
//! * a live server under concurrent clients answers every accepted
//!   request (zero dropped in-flight batches at shutdown);
//! * (proptest) query results are identical across generations when the
//!   particle state is unchanged — the generation counter is metadata, not
//!   an input to the math.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Barrier};

use bhut_geom::{Particle, Vec3};
use bhut_serve::{
    EpochStore, FieldQuery, KernelPrecision, QueryKind, QueryTarget, ServeClient, ServeConfig,
    Server,
};
use bhut_tree::build::build;
use bhut_tree::BuildParams;
use proptest::prelude::*;

/// A cloud whose every particle carries `tag` as its mass: any mix of
/// masses inside one epoch is a torn snapshot.
fn tagged_cloud(n: usize, tag: u64) -> Vec<Particle> {
    let mut state = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| Particle::new(i as u32, tag as f64, Vec3::new(next(), next(), next()), Vec3::ZERO))
        .collect()
}

#[test]
fn publish_while_pinning_is_torn_free_and_pins_block_retirement() {
    const READERS: usize = 4;
    const GENERATIONS: u64 = 200;
    let store = Arc::new(EpochStore::new());
    // Generation g is published with every mass == g, so a reader can
    // detect any torn or stale-mixed view with a full scan.
    let first = tagged_cloud(64, 1);
    store.publish(build(&first, BuildParams::default()), first, 0.6, 1e-4);

    let start = Arc::new(Barrier::new(READERS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let store = Arc::clone(&store);
        let start = Arc::clone(&start);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            start.wait();
            let mut held: Option<(u64, Arc<bhut_serve::TreeEpoch>)> = None;
            let mut pins = 0u64;
            while !stop.load(SeqCst) {
                let epoch = store.pin().expect("store is published");
                pins += 1;
                let tag = epoch.generation as f64;
                // Torn-swap detector: every particle of the snapshot must
                // carry the generation's tag mass.
                assert!(
                    epoch.particles.iter().all(|p| p.mass == tag),
                    "generation {} exposed a torn particle array",
                    epoch.generation
                );
                assert_eq!(
                    epoch.particles.len() as u64 * epoch.generation,
                    epoch.tree.node(0).mass.round() as u64,
                    "tree and particles of generation {} disagree",
                    epoch.generation
                );
                // Hold one long-lived pin and re-validate it every
                // iteration: if the publisher ever freed or reused a pinned
                // epoch, this scan would read recycled memory.
                match &held {
                    None => held = Some((epoch.generation, epoch)),
                    Some((gen, old)) => {
                        let tag = *gen as f64;
                        assert!(
                            old.particles.iter().all(|p| p.mass == tag),
                            "pinned generation {gen} mutated while held"
                        );
                    }
                }
            }
            pins
        }));
    }

    start.wait();
    for g in 2..=GENERATIONS {
        let p = tagged_cloud(64, g);
        store.publish(build(&p, BuildParams::default()), p, 0.6, 1e-4);
    }
    stop.store(true, SeqCst);
    let total_pins: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_pins >= READERS as u64, "readers made progress");
    assert_eq!(store.generation(), GENERATIONS);
    // The readers dropped their pins on join, and the store references only
    // the current epoch: every other generation has retired.
    assert_eq!(
        store.retired(),
        GENERATIONS - 1,
        "only the current epoch may remain live, got {} retired of {}",
        store.retired(),
        GENERATIONS
    );
}

#[test]
fn live_server_under_concurrent_clients_drops_nothing() {
    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: usize = 25;
    let store = Arc::new(EpochStore::new());
    let particles = tagged_cloud(256, 1);
    store.publish(build(&particles, BuildParams::default()), particles.clone(), 0.6, 1e-4);

    // A small queue so backpressure actually fires under the barrage.
    let cfg = ServeConfig { workers: 2, queue_cap: 4, batch_points: 64, ..Default::default() };
    let server = Server::bind_tcp("127.0.0.1:0", Arc::clone(&store), cfg).unwrap();
    let addr = server.local_addr().unwrap();

    let start = Arc::new(Barrier::new(CLIENTS + 1));
    let publisher_stop = Arc::new(AtomicBool::new(false));
    // Keep publishing while clients hammer the server, so batches race
    // epoch swaps the whole time.
    let publisher = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&publisher_stop);
        let particles = particles.clone();
        std::thread::spawn(move || {
            let mut g = 1u64;
            while !stop.load(SeqCst) {
                g += 1;
                let mut p = particles.clone();
                for q in &mut p {
                    q.mass = g as f64;
                }
                store.publish(build(&p, BuildParams::default()), p, 0.6, 1e-4);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };

    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let start = Arc::clone(&start);
        clients.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect_tcp(addr).unwrap();
            start.wait();
            let mut answered = 0u64;
            for k in 0..QUERIES_PER_CLIENT {
                let targets: Vec<QueryTarget> = (0..8)
                    .map(|j| {
                        let t = (c * 31 + k * 7 + j) as f64 * 0.01;
                        (Vec3::new(t.fract(), (t * 1.7).fract(), (t * 2.3).fract()), u32::MAX)
                    })
                    .collect();
                let reply = client
                    .query(QueryKind::Field, KernelPrecision::F64, &targets)
                    .expect("every query eventually answered");
                assert_eq!(reply.samples.len(), targets.len());
                assert!(reply.generation >= 1);
                answered += 1;
            }
            (answered, client.retries)
        }));
    }
    start.wait();
    let mut answered = 0u64;
    let mut retries = 0u64;
    for c in clients {
        let (a, r) = c.join().unwrap();
        // Every rejected client eventually got all its answers — the
        // depth-scaled, jittered retry hints never starve anyone out.
        assert_eq!(a, QUERIES_PER_CLIENT as u64, "client finished all its queries");
        answered += a;
        retries += r;
    }
    publisher_stop.store(true, SeqCst);
    publisher.join().unwrap();

    assert_eq!(answered, (CLIENTS * QUERIES_PER_CLIENT) as u64, "zero dropped queries");
    let stats = server.stop();
    assert_eq!(stats.queue_depth, 0, "shutdown drained the queue");
    assert_eq!(stats.counters.accepted, answered, "accepted == answered (rejects were resent)");
    assert_eq!(
        stats.counters.rejected, retries,
        "every server-side reject surfaced as exactly one client retry"
    );
    assert!(stats.counters.queries >= answered * 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Republishing *unchanged* particle state must give bitwise-identical
    /// query results: the generation number is bookkeeping, not physics.
    #[test]
    fn unchanged_state_gives_identical_results_across_generations(
        points in prop::collection::vec(
            (-1.2f64..1.2, -1.2f64..1.2, -1.2f64..1.2),
            1..40
        ),
        group_size in 1usize..24,
        republishes in 1usize..4,
    ) {
        let particles = tagged_cloud(200, 7);
        let store = EpochStore::new();
        store.publish(build(&particles, BuildParams::default()), particles.clone(), 0.6, 1e-4);
        let first = store.pin().unwrap();
        for _ in 0..republishes {
            store.publish(build(&particles, BuildParams::default()), particles.clone(), 0.6, 1e-4);
        }
        let last = store.pin().unwrap();
        prop_assert_eq!(last.generation, 1 + republishes as u64);

        let targets: Vec<QueryTarget> =
            points.iter().map(|&(x, y, z)| (Vec3::new(x, y, z), u32::MAX)).collect();
        let mut engine = FieldQuery::new(group_size);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        engine.eval(&first, &targets, KernelPrecision::F64, &mut a);
        engine.eval(&last, &targets, KernelPrecision::F64, &mut b);
        for (k, (s, t)) in a.iter().zip(&b).enumerate() {
            prop_assert_eq!(s.acc.x.to_bits(), t.acc.x.to_bits(), "point {} x", k);
            prop_assert_eq!(s.acc.y.to_bits(), t.acc.y.to_bits(), "point {} y", k);
            prop_assert_eq!(s.acc.z.to_bits(), t.acc.z.to_bits(), "point {} z", k);
            prop_assert_eq!(s.phi.to_bits(), t.phi.to_bits(), "point {} phi", k);
        }
    }
}
