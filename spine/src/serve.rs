//! The served-query workload: a `bhut-serve` server on a Unix socket, an
//! epoch over a Plummer sphere, and two client connections in closed loop —
//! each caller waits for its reply before sending the next query. The main
//! thread republishes a clone of the prebuilt epoch every half second, so
//! queries pin epochs that are being replaced under them.

use crate::accuracy::{self, ERR_TARGETS};
use crate::gen::{initial_conditions, query_points, SplitMix};
use crate::stats::{fastest, median, percentile, reportable_tail};
use crate::trace::Tracer;
use crate::{sys, Args, Outcome};
use bhut_geom::{Particle, Vec3};
use bhut_serve::proto::{decode_reply, encode_query, encode_reply};
use bhut_serve::{
    EpochStore, FieldQuery, KernelPrecision, QueryKind, QueryRequest, QueryTarget, ServeClient,
    ServeConfig, Server, TreeEpoch,
};
use bhut_tree::build::{build, BuildParams};
use bhut_tree::Tree;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const POINTS: usize = 256;
const ALPHA: f64 = 0.67;
const EPS: f64 = 1e-4;
const LEAF_CAPACITY: usize = 8;
const REPUBLISH: Duration = Duration::from_millis(500);
const WARMUP_S: f64 = 1.0;
/// A set-up takes 40 ms here, so it can be repeated more often than the
/// second-long ones of the other workloads.
const SETUP_REPS: usize = 9;
/// Throughput is judged over blocks of this many consecutive completions.
const RATE_BLOCK: usize = 64;

struct Service {
    server: Server,
    store: Arc<EpochStore>,
    tree: Tree,
    particles: Vec<Particle>,
    clients: Vec<ServeClient>,
    generate_s: f64,
    build_s: f64,
    publish_s: f64,
    total_s: f64,
}

/// Initial conditions, first epoch, listening server, connected clients, and
/// one answered query on each connection.
fn set_up(n: usize, seed: u64, sock: &Path, rep: u64, tr: &mut Tracer) -> std::io::Result<Service> {
    let all = tr.open("spine.setup", rep);
    let (particles, generate_s) = tr.scope("geom.generate", rep, || initial_conditions(n, seed));
    let (tree, build_s) = tr.scope("tree.build", rep, || {
        build(&particles, BuildParams::with_leaf_capacity(LEAF_CAPACITY))
    });
    let store = Arc::new(EpochStore::new());
    let (_, publish_s) = tr
        .scope("serve.publish", rep, || store.publish(tree.clone(), particles.clone(), ALPHA, EPS));
    let bind = tr.open("serve.bind", rep);
    let server = Server::bind_unix(
        sock,
        Arc::clone(&store),
        ServeConfig { workers: 1, ..ServeConfig::default() },
    )?;
    let mut clients: Vec<ServeClient> =
        (0..CLIENTS).map(|_| ServeClient::connect_unix(sock)).collect::<Result<_, _>>()?;
    tr.close(bind);
    // The first query on each connection pays the worker's lazy set-up
    // (evaluator buffers, first epoch pin), so it belongs here.
    let first = tr.open("serve.first_query", rep);
    let points = query_points(&mut SplitMix::new(seed, 0xF1), POINTS);
    for client in &mut clients {
        client.query(QueryKind::Field, KernelPrecision::F64, &points)?;
    }
    tr.close(first);
    let total_s = tr.close(all);
    Ok(Service { server, store, tree, particles, clients, generate_s, build_s, publish_s, total_s })
}

/// What one client saw during one closed-loop phase.
#[derive(Default)]
struct ClientLog {
    /// `(sent, latency_ms)` of every answered query.
    answered: Vec<(Instant, f64)>,
    attempted: u64,
    failed: u64,
}

fn closed_loop_client(client: &mut ServeClient, rng: &mut SplitMix, until: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    while Instant::now() < until {
        let points = query_points(rng, POINTS);
        let sent = Instant::now();
        let reply = client.query(QueryKind::Field, KernelPrecision::F64, &points);
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        log.attempted += 1;
        match reply {
            Ok(r) if r.samples.len() == points.len() => log.answered.push((sent, latency_ms)),
            _ => log.failed += 1,
        }
    }
    log
}

/// One closed-loop phase over the first `clients` connections; the calling
/// thread republishes the epoch meanwhile. Returns the logs, when the phase
/// began, and the publish times (ms).
fn closed_loop(
    svc: &mut Service,
    rngs: &mut [SplitMix],
    clients: usize,
    seconds: f64,
) -> (Vec<ClientLog>, Instant, Vec<f64>) {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let (store, tree, particles) = (&svc.store, &svc.tree, &svc.particles);
    let mut publish_ms = Vec::new();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = svc.clients[..clients]
            .iter_mut()
            .zip(rngs.iter_mut())
            .map(|(client, rng)| s.spawn(move || closed_loop_client(client, rng, until)))
            .collect();
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left.min(REPUBLISH));
            let (t, p) = (tree.clone(), particles.clone());
            let t0 = Instant::now();
            store.publish(t, p, ALPHA, EPS);
            publish_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect::<Vec<_>>()
    });
    (logs, start, publish_ms)
}

fn latencies(logs: &[ClientLog]) -> Vec<f64> {
    logs.iter().flat_map(|l| l.answered.iter().map(|&(_, ms)| ms)).collect()
}

/// Queries answered per second over each run of `RATE_BLOCK` consecutive
/// completions (both clients together).
fn block_rates(logs: &[ClientLog], start: Instant) -> Vec<f64> {
    let mut done_s: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.answered)
        .map(|&(sent, ms)| sent.duration_since(start).as_secs_f64() + ms / 1e3)
        .collect();
    done_s.sort_by(f64::total_cmp);
    done_s
        .windows(RATE_BLOCK + 1)
        .step_by(RATE_BLOCK)
        .map(|w| RATE_BLOCK as f64 / (w[RATE_BLOCK] - w[0]))
        .collect()
}

fn tally(out: &mut Outcome, logs: &[ClientLog]) {
    out.attempted += logs.iter().map(|l| l.attempted).sum::<u64>();
    out.failed += logs.iter().map(|l| l.failed).sum::<u64>();
}

/// Accuracy of served accelerations against the direct sum, on seeded
/// points through the wire.
fn served_force_err(svc: &mut Service, seed: u64, out: &mut Outcome) -> f64 {
    let points = query_points(&mut SplitMix::new(seed, 0xE44), ERR_TARGETS);
    let mut approx: Vec<Vec3> = Vec::with_capacity(points.len());
    for chunk in points.chunks(POINTS) {
        out.attempted += 1;
        match svc.clients[0].query(QueryKind::Field, KernelPrecision::F64, chunk) {
            Ok(r) if r.samples.len() == chunk.len() => {
                approx.extend(r.samples.iter().map(|s| s.acc))
            }
            _ => {
                out.failed += 1;
                return f64::INFINITY;
            }
        }
    }
    let targets = points.iter().map(|&(p, _)| (p, None));
    accuracy::err_vs_direct(&svc.particles, targets, &approx, EPS)
}

pub fn run(n: usize, args: &Args, dir: &Path, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    out.note(format!(
        "Plummer n={n}, 1 server worker, {CLIENTS} closed-loop clients (each waits for its reply), {POINTS} points per Field/F64 query, epoch republished every {} ms",
        REPUBLISH.as_millis()
    ));
    let sock = dir.join("serve.sock");
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut service = None;
    for rep in 0..reps {
        if let Some(Service { server, clients, .. }) = service.take() {
            drop(clients);
            server.stop();
        }
        match set_up(n, args.seed, &sock, rep as u64, tr) {
            Ok(s) => {
                setups.push(s.total_s);
                service = Some(s);
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.check("server set-up", false, format!("{e}"));
                return out;
            }
        }
    }
    let mut svc = service.expect("at least one set-up");
    let mut rngs: Vec<SplitMix> =
        (0..CLIENTS).map(|c| SplitMix::new(args.seed, 1 + c as u64)).collect();

    closed_loop(&mut svc, &mut rngs, CLIENTS, WARMUP_S);
    if args.trace {
        traced(args, &mut svc, &mut rngs, tr, &mut out);
    } else {
        let (logs, start, _) = closed_loop(&mut svc, &mut rngs, CLIENTS, args.seconds);
        tally(&mut out, &logs);
        let lat = latencies(&logs);
        let rates = block_rates(&logs, start);
        out.metric("setup_s", fastest(&setups));
        out.op_times("queries", &lat, args.seconds);
        out.metric("ops_per_s_p90", percentile(&rates, 0.90));
    }
    let err = served_force_err(&mut svc, args.seed, &mut out);
    out.check_force_err(err, "served points");

    let Service { server, clients, .. } = svc;
    drop(clients);
    let stats = server.stop();
    let c = stats.counters;
    out.check(
        "every accepted query answered",
        stats.queue_depth == 0 && c.rejected == 0,
        format!(
            "queue depth {} at shutdown, {} rejected, {} batches",
            stats.queue_depth, c.rejected, c.batches
        ),
    );
    if args.trace {
        out.metric("serve.batches", c.batches as f64);
        out.metric("serve.rejected", c.rejected as f64);
        out.metric("serve.queue_depth_peak", c.queue_depth_peak as f64);
        out.metric("serve.epoch_lag_max", c.epoch_lag_max as f64);
        out.metric("serve.epochs_retired", c.epochs_retired as f64);
        out.metric("obs.spans", tr.len() as f64);
    } else {
        out.metric("force_frac_err", err);
        out.metric("peak_rss_mb", sys::peak_rss_mb());
    }
    out
}

fn traced(
    args: &Args,
    svc: &mut Service,
    rngs: &mut [SplitMix],
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    // 1. Untraced reference, then the same loop with a span per query.
    let (logs, _, _) = closed_loop(svc, rngs, CLIENTS, 0.25 * args.seconds);
    tally(out, &logs);
    let untraced_p50 = median(&latencies(&logs));

    let phase = tr.open("serve.closed_loop", 0);
    let (logs, _, publish_ms) = closed_loop(svc, rngs, CLIENTS, 0.4 * args.seconds);
    let mut op = 0;
    for (lane, log) in logs.iter().enumerate() {
        for &(sent, ms) in &log.answered {
            op += 1;
            let t0 = tr.at(sent);
            tr.record("serve.query", op, lane as u32, t0, t0 + ms / 1e3);
        }
    }
    tr.close(phase);
    tally(out, &logs);
    let lat = latencies(&logs);
    let traced_p50 = median(&lat);

    // 2. One client alone, then the engine in-process on the same batches:
    //    what is left of the round trip is wire, queue and codec.
    let mut rng = SplitMix::new(args.seed, 0x1C);
    let batches: Vec<Vec<QueryTarget>> = (0..64).map(|_| query_points(&mut rng, POINTS)).collect();
    let mut alone_ms = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while alone_ms.len() < 16 || start.elapsed().as_secs_f64() < 0.15 * args.seconds {
        let batch = &batches[i % batches.len()];
        i += 1;
        out.attempted += 1;
        let (reply, s) = tr.scope("serve.query_alone", i as u64, || {
            svc.clients[0].query(QueryKind::Field, KernelPrecision::F64, batch)
        });
        match reply {
            Ok(r) if r.samples.len() == batch.len() => alone_ms.push(s * 1e3),
            _ => out.failed += 1,
        }
    }
    let epoch = TreeEpoch::standalone(0, svc.tree.clone(), svc.particles.clone(), ALPHA, EPS);
    let mut engine = FieldQuery::new(ServeConfig::default().group_size);
    let mut samples = Vec::new();
    let mut engine_ms = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let (_, s) = tr.scope("serve.engine_eval", i as u64, || {
            engine.eval(&epoch, batch, KernelPrecision::F64, &mut samples)
        });
        engine_ms.push(s * 1e3);
    }

    // 3. Codec round trip of one query and its reply.
    let request = QueryRequest {
        id: 1,
        kind: QueryKind::Field,
        precision: KernelPrecision::F64,
        points: batches[0].clone(),
    };
    let codec_us: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let q = encode_query(black_box(&request));
            let r = decode_reply(&encode_reply(1, 1, black_box(&samples)));
            black_box((q, r.is_ok()));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();

    out.note(format!(
        "{} traced queries (highest percentile with ten samples beyond it: {}), {} alone, {} engine batches",
        lat.len(),
        reportable_tail(lat.len()).map_or("none".into(), |q| format!("p{}", q * 100.0)),
        alone_ms.len(),
        engine_ms.len()
    ));
    out.metric("geom.generate_ms", svc.generate_s * 1e3);
    out.metric("tree.build_ms", svc.build_s * 1e3);
    out.metric("tree.nodes", svc.tree.len() as f64);
    out.metric("tree.nodes_built_per_s", svc.tree.len() as f64 / svc.build_s);
    out.metric("serve.engine_points_per_s", POINTS as f64 / (median(&engine_ms) / 1e3));
    out.metric("serve.wire_overhead_ms", median(&alone_ms) - median(&engine_ms));
    out.metric("serve.codec_us", median(&codec_us));
    out.metric(
        "serve.publish_ms",
        if publish_ms.is_empty() { svc.publish_s * 1e3 } else { median(&publish_ms) },
    );
    out.metric("serve.query_ms_p90", percentile(&lat, 0.90));
    out.metric("serve.query_ms_p99", percentile(&lat, 0.99));
    out.trace_overhead(traced_p50, untraced_p50);
}
