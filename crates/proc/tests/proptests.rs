//! Property tests for the collective operations, for the decoding of the
//! configuration and the fault plan a child rank receives, and for the
//! checkpoint and snapshot files a resume reads back.
//!
//! The contract under test: a collective's result is a pure function of
//! the per-rank inputs — independent of thread scheduling, message arrival
//! order, and which rank reads the result. For floating-point reductions
//! that only holds because contributions are folded in fixed rank index
//! order; these tests pin it bitwise, under deliberately staggered rank
//! start-ups.

use bhut_geom::{Particle, ParticleSet, Vec3};
use bhut_obs::StepProfile;
use bhut_proc::ckpt::CkptStore;
use bhut_proc::collectives::{
    all_gather, all_reduce_sum_f64, barrier, broadcast, exchange, reduce_sum_f64,
};
use bhut_proc::{
    local_mesh, FaultAction, FaultKind, FaultMode, FaultPlan, FaultyTransport, ProcConfig,
    ProcError, Transport, Trigger,
};
use bhut_sim::snapshot::{load_checkpoint, load_snapshot, save_snapshot};
use proptest::prelude::*;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Duration;

/// splitmix64 — deterministic value synthesis from a proptest-chosen seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Per-rank value vectors whose sums actually round (irrational-ish
/// ratios at mixed magnitudes), so fold order matters.
fn inputs(seed: u64, p: usize, len: usize) -> Vec<Vec<f64>> {
    let mut s = seed;
    (0..p)
        .map(|_| {
            (0..len)
                .map(|_| {
                    let a = (splitmix(&mut s) % 2_000_003) as f64 - 1_000_001.0;
                    let b = (splitmix(&mut s) % 997) as f64 + 1.0;
                    let scale = 10f64.powi((splitmix(&mut s) % 13) as i32 - 6);
                    a / b * scale
                })
                .collect()
        })
        .collect()
}

/// Run one collective round over a loopback mesh. With `stagger`, ranks
/// start in reverse order with small per-rank delays, shuffling message
/// arrival orders relative to the unstaggered run.
fn reduce_round(vals: &[Vec<f64>], stagger: bool) -> Vec<Vec<f64>> {
    let p = vals.len();
    let handles: Vec<_> = local_mesh(p)
        .into_iter()
        .zip(vals.to_vec())
        .map(|(mut t, mine)| {
            std::thread::spawn(move || {
                if stagger {
                    let delay = ((t.size() - t.rank()) % 3) as u64;
                    std::thread::sleep(Duration::from_millis(delay));
                }
                all_reduce_sum_f64(&mut t, 7, &mine).expect("reduce")
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
}

/// One round of the collective selected by `which` (0..6).
fn one_round(t: &mut dyn Transport, which: usize, round: u8) -> Result<(), ProcError> {
    let (rank, p) = (t.rank(), t.size());
    match which {
        0 => {
            let payload = (rank == 0).then(|| vec![round; 3]);
            broadcast(t, 0, 20, payload).map(|_| ())
        }
        1 => all_gather(t, 21, &[rank as u8, round]).map(|_| ()),
        2 => all_reduce_sum_f64(t, 22, &[rank as f64 + round as f64]).map(|_| ()),
        3 => reduce_sum_f64(t, 0, 23, &[1.5 * rank as f64 + round as f64]).map(|_| ()),
        4 => {
            let bins: Vec<Vec<u8>> =
                (0..p).map(|to| vec![to as u8; (rank + round as usize) % 3]).collect();
            exchange(t, 24, &bins).map(|_| ())
        }
        _ => barrier(t, 25),
    }
}

/// Lower bound on point-to-point operations any single rank performs in one
/// round of collective `which` — broadcast leaves / reduce leaves do one,
/// the symmetric pairwise collectives do 2(p−1).
fn min_ops_per_round(which: usize, p: usize) -> u64 {
    match which {
        0 | 3 => 1,
        _ => 2 * (p as u64 - 1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Liveness under rank death: whichever collective is running, and at
    /// whatever operation position the victim dies inside the fixed-order
    /// fold, no rank ever hangs — the victim surfaces `Injected`, every
    /// causally-blocked survivor surfaces `PeerClosed`/`Timeout`, and any
    /// rank reporting success genuinely finished all its rounds (one-way
    /// senders, e.g. reduce leaves, may legitimately keep succeeding).
    #[test]
    fn every_collective_errors_never_hangs_when_a_rank_dies(
        seed: u64,
        p in 2usize..=4,
        which in 0usize..6,
        round_frac in 0u64..4,
    ) {
        const ROUNDS: u8 = 8;
        let victim = (seed % p as u64) as usize;
        // An arbitrary op position inside the first 4 of 8 rounds, so the
        // kill always fires and survivors have rounds left to observe it.
        let per_round = min_ops_per_round(which, p);
        let kill_op = round_frac * per_round + (seed >> 32) % per_round;

        let handles: Vec<_> = local_mesh(p)
            .into_iter()
            .map(|mut t| {
                let actions = if t.rank() == victim {
                    vec![FaultAction {
                        rank: victim,
                        attempt: 0,
                        trigger: Trigger::Op(kill_op),
                        kind: FaultKind::Kill,
                    }]
                } else {
                    Vec::new()
                };
                std::thread::spawn(move || {
                    t.set_recv_timeout(Duration::from_millis(300));
                    let mut ft = FaultyTransport::new(t, FaultMode::Error, actions);
                    let mut completed = 0u8;
                    for round in 0..ROUNDS {
                        if let Err(e) = one_round(&mut ft, which, round) {
                            return (completed, Some(e));
                        }
                        completed += 1;
                    }
                    (completed, None)
                })
            })
            .collect();
        // Joining at all is the liveness property: a hung collective would
        // wedge the whole test binary here.
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().expect("no panic")).collect();

        match &outcomes[victim].1 {
            Some(ProcError::Injected(_)) => {}
            other => prop_assert!(false, "victim must die injected, got {other:?}"),
        }
        let mut survivors_errored = 0;
        for (rank, (completed, out)) in outcomes.iter().enumerate() {
            if rank == victim {
                continue;
            }
            match out {
                Some(ProcError::PeerClosed { .. }) | Some(ProcError::Timeout(_)) => {
                    survivors_errored += 1;
                }
                Some(other) => prop_assert!(false, "rank {rank}: wrong error class {other:?}"),
                None => prop_assert_eq!(
                    *completed, ROUNDS,
                    "rank {} stalled silently after {} rounds", rank, completed
                ),
            }
        }
        // Where a stronger guarantee than liveness holds, pin it: every
        // rank that *receives from* the victim each round must starve.
        // (Buffered sends are fire-and-forget, so a broadcast root or a
        // reduce leaf may legitimately finish all rounds past a dead
        // counterparty.)
        match which {
            1 | 2 | 4 | 5 => {
                // Symmetric pairwise collectives: everyone receives from
                // everyone, so no survivor can outrun the death.
                prop_assert_eq!(
                    survivors_errored,
                    p - 1,
                    "collective {} let a survivor run past a dead rank", which
                );
            }
            0 if victim == 0 => {
                // Dead broadcast root: every leaf starves.
                prop_assert_eq!(survivors_errored, p - 1, "leaves ran past a dead root");
            }
            3 if victim != 0 => {
                // Reduce root consumes the dead leaf's contribution.
                prop_assert!(outcomes[0].1.is_some(), "reduce root ran past a dead leaf");
            }
            _ => {}
        }
    }

    /// all-reduce is bitwise rank-order independent: every rank sees the
    /// same bits, staggered and unstaggered runs agree, and both equal the
    /// serial rank-index-order fold.
    #[test]
    fn all_reduce_is_rank_order_independent(seed: u64, p in 2usize..=5, len in 1usize..6) {
        let vals = inputs(seed, p, len);
        let mut serial = vec![0.0f64; len];
        for rank_vals in &vals {
            for (acc, v) in serial.iter_mut().zip(rank_vals) {
                *acc += *v;
            }
        }
        let plain = reduce_round(&vals, false);
        let staggered = reduce_round(&vals, true);
        for view in plain.iter().chain(&staggered) {
            prop_assert_eq!(view.len(), len);
            for (got, want) in view.iter().zip(&serial) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    /// all-gather delivers every contribution rank-indexed, and the
    /// pairwise exchange routes bin (i → j) exactly to j, regardless of
    /// payload sizes (including empty bins).
    #[test]
    fn gather_and_exchange_route_by_rank(seed: u64, p in 2usize..=5) {
        let mut s = seed;
        let payloads: Vec<Vec<u8>> = (0..p)
            .map(|_| {
                let len = (splitmix(&mut s) % 64) as usize;
                (0..len).map(|_| splitmix(&mut s) as u8).collect()
            })
            .collect();
        let expect = payloads.clone();
        let handles: Vec<_> = local_mesh(p)
            .into_iter()
            .zip(payloads)
            .map(|(mut t, mine)| {
                std::thread::spawn(move || {
                    let gathered = all_gather(&mut t, 8, &mine).expect("gather");
                    let rank = t.rank();
                    let bins: Vec<Vec<u8>> =
                        (0..t.size()).map(|to| vec![rank as u8; to]).collect();
                    let received = exchange(&mut t, 9, &bins).expect("exchange");
                    (gathered, received)
                })
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            let (gathered, received) = h.join().expect("rank panicked");
            prop_assert_eq!(&gathered, &expect);
            for (from, bin) in received.iter().enumerate() {
                if from == rank {
                    prop_assert!(bin.is_empty());
                } else {
                    prop_assert_eq!(bin, &vec![from as u8; rank]);
                }
            }
        }
    }
}

/// The fields `ProcConfig::decode` knows, and one it does not.
const KEYS: [&str; 13] = [
    "scheme",
    "n",
    "steps",
    "dt",
    "seed",
    "alpha",
    "eps",
    "grid_c",
    "curve",
    "ckpt_every",
    "resume",
    "ckpt_dir",
    "bogus",
];

/// What a hostile value is made of: digits, hex letters, separators and a
/// multi-byte character.
const CHARS: [char; 12] = ['0', '1', '8', 'a', 'f', 'z', '-', '.', '=', ';', ' ', 'é'];

/// Float bit patterns the child would refuse or trip on, and ordinary ones.
const FLOATS: [f64; 8] =
    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, -0.0, f64::MIN_POSITIVE, 0.67];

/// One field's value, of a shape picked by `kind`.
fn value(kind: u8, bits: u64, garbage: &[u8]) -> String {
    match kind {
        // Any float bit pattern, or a named one.
        0 => format!("{bits:016x}"),
        1 => format!("{:016x}", FLOATS[bits as usize % FLOATS.len()].to_bits()),
        // Small integers (powers of two and not), and any u64.
        2 => (bits % 20).to_string(),
        3 => bits.to_string(),
        _ => garbage.iter().map(|&c| CHARS[c as usize % CHARS.len()]).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever `k=v;…` list reaches a child, decoding it returns `Ok` or
    /// `Err` without panicking, and an `Ok` holds only values the run can
    /// take: α finite and positive, the cluster grid's side a power of two.
    /// An `Ok` also survives the encode → decode hop bit for bit.
    #[test]
    fn any_field_list_decodes_without_panic_to_a_runnable_config(
        fields in prop::collection::vec(
            (0usize..KEYS.len(), 0u8..5, any::<u64>(), prop::collection::vec(any::<u8>(), 0..6)),
            0..8,
        ),
    ) {
        let text = fields
            .iter()
            .map(|(k, kind, bits, garbage)| format!("{}={}", KEYS[*k], value(*kind, *bits, garbage)))
            .collect::<Vec<_>>()
            .join(";");
        let decoded = std::panic::catch_unwind(|| ProcConfig::decode(&text))
            .map_err(|_| TestCaseError::fail(format!("decode panicked on {text:?}")))?;
        if let Ok(cfg) = decoded {
            prop_assert!(cfg.alpha.is_finite() && cfg.alpha > 0.0, "{text:?}: alpha {}", cfg.alpha);
            prop_assert!(cfg.grid_c.is_power_of_two(), "{text:?}: grid_c {}", cfg.grid_c);
            let again = ProcConfig::decode(&cfg.encode());
            prop_assert_eq!(again.map(|c| c.encode()), Ok(cfg.encode()), "{:?}", text);
        }
    }
}

/// The collectives a [`Trigger::Collective`] can name.
const COLLECTIVES: [&str; 6] =
    ["broadcast", "all_gather", "all_reduce", "reduce", "exchange", "barrier"];

/// What a hostile fault plan is made of: the encoding's own keys, separators
/// and keywords, numbers in and out of range, and a multi-byte character.
const PLAN_TOKENS: [&str; 26] = [
    "seed=",
    "|",
    ",",
    "rank=",
    "attempt=",
    "at=",
    "do=",
    "step:",
    "coll:",
    "op:",
    "kill",
    "wedge:",
    "delay:",
    "drop",
    "barrier",
    "0",
    "7",
    "4294967296",
    "18446744073709551616",
    "-1",
    "=",
    ":",
    "é",
    "",
    " ",
    "x",
];

/// The fields of one fault action: rank, attempt, shape (which trigger,
/// collective and kind), the trigger's count and the fault's milliseconds.
type ActionFields = (u8, u32, u16, u64, u64);

fn action_fields() -> impl Strategy<Value = ActionFields> {
    (any::<u8>(), any::<u32>(), any::<u16>(), any::<u64>(), any::<u64>())
}

/// One generated fault action from its drawn fields.
fn fault_action((rank, attempt, shape, value, ms): ActionFields) -> FaultAction {
    let shape = shape as usize;
    let trigger = match shape % 3 {
        0 => Trigger::Step(value),
        1 => Trigger::Collective {
            name: COLLECTIVES[shape / 3 % COLLECTIVES.len()].into(),
            nth: value,
        },
        _ => Trigger::Op(value),
    };
    let kind = match shape / 18 % 4 {
        0 => FaultKind::Kill,
        1 => FaultKind::WedgeRecv { ms },
        2 => FaultKind::Delay { ms },
        _ => FaultKind::DropSend,
    };
    FaultAction { rank: rank as usize, attempt, trigger, kind }
}

/// Decode `text` as a child rank would (a panic fails the case); an `Ok`
/// must survive the encode → decode hop unchanged.
fn decode_plan(text: &str) -> Result<(), TestCaseError> {
    if let Ok(plan) = FaultPlan::decode(text) {
        prop_assert_eq!(FaultPlan::decode(&plan.encode()), Ok(plan.clone()), "{:?}", text);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every plan the launcher can write survives the environment hop:
    /// `decode(encode(plan)) == plan`.
    #[test]
    fn fault_plans_round_trip_through_their_encoding(
        seed in any::<u64>(),
        actions in prop::collection::vec(action_fields(), 0..6),
    ) {
        let plan = FaultPlan { seed, actions: actions.into_iter().map(fault_action).collect() };
        prop_assert_eq!(FaultPlan::decode(&plan.encode()), Ok(plan.clone()));
    }

    /// Whatever string reaches a child as its fault plan — arbitrary token
    /// soup, or a valid encoding with bytes replaced, inserted or deleted —
    /// decodes to `Ok` or `Err` without panicking.
    #[test]
    fn any_fault_plan_text_decodes_without_panic(
        tokens in prop::collection::vec(0usize..PLAN_TOKENS.len(), 0..24),
        seed in any::<u64>(),
        action in action_fields(),
        edits in prop::collection::vec((any::<u16>(), 0u8..3, any::<u8>()), 1..6),
    ) {
        let soup: String = tokens.iter().map(|&t| PLAN_TOKENS[t]).collect();
        decode_plan(&soup)?;

        let plan = FaultPlan { seed, actions: vec![fault_action(action)] };
        let mut bytes = plan.encode().into_bytes();
        for (at, op, byte) in edits {
            let at = at as usize % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        decode_plan(&String::from_utf8_lossy(&bytes))?;
    }
}

#[path = "../src/scratch.rs"]
mod scratch;
use scratch::ScratchDir;

/// A fresh, empty scratch directory, removed when the guard drops.
fn scratch_dir(name: &str) -> ScratchDir {
    let dir = ScratchDir::new(&format!("proptest_{name}"));
    std::fs::create_dir_all(dir.path()).unwrap();
    dir
}

/// A handful of particles with ids, masses and coordinates of every sign
/// and magnitude the files spell out.
fn shard_particles(rank: u32) -> Vec<Particle> {
    (0..3)
        .map(|i| {
            let id = 3 * rank + i;
            let x = id as f64;
            Particle::new(id, 1.0 + x, Vec3::new(-x, 0.25 * x, 1e-7 * x), Vec3::new(x, -2.5, 0.0))
        })
        .collect()
}

/// The files the byte-level proptest starts from: one checkpoint shard as
/// [`CkptStore::write_shard`] writes it and one snapshot as
/// [`save_snapshot`] writes it (time and particles only: the v1 schema).
struct Pristine {
    shard: Vec<u8>,
    snapshot: Vec<u8>,
}

fn pristine() -> &'static Pristine {
    static FILES: OnceLock<Pristine> = OnceLock::new();
    FILES.get_or_init(|| {
        let dir = scratch_dir("pristine");
        let store = CkptStore::new(dir.path());
        store.write_shard(2, 1, 2, &shard_particles(1)).unwrap();
        let snap = dir.path().join("snap.json");
        save_snapshot(&snap, 1.5, &ParticleSet::new(shard_particles(0))).unwrap();
        Pristine {
            shard: std::fs::read(store.shard_path(2, 1, 2)).unwrap(),
            snapshot: std::fs::read(&snap).unwrap(),
        }
    })
}

/// What an edited byte is made of: mostly the bytes JSON and the
/// checkpoint marker are spelled with, sometimes any byte at all.
const JSON_BYTES: &[u8] = b"[]{}\":,.-+0123456789eEtrufalsn \n#";

fn edit_byte(b: u8) -> u8 {
    if b < 192 {
        JSON_BYTES[b as usize % JSON_BYTES.len()]
    } else {
        b
    }
}

/// Apply `edits` to `bytes`: replace, insert or delete one byte, or
/// truncate, at a position taken modulo the current length.
fn mutate(mut bytes: Vec<u8>, edits: &[(u16, u8, u8)]) -> Vec<u8> {
    for &(at, op, byte) in edits {
        let at = at as usize % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = edit_byte(byte),
            1 => bytes.insert(at, edit_byte(byte)),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {}
        }
    }
    bytes
}

/// Load `path` with `load`, failing the case if the loader panics; the
/// loader's own verdict is returned as whether it succeeded.
fn loads<T>(load: fn(&Path) -> std::io::Result<T>, path: &Path) -> Result<bool, TestCaseError> {
    std::panic::catch_unwind(|| load(path).is_ok())
        .map_err(|_| TestCaseError::fail(format!("loading {} panicked", path.display())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A checkpoint shard or a snapshot with bytes replaced, inserted or
    /// deleted, or cut short, loads to `Ok` or `Err` without panicking. An
    /// epoch with such a shard is reported complete only if the shard
    /// loads: `latest_complete_epoch` falls back to the pristine epoch
    /// before it otherwise.
    #[test]
    fn damaged_checkpoints_and_snapshots_load_or_err_and_never_complete_an_epoch(
        edits in prop::collection::vec((any::<u16>(), 0u8..4, any::<u8>()), 1..8),
    ) {
        // Epoch 1 complete, epoch 2 missing only the shard this case damages.
        let scratch = scratch_dir("damaged");
        let dir = scratch.path();
        let store = CkptStore::new(dir.join("ckpt"));
        for rank in 0..2 {
            store.write_shard(1, rank, 2, &shard_particles(rank as u32)).unwrap();
        }
        store.write_shard(2, 0, 2, &shard_particles(0)).unwrap();
        let files = pristine();
        let damaged = store.shard_path(2, 1, 2);
        std::fs::write(&damaged, mutate(files.shard.clone(), &edits)).unwrap();

        let shard_loads = loads(load_checkpoint, &damaged)?;
        let latest = std::panic::catch_unwind(|| store.latest_complete_epoch())
            .map_err(|_| TestCaseError::fail("latest_complete_epoch panicked"))?;
        prop_assert_eq!(latest, Some((if shard_loads { 2 } else { 1 }, 2)));
        if let Some((epoch, of)) = latest {
            for rank in 0..of {
                prop_assert!(load_checkpoint(&store.shard_path(epoch, rank, of)).is_ok());
            }
        }

        let snap = dir.join("snap.json");
        std::fs::write(&snap, mutate(files.snapshot.clone(), &edits)).unwrap();
        loads(load_snapshot, &snap)?;
    }
}

/// Every reader of the vendored JSON parser refuses input nested past its
/// depth bound with an `Err`: a run of open brackets, read by recursion
/// with no bound, would overflow the stack and abort the process instead.
#[test]
fn deep_nesting_is_an_error_for_every_json_reader() {
    let scratch = scratch_dir("deep");
    let dir = scratch.path();
    let marker = bhut_sim::snapshot::CHECKPOINT_MARKER;
    for text in ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)] {
        assert!(StepProfile::from_json(&text).is_err());
        let snap = dir.join("deep.json");
        std::fs::write(&snap, &text).unwrap();
        assert!(load_snapshot(&snap).is_err());
        let ckpt = dir.join("deep.ckpt");
        std::fs::write(&ckpt, text + marker).unwrap();
        assert!(load_checkpoint(&ckpt).is_err());
    }
}
