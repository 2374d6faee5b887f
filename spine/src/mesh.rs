//! The mesh workload: two real OS processes running the DPDA formulation
//! over the Unix-socket rank mesh, launched and collected by
//! `bhut_proc::Launcher`. The only workload in which exchange, balance and
//! migration run; the ranks are this same executable (`maybe_child` is the
//! first call in `main`).

use crate::accuracy::{self, bits};
use crate::catalog::SETUP_REPS;
use crate::gen::initial_conditions;
use crate::stats::{fastest, median};
use crate::trace::Tracer;
use crate::{sys, Args, Outcome};
use bhut_core::balance::Scheme;
use bhut_geom::{Particle, Vec3};
use bhut_obs::{phase, StepProfile};
use bhut_proc::wire::{decode_particles, encode_particles};
use bhut_proc::{local_mesh, run_rank, Launcher, ProcConfig, RankOutcome, RunResult};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const RANKS: usize = 2;
const MIN_STEPS: usize = 4;

/// Size and seed of the run; every launch derives its config from these.
#[derive(Clone, Copy)]
struct Mesh {
    n: usize,
    seed: u64,
}

impl Mesh {
    fn config(self, steps: usize) -> ProcConfig {
        ProcConfig {
            scheme: Scheme::Dpda,
            n: self.n,
            steps,
            seed: self.seed,
            ..ProcConfig::default()
        }
    }
}

fn launcher() -> Launcher {
    Launcher { timeout: Duration::from_secs(150), ..Launcher::default() }
}

/// Final state and last-step forces of a run, by particle id.
fn by_id(ranks: &[RankOutcome]) -> (BTreeMap<u32, Particle>, BTreeMap<u32, (Vec3, f64)>) {
    let mut state = BTreeMap::new();
    let mut forces = BTreeMap::new();
    for r in ranks {
        state.extend(r.owned.iter().map(|p| (p.id, *p)));
        forces.extend(r.forces.iter().map(|&(id, acc, phi)| (id, (acc, phi))));
    }
    (state, forces)
}

/// Whether two runs ended in the same state with the same forces, bit for bit.
fn same_outcome(n: usize, a: &[RankOutcome], b: &[RankOutcome]) -> bool {
    let ((sa, fa), (sb, fb)) = (by_id(a), by_id(b));
    sa.len() == n
        && sa.len() == sb.len()
        && fa.len() == fb.len()
        && sa.iter().zip(&sb).all(|((ia, pa), (ib, pb))| {
            ia == ib && bits(pa.pos) == bits(pb.pos) && bits(pa.vel) == bits(pb.vel)
        })
        && fa.iter().zip(&fb).all(|((ia, (aa, pa)), (ib, (ab, pb)))| {
            ia == ib && bits(*aa) == bits(*ab) && pa.to_bits() == pb.to_bits()
        })
}

/// The zero-communication reference: the same rank loop on a one-endpoint
/// loopback mesh, in this process.
fn run_alone(cfg: &ProcConfig) -> Result<RankOutcome, String> {
    let mut mesh = local_mesh(1);
    run_rank(&mut mesh[0], cfg).map_err(|e| format!("{e}"))
}

fn step_walls_ms(profiles: &[StepProfile]) -> Vec<f64> {
    profiles.iter().map(|p| p.wall_s * 1e3).collect()
}

/// Set-up checks: a 2-step mesh run against the loopback reference, and the
/// forces of the 1-step set-up launch `one` (evaluated on the initial
/// conditions) against the direct sum. Returns the error and a step-time
/// estimate.
fn verify(
    mesh_of: Mesh,
    one: &RunResult,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Option<(f64, f64)> {
    let Mesh { n, seed } = mesh_of;
    let two = mesh_of.config(2);
    let (mesh, _) = tr.scope("proc.launch_verify", 0, || launcher().run(RANKS, &two));
    let (alone, _) = tr.scope("proc.p1_verify", 0, || run_alone(&two));
    out.attempted += 1;
    let (mesh, alone) = match (mesh, alone) {
        (Ok(m), Ok(a)) => (m, a),
        (m, a) => {
            out.failed += 1;
            out.check(
                "mesh == single rank",
                false,
                format!("mesh: {:?}; alone: {:?}", m.err().map(|e| e.to_string()), a.err()),
            );
            return None;
        }
    };
    out.check(
        "mesh == single rank",
        same_outcome(n, &mesh.ranks, std::slice::from_ref(&alone)),
        format!("state and forces of {RANKS} ranks bitwise equal to run_rank on local_mesh(1) after 2 steps, n={n}"),
    );

    // The ranks sample the same Plummer sphere from `ProcConfig.seed`.
    let ic = initial_conditions(n, seed);
    let (_, forces) = by_id(&one.ranks);
    let ids = accuracy::particle_targets(seed, n);
    let approx: Vec<Vec3> =
        ids.iter().map(|&i| forces.get(&(i as u32)).map_or(Vec3::ZERO, |f| f.0)).collect();
    let targets = ids.iter().map(|&i| (ic[i].pos, Some(ic[i].id)));
    let err = accuracy::err_vs_direct(&ic, targets, &approx, two.eps);
    out.check_force_err(err, "particles of the initial conditions");
    Some((err, median(&step_walls_ms(&mesh.merged)) / 1e3))
}

/// Launch `steps` steps; a failed launch fails every step and rank of it.
fn launch(mesh: Mesh, steps: usize, tr: &mut Tracer, out: &mut Outcome) -> Option<RunResult> {
    out.attempted += (steps + RANKS) as u64;
    let (run, _) =
        tr.scope("proc.launch", steps as u64, || launcher().run(RANKS, &mesh.config(steps)));
    match run {
        Ok(r) if r.merged.len() == steps && r.ranks.len() == RANKS => Some(r),
        Ok(r) => {
            out.failed += (steps + RANKS) as u64;
            out.check(
                "mesh run complete",
                false,
                format!("{} of {steps} steps reported", r.merged.len()),
            );
            None
        }
        Err(e) => {
            out.failed += (steps + RANKS) as u64;
            out.check("mesh run complete", false, format!("{e}"));
            None
        }
    }
}

pub fn run(n: usize, args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mesh = Mesh { n, seed: args.seed };
    let inherited_children_mb = sys::children_peak_rss_mb();
    out.note(format!("Plummer n={n}, {RANKS} ranks as OS processes over Unix sockets, scheme DPDA, dt=1e-3, alpha=0.67"));

    // Set-up: spawn the ranks, connect the mesh, sample and broadcast the
    // initial conditions, carve the first costzones, take the first step —
    // a one-step run.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut one = None;
    for rep in 0..reps {
        out.attempted += 1;
        let (r, s) = tr.scope("spine.setup", rep as u64, || launcher().run(RANKS, &mesh.config(1)));
        match r {
            Ok(r) => one = Some(r),
            Err(e) => {
                out.failed += 1;
                out.check("mesh set-up", false, format!("{e}"));
                return out;
            }
        }
        setups.push(s);
    }
    let one = one.expect("at least one set-up");
    let Some((err, step_s)) = verify(mesh, &one, tr, &mut out) else { return out };

    if args.trace {
        traced(mesh, args, step_s, tr, &mut out);
        return out;
    }
    // The verification steps run cold and overestimate a step, so a short
    // first launch measures the pace and a second one fills `--seconds`.
    let start = Instant::now();
    let first = ((0.25 * args.seconds / step_s).round() as usize).max(MIN_STEPS);
    let Some(run) = launch(mesh, first, tr, &mut out) else { return out };
    let mut walls = step_walls_ms(&run.merged);
    let left_s = args.seconds - start.elapsed().as_secs_f64();
    let second = ((left_s / (median(&walls) / 1e3)).round().max(0.0) as usize).max(MIN_STEPS);
    let Some(run) = launch(mesh, second, tr, &mut out) else { return out };
    walls.extend(step_walls_ms(&run.merged));
    out.metric("setup_s", fastest(&setups));
    let p10 = out.op_times("mesh steps in two launches", &walls, walls.iter().sum::<f64>() / 1e3);
    // One step at a time: the rate of the best tenth is the p10 time inverted.
    out.metric("ops_per_s_p90", 1e3 / p10);
    out.metric("force_frac_err", err);
    // The largest process of the run: this one, or a rank it reaped.
    let ranks_mb = sys::children_peak_rss_mb();
    let ranks_mb = if ranks_mb > inherited_children_mb { ranks_mb } else { 0.0 };
    out.metric("peak_rss_mb", sys::peak_rss_mb().max(ranks_mb));
    out
}

fn traced(mesh: Mesh, args: &Args, step_s: f64, tr: &mut Tracer, out: &mut Outcome) {
    // Half the steps of an untraced run: the single-rank reference below
    // takes about twice as long per step.
    let steps = ((0.4 * args.seconds / step_s).round() as usize).max(MIN_STEPS);
    let Some(run) = launch(mesh, steps, tr, out) else { return };
    let cfg = mesh.config(steps);
    let (alone, _) = tr.scope("proc.p1_run", steps as u64, || run_alone(&cfg));
    let alone = match alone {
        Ok(a) => a,
        Err(e) => {
            out.check("single-rank reference", false, e);
            return;
        }
    };
    out.check(
        "mesh == single rank",
        same_outcome(mesh.n, &run.ranks, std::slice::from_ref(&alone)),
        format!("bitwise after {steps} steps"),
    );

    let mesh_s: f64 = run.merged.iter().map(|p| p.wall_s).sum();
    let alone_s: f64 = alone.profiles.iter().map(|p| p.wall_s).sum();
    let share = |names: &[&str]| {
        let busy: f64 = run.merged.iter().flat_map(|p| &p.spans).map(|s| s.duration()).sum();
        let of: f64 = run
            .merged
            .iter()
            .flat_map(|p| &p.spans)
            .filter(|s| names.contains(&s.phase.as_str()))
            .map(|s| s.duration())
            .sum();
        of / busy
    };
    let messages: u64 = run.merged.iter().map(|p| p.totals.messages).sum();
    let words: u64 = run.merged.iter().map(|p| p.totals.words).sum();
    let counted = &run.merged[0].totals;

    // Wire codec on the whole particle set.
    let particles = initial_conditions(mesh.n, mesh.seed);
    let (mut enc_s, mut dec_s) = (Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    let mut round_trip = true;
    for op in 0..9 {
        let t = Instant::now();
        bytes = encode_particles(black_box(&particles));
        enc_s.push(t.elapsed().as_secs_f64());
        let (decoded, s) =
            tr.scope("wire.decode_particles", op, || decode_particles(black_box(&bytes)));
        dec_s.push(s);
        round_trip &= decoded.is_ok_and(|d| d == particles);
    }
    out.check(
        "wire round trip",
        round_trip,
        format!("{} particles, {} bytes", mesh.n, bytes.len()),
    );
    let mb = bytes.len() as f64 / 1e6;

    let walls = step_walls_ms(&run.merged);
    out.note(format!("{steps} mesh steps and {steps} single-rank steps; counts are from step 0"));
    out.metric("tree.mac_tests", counted.mac_tests as f64);
    out.metric("tree.interactions", counted.interactions() as f64);
    out.metric(
        "tree.mac_tests_per_interaction",
        counted.mac_tests as f64 / counted.interactions() as f64,
    );
    out.metric("proc.p1_run_s", alone_s);
    out.metric("proc.efficiency", alone_s / (RANKS as f64 * mesh_s));
    out.metric("proc.messages_per_step", messages as f64 / steps as f64);
    out.metric("proc.words_per_step", words as f64 / steps as f64);
    out.metric("proc.build_share", share(&[phase::BUILD]));
    out.metric("proc.exchange_share", share(&[phase::EXCHANGE]));
    out.metric("proc.force_share", share(&[phase::WALK, phase::KERNEL, phase::FORCE]));
    out.metric("proc.balance_share", share(&[phase::LOAD_BALANCE]));
    out.metric("wire.encode_mb_per_s", mb / median(&enc_s));
    out.metric("wire.decode_mb_per_s", mb / median(&dec_s));
    out.metric("obs.traced_op_ms_p50", median(&walls));
    out.metric("obs.spans", tr.len() as f64);
}
