//! Walk-vectorization and interaction-list-reuse benchmark, with bitwise
//! and speedup gates.
//!
//! ```text
//! cargo run --release -p bhut-bench --bin walk -- \
//!     [--n 100000] [--reps 7] [--threads 1] [--out results/walk.json] \
//!     [--min-step-speedup 1.3] [--baseline results/walk.json] \
//!     [--max-regression 1.5]
//! ```
//!
//! Three end-to-end force-evaluation legs on a Plummer model, best-of-reps:
//!
//! * `scalar_mac` — per-node MAC classification (`mac_batch: false`), the
//!   reference classifier and the speedup denominator (the lane-fused tail
//!   resolve is common to every leg);
//! * `simd_mac`  — batched sibling classification through the
//!   [`bhut_tree::GroupMac`] SIMD path (the default); its f64 forces must
//!   be **bitwise identical** to `scalar_mac`'s;
//! * `mixed_f32` — the batched walk with the direct-f32 gather filling the
//!   `MixedF32` mirrors during traversal.
//!
//! Then the block-substep cycle — the workload this whole optimization
//! aims at. One cycle is a synchronized full step (tree rebuild) followed
//! by [`SUBSTEPS_PER_CYCLE`] masked fine-rung substeps (1-in-4 particles
//! active), exactly the rhythm of `TimestepMode::Block`. The *pre* cycle
//! runs the legacy configuration end to end (scalar MAC, every substep
//! re-walks); the *post* cycle runs the vectorized walk with `list_reuse`
//! on, so fine substeps replay each leaf's frozen interaction list. The
//! headline `--min-step-speedup` gate holds the post/pre cycle wall-time
//! ratio; forces are checked bitwise identical between the two the entire
//! way.
//!
//! Gates (any failure exits nonzero after writing `--out`):
//! * `--min-step-speedup`: block-cycle speedup (pre vs post, end to end);
//! * `simd_mac` must not regress below 0.9x of `scalar_mac` end-to-end
//!   (noise margin for smoke sizes and force-scalar builds);
//! * bitwise identity of f64 forces across MAC paths, and of the replayed
//!   substep against a cache-free scalar-MAC walk of the same buckets
//!   (always on, no flag); the replay-vs-legacy bucket-choice drift (leaf
//!   cell vs tight member box changes a few MAC decisions) must stay far
//!   below the method's own truncation error;
//! * list-reuse hit rate ≥ 0.5 on the masked substep;
//! * `--baseline`: the `simd_mac` step time must not regress by more than
//!   `--max-regression` against the committed report.

use bhut_bench::gate::{parse_baseline, require_baseline, GateTable};
use bhut_geom::{plummer, PlummerSpec};
use bhut_obs::{phase, StepProfile};
use bhut_threads::{EvalMode, ForceResult, Partitioning, ThreadConfig, ThreadSim};
use bhut_timestep::ActiveSet;
use bhut_tree::KernelPrecision;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

const ALPHA: f64 = 0.67;
const EPS: f64 = 1e-4;
/// Masked-substep density for the reuse leg: 1 in `ACTIVE_STRIDE` active.
const ACTIVE_STRIDE: usize = 4;
/// Fine-rung substeps per synchronized step in the block-cycle metric
/// (a `max_rung: 2` block schedule averages this many masked substeps per
/// full rebuild).
const SUBSTEPS_PER_CYCLE: usize = 3;

#[derive(Serialize, Deserialize)]
struct LegReport {
    leg: String,
    /// Best-of-reps wall seconds for one full force evaluation.
    best_s: f64,
    build_s: f64,
    walk_s: f64,
    kernel_s: f64,
    scatter_s: f64,
    mac_tests: u64,
    interactions: u64,
    /// End-to-end speedup over the scalar_mac leg (1.0 for that row).
    step_speedup: f64,
}

#[derive(Serialize, Deserialize)]
struct ReuseReport {
    /// Fraction of particles active in the masked substep.
    active_fraction: f64,
    /// Best-of-reps masked-substep seconds on the legacy path (scalar MAC,
    /// no cache: every substep re-walks).
    rewalk_best_s: f64,
    /// Best-of-reps masked-substep seconds on the vectorized path replaying
    /// cached lists.
    replay_best_s: f64,
    /// `rewalk_best_s / replay_best_s`.
    substep_speedup: f64,
    /// Fine substeps per synchronized step in the cycle metric.
    substeps_per_cycle: usize,
    /// Legacy block cycle: scalar_mac full step + substeps, wall seconds.
    cycle_pre_s: f64,
    /// Vectorized block cycle: simd_mac full step + replayed substeps.
    cycle_post_s: f64,
    /// `cycle_pre_s / cycle_post_s` — the headline gated speedup.
    cycle_speedup: f64,
    /// Cache hit rate over the replayed substep's leaves.
    list_hit_rate: f64,
    /// Bytes the per-thread caches held after the replayed substep.
    list_bytes: u64,
    /// Largest relative acceleration difference between the replayed
    /// substep and the legacy tight-bucket rewalk. The cached path walks
    /// the leaf cell, the legacy path the tight member box, so the two MAC
    /// decision sets — and hence the truncation errors — differ slightly;
    /// both are valid Barnes-Hut approximations of the same accuracy class.
    bucket_rel_err: f64,
}

#[derive(Serialize, Deserialize)]
struct Report {
    benchmark: String,
    distribution: String,
    n: usize,
    threads: usize,
    reps: usize,
    alpha: f64,
    eps: f64,
    rows: Vec<LegReport>,
    reuse: ReuseReport,
    /// Process peak RSS (MiB) at report time; 0 off Linux.
    peak_rss_mb: f64,
}

struct Args {
    n: usize,
    reps: usize,
    threads: usize,
    out: PathBuf,
    min_step_speedup: f64,
    baseline: Option<PathBuf>,
    max_regression: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 100_000,
        reps: 7,
        threads: 1,
        out: PathBuf::from("results/walk.json"),
        min_step_speedup: 0.0,
        baseline: None,
        max_regression: 1.5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("missing value for {name}"));
        match arg.as_str() {
            "--n" => args.n = val("--n").parse().expect("--n"),
            "--reps" => args.reps = val("--reps").parse().expect("--reps"),
            "--threads" => args.threads = val("--threads").parse().expect("--threads"),
            "--out" => args.out = PathBuf::from(val("--out")),
            "--min-step-speedup" => {
                args.min_step_speedup =
                    val("--min-step-speedup").parse().expect("--min-step-speedup")
            }
            "--baseline" => args.baseline = Some(PathBuf::from(val("--baseline"))),
            "--max-regression" => {
                args.max_regression = val("--max-regression").parse().expect("--max-regression")
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

fn executor(
    threads: usize,
    precision: KernelPrecision,
    mac_batch: bool,
    list_reuse: bool,
) -> ThreadSim {
    ThreadSim::new(ThreadConfig {
        threads,
        alpha: ALPHA,
        degree: 0,
        eps: EPS,
        leaf_capacity: 8,
        partitioning: Partitioning::MortonZones,
        eval_mode: EvalMode::Grouped,
        precision,
        mac_batch,
        list_reuse,
    })
}

/// Best-of-`reps` profiled full force evaluation; returns the best
/// repetition's profile, wall seconds, and the full result for bitwise
/// comparisons.
fn run_leg(
    set: &bhut_geom::ParticleSet,
    threads: usize,
    reps: usize,
    precision: KernelPrecision,
    mac_batch: bool,
) -> (StepProfile, f64, ForceResult) {
    let mut sim = executor(threads, precision, mac_batch, false);
    let mut best_s = f64::INFINITY;
    let mut best: Option<ForceResult> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = sim.compute_forces_profiled(&set.particles);
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(&out.accels);
        if dt < best_s {
            best_s = dt;
            best = Some(out);
        }
    }
    let mut out = best.expect("at least one repetition");
    let profile = out.profile.take().expect("profiled run yields a profile");
    (profile, best_s, out)
}

/// True iff the two results carry bit-for-bit equal accelerations and
/// potentials.
fn bitwise_equal(a: &ForceResult, b: &ForceResult) -> bool {
    a.accels.len() == b.accels.len()
        && a.accels.iter().zip(&b.accels).all(|(x, y)| {
            x.x.to_bits() == y.x.to_bits()
                && x.y.to_bits() == y.y.to_bits()
                && x.z.to_bits() == y.z.to_bits()
        })
        && a.potentials.len() == b.potentials.len()
        && a.potentials.iter().zip(&b.potentials).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Largest relative acceleration difference between two results (L∞ over
/// components, relative to the larger magnitude; exact zeros compare equal).
fn max_rel_accel_err(a: &ForceResult, b: &ForceResult) -> f64 {
    let mut worst: f64 = 0.0;
    for (x, y) in a.accels.iter().zip(&b.accels) {
        for (u, v) in [(x.x, y.x), (x.y, y.y), (x.z, y.z)] {
            let scale = u.abs().max(v.abs());
            if scale > 0.0 {
                worst = worst.max((u - v).abs() / scale);
            }
        }
    }
    worst
}

/// Time the masked substep on `sim`, best of `reps`, returning a profiled
/// repetition's result alongside. `reuse` is forwarded to the executor
/// (moot when the config has `list_reuse: false`).
fn run_substep(
    sim: &mut ThreadSim,
    particles: &[bhut_geom::Particle],
    active: &ActiveSet,
    reps: usize,
    reuse: bool,
) -> (f64, ForceResult) {
    let mut best_s = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = sim.compute_forces_substep(particles, active, false, reuse);
        best_s = best_s.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&out.accels);
    }
    let profiled = sim.compute_forces_substep(particles, active, true, reuse);
    (best_s, profiled)
}

/// Record the simd_mac step-time regression check against the committed
/// baseline. A missing or unparsable baseline is a hard failure (see `gate`).
fn check_baseline(path: &Path, current: &Report, max_regression: f64, gate: &mut GateTable) {
    let text = require_baseline(
        path,
        "cargo run --release -p bhut-bench --bin walk -- --out results/walk.json",
    );
    let baseline: Report = parse_baseline(path, &text);
    let row = |r: &Report| {
        r.rows.iter().find(|row| row.leg == "simd_mac").map(|row| row.best_s).unwrap_or(0.0)
    };
    let (was, now) = (row(&baseline), row(current));
    let ratio = if was > 0.0 { now / was } else { f64::INFINITY };
    println!(
        "baseline simd_mac step {:.1} ms, current {:.1} ms ({ratio:.2}x baseline)",
        was * 1e3,
        now * 1e3
    );
    gate.check(
        "simd_mac step time vs baseline",
        format!("{:.1} ms ({ratio:.2}x)", now * 1e3),
        format!("<= {max_regression:.2}x slower"),
        was > 0.0 && ratio <= max_regression,
    );
}

fn main() {
    let args = parse_args();
    let set = plummer(PlummerSpec { n: args.n, ..Default::default() });
    let n = set.particles.len();

    // --- End-to-end legs -------------------------------------------------
    let legs: [(&str, KernelPrecision, bool); 3] = [
        ("scalar_mac", KernelPrecision::F64, false),
        ("simd_mac", KernelPrecision::F64, true),
        ("mixed_f32", KernelPrecision::MixedF32, true),
    ];
    let mut rows: Vec<LegReport> = Vec::new();
    let mut scalar_best = f64::NAN;
    let mut kept: Vec<ForceResult> = Vec::new();
    for (leg, precision, mac_batch) in legs {
        let (profile, best_s, out) = run_leg(&set, args.threads, args.reps, precision, mac_batch);
        if leg == "scalar_mac" {
            scalar_best = best_s;
        }
        rows.push(LegReport {
            leg: leg.to_string(),
            best_s,
            build_s: profile.phase_total(phase::BUILD),
            walk_s: profile.phase_total(phase::WALK),
            kernel_s: profile.phase_total(phase::KERNEL),
            scatter_s: profile.phase_total(phase::SCATTER),
            mac_tests: profile.totals.mac_tests,
            interactions: out.stats.interactions(),
            step_speedup: scalar_best / best_s,
        });
        kept.push(out);
    }
    let mac_paths_bitwise = bitwise_equal(&kept[0], &kept[1]);

    // --- Block-substep cycle: legacy vs vectorized+reuse ------------------
    let active = ActiveSet::from_mask((0..n).map(|i| i % ACTIVE_STRIDE == 0).collect());
    // `warm` is the full post-PR configuration; `legacy` is the pre-PR walk
    // (per-node MAC classification, no caches, every substep re-walks).
    let mut warm = executor(args.threads, KernelPrecision::F64, true, true);
    let mut legacy = executor(args.threads, KernelPrecision::F64, false, false);
    // One synchronized step freezes the tree and (for `warm`) fills the
    // per-thread caches; the masked substeps that follow replay them.
    warm.compute_forces_substep(&set.particles, &ActiveSet::all(n), false, false);
    legacy.compute_forces_substep(&set.particles, &ActiveSet::all(n), false, false);
    let (replay_best_s, replay) = run_substep(&mut warm, &set.particles, &active, args.reps, true);
    let (rewalk_best_s, rewalk) =
        run_substep(&mut legacy, &set.particles, &active, args.reps, false);
    // Bitwise reference for the replay: a cache-*free* scalar-MAC walk down
    // the same leaf-cell bucket path (`list_reuse` on, budget 0, so every
    // leaf misses and walks fresh). This crosses the classify path
    // (SIMD vs scalar) and the replay-vs-fresh-walk split in one
    // comparison. The *legacy* rewalk is
    // deliberately not the reference: `gather_group` walks the tight member
    // bounding box while the cached path walks the leaf cell, a documented
    // ULP-level difference in summation that predates neither path being
    // wrong (see `gather_group_cached`).
    let mut reference = executor(args.threads, KernelPrecision::F64, false, true);
    reference.set_walk_cache_budget(0);
    reference.compute_forces_substep(&set.particles, &ActiveSet::all(n), false, false);
    let fresh = reference.compute_forces_substep(&set.particles, &active, false, true);
    let replay_bitwise = bitwise_equal(&replay, &fresh);
    let bucket_rel_err = max_rel_accel_err(&replay, &rewalk);
    let totals = &replay.profile.as_ref().expect("profiled substep").totals;
    // The cycle metric composes the already-measured full synchronized
    // steps (scalar_mac / simd_mac legs) with the masked substeps above.
    let cycle_pre_s = scalar_best + SUBSTEPS_PER_CYCLE as f64 * rewalk_best_s;
    let cycle_post_s = rows[1].best_s + SUBSTEPS_PER_CYCLE as f64 * replay_best_s;
    let reuse = ReuseReport {
        active_fraction: active.count() as f64 / n as f64,
        rewalk_best_s,
        replay_best_s,
        substep_speedup: rewalk_best_s / replay_best_s,
        substeps_per_cycle: SUBSTEPS_PER_CYCLE,
        cycle_pre_s,
        cycle_post_s,
        cycle_speedup: cycle_pre_s / cycle_post_s,
        list_hit_rate: totals.list_hit_rate(),
        list_bytes: totals.list_bytes,
        bucket_rel_err,
    };

    // --- Table ------------------------------------------------------------
    println!("walk bench n={} threads={} reps={}", args.n, args.threads, args.reps);
    println!(
        "  {:<11} {:>9} {:>9} {:>10} {:>9} {:>12} {:>8}",
        "leg", "total ms", "walk ms", "kernel ms", "mac", "interactions", "speedup"
    );
    for r in &rows {
        println!(
            "  {:<11} {:>9.1} {:>9.1} {:>10.1} {:>9} {:>12} {:>7.2}x",
            r.leg,
            r.best_s * 1e3,
            r.walk_s * 1e3,
            r.kernel_s * 1e3,
            r.mac_tests,
            r.interactions,
            r.step_speedup
        );
    }
    println!(
        "  list reuse: {:.0}% active substep {:.1} ms replayed vs {:.1} ms legacy re-walk \
         ({:.2}x, hit rate {:.0}%, {} KiB cached)",
        reuse.active_fraction * 100.0,
        reuse.replay_best_s * 1e3,
        reuse.rewalk_best_s * 1e3,
        reuse.substep_speedup,
        reuse.list_hit_rate * 100.0,
        reuse.list_bytes / 1024
    );
    println!(
        "  block cycle (1 full + {} substeps): {:.1} ms legacy vs {:.1} ms vectorized+reuse \
         ({:.2}x)",
        reuse.substeps_per_cycle,
        reuse.cycle_pre_s * 1e3,
        reuse.cycle_post_s * 1e3,
        reuse.cycle_speedup
    );

    let report = Report {
        benchmark: "walk".to_string(),
        distribution: "plummer".to_string(),
        n: args.n,
        threads: args.threads,
        reps: args.reps,
        alpha: ALPHA,
        eps: EPS,
        rows,
        reuse,
        peak_rss_mb: bhut_bench::rss::peak_rss_mb(),
    };

    // --- Gates ------------------------------------------------------------
    let mut gate = GateTable::new("walk");
    gate.info("config", format!("n={} threads={} reps={}", args.n, args.threads, args.reps));
    gate.info("peak_rss_mb", format!("{:.1}", report.peak_rss_mb));
    let cycle_speedup = report.reuse.cycle_speedup;
    gate.check(
        "block cycle end-to-end speedup",
        format!("{cycle_speedup:.2}x"),
        format!(">= {:.2}x", args.min_step_speedup),
        cycle_speedup >= args.min_step_speedup,
    );
    // Classification is a modest slice of the step, so this guards against
    // the batched path *regressing*, with margin for runner noise and for
    // force-scalar builds where the batch does the same scalar work (the
    // committed full-size measurement is 1.12x).
    let step_speedup = report.rows[1].step_speedup;
    gate.check(
        "simd_mac full-step speedup over scalar_mac",
        format!("{step_speedup:.2}x"),
        ">= 0.90x".to_string(),
        step_speedup >= 0.9,
    );
    gate.check(
        "f64 forces bitwise across MAC paths",
        if mac_paths_bitwise { "identical" } else { "DIVERGED" }.to_string(),
        "bitwise".to_string(),
        mac_paths_bitwise,
    );
    gate.check(
        "replayed substep bitwise vs cache-free scalar walk",
        if replay_bitwise { "identical" } else { "DIVERGED" }.to_string(),
        "bitwise".to_string(),
        replay_bitwise,
    );
    gate.check(
        "replay vs legacy bucket-choice drift",
        format!("{:.2e}", report.reuse.bucket_rel_err),
        "<= 1e-6".to_string(),
        report.reuse.bucket_rel_err <= 1e-6,
    );
    gate.check(
        "list reuse hit rate",
        format!("{:.2}", report.reuse.list_hit_rate),
        ">= 0.50".to_string(),
        report.reuse.list_hit_rate >= 0.5,
    );
    if let Some(p) = args.baseline.as_ref() {
        check_baseline(p, &report, args.max_regression, &mut gate);
    }

    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    let json = serde_json::to_string(&report).expect("serialize report");
    bhut_sim::write_text_atomically(&args.out, &json).expect("write report");
    println!("wrote {}", args.out.display());

    gate.finish();
}
