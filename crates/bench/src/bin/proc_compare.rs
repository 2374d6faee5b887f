//! Simulator-vs-reality comparison: run each formulation on the virtual
//! machine model *and* over real OS processes, same IC and seed, and gate
//! on how far the predicted per-phase shares land from the measured ones.
//!
//! ```text
//! cargo run --release -p bhut-bench --bin proc_compare -- \
//!     [--scheme spsa|spda|dpda|all] [--ranks 4] [--n 5000] [--steps 3] \
//!     [--out results/proc_compare.json] [--baseline results/proc_compare.json] \
//!     [--force-tol 1e-12] [--max-share-error 0.40] [--headroom 0.20]
//! ```
//!
//! Three gates per scheme, reported through one [`GateTable`]:
//!
//! 1. **Force equivalence** — every per-particle acceleration and potential
//!    from the multi-process run must sit within `--force-tol` of the
//!    single-process reference (the replicated-tree design makes the match
//!    bitwise, so the observed error is 0).
//! 2. **Prediction error cap** — the largest absolute difference between
//!    predicted and measured canonical phase shares must stay under
//!    `--max-share-error`.
//! 3. **Baseline envelope** — with `--baseline`, each scheme's prediction
//!    error may not exceed the committed baseline's by more than
//!    `--headroom` share points (a missing baseline is a hard failure).
//!
//! The child ranks of the real run re-execute this binary: [`maybe_child`]
//! is the first statement of `main`, so a rank environment diverts straight
//! into the step loop.

use bhut_bench::cli::Cli;
use bhut_bench::gate::{parse_baseline, require_baseline, GateTable};
use bhut_core::balance::Scheme;
use bhut_core::driver::{ParallelSim, SimConfig};
use bhut_geom::{plummer, PlummerSpec};
use bhut_machine::{CostModel, Hypercube, Machine, PhaseShares};
use bhut_obs::StepProfile;
use bhut_proc::{local_mesh, maybe_child, run_rank, Launcher, ProcConfig, RunResult};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize, Deserialize, Clone)]
struct SchemeComparison {
    scheme: String,
    ranks: usize,
    n: usize,
    steps: usize,
    /// Phase shares predicted by the virtual-clock simulator.
    predicted: PhaseShares,
    /// Phase shares measured across the real ranks' merged profiles.
    measured: PhaseShares,
    /// Per-group |predicted - measured| in `bhut_machine::GROUPS` order.
    share_errors: [f64; 4],
    /// The gated metric: max over the four groups.
    max_share_error: f64,
    /// Max |multi-process - single-process| over accelerations + potentials.
    force_max_abs_err: f64,
    wall_s: f64,
    messages: u64,
    words: u64,
}

#[derive(Serialize, Deserialize)]
struct ProcCompareReport {
    benchmark: String,
    distribution: String,
    ranks: usize,
    n: usize,
    steps: usize,
    schemes: Vec<SchemeComparison>,
}

struct Args {
    schemes: Vec<Scheme>,
    ranks: usize,
    n: usize,
    steps: usize,
    out: PathBuf,
    baseline: Option<PathBuf>,
    force_tol: f64,
    max_share_error: f64,
    headroom: f64,
    timeout_s: u64,
}

const USAGE: &str = "usage: proc_compare [--scheme spsa|spda|dpda|all] [--ranks N] [--n N] \
    [--steps N] [--out FILE] [--baseline FILE] [--force-tol F] [--max-share-error F] \
    [--headroom F] [--timeout-s N]";

fn parse_args() -> Args {
    let mut args = Args {
        schemes: vec![Scheme::Spsa, Scheme::Spda, Scheme::Dpda],
        ranks: 4,
        n: 5_000,
        steps: 3,
        out: PathBuf::from("results/proc_compare.json"),
        baseline: None,
        force_tol: 1e-12,
        max_share_error: 0.40,
        headroom: 0.20,
        timeout_s: 120,
    };
    let mut cli = Cli::from_env(USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--scheme" => args.schemes = cli.schemes("--scheme"),
            "--ranks" => args.ranks = cli.parse("--ranks"),
            "--n" => args.n = cli.parse("--n"),
            "--steps" => args.steps = cli.parse("--steps"),
            "--out" => args.out = PathBuf::from(cli.value("--out")),
            "--baseline" => args.baseline = Some(PathBuf::from(cli.value("--baseline"))),
            "--force-tol" => args.force_tol = cli.parse("--force-tol"),
            "--max-share-error" => args.max_share_error = cli.parse("--max-share-error"),
            "--headroom" => args.headroom = cli.parse("--headroom"),
            "--timeout-s" => args.timeout_s = cli.parse("--timeout-s"),
            other => cli.fail(format!("unknown argument {other:?}")),
        }
    }
    args
}

fn proc_config(scheme: Scheme, args: &Args) -> ProcConfig {
    ProcConfig { scheme, n: args.n, steps: args.steps, ..ProcConfig::default() }
}

/// Simulator prediction: one warmed-up iteration on a `ranks`-processor
/// hypercube with the same scheme parameters the real ranks use.
fn predict(scheme: Scheme, args: &Args) -> PhaseShares {
    let cfg = proc_config(scheme, args);
    let set = plummer(PlummerSpec { n: cfg.n, seed: cfg.seed, ..Default::default() });
    let machine = Machine::new(Hypercube::new(args.ranks), CostModel::ncube2());
    let mut sim = ParallelSim::new(
        machine,
        SimConfig {
            scheme,
            clusters_per_axis: cfg.grid_c,
            alpha: cfg.alpha,
            eps: cfg.eps,
            curve: cfg.curve,
            ..SimConfig::default()
        },
    );
    let _ = sim.run_iteration(&set.particles); // warm-up (§5.1 protocol)
    sim.run_iteration(&set.particles).phase_shares()
}

/// Measured shares across the steady-state steps of the merged profiles
/// (step 0 is skipped when there is a later step, mirroring the simulator's
/// warm-up iteration: first-touch tree allocation is not steady state).
fn measured_shares(merged: &[StepProfile], ranks: usize) -> PhaseShares {
    let steady: Vec<&StepProfile> =
        if merged.len() > 1 { merged[1..].iter().collect() } else { merged.iter().collect() };
    let mut combined = StepProfile::new(ranks);
    for prof in steady {
        for span in &prof.spans {
            combined.record(span.clone());
        }
    }
    PhaseShares::from_profile(&combined)
}

/// Max |multi - single| over every rank's last-step accelerations and
/// potentials, keyed by particle id against the `p = 1` reference.
fn force_error(reference: &[(u32, bhut_geom::Vec3, f64)], run: &RunResult) -> f64 {
    let by_id: BTreeMap<u32, &(u32, bhut_geom::Vec3, f64)> =
        reference.iter().map(|f| (f.0, f)).collect();
    let mut worst = 0.0f64;
    let mut seen = 0usize;
    for rank in &run.ranks {
        for (id, acc, pot) in &rank.forces {
            let (_, racc, rpot) = by_id.get(id).expect("reference force for owned particle");
            for d in [acc.x - racc.x, acc.y - racc.y, acc.z - racc.z, pot - rpot] {
                worst = worst.max(d.abs());
            }
            seen += 1;
        }
    }
    assert_eq!(seen, reference.len(), "every particle's force compared exactly once");
    worst
}

fn compare_scheme(scheme: Scheme, args: &Args) -> SchemeComparison {
    let cfg = proc_config(scheme, args);
    let name = format!("{scheme:?}").to_lowercase();

    let predicted = predict(scheme, args);

    // Single-process reference over the loopback transport: same code path
    // the children run, p = 1.
    let mut t = local_mesh(1).pop().expect("one endpoint");
    let reference = run_rank(&mut t, &cfg).expect("single-process reference");

    let launcher =
        Launcher { timeout: std::time::Duration::from_secs(args.timeout_s), ..Launcher::default() };
    let t0 = Instant::now();
    let run = launcher.run(args.ranks, &cfg).unwrap_or_else(|e| {
        eprintln!("proc_compare: {name} over {} processes failed: {e}", args.ranks);
        std::process::exit(1);
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let measured = measured_shares(&run.merged, args.ranks);
    let share_errors = predicted.abs_errors(&measured);
    let (messages, words) = run
        .merged
        .iter()
        .fold((0u64, 0u64), |(m, w), p| (m + p.totals.messages, w + p.totals.words));

    SchemeComparison {
        scheme: name,
        ranks: args.ranks,
        n: args.n,
        steps: args.steps,
        predicted,
        measured,
        share_errors,
        max_share_error: predicted.max_abs_error(&measured),
        force_max_abs_err: force_error(&reference.forces, &run),
        wall_s,
        messages,
        words,
    }
}

fn print_comparison(c: &SchemeComparison) {
    println!(
        "{} over {} processes: {:.2} s wall, {} msgs, {} words",
        c.scheme, c.ranks, c.wall_s, c.messages, c.words
    );
    println!("  {:<10} {:>10} {:>10} {:>8}", "group", "predicted", "measured", "|err|");
    for (i, group) in bhut_machine::phases::GROUPS.iter().enumerate() {
        println!(
            "  {:<10} {:>9.1}% {:>9.1}% {:>7.1}%",
            group,
            c.predicted.as_array()[i] * 100.0,
            c.measured.as_array()[i] * 100.0,
            c.share_errors[i] * 100.0
        );
    }
}

fn main() {
    maybe_child(); // child ranks of the real run divert into the step loop
    let args = parse_args();

    // Load the baseline up front so a missing file fails before the (slow)
    // runs rather than after them.
    let baseline: Option<ProcCompareReport> = args.baseline.as_ref().map(|path| {
        let text = require_baseline(
            path,
            "cargo run --release -p bhut-bench --bin proc_compare -- --out results/proc_compare.json",
        );
        parse_baseline(path, &text)
    });

    let mut gate = GateTable::new("proc-compare");
    gate.info("config", format!("ranks={} n={} steps={}", args.ranks, args.n, args.steps));

    let comparisons: Vec<SchemeComparison> =
        args.schemes.iter().map(|&s| compare_scheme(s, &args)).collect();

    for c in &comparisons {
        print_comparison(c);
        gate.check(
            &format!("{}: force vs single-process", c.scheme),
            format!("{:.1e}", c.force_max_abs_err),
            format!("<= {:.0e}", args.force_tol),
            c.force_max_abs_err <= args.force_tol,
        );
        gate.check(
            &format!("{}: max phase-share error", c.scheme),
            format!("{:.3}", c.max_share_error),
            format!("< {:.2}", args.max_share_error),
            c.max_share_error < args.max_share_error,
        );
        if let Some(base) = &baseline {
            match base.schemes.iter().find(|b| b.scheme == c.scheme) {
                Some(b) => {
                    let limit = b.max_share_error + args.headroom;
                    gate.check(
                        &format!("{}: error vs committed baseline", c.scheme),
                        format!("{:.3}", c.max_share_error),
                        format!("<= {:.3}", limit),
                        c.max_share_error <= limit,
                    );
                }
                None => {
                    gate.check(
                        &format!("{}: present in baseline", c.scheme),
                        "missing".to_string(),
                        "required".to_string(),
                        false,
                    );
                }
            }
        }
    }

    let report = ProcCompareReport {
        benchmark: "proc_compare".to_string(),
        distribution: "plummer".to_string(),
        ranks: args.ranks,
        n: args.n,
        steps: args.steps,
        schemes: comparisons,
    };
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    let json = serde_json::to_string(&report).expect("serialize report");
    bhut_sim::write_text_atomically(&args.out, &json).expect("write report");
    println!("wrote {}", args.out.display());

    gate.finish();
}
