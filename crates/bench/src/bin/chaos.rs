//! Chaos gate: inject a fault into a real multi-process run, let the
//! supervisor recover it, and prove the recovered trajectory matches the
//! fault-free one.
//!
//! ```text
//! cargo run --release -p bhut-bench --bin chaos -- \
//!     [--scheme spsa|spda|dpda|all] [--ranks 4] [--n 5000] [--steps 3] \
//!     [--fault kill-at-step|wedge-read|none] [--fault-rank 1] [--fault-step 1] \
//!     [--mode respawn|degrade] [--ckpt-every 1] [--timeout-s 15] \
//!     [--out results/chaos.json] [--force-tol 1e-12]
//! ```
//!
//! Per scheme, through one [`GateTable`]:
//!
//! 1. **Recovery happened** — with a fault injected, the supervisor must
//!    record at least one respawn (the fault actually fired and was
//!    survived), and under `--mode degrade` the mesh must have shrunk.
//! 2. **State equivalence** — final per-particle positions/velocities vs
//!    the fault-free single-process reference: **bitwise** (max |err| = 0)
//!    for full-width respawn; within `--force-tol` for degraded
//!    continuation.
//! 3. **Force equivalence** — last-step accelerations/potentials under the
//!    same rule.
//!
//! Child ranks re-execute this binary: [`maybe_child`] runs first.

use bhut_bench::cli::Cli;
use bhut_bench::gate::GateTable;
use bhut_core::balance::Scheme;
use bhut_proc::{
    degraded_size, local_mesh, maybe_child, run_rank, FaultPlan, Launcher, ProcConfig,
    RecoveryPolicy, SupervisedResult,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Serialize, Deserialize, Clone)]
struct SchemeChaos {
    scheme: String,
    ranks: usize,
    ranks_after: usize,
    n: usize,
    steps: usize,
    fault: String,
    mode: String,
    recoveries: u64,
    resume_epoch: u64,
    checkpoints: u64,
    rollback_steps: u64,
    /// Max |recovered - reference| over final positions and velocities.
    state_max_abs_err: f64,
    /// Max |recovered - reference| over last-step accelerations/potentials.
    force_max_abs_err: f64,
    /// Exit-status triage of the rank the failure was attributed to.
    failure_detail: String,
    wall_s: f64,
}

#[derive(Serialize, Deserialize)]
struct ChaosReport {
    benchmark: String,
    distribution: String,
    ranks: usize,
    n: usize,
    steps: usize,
    fault: String,
    mode: String,
    schemes: Vec<SchemeChaos>,
}

struct Args {
    schemes: Vec<Scheme>,
    ranks: usize,
    n: usize,
    steps: usize,
    fault: String,
    fault_rank: usize,
    fault_step: u64,
    mode: String,
    ckpt_every: u64,
    timeout_s: u64,
    out: PathBuf,
    force_tol: f64,
}

const USAGE: &str = "usage: chaos [--scheme spsa|spda|dpda|all] [--ranks N] [--n N] \
    [--steps N] [--fault kill-at-step|wedge-read|none] [--fault-rank R] [--fault-step S] \
    [--mode respawn|degrade] [--ckpt-every N] [--timeout-s N] [--out FILE] [--force-tol F]";

fn parse_args() -> Args {
    let mut args = Args {
        schemes: vec![Scheme::Spsa, Scheme::Spda, Scheme::Dpda],
        ranks: 4,
        n: 5_000,
        steps: 3,
        fault: "kill-at-step".to_string(),
        fault_rank: 1,
        fault_step: 1,
        mode: "respawn".to_string(),
        ckpt_every: 1,
        timeout_s: 15,
        out: PathBuf::from("results/chaos.json"),
        force_tol: 1e-12,
    };
    let mut cli = Cli::from_env(USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--scheme" => args.schemes = cli.schemes("--scheme"),
            "--ranks" => args.ranks = cli.parse("--ranks"),
            "--n" => args.n = cli.parse("--n"),
            "--steps" => args.steps = cli.parse("--steps"),
            "--fault" => args.fault = cli.value("--fault"),
            "--fault-rank" => args.fault_rank = cli.parse("--fault-rank"),
            "--fault-step" => args.fault_step = cli.parse("--fault-step"),
            "--mode" => args.mode = cli.value("--mode"),
            "--ckpt-every" => args.ckpt_every = cli.parse("--ckpt-every"),
            "--timeout-s" => args.timeout_s = cli.parse("--timeout-s"),
            "--out" => args.out = PathBuf::from(cli.value("--out")),
            "--force-tol" => args.force_tol = cli.parse("--force-tol"),
            other => cli.fail(format!("unknown argument {other:?}")),
        }
    }
    if !matches!(args.fault.as_str(), "kill-at-step" | "wedge-read" | "none") {
        cli.fail(format!("unknown --fault {:?}", args.fault));
    }
    if !matches!(args.mode.as_str(), "respawn" | "degrade") {
        cli.fail(format!("unknown --mode {:?}", args.mode));
    }
    args
}

fn plan_for(args: &Args) -> FaultPlan {
    match args.fault.as_str() {
        "kill-at-step" => FaultPlan::kill_at_step(args.fault_rank, args.fault_step),
        // The wedge must outlast every peer's read deadline (so they — not
        // the wedged rank — observe the failure) and the supervisor's kill.
        "wedge-read" => {
            FaultPlan::wedge_at_step(args.fault_rank, args.fault_step, args.timeout_s * 3_000)
        }
        _ => FaultPlan::default(),
    }
}

fn run_scheme(scheme: Scheme, args: &Args) -> SchemeChaos {
    let name = format!("{scheme:?}").to_lowercase();
    let cfg = ProcConfig {
        scheme,
        n: args.n,
        steps: args.steps,
        ckpt_every: args.ckpt_every,
        ..ProcConfig::default()
    };

    // Fault-free single-process reference: same code path, p = 1; the
    // replicated-tree loop makes a p-rank run match it bitwise.
    let mut t = local_mesh(1).pop().expect("one endpoint");
    let reference = run_rank(&mut t, &cfg).expect("fault-free reference");
    let ref_parts: BTreeMap<u32, _> = reference.owned.iter().map(|q| (q.id, *q)).collect();
    let ref_forces: BTreeMap<u32, _> = reference.forces.iter().map(|f| (f.0, f)).collect();

    let policy = RecoveryPolicy { max_recoveries: 2, degrade: args.mode == "degrade" };
    let launcher = Launcher { timeout: Duration::from_secs(args.timeout_s), ..Launcher::default() };
    let t0 = Instant::now();
    let sup: SupervisedResult =
        launcher.run_supervised(args.ranks, &cfg, &plan_for(args), policy).unwrap_or_else(|e| {
            eprintln!("chaos: {name} supervised run failed: {e}");
            std::process::exit(1);
        });
    let wall_s = t0.elapsed().as_secs_f64();

    let mut state_err = 0.0f64;
    let mut force_err = 0.0f64;
    let mut seen_parts = 0usize;
    let mut seen_forces = 0usize;
    for rank in &sup.run.ranks {
        for q in &rank.owned {
            let r = ref_parts.get(&q.id).expect("reference particle");
            for d in [
                q.pos.x - r.pos.x,
                q.pos.y - r.pos.y,
                q.pos.z - r.pos.z,
                q.vel.x - r.vel.x,
                q.vel.y - r.vel.y,
                q.vel.z - r.vel.z,
            ] {
                state_err = state_err.max(d.abs());
            }
            seen_parts += 1;
        }
        for (id, acc, pot) in &rank.forces {
            let (_, racc, rpot) = ref_forces.get(id).expect("reference force");
            for d in [acc.x - racc.x, acc.y - racc.y, acc.z - racc.z, pot - rpot] {
                force_err = force_err.max(d.abs());
            }
            seen_forces += 1;
        }
    }
    assert_eq!(seen_parts, args.n, "{name}: every particle owned exactly once after recovery");
    assert_eq!(seen_forces, args.n, "{name}: every force reported exactly once after recovery");

    SchemeChaos {
        scheme: name,
        ranks: args.ranks,
        ranks_after: sup.ranks,
        n: args.n,
        steps: args.steps,
        fault: args.fault.clone(),
        mode: args.mode.clone(),
        recoveries: sup.recoveries.len() as u64,
        resume_epoch: sup.recoveries.last().map_or(0, |e| e.resume_epoch),
        checkpoints: sup.counters.checkpoints,
        rollback_steps: sup.counters.rollback_steps,
        state_max_abs_err: state_err,
        force_max_abs_err: force_err,
        failure_detail: sup.recoveries.first().map_or_else(String::new, |e| e.detail.clone()),
        wall_s,
    }
}

fn main() {
    maybe_child(); // child ranks of the supervised runs divert here
    let args = parse_args();

    let mut gate = GateTable::new("chaos");
    gate.info(
        "config",
        format!(
            "ranks={} n={} steps={} fault={} mode={} ckpt_every={}",
            args.ranks, args.n, args.steps, args.fault, args.mode, args.ckpt_every
        ),
    );

    let results: Vec<SchemeChaos> = args.schemes.iter().map(|&s| run_scheme(s, &args)).collect();

    for c in &results {
        println!(
            "{}: {} -> {} ranks, {} recoveries (epoch {}), {} ckpts, {:.2} s wall [{}]",
            c.scheme,
            c.ranks,
            c.ranks_after,
            c.recoveries,
            c.resume_epoch,
            c.checkpoints,
            c.wall_s,
            c.failure_detail,
        );
        if args.fault != "none" {
            gate.check(
                &format!("{}: fault recovered", c.scheme),
                format!("{} respawn(s)", c.recoveries),
                ">= 1".to_string(),
                c.recoveries >= 1,
            );
        }
        if args.mode == "degrade" {
            let want = degraded_size(
                match c.scheme.as_str() {
                    "spsa" => Scheme::Spsa,
                    "spda" => Scheme::Spda,
                    _ => Scheme::Dpda,
                },
                args.ranks,
            );
            gate.check(
                &format!("{}: mesh degraded", c.scheme),
                format!("{} ranks", c.ranks_after),
                format!("== {want}"),
                c.ranks_after == want,
            );
            gate.check(
                &format!("{}: degraded state vs fault-free", c.scheme),
                format!("{:.1e}", c.state_max_abs_err),
                format!("<= {:.0e}", args.force_tol),
                c.state_max_abs_err <= args.force_tol,
            );
            gate.check(
                &format!("{}: degraded forces vs fault-free", c.scheme),
                format!("{:.1e}", c.force_max_abs_err),
                format!("<= {:.0e}", args.force_tol),
                c.force_max_abs_err <= args.force_tol,
            );
        } else {
            gate.check(
                &format!("{}: recovered state vs fault-free", c.scheme),
                format!("{:.1e}", c.state_max_abs_err),
                "bitwise (= 0)".to_string(),
                c.state_max_abs_err == 0.0,
            );
            gate.check(
                &format!("{}: recovered forces vs fault-free", c.scheme),
                format!("{:.1e}", c.force_max_abs_err),
                "bitwise (= 0)".to_string(),
                c.force_max_abs_err == 0.0,
            );
        }
    }

    let report = ChaosReport {
        benchmark: "chaos".to_string(),
        distribution: "plummer".to_string(),
        ranks: args.ranks,
        n: args.n,
        steps: args.steps,
        fault: args.fault.clone(),
        mode: args.mode.clone(),
        schemes: results,
    };
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    let json = serde_json::to_string(&report).expect("serialize report");
    bhut_sim::write_text_atomically(&args.out, &json).expect("write report");
    println!("wrote {}", args.out.display());

    gate.finish();
}
