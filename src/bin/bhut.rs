//! `bhut` — command-line front end for the Barnes–Hut reproduction.
//!
//! ```text
//! bhut simulate  --dataset p_5000 --steps 100 --dt 0.002 [--threads N] [--snapshot out.json]
//! bhut forces    --dataset g_160535 --scale 0.02 [--alpha 0.67] [--degree 0] [--check]
//! bhut schemes   --dataset g_326214 --scale 0.02 --p 16,64 [--clusters 32]
//! bhut datasets
//! ```
//!
//! A flag the subcommand does not read is refused with the usage and exit
//! status 2, as is a bad value; `--help` prints the usage and exits 0.

use barnes_hut::core::balance::Scheme;
use barnes_hut::core::{ParallelSim, SimConfig};
use barnes_hut::geom::{dataset_domain, dataset_scaled, PAPER_DATASETS};
use barnes_hut::machine::{CostModel, Hypercube, Machine};
use barnes_hut::multipole::MAX_DEGREE;
use barnes_hut::sim::{save_snapshot, EnergyReport, Simulation, SimulationConfig};
use barnes_hut::threads::{ThreadConfig, ThreadSim};
use barnes_hut::tree::direct;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage:
  bhut simulate --dataset NAME [--scale F] [--steps N] [--dt F] [--alpha F] [--degree K]
                [--eps F] [--threads N] [--diag-every N] [--snapshot FILE]
  bhut forces --dataset NAME [--scale F] [--alpha F] [--degree K] [--eps F] [--threads N] [--check]
  bhut schemes --dataset NAME [--scale F] [--p LIST] [--clusters C] [--alpha F]
  bhut datasets";

/// The flags each subcommand reads; any other is refused.
const SIMULATE_FLAGS: &[&str] = &[
    "dataset",
    "scale",
    "steps",
    "dt",
    "alpha",
    "degree",
    "eps",
    "threads",
    "diag-every",
    "snapshot",
];
const FORCES_FLAGS: &[&str] = &["dataset", "scale", "alpha", "degree", "eps", "threads", "check"];
const SCHEMES_FLAGS: &[&str] = &["dataset", "scale", "p", "clusters", "alpha"];

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2);
}

/// The `--key value` pairs of `args` (`--check` takes no value). A flag
/// not in `allowed` is refused with the usage; `--help` / `-h` prints the
/// usage and exits 0.
fn parse_flags(args: &[String], allowed: &[&str]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if a == "--help" || a == "-h" {
            println!("{USAGE}");
            exit(0);
        }
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("unexpected argument {a:?}");
            usage();
        };
        if !allowed.contains(&key) {
            eprintln!("unknown flag {a:?}");
            usage();
        }
        // boolean flags (--check) take no value
        let val = match it.peek() {
            Some(next) if !next.starts_with("--") => it.next().cloned().unwrap(),
            _ => "true".to_string(),
        };
        flags.insert(key.to_string(), val);
    }
    flags
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --{key}: {v:?}");
            usage()
        }),
        None => default,
    }
}

/// Refuse `--key v`, naming the bound it breaks, with the usage.
fn out_of_range(key: &str, v: impl std::fmt::Display, bound: &str) -> ! {
    eprintln!("--{key} {v} is out of range: it must be {bound}");
    usage()
}

/// [`get`], refused unless `ok` holds; `bound` says what `ok` asks. A bad
/// value is named where it is parsed, not in a panic deep in a run.
fn get_in<T: std::str::FromStr + std::fmt::Display>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
    bound: &str,
    ok: impl Fn(&T) -> bool,
) -> T {
    let v = get(flags, key, default);
    if !ok(&v) {
        out_of_range(key, v, bound);
    }
    v
}

fn finite_positive(x: &f64) -> bool {
    x.is_finite() && *x > 0.0
}

/// `--degree`, refused past the largest degree an expansion evaluates at.
fn degree(flags: &HashMap<String, String>) -> u32 {
    let bound = format!("at most {MAX_DEGREE}, the largest multipole degree");
    get_in(flags, "degree", 0, &bound, |&k| k <= MAX_DEGREE)
}

fn alpha(flags: &HashMap<String, String>) -> f64 {
    get_in(flags, "alpha", 0.67, "finite and positive", finite_positive)
}

fn eps(flags: &HashMap<String, String>, default: f64) -> f64 {
    get_in(flags, "eps", default, "finite and non-negative", |e| e.is_finite() && *e >= 0.0)
}

fn threads(flags: &HashMap<String, String>) -> usize {
    let default = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    get_in(flags, "threads", default, "at least 1", |&t| t > 0)
}

fn load(flags: &HashMap<String, String>) -> (String, barnes_hut::geom::ParticleSet) {
    let name = flags.get("dataset").cloned().unwrap_or_else(|| usage());
    if barnes_hut::geom::datasets::spec(&name).is_none() {
        let names: Vec<&str> = PAPER_DATASETS.iter().map(|d| d.name).collect();
        eprintln!("unknown --dataset {name:?}; valid names: {}", names.join(", "));
        usage();
    }
    let scale = get_in(flags, "scale", 1.0, "in (0, 1]", |&s| s > 0.0 && s <= 1.0);
    (name.clone(), dataset_scaled(&name, scale))
}

fn cmd_datasets() {
    println!("{:<12} {:>10}  kind", "name", "n (full)");
    for d in PAPER_DATASETS {
        println!("{:<12} {:>10}  {:?}", d.name, d.n, d.kind);
    }
}

fn cmd_simulate(flags: HashMap<String, String>) {
    let steps: usize = get(&flags, "steps", 100);
    let cfg = SimulationConfig {
        dt: get_in(&flags, "dt", 1e-3, "finite and positive", finite_positive),
        alpha: alpha(&flags),
        degree: degree(&flags),
        eps: eps(&flags, 1e-2),
        threads: threads(&flags),
        diag_every: get(&flags, "diag-every", 0),
        ..Default::default()
    };
    let (name, set) = load(&flags);
    println!("simulating {name}: {} particles, {steps} steps at dt = {}", set.len(), cfg.dt);
    let diag = cfg.diag_every > 0;
    let e0 = diag.then(|| EnergyReport::measure(&set, cfg.eps));
    let mut sim = Simulation::new(set, cfg);
    let t0 = std::time::Instant::now();
    let report = sim.run(steps);
    println!(
        "t = {:.4}: last step {} interactions, imbalance {:.2}, wall {:.2}s",
        sim.time,
        report.interactions,
        report.imbalance,
        t0.elapsed().as_secs_f64()
    );
    if let Some(e0) = e0 {
        let e1 = EnergyReport::measure(&sim.particles, sim.config.eps);
        println!("energy drift: {:.4}%", 100.0 * e1.drift_from(&e0));
    }
    if let Some(path) = flags.get("snapshot") {
        save_snapshot(&PathBuf::from(path), sim.time, &sim.particles).expect("write snapshot");
        println!("snapshot written to {path}");
    }
}

fn cmd_forces(flags: HashMap<String, String>) {
    let mut sim = ThreadSim::new(ThreadConfig {
        threads: threads(&flags),
        alpha: alpha(&flags),
        degree: degree(&flags),
        eps: eps(&flags, 1e-4),
        ..Default::default()
    });
    let (name, set) = load(&flags);
    let t0 = std::time::Instant::now();
    let out = sim.compute_forces(&set.particles);
    println!(
        "{name}: {} particles, {} interactions, imbalance {:.2}, wall {:.3}s",
        set.len(),
        out.stats.interactions(),
        out.imbalance(),
        t0.elapsed().as_secs_f64()
    );
    if flags.contains_key("check") {
        let sample: Vec<usize> = (0..set.len()).step_by((set.len() / 200).max(1)).collect();
        let exact: Vec<f64> = sample
            .iter()
            .map(|&i| {
                direct::potential_direct(
                    &set.particles,
                    set.particles[i].pos,
                    Some(i as u32),
                    sim.config.eps,
                )
            })
            .collect();
        let approx: Vec<f64> = sample.iter().map(|&i| out.potentials[i]).collect();
        println!(
            "fractional error vs direct (sampled): {:.4}%",
            100.0 * direct::fractional_error(&approx, &exact)
        );
    }
}

fn cmd_schemes(flags: HashMap<String, String>) {
    // Each processor count is a hypercube's.
    let ps: Vec<usize> = match flags.get("p") {
        Some(list) => list
            .split(',')
            .map(|v| {
                let p: usize = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad value for --p: {v:?}");
                    usage()
                });
                if !p.is_power_of_two() {
                    out_of_range("p", p, "a power of two");
                }
                p
            })
            .collect(),
        None => vec![16, 64],
    };
    let clusters: u32 = get_in(&flags, "clusters", 32, "a power of two", |c| c.is_power_of_two());
    let alpha = alpha(&flags);
    let (name, set) = load(&flags);
    println!(
        "{name}: {} particles on a simulated nCUBE2 (clusters {clusters}x{clusters}, alpha {alpha})\n",
        set.len()
    );
    println!("{:<6} {:>5} {:>10} {:>9} {:>6}", "scheme", "p", "time (s)", "speedup", "eff");
    for scheme in [Scheme::Spsa, Scheme::Spda, Scheme::Dpda] {
        for &p in &ps {
            let machine = Machine::new(Hypercube::new(p), CostModel::ncube2());
            let mut sim = ParallelSim::new(
                machine,
                SimConfig {
                    scheme,
                    clusters_per_axis: clusters,
                    alpha,
                    domain: dataset_domain(&name),
                    ..Default::default()
                },
            );
            let _ = sim.run_iteration(&set.particles);
            let _ = sim.run_iteration(&set.particles);
            let out = sim.run_iteration(&set.particles);
            println!(
                "{:<6} {:>5} {:>10.3} {:>9.1} {:>6.2}",
                scheme.name(),
                p,
                out.phases.total,
                out.speedup,
                out.efficiency
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    match cmd.as_str() {
        "simulate" => cmd_simulate(parse_flags(rest, SIMULATE_FLAGS)),
        "forces" => cmd_forces(parse_flags(rest, FORCES_FLAGS)),
        "schemes" => cmd_schemes(parse_flags(rest, SCHEMES_FLAGS)),
        "datasets" => {
            parse_flags(rest, &[]);
            cmd_datasets()
        }
        "--help" | "-h" => println!("{USAGE}"),
        _ => usage(),
    }
}
