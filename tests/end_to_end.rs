//! Cross-crate integration: the simulated message-passing formulations, the
//! real shared-memory executor, and the sequential treecode must all tell
//! the same physical story.

use barnes_hut::core::balance::Scheme;
use barnes_hut::core::{ParallelSim, SimConfig};
use barnes_hut::geom::{dataset_scaled, plummer, PlummerSpec};
use barnes_hut::machine::{CostModel, FatTree, Hypercube, Machine};
use barnes_hut::threads::{Partitioning, ThreadConfig, ThreadSim};
use barnes_hut::tree::{build, direct, BarnesHutMac, BuildParams};

#[path = "../crates/proc/src/scratch.rs"]
mod scratch;

/// The simulated-machine force phase and the real-thread executor compute
/// the same potentials (identical traversal decisions on cluster-scheme
/// trees is not guaranteed — different roots — so compare against direct
/// summation instead).
#[test]
fn simulated_and_threaded_executors_agree_with_direct() {
    let set = plummer(PlummerSpec { n: 1_200, seed: 33, ..Default::default() });
    let eps = 1e-4;
    let exact = direct::all_potentials_direct(&set.particles, eps);

    // Simulated 16-processor machine, SPDA.
    let machine = Machine::new(Hypercube::new(16), CostModel::ncube2());
    let mut sim = ParallelSim::new(
        machine,
        SimConfig { scheme: Scheme::Spda, alpha: 0.5, ..Default::default() },
    );
    let out = sim.run_iteration(&set.particles);
    let err_sim = direct::fractional_error(&out.potentials, &exact);
    assert!(err_sim < 0.01, "simulated-machine error {err_sim}");

    // Real threads.
    let mut threads = ThreadSim::new(ThreadConfig {
        threads: 3,
        alpha: 0.5,
        partitioning: Partitioning::MortonZones,
        ..Default::default()
    });
    let forces = threads.compute_forces(&set.particles);
    let err_thr = direct::fractional_error(&forces.potentials, &exact);
    assert!(err_thr < 0.01, "threaded error {err_thr}");
}

/// All three schemes on both simulated machines produce accurate physics
/// and consistent interaction counts.
#[test]
fn schemes_and_machines_cross_product() {
    let set = dataset_scaled("s_10g_b", 0.04);
    let eps = 1e-4;
    let exact = direct::all_potentials_direct(&set.particles, eps);
    for scheme in [Scheme::Spsa, Scheme::Spda, Scheme::Dpda] {
        for fat_tree in [false, true] {
            let config = SimConfig { scheme, clusters_per_axis: 16, ..Default::default() };
            let out = if fat_tree {
                let m = Machine::new(FatTree::cm5(16), CostModel::cm5());
                ParallelSim::new(m, config).run_iteration(&set.particles)
            } else {
                let m = Machine::new(Hypercube::new(16), CostModel::ncube2());
                ParallelSim::new(m, config).run_iteration(&set.particles)
            };
            let err = direct::fractional_error(&out.potentials, &exact);
            assert!(err < 0.05, "{scheme:?} fat_tree={fat_tree}: error {err}");
            assert!(out.interactions > set.len() as u64);
            assert!(out.phases.total > 0.0);
        }
    }
}

/// Multi-timestep simulation with treecode forces conserves energy.
#[test]
fn treecode_simulation_conserves_energy() {
    use barnes_hut::sim::{Simulation, SimulationConfig};
    let set = plummer(PlummerSpec { n: 300, seed: 9, ..Default::default() });
    let mut sim = Simulation::new(
        set,
        SimulationConfig {
            dt: 2e-3,
            alpha: 0.3,
            eps: 0.05,
            diag_every: 20,
            threads: 2,
            ..Default::default()
        },
    );
    sim.run(60);
    let drift = sim.diagnostics.max_drift();
    assert!(drift < 1e-2, "energy drift {drift}");
}

/// Tree invariants hold on every paper dataset (small scale).
#[test]
fn all_paper_datasets_build_valid_trees() {
    for spec in barnes_hut::geom::PAPER_DATASETS {
        let set = dataset_scaled(spec.name, 0.01);
        let tree = build::build(&set.particles, BuildParams::default());
        tree.check_invariants(set.len()).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        // a quick force sanity check on one particle
        let mac = BarnesHutMac::new(0.7);
        let p = &set.particles[set.len() / 2];
        let (acc, stats) =
            barnes_hut::tree::accel_on(&tree, &set.particles, p.pos, Some(p.id), &mac, 1e-4);
        assert!(acc.is_finite(), "{}", spec.name);
        assert!(stats.interactions() > 0, "{}", spec.name);
    }
}

/// Snapshots round-trip through the facade.
#[test]
fn snapshot_roundtrip_via_facade() {
    use barnes_hut::sim::{load_snapshot, save_snapshot};
    let set = plummer(PlummerSpec { n: 64, seed: 5, ..Default::default() });
    let dir = scratch::ScratchDir::new("e2e_snap");
    std::fs::create_dir_all(dir.path()).unwrap();
    let path = dir.path().join("snap.json");
    save_snapshot(&path, 0.5, &set).unwrap();
    let snap = load_snapshot(&path).unwrap();
    assert_eq!(snap.particles.len(), 64);
}

/// An unknown `--dataset` is a usage error naming the valid instances,
/// not a panic out of `dataset_scaled`.
#[test]
fn cli_rejects_an_unknown_dataset_with_usage() {
    for cmd in ["forces", "simulate", "schemes"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bhut"))
            .args([cmd, "--dataset", "nope"])
            .output()
            .expect("run bhut");
        assert_eq!(out.status.code(), Some(2), "bhut {cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(barnes_hut::geom::PAPER_DATASETS[0].name), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

/// An out-of-range flag value is a usage error naming the flag and its
/// bound, refused where the flags are parsed — not a panic in the library
/// (`--threads 0`, `--alpha 0`, `--scale 2`, `--clusters 3`, `--p 0`,
/// `--degree 20`, `--eps nan`) nor a run that finishes at `t = NaN`
/// (`--dt nan`).
#[test]
fn cli_rejects_out_of_range_flags_with_usage() {
    let past_max = (barnes_hut::multipole::MAX_DEGREE + 1).to_string();
    let max_bound = format!("at most {}", barnes_hut::multipole::MAX_DEGREE);
    let cases: [(&str, &str, &str, &str); 15] = [
        ("forces", "threads", "0", "at least 1"),
        ("simulate", "threads", "0", "at least 1"),
        ("forces", "alpha", "-1", "finite and positive"),
        ("forces", "alpha", "0", "finite and positive"),
        ("forces", "alpha", "nan", "finite and positive"),
        ("schemes", "alpha", "0", "finite and positive"),
        ("forces", "scale", "0", "in (0, 1]"),
        ("forces", "scale", "2", "in (0, 1]"),
        ("schemes", "clusters", "3", "a power of two"),
        ("schemes", "p", "0", "a power of two"),
        ("simulate", "dt", "nan", "finite and positive"),
        ("simulate", "eps", "nan", "finite and non-negative"),
        ("forces", "eps", "-1", "finite and non-negative"),
        ("forces", "degree", &past_max, &max_bound),
        ("simulate", "degree", &past_max, &max_bound),
    ];
    for (cmd, flag, value, bound) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bhut"))
            .args([cmd, "--dataset", "p_5000", &format!("--{flag}"), value])
            .output()
            .expect("run bhut");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let case = format!("bhut {cmd} --{flag} {value}: {stderr}");
        assert_eq!(out.status.code(), Some(2), "{case}");
        assert!(!stderr.contains("panicked"), "{case}");
        assert!(stderr.contains(&format!("--{flag} ")), "{case}");
        assert!(stderr.contains(&format!("must be {bound}")), "{case}");
        assert!(stderr.contains("usage:"), "{case}");
    }
}
