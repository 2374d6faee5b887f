//! Ablations of the design choices DESIGN.md calls out: bin size, leaf
//! capacity `s`, SPDA's ordering curve, and interconnect topology. Each
//! measures *simulated machine time* (the quantity the paper reports), using
//! the wall-clock of the deterministic simulation only as the benchmark
//! driver.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bhut_core::balance::{spda_initial, Curve, Scheme};
use bhut_core::domain::ClusterGrid;
use bhut_core::evalcore::EvalEnv;
use bhut_core::funcship::{run_force_phase, ForceConfig};
use bhut_core::partition::Partition;
use bhut_core::{ParallelSim, SimConfig};
use bhut_geom::{dataset_scaled, ParticleSet};
use bhut_machine::{CostModel, Crossbar, FatTree, Hypercube, Machine, Mesh2D, Topology};
use bhut_tree::build::{build_in_cell, BuildParams};
use bhut_tree::{BarnesHutMac, Tree};

fn setup(n_scale: f64) -> (ParticleSet, Tree, ClusterGrid) {
    let set = dataset_scaled("g_160535", n_scale);
    let cell = set.bounding_cube().unwrap();
    let grid = ClusterGrid::new(16, cell);
    let tree = build_in_cell(
        &set.particles,
        cell,
        BuildParams { leaf_capacity: 8, collapse: true, min_split_level: grid.level() },
    );
    (set, tree, grid)
}

/// Simulated force time vs bin size (the paper uses 100 particles per bin).
fn bench_bin_size(c: &mut Criterion) {
    let (set, tree, grid) = setup(0.02);
    let p = 16;
    let owners = spda_initial(&grid, p, Curve::Morton);
    let part = Partition::from_clusters(&tree, &grid, &owners, p);
    let mac = BarnesHutMac::new(0.67);
    let env = EvalEnv {
        tree: &tree,
        particles: &set.particles,
        mtree: None,
        mac: &mac,
        eps: 1e-4,
        degree: 0,
    };
    let machine = Machine::new(Hypercube::new(p), CostModel::ncube2());
    let mut g = c.benchmark_group("bin_size");
    for bin in [10usize, 100, 1000] {
        g.bench_with_input(BenchmarkId::from_parameter(bin), &bin, |b, &bin| {
            b.iter(|| {
                let run = run_force_phase(
                    &machine,
                    &env,
                    &part,
                    None,
                    0,
                    false,
                    ForceConfig { bin_size: bin, batch: 4, ..Default::default() },
                );
                // the measured quantity: simulated machine seconds
                run.report.parallel_time()
            })
        });
    }
    g.finish();
}

/// Tree size/build cost vs leaf capacity `s`.
fn bench_leaf_capacity(c: &mut Criterion) {
    let set = dataset_scaled("g_160535", 0.05);
    let cell = set.bounding_cube().unwrap();
    let mut g = c.benchmark_group("leaf_capacity");
    for s in [1usize, 4, 16, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, &s| {
            b.iter(|| {
                build_in_cell(
                    &set.particles,
                    cell,
                    BuildParams { leaf_capacity: s, collapse: true, min_split_level: 0 },
                )
                .len()
            })
        });
    }
    g.finish();
}

/// SPDA with Morton vs Hilbert cluster ordering.
fn bench_ordering(c: &mut Criterion) {
    let set = dataset_scaled("g_160535", 0.02);
    let mut g = c.benchmark_group("spda_curve");
    for (name, curve) in [("morton", Curve::Morton), ("hilbert", Curve::Hilbert)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &curve, |b, &curve| {
            b.iter(|| {
                let machine = Machine::new(Hypercube::new(16), CostModel::ncube2());
                let mut sim = ParallelSim::new(
                    machine,
                    SimConfig { scheme: Scheme::Spda, curve, ..Default::default() },
                );
                let _ = sim.run_iteration(&set.particles);
                sim.run_iteration(&set.particles).phases.total
            })
        });
    }
    g.finish();
}

/// The same run on different interconnects (simulated seconds differ; the
/// benchmark wall-clock measures simulation overhead).
fn bench_topology(c: &mut Criterion) {
    let set = dataset_scaled("g_160535", 0.02);
    fn run<T: Topology>(topo: T, set: &ParticleSet) -> f64 {
        let machine = Machine::new(topo, CostModel::ncube2());
        let mut sim = ParallelSim::new(machine, SimConfig::default());
        sim.run_iteration(&set.particles).phases.total
    }
    let mut g = c.benchmark_group("topology");
    g.bench_function("hypercube_p16", |b| b.iter(|| run(Hypercube::new(16), &set)));
    g.bench_function("mesh4x4", |b| b.iter(|| run(Mesh2D::new(4, 4, true), &set)));
    g.bench_function("fat_tree_p16", |b| b.iter(|| run(FatTree::cm5(16), &set)));
    g.bench_function("crossbar_p16", |b| b.iter(|| run(Crossbar::new(16), &set)));
    g.finish();
}

criterion_group!(
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = bench_bin_size, bench_leaf_capacity, bench_ordering, bench_topology
);
criterion_main!(ablations);
