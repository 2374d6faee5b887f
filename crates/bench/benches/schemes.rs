//! End-to-end scheme benchmarks: one simulated time-step of SPSA / SPDA /
//! DPDA on the simulated nCUBE2, and the real shared-memory executor for
//! comparison. Wall-clock here measures the simulator itself; the simulated
//! seconds (the paper's metric) are printed by the `tables` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bhut_core::balance::Scheme;
use bhut_core::{ParallelSim, SimConfig};
use bhut_geom::dataset_scaled;
use bhut_machine::{CostModel, Hypercube, Machine};
use bhut_threads::{ThreadConfig, ThreadSim};

fn bench_schemes(c: &mut Criterion) {
    let set = dataset_scaled("g_160535", 0.02);
    let mut g = c.benchmark_group("scheme_iteration_p16");
    for scheme in [Scheme::Spsa, Scheme::Spda, Scheme::Dpda] {
        g.bench_with_input(BenchmarkId::from_parameter(scheme.name()), &scheme, |b, &scheme| {
            b.iter(|| {
                let machine = Machine::new(Hypercube::new(16), CostModel::ncube2());
                let mut sim = ParallelSim::new(machine, SimConfig { scheme, ..Default::default() });
                sim.run_iteration(&set.particles).phases.total
            })
        });
    }
    g.finish();
}

fn bench_threads(c: &mut Criterion) {
    let set = dataset_scaled("g_160535", 0.02);
    let mut g = c.benchmark_group("shared_memory_force");
    // `morton_zones_profiled` against `morton_zones` is the cost of the
    // phase instrumentation (DESIGN.md §3b holds it under 2 %).
    for (name, profiled) in [("morton_zones", false), ("morton_zones_profiled", true)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &profiled, |b, &profiled| {
            let mut sim = ThreadSim::new(ThreadConfig {
                threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
                ..Default::default()
            });
            let _ = sim.compute_forces(&set.particles); // warm the zone weights
            b.iter(|| {
                let result = if profiled {
                    sim.compute_forces_profiled(&set.particles)
                } else {
                    sim.compute_forces(&set.particles)
                };
                result.stats.interactions()
            })
        });
    }
    g.finish();
}

criterion_group!(
    name = schemes;
    config = Criterion::default().sample_size(10);
    targets = bench_schemes, bench_threads
);
criterion_main!(schemes);
