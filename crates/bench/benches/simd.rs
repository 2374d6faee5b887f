//! Kernel-precision benchmarks for the vectorised force kernels: the
//! evaluation of gathered units (slab kernels plus the mixed-frontier
//! replay) at each [`KernelPrecision`], on the same Plummer slabs the
//! grouped executor produces. The end-to-end number is `spine`'s
//! `tree.kernel_ms` on `plummer50k_t1`; this group compares the precisions
//! under Criterion, including `MixedF32`, which no spine workload runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bhut_geom::{plummer, PlummerSpec};
use bhut_tree::build::{build, BuildParams};
use bhut_tree::group::{
    eval_gathered_monopole_masked, gather_group, leaf_schedule, InteractionBuffers,
};
use bhut_tree::{BarnesHutMac, KernelPrecision};

const EPS: f64 = 1e-4;

fn bench_simd(c: &mut Criterion) {
    let mut g = c.benchmark_group("bench_simd");
    let set = plummer(PlummerSpec { n: 20_000, ..Default::default() });
    let tree = build(&set.particles, BuildParams::with_leaf_capacity(8));
    let mac = BarnesHutMac::new(0.67);
    let schedule = leaf_schedule(&tree);

    // Pre-gather every walk unit once; the benchmark then times only the
    // evaluation.
    let mut buffers: Vec<InteractionBuffers> = Vec::with_capacity(schedule.len());
    for &unit in &schedule {
        let mut buf = InteractionBuffers::new();
        buf.set_fill_f32(true);
        gather_group(&tree, &set.particles, unit, &mac, &mut buf);
        buffers.push(buf);
    }

    for precision in [KernelPrecision::ScalarF64, KernelPrecision::F64, KernelPrecision::MixedF32] {
        g.bench_with_input(
            BenchmarkId::new("kernel_phase", format!("{precision:?}")),
            &precision,
            |b, &precision| {
                b.iter(|| {
                    let mut sink = 0.0f64;
                    for (&unit, buf) in schedule.iter().zip(&buffers) {
                        eval_gathered_monopole_masked(
                            &tree,
                            &set.particles,
                            unit,
                            &mac,
                            EPS,
                            precision,
                            buf,
                            None,
                            |_, phi, acc, _| sink += phi + acc.x,
                        );
                    }
                    sink
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_simd);
criterion_main!(benches);
