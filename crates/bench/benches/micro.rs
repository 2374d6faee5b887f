//! Micro-benchmarks of the core kernels: Morton encoding, multipole
//! expansion operators, collectives, and branch lookup (§4.2.3's hash vs
//! sorted-table comparison). The tree build, the group walk and the force
//! sweep are timed per layer by the `spine` benchmark.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use bhut_core::branch::{BranchLookup, HashedLookup, SortedLookup};
use bhut_geom::{uniform_cube, Vec3};
use bhut_machine::{Collectives, CostModel, Hypercube};
use bhut_morton::{encode_3d, hilbert_index_3d, NodeKey};
use bhut_multipole::Expansion;

fn bench_morton(c: &mut Criterion) {
    let mut g = c.benchmark_group("ordering");
    g.bench_function("morton_encode_3d", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1000u32 {
                acc ^= encode_3d(black_box(i), black_box(i * 7 % 2048), black_box(i * 13 % 2048));
            }
            acc
        })
    });
    g.bench_function("hilbert_index_3d", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1000u32 {
                acc ^= hilbert_index_3d(
                    black_box(i % 2048),
                    black_box(i * 7 % 2048),
                    black_box(i * 13 % 2048),
                    11,
                );
            }
            acc
        })
    });
    g.finish();
}

fn bench_multipole_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("multipole_ops");
    let set = uniform_cube(256, 1.0, 3);
    for degree in [2u32, 4, 6] {
        g.bench_with_input(BenchmarkId::new("p2m", degree), &degree, |b, &k| {
            b.iter(|| {
                Expansion::from_particles(
                    Vec3::splat(0.5),
                    k,
                    set.particles.iter().map(|p| (p.pos, p.mass)),
                )
            })
        });
        let e = Expansion::from_particles(
            Vec3::splat(0.5),
            degree,
            set.particles.iter().map(|p| (p.pos, p.mass)),
        );
        g.bench_with_input(BenchmarkId::new("m2m", degree), &e, |b, e| {
            b.iter(|| e.translate(black_box(Vec3::new(1.0, 0.5, 0.2))))
        });
        g.bench_with_input(BenchmarkId::new("m2p", degree), &e, |b, e| {
            b.iter(|| e.eval(black_box(Vec3::new(5.0, 4.0, 3.0))))
        });
    }
    g.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut g = c.benchmark_group("collectives");
    let topo = Hypercube::new(256);
    let coll = Collectives::new(&topo, CostModel::ncube2());
    let contrib: Vec<Vec<u64>> = (0..256).map(|r| vec![r as u64; 16]).collect();
    g.bench_function("all_to_all_broadcast_p256", |b| {
        b.iter(|| {
            let mut clocks = vec![0.0; 256];
            coll.all_to_all_broadcast(black_box(&mut clocks), &contrib, 2)
        })
    });
    g.finish();
}

fn bench_branch_lookup(c: &mut Criterion) {
    // A3: hash table vs sorted-table binary search for branch keys. The
    // paper saw no significant difference; the numbers here let a reader
    // verify that for realistic branch counts (hundreds) both are tens of
    // nanoseconds — dwarfed by the subtree interaction they gate.
    let mut g = c.benchmark_group("branch_lookup");
    for &count in &[64usize, 512, 4096] {
        let entries: Vec<(u64, u32)> = (0..count)
            .map(|i| {
                let mut k = NodeKey::ROOT;
                let mut v = i as u64;
                for _ in 0..7 {
                    k = k.child((v % 8) as u8);
                    v /= 8;
                }
                (k.raw(), i as u32)
            })
            .collect();
        let probes: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();
        let hashed = HashedLookup::new(entries.clone());
        let sorted = SortedLookup::new(entries.clone());
        g.bench_with_input(BenchmarkId::new("hashed", count), &hashed, |b, l| {
            b.iter(|| {
                let mut hits = 0;
                for &k in &probes {
                    hits += l.find(black_box(k)).is_some() as u32;
                }
                hits
            })
        });
        g.bench_with_input(BenchmarkId::new("sorted", count), &sorted, |b, l| {
            b.iter(|| {
                let mut hits = 0;
                for &k in &probes {
                    hits += l.find(black_box(k)).is_some() as u32;
                }
                hits
            })
        });
    }
    g.finish();
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_morton,
        bench_multipole_ops,
        bench_collectives,
        bench_branch_lookup
);
criterion_main!(micro);
