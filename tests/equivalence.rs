//! Property-based cross-crate equivalences: the parallel decompositions are
//! *exact* reformulations of the sequential treecode, for arbitrary particle
//! configurations and machine shapes.

use barnes_hut::core::balance::{spda_initial, spsa_assignment, Curve};
use barnes_hut::core::domain::ClusterGrid;
use barnes_hut::core::evalcore::{eval_from, eval_owned, EvalEnv};
use barnes_hut::core::funcship::{run_force_phase, ForceConfig};
use barnes_hut::core::partition::Partition;
use barnes_hut::geom::{multi_gaussian, plummer, GaussianSpec, PlummerSpec};
use barnes_hut::geom::{Aabb, Particle, ParticleSet, Vec3};
use barnes_hut::machine::{CostModel, Hypercube, Machine};
use barnes_hut::sim::{Simulation, SimulationConfig};
use barnes_hut::threads::{ThreadConfig, ThreadSim};
use barnes_hut::timestep::{ActiveSet, BlockConfig, TimestepMode};
use barnes_hut::tree::build::{build, build_in_cell, BuildParams};
use barnes_hut::tree::group::{
    eval_gathered_monopole_masked, gather_group, leaf_schedule, InteractionBuffers,
};
use barnes_hut::tree::traverse::TraversalStats;
use barnes_hut::tree::{BarnesHutMac, GroupClass, KernelPrecision, NodeId, Tree};
use proptest::prelude::*;

/// `gather → eval` for every member of `unit` in one call.
fn eval_unit(
    tree: &Tree,
    particles: &[Particle],
    unit: NodeId,
    mac: &BarnesHutMac,
    eps: f64,
    buf: &mut InteractionBuffers,
    emit: impl FnMut(u32, f64, Vec3, u64),
) -> TraversalStats {
    gather_group(tree, particles, unit, mac, buf);
    let f64s = KernelPrecision::F64;
    eval_gathered_monopole_masked(tree, particles, unit, mac, eps, f64s, buf, None, emit)
}

fn arb_particles(max_n: usize) -> impl Strategy<Value = ParticleSet> {
    proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.0f64..100.0, 0.1f64..2.0), 2..max_n)
        .prop_map(|points| {
            ParticleSet::new(
                points
                    .into_iter()
                    .enumerate()
                    .map(|(i, (x, y, z, m))| {
                        Particle::new(i as u32, m, Vec3::new(x, y, z), Vec3::ZERO)
                    })
                    .collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// local + shipped == sequential, for random particles, α, p, and s.
    #[test]
    fn function_shipping_is_exact(
        set in arb_particles(150),
        alpha in 0.3f64..1.5,
        log_p in 0u32..4,
        s in 1usize..8,
    ) {
        let p = 1usize << log_p;
        let cell = Aabb::origin_cube(100.0);
        let grid = ClusterGrid::new(8, cell);
        let tree = build_in_cell(
            &set.particles,
            cell,
            BuildParams { leaf_capacity: s, collapse: true, min_split_level: grid.level() },
        );
        let owners = spsa_assignment(&grid, p);
        let part = Partition::from_clusters(&tree, &grid, &owners, p);
        let mac = BarnesHutMac::new(alpha);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: 1e-6,
            degree: 0,
        };
        for particle in set.iter().take(20) {
            let me = part.owner_of_particle[particle.id as usize];
            let mut remote = Vec::new();
            let mut total = eval_owned(
                &env, particle.pos, Some(particle.id), me, &part.owner_of_node, None, &mut remote,
            );
            for &(owner, branch) in &remote {
                prop_assert_ne!(owner, me);
                let served = eval_from(&env, branch, particle.pos, Some(particle.id), None);
                total.merge(&served);
            }
            let (want, _) = barnes_hut::tree::potential_at(
                &tree, &set.particles, particle.pos, Some(particle.id), &mac, 1e-6,
            );
            prop_assert!(
                (total.phi - want).abs() <= 1e-9 * want.abs().max(1.0),
                "phi {} vs {}", total.phi, want
            );
        }
    }

    /// The full BSP protocol delivers the same potentials as the sequential
    /// evaluation, for random bin sizes and batches.
    #[test]
    fn bsp_protocol_is_exact(
        set in arb_particles(120),
        bin_size in 1usize..40,
        batch in 1usize..16,
    ) {
        let p = 8;
        let cell = Aabb::origin_cube(100.0);
        let grid = ClusterGrid::new(8, cell);
        let tree = build_in_cell(
            &set.particles,
            cell,
            BuildParams { leaf_capacity: 4, collapse: true, min_split_level: grid.level() },
        );
        let owners = spda_initial(&grid, p, Curve::Morton);
        let part = Partition::from_clusters(&tree, &grid, &owners, p);
        let mac = BarnesHutMac::new(0.7);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: 1e-6,
            degree: 0,
        };
        let machine = Machine::new(Hypercube::new(p), CostModel::ncube2());
        let run = run_force_phase(
            &machine, &env, &part, None, 0, false, ForceConfig { bin_size, batch, ..Default::default() },
        );
        for particle in set.iter() {
            let (want, _) = barnes_hut::tree::potential_at(
                &tree, &set.particles, particle.pos, Some(particle.id), &mac, 1e-6,
            );
            let got = run.potentials[particle.id as usize];
            prop_assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "particle {}: {} vs {}", particle.id, got, want
            );
        }
    }

    /// Costzones partitions cover every particle exactly once, whatever the
    /// weights.
    #[test]
    fn costzones_is_a_partition(
        set in arb_particles(150),
        p in 1usize..12,
        heavy in 0usize..100,
    ) {
        let cell = Aabb::origin_cube(100.0);
        let tree = build_in_cell(&set.particles, cell, BuildParams::default());
        let mut weights = vec![1.0; set.len()];
        if !weights.is_empty() {
            let idx = heavy % weights.len();
            weights[idx] = 1e6; // one pathologically heavy particle
        }
        let part = Partition::costzones_weighted(&tree, &weights, p);
        prop_assert!(part.check(&tree).is_ok());
        let lists = part.particles_by_owner();
        let total: usize = lists.iter().map(Vec::len).sum();
        prop_assert_eq!(total, set.len());
    }

    /// The group MAC's three-way classification brackets the per-point MAC:
    /// AcceptAll ⇒ every point in the bucket accepts, RejectAll ⇒ every
    /// point rejects — for random cells, buckets, and α.
    #[test]
    fn group_mac_is_conservative(
        cell_min in prop::array::uniform3(-50.0f64..50.0),
        cell_side in 0.5f64..40.0,
        bucket_min in prop::array::uniform3(-80.0f64..80.0),
        bucket_side in prop::array::uniform3(0.01f64..30.0),
        com_frac in prop::array::uniform3(0.05f64..0.95),
        alpha in 0.2f64..1.6,
    ) {
        let cell = Aabb::cube(Vec3::from_array(cell_min), cell_side);
        let bmin = Vec3::from_array(bucket_min);
        let bucket = Aabb::new(bmin, bmin + Vec3::from_array(bucket_side));
        let com = cell.min
            + Vec3::new(
                com_frac[0] * cell_side,
                com_frac[1] * cell_side,
                com_frac[2] * cell_side,
            );
        // Deterministic sample grid over the bucket, corners included.
        let mut samples = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    let f = |t: u32, lo: f64, hi: f64| lo + (hi - lo) * t as f64 / 3.0;
                    samples.push(Vec3::new(
                        f(i, bucket.min.x, bucket.max.x),
                        f(j, bucket.min.y, bucket.max.y),
                        f(k, bucket.min.z, bucket.max.z),
                    ));
                }
            }
        }
        let bh = BarnesHutMac::new(alpha);
        match bh.classify(&cell, com, &bucket) {
            GroupClass::AcceptAll => {
                for &p in &samples {
                    prop_assert!(bh.accept(&cell, com, p));
                }
            }
            GroupClass::RejectAll => {
                for &p in &samples {
                    prop_assert!(!bh.accept(&cell, com, p));
                }
            }
            GroupClass::Mixed => {}
        }
    }

    /// A rung hierarchy pinned to rung 0 is the global-dt leapfrog, bit for
    /// bit, for arbitrary particle sets, dt, and hierarchy depth: with every
    /// particle on rung 0 the scheduler performs exactly one full-sync
    /// substep per big step, its kick factors `dt_max/2^0 · ½` and drift
    /// span `2^L ticks · dt_max/2^L` are exact power-of-two arithmetic, and
    /// the full active set takes the executor's unmasked path.
    #[test]
    fn rung0_block_timesteps_are_bitwise_global_leapfrog(
        set in arb_particles(120),
        dt in 1e-4f64..1e-2,
        max_rung in 0u32..3,
        steps in 1usize..5,
    ) {
        let global = SimulationConfig { dt, eps: 1e-2, ..Default::default() };
        // A huge η makes the criterion dt exceed dt_max for every particle,
        // pinning all of them to rung 0 whatever the hierarchy depth.
        let block = SimulationConfig {
            timestep: TimestepMode::Block(BlockConfig {
                dt_max: dt,
                max_rung,
                eta: 1e12,
                eps: 1e-2,
            }),
            ..global
        };
        let mut a = Simulation::new(set.clone(), global);
        let mut b = Simulation::new(set, block);
        a.run(steps);
        b.run(steps);
        for (x, y) in a.particles.particles.iter().zip(&b.particles.particles) {
            prop_assert_eq!(x.pos, y.pos);
            prop_assert_eq!(x.vel, y.vel);
        }
    }

    /// Active-set force evaluation is a bitwise restriction of the full
    /// evaluation, for arbitrary particle sets and masks: active particles
    /// get identical accelerations and potentials, inactive ones get zero.
    #[test]
    fn active_set_forces_are_a_bitwise_restriction(
        set in arb_particles(150),
        mask_seed in 0u64..1000,
        stride in 2usize..5,
    ) {
        let n = set.len();
        let mask: Vec<bool> = (0..n)
            .map(|i| (i as u64).wrapping_mul(mask_seed + 7).is_multiple_of(stride as u64))
            .collect();
        let active = ActiveSet::from_mask(mask.clone());
        let mk = || ThreadSim::new(ThreadConfig { threads: 2, ..Default::default() });
        let full = mk().compute_forces(&set.particles);
        let part = mk().compute_forces_active(&set.particles, &active);
        for (i, &is_active) in mask.iter().enumerate() {
            if is_active {
                prop_assert_eq!(part.accels[i], full.accels[i]);
                prop_assert_eq!(part.potentials[i], full.potentials[i]);
            } else {
                prop_assert_eq!(part.accels[i], barnes_hut::geom::Vec3::ZERO);
                prop_assert_eq!(part.potentials[i], 0.0);
            }
        }
    }

    /// Grouped evaluation equals the per-particle walk for arbitrary
    /// particle sets: exact p2p counts, ≤1e-12-relative values.
    #[test]
    fn grouped_walk_is_exact_for_random_sets(
        set in arb_particles(200),
        alpha in 0.3f64..1.3,
        s in 1usize..16,
    ) {
        let tree = build(&set.particles, BuildParams::with_leaf_capacity(s));
        let mac = BarnesHutMac::new(alpha);
        let eps = 1e-4;
        let mut buf = InteractionBuffers::new();
        let mut grouped = TraversalStats::default();
        for leaf in leaf_schedule(&tree) {
            let st = eval_unit(
                &tree, &set.particles, leaf, &mac, eps, &mut buf,
                |pi, phi, acc, _| {
                    let p = &set.particles[pi as usize];
                    let (phi_ref, _) = barnes_hut::tree::potential_at(
                        &tree, &set.particles, p.pos, Some(p.id), &mac, eps,
                    );
                    let (acc_ref, _) = barnes_hut::tree::accel_on(
                        &tree, &set.particles, p.pos, Some(p.id), &mac, eps,
                    );
                    assert!((phi - phi_ref).abs() <= 1e-12 * phi_ref.abs().max(1.0));
                    assert!(acc.dist(acc_ref) <= 1e-12 * acc_ref.norm().max(1.0));
                },
            );
            grouped.merge(st);
        }
        let mut reference = TraversalStats::default();
        for p in set.iter() {
            let (_, st) = barnes_hut::tree::potential_at(
                &tree, &set.particles, p.pos, Some(p.id), &mac, eps,
            );
            reference.merge(st);
        }
        prop_assert_eq!(grouped.p2p, reference.p2p);
        prop_assert_eq!(grouped, reference);
    }

    /// The vectorised f64 pipeline agrees with the scalar per-target walk
    /// (`accel_on` / `potential_at`) to ≤1e-12 relative on every member —
    /// full and masked, with the mixed frontier replayed — with exact
    /// interaction counts throughout, and a masked member reads the bits of
    /// the full run.
    #[test]
    fn simd_f64_kernels_match_scalar_grouped_path(
        set in arb_particles(150),
        alpha in 0.3f64..1.3,
        s in 1usize..16,
        stride in 2usize..5,
    ) {
        let tree = build(&set.particles, BuildParams::with_leaf_capacity(s));
        let mac = BarnesHutMac::new(alpha);
        let eps = 1e-4;
        let mask: Vec<bool> = (0..set.len()).map(|i| i % stride != 1).collect();
        let mut buf = InteractionBuffers::new();
        let tol = 1e-12;
        for leaf in leaf_schedule(&tree) {
            gather_group(&tree, &set.particles, leaf, &mac, &mut buf);
            let run = |active: Option<&[bool]>| {
                let mut out: Vec<(u32, f64, Vec3, u64)> = Vec::new();
                eval_gathered_monopole_masked(
                    &tree, &set.particles, leaf, &mac, eps, KernelPrecision::F64, &buf, active,
                    |pi, phi, acc, it| out.push((pi, phi, acc, it)),
                );
                out
            };
            let full = run(None);
            for &(pi, phi, acc, it) in &full {
                let p = &set.particles[pi as usize];
                let (phi_ref, st) = barnes_hut::tree::potential_at(
                    &tree, &set.particles, p.pos, Some(p.id), &mac, eps,
                );
                let (acc_ref, _) = barnes_hut::tree::accel_on(
                    &tree, &set.particles, p.pos, Some(p.id), &mac, eps,
                );
                prop_assert_eq!(it, st.interactions(), "particle {}", pi);
                prop_assert!(
                    (phi - phi_ref).abs() <= tol * phi_ref.abs().max(1.0),
                    "phi {} vs walk {}", phi, phi_ref,
                );
                prop_assert!(
                    acc.dist(acc_ref) <= tol * acc_ref.norm().max(1.0),
                    "acc {:?} vs walk {:?}", acc, acc_ref,
                );
            }
            let masked = run(Some(mask.as_slice()));
            let active: Vec<_> = full.iter().filter(|r| mask[r.0 as usize]).copied().collect();
            prop_assert_eq!(masked, active);
        }
    }
}

/// Grouped vs per-particle agreement over the paper's benchmark
/// distributions: exact `TraversalStats` and ≤1e-12-relative potentials and
/// accelerations at α ∈ {0.67, 1}. (Degree k > 0 has no grouped path; the
/// executor walks it per target, pinned bitwise in `tests/force_pipeline.rs`.)
#[test]
fn grouped_walks_match_per_particle_on_benchmark_distributions() {
    let eps = 1e-4;
    let distributions: Vec<(&str, barnes_hut::geom::ParticleSet)> = vec![
        ("plummer", plummer(PlummerSpec { n: 1000, seed: 31, ..Default::default() })),
        (
            "multi_gaussian",
            multi_gaussian(GaussianSpec { n: 1000, clusters: 4, seed: 32, ..Default::default() }),
        ),
    ];
    for (name, set) in &distributions {
        for alpha in [0.67, 1.0] {
            let tree = build(&set.particles, BuildParams::with_leaf_capacity(8));
            let mac = BarnesHutMac::new(alpha);
            let walk = |p: &Particle| {
                let (phi, st) = barnes_hut::tree::potential_at(
                    &tree,
                    &set.particles,
                    p.pos,
                    Some(p.id),
                    &mac,
                    eps,
                );
                let (acc, _) =
                    barnes_hut::tree::accel_on(&tree, &set.particles, p.pos, Some(p.id), &mac, eps);
                (phi, acc, st)
            };
            let mut buf = InteractionBuffers::new();
            let mut grouped = TraversalStats::default();
            let mut covered = 0usize;
            for leaf in leaf_schedule(&tree) {
                let st = eval_unit(
                    &tree,
                    &set.particles,
                    leaf,
                    &mac,
                    eps,
                    &mut buf,
                    |pi, phi, acc, _| {
                        covered += 1;
                        let (phi_ref, acc_ref, _) = walk(&set.particles[pi as usize]);
                        assert!(
                            (phi - phi_ref).abs() <= 1e-12 * phi_ref.abs().max(1.0),
                            "{name} α {alpha}: phi {phi} vs {phi_ref}"
                        );
                        assert!(
                            acc.dist(acc_ref) <= 1e-12 * acc_ref.norm().max(1.0),
                            "{name} α {alpha}: acc mismatch"
                        );
                    },
                );
                grouped.merge(st);
            }
            assert_eq!(covered, set.len());
            let mut reference = TraversalStats::default();
            for p in set.iter() {
                reference.merge(walk(p).2);
            }
            assert_eq!(grouped, reference, "{name} α {alpha}");
        }
    }
}
