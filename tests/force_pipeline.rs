//! The three entries into the grouped force pipeline (`gather → eval` in
//! `tree::group`) against the per-particle walk itself, on one
//! seeded Plummer set: the full executor sweep, a masked block substep after
//! the particles moved on (on a tree built from where they are now), and a
//! served field query at particle positions. Values agree to 1e-12 relative;
//! interaction counts exactly.
//! A second case drives both paths of the executor through one harness:
//! degree 2 (which walks per target) bitwise against `MultipoleTree::eval`,
//! and the monopole's group sweep against the per-target walk. A degree-k
//! case holds k ∈ {2, 3} to `MultipoleTree::eval` bit for bit over two
//! distributions, two α, one and two threads, full and masked.
//! A third picks the walk units whose members split between the shared
//! near-field slab and a mixed root, where self-exclusion is per member.
//! A fourth holds the executor's sweep — which gathers each unit through the
//! ancestor levels it shares with the one before — to the one-shot public
//! calls, bit for bit. A fifth holds the executor's tree at one, two and
//! four threads to the one sequential build, field for field.

use barnes_hut::geom::{multi_gaussian, plummer, GaussianSpec, Particle, PlummerSpec, Vec3};
use barnes_hut::multipole::MultipoleTree;
use barnes_hut::threads::{ThreadConfig, ThreadSim};
use barnes_hut::timestep::ActiveSet;
use barnes_hut::tree::build::{build, BuildParams};
use barnes_hut::tree::group::{
    eval_gathered_monopole_masked, gather_group, leaf_schedule, resolve_mixed_tails_lanes,
    InteractionBuffers,
};
use barnes_hut::tree::{
    accel_on, potential_at, BarnesHutMac, KernelPrecision, QueryTarget, TraversalStats, Tree,
};
use bhut_serve::{FieldQuery, TreeEpoch};

const TOL: f64 = 1e-12;

/// Acceleration, potential and interaction count of the per-particle walk
/// for particle `p` — what every pipeline entry must reproduce.
fn walk(tree: &Tree, ps: &[Particle], p: &Particle, cfg: &ThreadConfig) -> (Vec3, f64, u64) {
    let mac = BarnesHutMac::new(cfg.alpha);
    let (acc, st) = accel_on(tree, ps, p.pos, Some(p.id), &mac, cfg.eps);
    let (phi, _) = potential_at(tree, ps, p.pos, Some(p.id), &mac, cfg.eps);
    (acc, phi, st.interactions())
}

fn assert_close(acc: Vec3, phi: f64, want: (Vec3, f64, u64), ctx: &str) {
    assert_within(TOL, acc, phi, want, ctx);
}

fn assert_within(tol: f64, acc: Vec3, phi: f64, want: (Vec3, f64, u64), ctx: &str) {
    assert!(acc.dist(want.0) <= tol * want.0.norm().max(1.0), "{ctx}: acc {acc:?} vs {:?}", want.0);
    assert!((phi - want.1).abs() <= tol * want.1.abs().max(1.0), "{ctx}: phi {phi} vs {}", want.1);
}

fn assert_bitwise(acc: Vec3, phi: f64, want: (Vec3, f64, u64), ctx: &str) {
    assert_eq!(
        [acc.x, acc.y, acc.z, phi].map(f64::to_bits),
        [want.0.x, want.0.y, want.0.z, want.1].map(f64::to_bits),
        "{ctx}: acc {acc:?} vs {:?}, phi {phi} vs {}",
        want.0,
        want.1
    );
}

#[test]
fn executor_substep_and_served_query_all_equal_the_per_particle_walk() {
    let set = plummer(PlummerSpec { n: 800, seed: 5, ..Default::default() });
    let ps = &set.particles;
    let cfg = ThreadConfig { threads: 2, ..Default::default() };
    let mut sim = ThreadSim::new(cfg);
    let tree = sim.build_tree(ps);
    let reference: Vec<(Vec3, f64, u64)> = ps.iter().map(|p| walk(&tree, ps, p, &cfg)).collect();

    // 1. The full sweep.
    let full = sim.compute_forces(ps);
    let work = sim.work_weights().expect("a computation records its work").to_vec();
    for (i, want) in reference.iter().enumerate() {
        assert_close(
            full.accels[i],
            full.potentials[i],
            *want,
            &format!("full sweep, particle {i}"),
        );
        assert_eq!(work[i], want.2, "full sweep, particle {i}: interactions");
    }
    assert_eq!(full.stats.interactions(), reference.iter().map(|r| r.2).sum::<u64>());

    // 2. A masked substep after the particles drifted: the walk of the tree
    // built from the positions of now, which is not the walk of the tree the
    // full sweep built before the drift — the substep rebuilt. (`reuse`
    // selects nothing.)
    let mut moved = ps.clone();
    for (i, p) in moved.iter_mut().enumerate() {
        let s = 1e-3 * ((i * 37) % 13) as f64;
        p.pos += Vec3::new(s, -0.5 * s, 0.25 * s);
    }
    let mask: Vec<bool> = (0..ps.len()).map(|i| i % 3 == 0).collect();
    let sub = sim.compute_forces_substep(&moved, &ActiveSet::from_mask(mask.clone()), true, true);
    let work = sim.work_weights().expect("a computation records its work");
    let rebuilt = sim.build_tree(&moved);
    let (mut active_interactions, mut on_stale) = (0, 0);
    for (i, p) in moved.iter().enumerate().filter(|(i, _)| mask[*i]) {
        let want = walk(&rebuilt, &moved, p, &cfg);
        assert_close(sub.accels[i], sub.potentials[i], want, &format!("substep, particle {i}"));
        assert_eq!(work[i], want.2, "substep, particle {i}: interactions");
        active_interactions += want.2;
        on_stale += walk(&tree, &moved, p, &cfg).2;
    }
    assert_eq!(sub.stats.interactions(), active_interactions);
    assert_ne!(active_interactions, on_stale, "the drift must tell the two trees apart");

    // 3. A served query at the particle positions, each skipping itself.
    let points: Vec<QueryTarget> = ps.iter().map(|p| (p.pos, p.id)).collect();
    let epoch = TreeEpoch::standalone(1, tree, ps.clone(), cfg.alpha, cfg.eps);
    let mut out = Vec::new();
    let stats = FieldQuery::new(16).eval(&epoch, &points, KernelPrecision::F64, &mut out);
    for (i, want) in reference.iter().enumerate() {
        assert_close(out[i].acc, out[i].phi, *want, &format!("served query, point {i}"));
    }
    assert_eq!(stats.interactions(), reference.iter().map(|r| r.2).sum::<u64>());
}

/// A full two-thread sweep under `cfg` against `reference(tree, particle)`:
/// values as `check` demands, interaction counts exactly.
fn sweep_equals(
    ctx: &str,
    cfg: ThreadConfig,
    check: fn(Vec3, f64, (Vec3, f64, u64), &str),
    ps: &[Particle],
    reference: impl Fn(&Tree, &Particle) -> (Vec3, f64, u64),
) {
    let mut sim = ThreadSim::new(cfg);
    let tree = sim.build_tree(ps);
    let out = sim.compute_forces(ps);
    let work = sim.work_weights().expect("a computation records its work");
    let mut interactions = 0;
    for (i, p) in ps.iter().enumerate() {
        let want = reference(&tree, p);
        check(out.accels[i], out.potentials[i], want, &format!("{ctx}, particle {i}"));
        assert_eq!(work[i], want.2, "{ctx}, particle {i}: interactions");
        interactions += want.2;
    }
    assert_eq!(out.stats.interactions(), interactions, "{ctx}");
}

#[test]
fn degree_two_and_monopole_sweeps_equal_their_per_target_walks() {
    let set = plummer(PlummerSpec { n: 600, seed: 9, ..Default::default() });
    let ps = &set.particles;

    let cfg = ThreadConfig { threads: 2, degree: 2, ..Default::default() };
    let mac = BarnesHutMac::new(cfg.alpha);
    let mtree = MultipoleTree::new(&ThreadSim::new(cfg).build_tree(ps), ps, 2);
    sweep_equals("degree 2", cfg, assert_bitwise, ps, |tree, p| {
        let (phi, acc, st) = mtree.eval(tree, ps, p.pos, Some(p.id), &mac, cfg.eps);
        (acc, phi, st.interactions())
    });

    let cfg = ThreadConfig { threads: 2, ..Default::default() };
    sweep_equals("monopole", cfg, assert_close, ps, |tree, p| walk(tree, ps, p, &cfg));
}

/// Degree k > 0 takes one path through the executor, the per-target walk:
/// every active row is `MultipoleTree::eval` on the executor's own tree, to
/// the bit, with its exact interaction count — at one thread and at two,
/// for a full sweep and a masked one.
#[test]
fn degree_k_rows_are_bitwise_the_multipole_walk_full_and_masked() {
    let sets = [
        plummer(PlummerSpec { n: 1000, seed: 31, ..Default::default() }),
        multi_gaussian(GaussianSpec { n: 1000, clusters: 4, seed: 32, ..Default::default() }),
    ];
    for (set, degree, alpha, threads) in sets
        .iter()
        .flat_map(|s| [2u32, 3].map(|k| (s, k)))
        .flat_map(|(s, k)| [0.67, 1.0].map(|a| (s, k, a)))
        .flat_map(|(s, k, a)| [1, 2].map(|t| (s, k, a, t)))
    {
        let ps = &set.particles;
        let ctx = format!("n {} degree {degree} α {alpha} {threads} thread(s)", ps.len());
        let mut sim = ThreadSim::new(ThreadConfig { threads, degree, alpha, ..Default::default() });
        let tree = sim.build_tree(ps);
        let mtree = MultipoleTree::new(&tree, ps, degree);
        let mac = BarnesHutMac::new(alpha);
        let reference: Vec<(Vec3, f64, TraversalStats)> = ps
            .iter()
            .map(|p| {
                let (phi, acc, st) = mtree.eval(&tree, ps, p.pos, Some(p.id), &mac, sim.config.eps);
                (acc, phi, st)
            })
            .collect();
        let mask: Vec<bool> = (0..ps.len()).map(|i| i % 3 == 0).collect();
        for active in [vec![true; ps.len()], mask] {
            let out = if active.iter().all(|&a| a) {
                sim.compute_forces(ps)
            } else {
                sim.compute_forces_active(ps, &ActiveSet::from_mask(active.clone()))
            };
            let work = sim.work_weights().expect("a computation records its work");
            let mut total = TraversalStats::default();
            for (i, &(acc, phi, st)) in reference.iter().enumerate() {
                if !active[i] {
                    assert_eq!((out.accels[i], out.potentials[i]), (Vec3::ZERO, 0.0), "{ctx}: {i}");
                    continue;
                }
                let row = format!("{ctx}, particle {i}");
                assert_bitwise(out.accels[i], out.potentials[i], (acc, phi, 0), &row);
                assert_eq!(work[i], st.interactions(), "{row}: interactions");
                total.merge(st);
            }
            assert_eq!(out.stats, total, "{ctx}");
        }
    }
}

/// A multi-leaf walk unit can hold one leaf that the shared walk appended
/// to the near-field slab (its members find themselves there, id-masked) and
/// another that sits below a mixed root (its members leave themselves out in
/// the replay). Both kinds of member must count and sum exactly as the
/// per-particle walk does, and a masked evaluation must reproduce the full
/// one's rows bit for bit.
#[test]
fn units_split_between_the_shared_slab_and_a_mixed_root_are_exact_per_member() {
    let set = plummer(PlummerSpec { n: 3000, seed: 13, ..Default::default() });
    let ps = &set.particles;
    let cfg = ThreadConfig { threads: 1, ..Default::default() };
    let mac = BarnesHutMac::new(cfg.alpha);
    let tree = ThreadSim::new(cfg).build_tree(ps);
    let mask: Vec<bool> = (0..ps.len()).map(|i| i % 2 == 0).collect();
    let mut buf = InteractionBuffers::new();
    let mut split_units = 0;
    for unit in leaf_schedule(&tree) {
        gather_group(&tree, ps, unit, &mac, &mut buf);
        let node = tree.node(unit);
        let members = 0..node.count() as usize;
        let in_slab = members.clone().filter(|&k| buf.self_in_p2p(k)).count();
        let behind_mixed = members
            .filter(|&k| {
                let at = node.start + k as u32;
                !buf.self_in_p2p(k)
                    && buf
                        .mixed
                        .iter()
                        .any(|&r| (tree.node(r).start..tree.node(r).end).contains(&at))
            })
            .count();
        if node.is_leaf() || in_slab == 0 || behind_mixed == 0 {
            continue;
        }
        split_units += 1;
        let rows = |active: Option<&[bool]>| {
            let mut rows = Vec::new();
            let emit = |pi, phi, acc, it| rows.push((pi, phi, acc, it));
            let precision = KernelPrecision::F64;
            eval_gathered_monopole_masked(
                &tree, ps, unit, &mac, cfg.eps, precision, &buf, active, emit,
            );
            rows
        };
        let full = rows(None);
        assert_eq!(full.len(), node.count() as usize);
        for &(pi, phi, acc, interactions) in &full {
            let want = walk(&tree, ps, &ps[pi as usize], &cfg);
            assert_close(acc, phi, want, &format!("unit {unit}, particle {pi}"));
            assert_eq!(interactions, want.2, "unit {unit}, particle {pi}: interactions");
        }
        let masked = rows(Some(&mask));
        let want: Vec<_> = full.iter().copied().filter(|row| mask[row.0 as usize]).collect();
        assert_eq!(masked, want, "unit {unit}: masked rows");
    }
    assert!(split_units > 0, "no unit splits between the shared slab and a mixed root");
}

/// `compute_forces` gathers a worker's units incrementally (`GroupSweep`);
/// whoever drives the pipeline from outside — the benchmark's traced replica
/// does — makes the three public calls per unit of `leaf_schedule`, each
/// gather starting from an empty chain. (The middle call has been empty
/// since the evaluation replays the mixed frontier itself; it is made here
/// exactly as the harness makes it, so its name and signature stay pinned
/// until the harness lets go of it.) Both must produce the same bits, at one
/// thread and at two (different ranges, so different chains).
#[test]
fn compute_forces_is_bitwise_the_three_public_calls_per_unit() {
    let set = plummer(PlummerSpec { n: 4000, seed: 21, ..Default::default() });
    let ps = &set.particles;
    for threads in [1, 2] {
        let cfg = ThreadConfig { threads, ..Default::default() };
        let mac = BarnesHutMac::new(cfg.alpha);
        let mut sim = ThreadSim::new(cfg);
        let tree = sim.build_tree(ps);
        let swept = sim.compute_forces(ps);

        let mut buf = InteractionBuffers::new();
        let mut accels = vec![Vec3::ZERO; ps.len()];
        let mut potentials = vec![0.0; ps.len()];
        let mut interactions = 0;
        for unit in leaf_schedule(&tree) {
            gather_group(&tree, ps, unit, &mac, &mut buf);
            resolve_mixed_tails_lanes(&tree, ps, unit, &mac, &mut buf, None);
            let emit = |pi: u32, phi: f64, acc: Vec3, _| {
                accels[pi as usize] = acc;
                potentials[pi as usize] = phi;
            };
            let st = eval_gathered_monopole_masked(
                &tree,
                ps,
                unit,
                &mac,
                cfg.eps,
                cfg.precision,
                &buf,
                None,
                emit,
            );
            interactions += st.interactions();
        }
        for i in 0..ps.len() {
            let (a, b) = (swept.accels[i], accels[i]);
            assert_eq!(
                [a.x, a.y, a.z, swept.potentials[i]].map(f64::to_bits),
                [b.x, b.y, b.z, potentials[i]].map(f64::to_bits),
                "{threads} thread(s), particle {i}"
            );
        }
        assert_eq!(swept.stats.interactions(), interactions, "{threads} thread(s)");
    }
}

/// Threads split the walk and nothing else: the tree the executor builds
/// is `build::build` at its leaf capacity, every node field and `order` bit
/// for bit, at one, two and four threads, on a Plummer sphere and on
/// clustered Gaussian blobs.
#[test]
fn the_executors_tree_is_the_sequential_build_at_every_thread_count() {
    let sets = [
        plummer(PlummerSpec { n: 20_000, seed: 41, ..Default::default() }),
        multi_gaussian(GaussianSpec { n: 20_000, clusters: 8, seed: 42, ..Default::default() }),
    ];
    let bits = |v: Vec3| [v.x, v.y, v.z].map(f64::to_bits);
    for set in &sets {
        let ps = &set.particles;
        for threads in [1, 2, 4] {
            let sim = ThreadSim::new(ThreadConfig { threads, ..Default::default() });
            let want = build(ps, BuildParams::with_leaf_capacity(sim.config.leaf_capacity));
            let got = sim.build_tree(ps);
            let ctx = format!("n {} {threads} thread(s)", ps.len());
            assert_eq!(got.order, want.order, "{ctx}: order");
            assert_eq!(got.len(), want.len(), "{ctx}: node count");
            assert_eq!(bits(got.root_cell.min), bits(want.root_cell.min), "{ctx}: root cell");
            assert_eq!(bits(got.root_cell.max), bits(want.root_cell.max), "{ctx}: root cell");
            for (id, (g, w)) in got.nodes.iter().zip(&want.nodes).enumerate() {
                let node = format!("{ctx}, node {id}");
                assert_eq!(g.side.to_bits(), w.side.to_bits(), "{node}: side");
                assert_eq!(g.key, w.key, "{node}: key");
                assert_eq!(g.mass.to_bits(), w.mass.to_bits(), "{node}: mass");
                assert_eq!(bits(g.com), bits(w.com), "{node}: com");
                assert_eq!(g.child_mask, w.child_mask, "{node}");
                assert_eq!((g.start, g.end, g.next), (w.start, w.end, w.next), "{node}");
            }
        }
    }
}
