//! Tree traversal and force/potential evaluation.
//!
//! §2: "the multipole acceptance criterion is applied to the root of the
//! tree to determine if an interaction can be computed; if not, the node is
//! expanded and the process is repeated for each of the (four or eight)
//! children."
//!
//! One function, [`walk`], owns the descent for a single target point: the
//! stack, the empty and singleton cases, the MAC test and the child order.
//! It reports every non-empty node it pops with a [`Visit`] outcome, and
//! everything that evaluates one target is a sink over those reports:
//!
//! * [`for_each_interaction`] turns them into [`Interaction`]s, which serve
//!   monopole force / potential evaluation ([`accel_on`], [`potential_at`])
//!   and degree-k multipole evaluation (in `bhut-multipole`);
//! * per-node *load* accounting ([`accumulate_loads`]) — "each node in the
//!   tree keeps track of the number of particles it interacts with" (§3.3) —
//!   which is what the SPDA/DPDA balancers consume;
//! * the function-shipping engine in `bhut-core` (`evalcore`), which marks
//!   non-local branch nodes opaque so the walk is *cut* there, and its
//!   data-shipping comparator (`dataship`), which records every node the
//!   walk reports.

use crate::mac::BarnesHutMac;
use crate::node::{NodeId, Tree};
use bhut_geom::{Particle, Vec3};

/// Counters describing one (or many accumulated) traversals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Particle–node interactions (MAC accepted).
    pub p2n: u64,
    /// Particle–particle interactions (direct sums in leaves).
    pub p2p: u64,
    /// MAC evaluations performed.
    pub mac_tests: u64,
}

impl TraversalStats {
    /// Total "force computations" in the paper's sense (the `F` of
    /// Tables 1/4).
    pub fn interactions(&self) -> u64 {
        self.p2n + self.p2p
    }

    pub fn merge(&mut self, o: TraversalStats) {
        self.p2n += o.p2n;
        self.p2p += o.p2p;
        self.mac_tests += o.mac_tests;
    }
}

/// One approved interaction delivered to the traversal sink.
#[derive(Debug, Clone, Copy)]
pub enum Interaction {
    /// Evaluate the expansion of node `id` at the target.
    Node(NodeId),
    /// Direct particle–particle interaction with particle `index` (an index
    /// into the particle slice backing the tree).
    Particle(u32),
}

/// What [`walk`] did with one non-empty node it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// The node holds exactly one particle: a direct interaction, with no
    /// MAC test — expanding a singleton buys nothing.
    Singleton,
    /// The MAC accepted the node.
    Accepted,
    /// The MAC rejected a leaf: its particles interact directly.
    Leaf,
    /// The MAC rejected an internal node; its children are visited next.
    Opened,
    /// The MAC rejected an opaque node: the walk does not look below it.
    Cut,
}

/// The per-target descent of §2, from `root`: take a node, skip it if
/// empty, apply `mac` unless it is a singleton, and on rejection descend
/// into the children (octant order) — except below a node for which
/// `opaque` holds, which may be tested but never opened. Every non-empty
/// node taken is reported to `visit` with what happened to it; every
/// outcome but [`Visit::Singleton`] cost one MAC test.
pub fn walk(
    tree: &Tree,
    root: NodeId,
    point: Vec3,
    mac: &BarnesHutMac,
    opaque: impl Fn(NodeId) -> bool,
    mut visit: impl FnMut(NodeId, Visit),
) {
    if tree.is_empty() {
        return;
    }
    // The arena is in preorder: opening a node goes on at its first child,
    // `id + 1`, and anything else skips its subtree to `next`, so the ids
    // come in the order a stack of children pushed in reverse pops them.
    let end = tree.node(root).next;
    let mut id = root;
    while id < end {
        let node = tree.node(id);
        let mut to = node.next;
        let outcome = match node.count() {
            0 => {
                id = to;
                continue;
            }
            1 => Visit::Singleton,
            _ if mac.accept(node.side, node.com, point) => Visit::Accepted,
            _ if opaque(id) => Visit::Cut,
            _ if node.is_leaf() => Visit::Leaf,
            _ => {
                to = id + 1;
                Visit::Opened
            }
        };
        visit(id, outcome);
        id = to;
    }
}

/// Walk the tree for a target at `point`, applying `mac`, and deliver every
/// approved interaction to `sink`. `skip_id` excludes one particle id (the
/// target itself) from direct sums.
pub fn for_each_interaction(
    tree: &Tree,
    particles: &[Particle],
    point: Vec3,
    skip_id: Option<u32>,
    mac: &BarnesHutMac,
    sink: impl FnMut(Interaction),
) -> TraversalStats {
    for_each_interaction_from(tree, 0, particles, point, skip_id, mac, sink)
}

/// [`for_each_interaction`] restricted to the subtree rooted at `root`. The
/// function-shipping protocol uses this at the *owning* processor: a shipped
/// particle interacts with the entire subtree under one branch node (§3.2).
pub fn for_each_interaction_from(
    tree: &Tree,
    root: NodeId,
    particles: &[Particle],
    point: Vec3,
    skip_id: Option<u32>,
    mac: &BarnesHutMac,
    mut sink: impl FnMut(Interaction),
) -> TraversalStats {
    let mut stats = TraversalStats::default();
    let report = |id, visit| {
        stats.mac_tests += (visit != Visit::Singleton) as u64;
        match visit {
            Visit::Accepted => {
                stats.p2n += 1;
                sink(Interaction::Node(id));
            }
            Visit::Singleton | Visit::Leaf => {
                for &pi in tree.particles_under(id) {
                    if Some(particles[pi as usize].id) != skip_id {
                        stats.p2p += 1;
                        sink(Interaction::Particle(pi));
                    }
                }
            }
            Visit::Opened | Visit::Cut => {}
        }
    };
    walk(tree, root, point, mac, |_| false, report);
    stats
}

/// Monopole kernel: acceleration at `point` due to mass `m` at `src`,
/// Plummer-softened by `eps` (G = 1).
#[inline]
pub fn accel_kernel(point: Vec3, src: Vec3, m: f64, eps: f64) -> Vec3 {
    let d = src - point;
    let r2 = d.norm_sq() + eps * eps;
    if r2 == 0.0 {
        return Vec3::ZERO;
    }
    d * (m / (r2 * r2.sqrt()))
}

/// Monopole kernel: potential at `point` due to mass `m` at `src`.
#[inline]
pub fn potential_kernel(point: Vec3, src: Vec3, m: f64, eps: f64) -> f64 {
    let r2 = point.dist_sq(src) + eps * eps;
    if r2 == 0.0 {
        return 0.0;
    }
    -m / r2.sqrt()
}

/// Barnes–Hut acceleration at `point` using monopole (center-of-mass)
/// approximations for accepted nodes.
pub fn accel_on(
    tree: &Tree,
    particles: &[Particle],
    point: Vec3,
    skip_id: Option<u32>,
    mac: &BarnesHutMac,
    eps: f64,
) -> (Vec3, TraversalStats) {
    let mut acc = Vec3::ZERO;
    let stats = for_each_interaction(tree, particles, point, skip_id, mac, |i| match i {
        Interaction::Node(id) => {
            let n = tree.node(id);
            acc += accel_kernel(point, n.com, n.mass, eps);
        }
        Interaction::Particle(pi) => {
            let p = &particles[pi as usize];
            acc += accel_kernel(point, p.pos, p.mass, eps);
        }
    });
    (acc, stats)
}

/// Barnes–Hut gravitational potential at `point` (monopole approximation).
pub fn potential_at(
    tree: &Tree,
    particles: &[Particle],
    point: Vec3,
    skip_id: Option<u32>,
    mac: &BarnesHutMac,
    eps: f64,
) -> (f64, TraversalStats) {
    let mut phi = 0.0;
    let stats = for_each_interaction(tree, particles, point, skip_id, mac, |i| match i {
        Interaction::Node(id) => {
            let n = tree.node(id);
            phi += potential_kernel(point, n.com, n.mass, eps);
        }
        Interaction::Particle(pi) => {
            let p = &particles[pi as usize];
            phi += potential_kernel(point, p.pos, p.mass, eps);
        }
    });
    (phi, stats)
}

/// Accumulate per-node interaction loads for a batch of targets: `loads[id]`
/// gains 1 for each accepted particle–node interaction with node `id`, and
/// the *enclosing leaf* gains 1 for each direct particle–particle
/// interaction. This is the per-node load measure the DPDA costzones
/// balancer sums up the tree (§3.3.3).
pub fn accumulate_loads(
    tree: &Tree,
    particles: &[Particle],
    targets: impl IntoIterator<Item = (Vec3, Option<u32>)>,
    mac: &BarnesHutMac,
    loads: &mut [u64],
) -> TraversalStats {
    assert_eq!(loads.len(), tree.len(), "loads slice must match node count");
    // Map each particle index to its containing leaf once.
    let mut leaf_of: Vec<NodeId> = vec![0; tree.order.len()];
    for (idx, n) in tree.nodes.iter().enumerate() {
        if n.is_leaf() {
            for &pi in tree.particles_under(idx as NodeId) {
                leaf_of[pi as usize] = idx as NodeId;
            }
        }
    }
    let mut total = TraversalStats::default();
    for (point, skip) in targets {
        let stats = for_each_interaction(tree, particles, point, skip, mac, |i| match i {
            Interaction::Node(id) => loads[id as usize] += 1,
            Interaction::Particle(pi) => loads[leaf_of[pi as usize] as usize] += 1,
        });
        total.merge(stats);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, BuildParams};
    use crate::direct;
    use crate::mac::BarnesHutMac;
    use bhut_geom::{plummer, uniform_cube, PlummerSpec};

    const EPS: f64 = 1e-4;

    #[test]
    fn accel_matches_direct_for_tiny_alpha() {
        // α → 0 forces full expansion: tree result equals direct summation.
        let set = uniform_cube(200, 1.0, 1);
        let t = build(&set.particles, BuildParams::with_leaf_capacity(4));
        let mac = BarnesHutMac::new(1e-9);
        for p in set.iter().take(20) {
            let (a, _) = accel_on(&t, &set.particles, p.pos, Some(p.id), &mac, EPS);
            let exact = direct::accel_direct(&set.particles, p.pos, Some(p.id), EPS);
            assert!(a.dist(exact) <= 1e-12 * exact.norm().max(1.0), "{a:?} vs {exact:?}");
        }
    }

    #[test]
    fn accel_close_to_direct_for_typical_alpha() {
        let set = plummer(PlummerSpec { n: 1500, ..Default::default() });
        let t = build(&set.particles, BuildParams::default());
        let mac = BarnesHutMac::new(0.5);
        let mut num = 0.0;
        let mut den = 0.0;
        for p in set.iter().take(100) {
            let (a, _) = accel_on(&t, &set.particles, p.pos, Some(p.id), &mac, EPS);
            let exact = direct::accel_direct(&set.particles, p.pos, Some(p.id), EPS);
            num += a.dist_sq(exact);
            den += exact.norm_sq();
        }
        let rel = (num / den).sqrt();
        assert!(rel < 0.02, "relative force error too large: {rel}");
    }

    #[test]
    fn smaller_alpha_means_more_interactions_and_less_error() {
        let set = plummer(PlummerSpec { n: 800, seed: 5, ..Default::default() });
        let t = build(&set.particles, BuildParams::default());
        let run = |alpha: f64| -> (u64, f64) {
            let mac = BarnesHutMac::new(alpha);
            let mut inter = 0;
            let mut num = 0.0;
            let mut den = 0.0;
            for p in set.iter().take(200) {
                let (phi, st) = potential_at(&t, &set.particles, p.pos, Some(p.id), &mac, EPS);
                let exact = direct::potential_direct(&set.particles, p.pos, Some(p.id), EPS);
                inter += st.interactions();
                num += (phi - exact) * (phi - exact);
                den += exact * exact;
            }
            (inter, (num / den).sqrt())
        };
        let (i_small, e_small) = run(0.3);
        let (i_mid, _) = run(0.8);
        let (i_big, e_big) = run(1.4);
        // Interactions shrink strictly as α grows…
        assert!(i_small > i_mid && i_mid > i_big, "{i_small} {i_mid} {i_big}");
        // …and accuracy degrades between the extremes.
        assert!(e_small < e_big, "error did not grow: {e_small} vs {e_big}");
    }

    #[test]
    fn skip_id_excludes_self() {
        let set = uniform_cube(50, 1.0, 2);
        let t = build(&set.particles, BuildParams::with_leaf_capacity(4));
        let mac = BarnesHutMac::new(1e-9); // full expansion ⇒ p2p only
        let p = &set.particles[7];
        let (_, with_skip) = accel_on(&t, &set.particles, p.pos, Some(p.id), &mac, EPS);
        let (_, no_skip) = accel_on(&t, &set.particles, p.pos, None, &mac, EPS);
        assert_eq!(with_skip.p2p + 1, no_skip.p2p);
    }

    #[test]
    fn empty_tree_yields_zero() {
        let t = build(&[], BuildParams::default());
        let (a, st) = accel_on(&t, &[], Vec3::ZERO, None, &BarnesHutMac::new(0.7), EPS);
        assert_eq!(a, Vec3::ZERO);
        assert_eq!(st.interactions(), 0);
    }

    #[test]
    fn interaction_count_scales_like_n_log_n() {
        // Average interactions per particle grows slowly (≈ log n), not
        // linearly.
        let mac = BarnesHutMac::new(0.7);
        let per = |n: usize| -> f64 {
            let set = uniform_cube(n, 1.0, 3);
            let t = build(&set.particles, BuildParams::default());
            let mut total = 0;
            for p in set.iter() {
                let (_, st) = potential_at(&t, &set.particles, p.pos, Some(p.id), &mac, EPS);
                total += st.interactions();
            }
            total as f64 / n as f64
        };
        let a = per(500);
        let b = per(4000);
        // 8× the particles should cost far less than 8× per-particle work.
        assert!(b < a * 3.0, "per-particle work grew too fast: {a} -> {b}");
    }

    #[test]
    fn loads_sum_to_total_interactions() {
        let set = uniform_cube(300, 1.0, 8);
        let t = build(&set.particles, BuildParams::default());
        let mac = BarnesHutMac::new(0.8);
        let mut loads = vec![0u64; t.len()];
        let stats = accumulate_loads(
            &t,
            &set.particles,
            set.iter().map(|p| (p.pos, Some(p.id))),
            &mac,
            &mut loads,
        );
        assert_eq!(loads.iter().sum::<u64>(), stats.interactions());
        assert!(stats.interactions() > 0);
    }

    #[test]
    fn potential_is_negative_for_positive_masses() {
        let set = uniform_cube(100, 1.0, 4);
        let t = build(&set.particles, BuildParams::default());
        let mac = BarnesHutMac::new(0.7);
        for p in set.iter().take(10) {
            let (phi, _) = potential_at(&t, &set.particles, p.pos, Some(p.id), &mac, EPS);
            assert!(phi < 0.0);
        }
    }
}
