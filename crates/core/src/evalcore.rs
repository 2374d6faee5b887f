//! Ownership-aware traversal: the computational kernel of function shipping.
//!
//! [`eval_owned`] walks the tree for one particle the way a processor in the
//! paper's formulation can (§3.2): freely through the replicated top and its
//! own branch subtrees, treating *remote* branch nodes as opaque records —
//! MAC-acceptable from their broadcast mass/COM/series, but on MAC failure
//! emitted to `remote` for shipping instead of being expanded. [`eval_from`]
//! is the serving side: the full traversal of one owned subtree for a
//! shipped particle.
//!
//! Both return the paper's flop count for the work performed
//! (`14/MAC + (13 + 16k²)/interaction`, §5.2.1) so the simulated machine can
//! charge virtual time, and optionally accumulate per-node interaction loads
//! for the DPDA balancer.

use bhut_geom::{Particle, Vec3};
use bhut_multipole::{interaction_flops, MultipoleTree, MAC_FLOPS};
use bhut_tree::traverse::{accel_kernel, potential_kernel, walk, Visit};
use bhut_tree::{BarnesHutMac, NodeId, Tree};

/// Everything the evaluation kernels need to see, shared by all processors
/// of a simulated machine. (In the real machine each processor holds its
/// local tree plus the replicated top; here ownership is enforced by the
/// walker against `owner_of_node`.)
pub struct EvalEnv<'a> {
    pub tree: &'a Tree,
    pub particles: &'a [Particle],
    /// Per-node expansions when degree > 0; monopole (mass/COM) otherwise.
    pub mtree: Option<&'a MultipoleTree>,
    pub mac: &'a BarnesHutMac,
    pub eps: f64,
    pub degree: u32,
}

/// Result of one (partial) particle evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalResult {
    pub phi: f64,
    pub acc: Vec3,
    /// Paper-model flops performed.
    pub flops: u64,
    pub p2n: u64,
    pub p2p: u64,
    pub mac_tests: u64,
}

impl EvalResult {
    pub fn interactions(&self) -> u64 {
        self.p2n + self.p2p
    }

    pub fn merge(&mut self, o: &EvalResult) {
        self.phi += o.phi;
        self.acc += o.acc;
        self.flops += o.flops;
        self.p2n += o.p2n;
        self.p2p += o.p2p;
        self.mac_tests += o.mac_tests;
    }
}

/// Evaluate the locally computable part of the interaction of `point` and
/// emit `(owner, branch_node)` pairs for every remote subtree that must be
/// shipped. `skip_id` is the particle's own id (excluded from direct sums).
#[allow(clippy::too_many_arguments)]
pub fn eval_owned(
    env: &EvalEnv<'_>,
    point: Vec3,
    skip_id: Option<u32>,
    me: usize,
    owner_of_node: &[i32],
    node_loads: Option<&mut [u64]>,
    remote: &mut Vec<(usize, NodeId)>,
) -> EvalResult {
    let is_remote = |id: NodeId| {
        let o = owner_of_node[id as usize];
        o >= 0 && o != me as i32
    };
    // MAC failed on a remote branch: ship the particle to its owner.
    let ship = |id: NodeId| remote.push((owner_of_node[id as usize] as usize, id));
    eval(env, 0, point, skip_id, is_remote, ship, node_loads)
}

/// Serve a shipped particle: evaluate the entire subtree under `root`
/// (§3.2: "Processor 1 then computes the contribution of the entire subtree
/// rooted at node B on particle i").
pub fn eval_from(
    env: &EvalEnv<'_>,
    root: NodeId,
    point: Vec3,
    skip_id: Option<u32>,
    node_loads: Option<&mut [u64]>,
) -> EvalResult {
    eval(env, root, point, skip_id, |_| false, |_| {}, node_loads)
}

/// The evaluation sink over [`walk`]: the kernels, the flop model and the
/// load counters for every node the walk reports. Nodes for which
/// `is_remote` holds are opaque to the walk; each one it cuts goes to `ship`.
fn eval(
    env: &EvalEnv<'_>,
    root: NodeId,
    point: Vec3,
    skip_id: Option<u32>,
    is_remote: impl Fn(NodeId) -> bool,
    mut ship: impl FnMut(NodeId),
    mut node_loads: Option<&mut [u64]>,
) -> EvalResult {
    let tree = env.tree;
    let mut r = EvalResult::default();
    let monopole = |r: &mut EvalResult, src: Vec3, m: f64| {
        r.phi += potential_kernel(point, src, m, env.eps);
        r.acc += accel_kernel(point, src, m, env.eps);
    };
    let direct = |r: &mut EvalResult, src: Vec3, m: f64| {
        r.p2p += 1;
        r.flops += interaction_flops(0);
        monopole(r, src, m);
    };
    walk(tree, root, point, env.mac, &is_remote, |id, visit| {
        let node = tree.node(id);
        if visit != Visit::Singleton {
            r.mac_tests += 1;
            r.flops += MAC_FLOPS;
        }
        let before = r.interactions();
        match visit {
            // For a remote singleton branch the broadcast record (mass at
            // COM) *is* the particle, so the interaction is exact and local.
            Visit::Singleton if is_remote(id) => direct(&mut r, node.com, node.mass),
            Visit::Singleton | Visit::Leaf => {
                for &pi in tree.particles_under(id) {
                    let p = &env.particles[pi as usize];
                    if Some(p.id) != skip_id {
                        direct(&mut r, p.pos, p.mass);
                    }
                }
            }
            Visit::Accepted => {
                r.p2n += 1;
                r.flops += interaction_flops(env.degree);
                match env.mtree {
                    Some(mt) => {
                        let (phi, acc) = mt.expansions[id as usize].eval(point);
                        r.phi += phi;
                        r.acc += acc;
                    }
                    None => monopole(&mut r, node.com, node.mass),
                }
            }
            Visit::Cut => ship(id),
            Visit::Opened => {}
        }
        // Every interaction is charged to the node it was computed at.
        if let Some(loads) = node_loads.as_deref_mut() {
            loads[id as usize] += r.interactions() - before;
        }
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::spsa_assignment;
    use crate::domain::ClusterGrid;
    use crate::partition::Partition;
    use bhut_geom::{uniform_cube, Aabb, ParticleSet};
    use bhut_tree::build::{build_in_cell, BuildParams};
    use bhut_tree::BarnesHutMac;

    const EPS: f64 = 1e-6;

    fn setup(p: usize) -> (Tree, Partition, ParticleSet) {
        let set = uniform_cube(1200, 100.0, 13);
        let cell = Aabb::origin_cube(100.0);
        let grid = ClusterGrid::new(8, cell);
        let params =
            BuildParams { leaf_capacity: 8, collapse: true, min_split_level: grid.level() };
        let tree = build_in_cell(&set.particles, cell, params);
        let owners = spsa_assignment(&grid, p);
        let part = Partition::from_clusters(&tree, &grid, &owners, p);
        (tree, part, set)
    }

    /// The fundamental function-shipping identity: local part + served
    /// remote parts == sequential evaluation.
    #[test]
    fn local_plus_remote_equals_sequential() {
        let (tree, part, set) = setup(4);
        let mac = BarnesHutMac::new(0.7);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: EPS,
            degree: 0,
        };
        for p in set.iter().take(50) {
            let me = part.owner_of_particle[p.id as usize];
            let mut remote = Vec::new();
            let mut total =
                eval_owned(&env, p.pos, Some(p.id), me, &part.owner_of_node, None, &mut remote);
            for &(owner, branch) in &remote {
                assert_ne!(owner, me);
                let served = eval_from(&env, branch, p.pos, Some(p.id), None);
                total.merge(&served);
            }
            let (want_phi, _) =
                bhut_tree::potential_at(&tree, &set.particles, p.pos, Some(p.id), &mac, EPS);
            let (want_acc, _) =
                bhut_tree::accel_on(&tree, &set.particles, p.pos, Some(p.id), &mac, EPS);
            assert!(
                (total.phi - want_phi).abs() < 1e-9 * want_phi.abs().max(1.0),
                "phi {} vs {}",
                total.phi,
                want_phi
            );
            assert!(total.acc.dist(want_acc) < 1e-9 * want_acc.norm().max(1.0));
        }
    }

    /// The two engines are one: with nothing remote, the ownership-aware
    /// evaluation is the plain per-target walk, bit for bit and count for
    /// count.
    #[test]
    fn with_every_node_local_eval_is_the_plain_walk() {
        let (tree, part, set) = setup(1);
        let mac = BarnesHutMac::new(0.7);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: EPS,
            degree: 0,
        };
        for p in set.iter().take(100) {
            let (phi, stats) =
                bhut_tree::potential_at(&tree, &set.particles, p.pos, Some(p.id), &mac, EPS);
            let (acc, _) = bhut_tree::accel_on(&tree, &set.particles, p.pos, Some(p.id), &mac, EPS);
            let mut remote = Vec::new();
            let owned =
                eval_owned(&env, p.pos, Some(p.id), 0, &part.owner_of_node, None, &mut remote);
            assert!(remote.is_empty());
            for r in [owned, eval_from(&env, 0, p.pos, Some(p.id), None)] {
                assert_eq!(r.phi.to_bits(), phi.to_bits());
                assert_eq!(r.acc, acc);
                let got =
                    bhut_tree::TraversalStats { p2n: r.p2n, p2p: r.p2p, mac_tests: r.mac_tests };
                assert_eq!(got, stats);
            }
        }
    }

    #[test]
    fn single_processor_never_ships() {
        let (tree, part, set) = setup(1);
        let mac = BarnesHutMac::new(0.7);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: EPS,
            degree: 0,
        };
        let mut remote = Vec::new();
        for p in set.iter().take(20) {
            let _ = eval_owned(&env, p.pos, Some(p.id), 0, &part.owner_of_node, None, &mut remote);
        }
        assert!(remote.is_empty());
    }

    #[test]
    fn remote_requests_shrink_with_looser_mac() {
        let (tree, part, set) = setup(16);
        let count_remote = |alpha: f64| -> usize {
            let mac = BarnesHutMac::new(alpha);
            let env = EvalEnv {
                tree: &tree,
                particles: &set.particles,
                mtree: None,
                mac: &mac,
                eps: EPS,
                degree: 0,
            };
            let mut total = 0;
            for p in set.iter() {
                let me = part.owner_of_particle[p.id as usize];
                let mut remote = Vec::new();
                let _ =
                    eval_owned(&env, p.pos, Some(p.id), me, &part.owner_of_node, None, &mut remote);
                total += remote.len();
            }
            total
        };
        // §5.2.3: larger α turns far-field work into accepted local
        // interactions, reducing communication.
        assert!(count_remote(1.0) < count_remote(0.5));
    }

    #[test]
    fn flop_accounting_matches_counters() {
        let (tree, part, set) = setup(4);
        let mac = BarnesHutMac::new(0.7);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: EPS,
            degree: 0,
        };
        let p = &set.particles[42];
        let me = part.owner_of_particle[42];
        let mut remote = Vec::new();
        let r = eval_owned(&env, p.pos, Some(p.id), me, &part.owner_of_node, None, &mut remote);
        assert_eq!(r.flops, r.mac_tests * MAC_FLOPS + (r.p2n + r.p2p) * interaction_flops(0));
    }

    #[test]
    fn node_loads_accumulate() {
        let (tree, part, set) = setup(4);
        let mac = BarnesHutMac::new(0.8);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: EPS,
            degree: 0,
        };
        let mut loads = vec![0u64; tree.len()];
        let mut interactions = 0;
        for p in set.iter().take(30) {
            let me = part.owner_of_particle[p.id as usize];
            let mut remote = Vec::new();
            let r = eval_owned(
                &env,
                p.pos,
                Some(p.id),
                me,
                &part.owner_of_node,
                Some(&mut loads),
                &mut remote,
            );
            interactions += r.interactions();
            for &(_, branch) in &remote {
                let s = eval_from(&env, branch, p.pos, Some(p.id), Some(&mut loads));
                interactions += s.interactions();
            }
        }
        assert_eq!(loads.iter().sum::<u64>(), interactions);
    }
}
