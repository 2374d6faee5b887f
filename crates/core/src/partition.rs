//! The unified tree/particle partition the force engine consumes.
//!
//! Whatever the scheme — SPSA/SPDA cluster grids or DPDA costzones — the
//! force-computation phase only needs to know three things (§3.1–3.2):
//!
//! 1. the **branch nodes**: the coarsest tree nodes owned exclusively by one
//!    processor ("the shaded nodes… referred to as branch nodes"),
//! 2. which processor owns each tree node (branch subtrees), with the *top*
//!    of the tree — everything above the branches — replicated on all
//!    processors after the merge/broadcast phases, and
//! 3. which processor drives the traversal of each particle.
//!
//! [`Partition::from_clusters`] derives this for the static cluster grid;
//! [`Partition::costzones`] implements the DPDA split: per-node interaction
//! loads are spread over the in-order (Z-curve) particle sequence, prefix
//! sums locate the `iW/p` boundaries, and maximal single-owner subtrees
//! become the branches.

use crate::domain::ClusterGrid;
use bhut_morton::NodeKey;
use bhut_tree::{NodeId, Tree};

/// One branch node: the root of a processor-owned subtree.
#[derive(Debug, Clone, Copy)]
pub struct BranchInfo {
    pub node: NodeId,
    pub key: NodeKey,
    pub owner: usize,
    /// Originating cluster for cluster-based schemes; `u32::MAX` for
    /// costzones partitions.
    pub cluster: u32,
}

/// Ownership maps for one decomposition of one tree.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Number of processors.
    pub p: usize,
    /// Branch nodes in Z (in-order) order.
    pub branches: Vec<BranchInfo>,
    /// Owner per tree node; `-1` marks replicated top nodes.
    pub owner_of_node: Vec<i32>,
    /// Owner (traversal driver) per particle.
    pub owner_of_particle: Vec<usize>,
    /// Replicated top nodes (`owner_of_node == -1`), in walk order.
    pub top_nodes: Vec<NodeId>,
}

impl Partition {
    /// Build the partition induced by a cluster grid and a cluster→processor
    /// assignment. The tree must have been built with
    /// `min_split_level == grid.level()` over `grid.cell` so every non-empty
    /// subdomain has an explicit node at the branch level.
    pub fn from_clusters(
        tree: &Tree,
        grid: &ClusterGrid,
        owner_of_cluster: &[usize],
        p: usize,
    ) -> Partition {
        assert_eq!(owner_of_cluster.len(), grid.r(), "one owner per cluster");
        let level = grid.level();
        let mut owner_of_node = vec![-1i32; tree.len()];
        let mut branches = Vec::new();
        let mut top_nodes = Vec::new();
        if tree.is_empty() {
            return Partition {
                p,
                branches,
                owner_of_node,
                owner_of_particle: Vec::new(),
                top_nodes,
            };
        }
        // Walk the top of the tree, carrying each node's cell down; stop
        // descending at branch level.
        let mut stack = vec![(0 as NodeId, tree.cell(0))];
        while let Some((id, cell)) = stack.pop() {
            let node = tree.node(id);
            if node.key.level() == level {
                let cluster = grid.cluster_of(cell.center());
                let owner = owner_of_cluster[cluster as usize];
                branches.push(BranchInfo { node: id, key: node.key, owner, cluster });
                mark_subtree(tree, id, owner as i32, &mut owner_of_node);
            } else {
                debug_assert!(
                    node.key.level() < level,
                    "tree skipped the branch level (built without min_split_level?)"
                );
                top_nodes.push(id);
                // Reversed, so the children pop in octant order.
                let at = stack.len();
                stack.extend(tree.children_of(id).map(|c| (c, tree.cell_below(cell, id, c))));
                stack[at..].reverse();
            }
        }
        branches.sort_by_key(|b| tree.node(b.node).start);
        // Particles are driven by the owner of their cluster.
        let owner_of_particle = (0..tree.order.len()).map(|_| 0).collect::<Vec<_>>();
        let mut part = Partition { p, branches, owner_of_node, owner_of_particle, top_nodes };
        for b in &part.branches {
            for &pi in tree.particles_under(b.node) {
                part.owner_of_particle[pi as usize] = b.owner;
            }
        }
        part
    }

    /// DPDA costzones: split the in-order particle sequence at load
    /// boundaries `iW/p` (§3.3.3) and carve maximal single-owner subtrees as
    /// branches. `node_loads[id]` is the number of interactions node `id`
    /// took part in during the previous time-step; when all-zero (first
    /// iteration) the split degenerates to equal particle counts.
    pub fn costzones(tree: &Tree, node_loads: &[u64], p: usize) -> Partition {
        let weights = particle_weights_from_node_loads(tree, node_loads);
        Self::costzones_weighted(tree, &weights, p)
    }

    /// Costzones from per-*particle* weights (indexed by particle index).
    /// This is the form that survives tree rebuilds between time-steps: the
    /// driver converts the previous step's node loads to particle weights
    /// and re-applies them to the fresh tree.
    pub fn costzones_weighted(tree: &Tree, particle_weight: &[f64], p: usize) -> Partition {
        let n = tree.order.len();
        assert_eq!(particle_weight.len(), n);
        let mut owner_of_node = vec![-1i32; tree.len()];
        if n == 0 {
            return Partition {
                p,
                branches: Vec::new(),
                owner_of_node,
                owner_of_particle: Vec::new(),
                top_nodes: Vec::new(),
            };
        }
        // Weight per in-order position (epsilon keeps all-zero loads
        // count-based).
        let weight: Vec<f64> =
            tree.order.iter().map(|&pi| particle_weight[pi as usize] + 1e-12).collect();
        let total: f64 = weight.iter().sum();
        // zone_of_position[t] = which processor owns in-order position t.
        let mut zone_of_position = vec![0usize; n];
        let mut acc = 0.0;
        let per = total / p as f64;
        let mut zone = 0usize;
        for (t, w) in weight.iter().enumerate() {
            // close the zone when the *next* particle would overshoot
            if acc >= per * (zone + 1) as f64 && zone + 1 < p {
                zone += 1;
            }
            acc += w;
            zone_of_position[t] = zone;
        }
        // Owner per particle (positions → original indices).
        let mut owner_of_particle = vec![0usize; n];
        for (t, &pi) in tree.order.iter().enumerate() {
            owner_of_particle[pi as usize] = zone_of_position[t];
        }
        // Branches: maximal subtrees whose position range sits in one zone,
        // in preorder: a branch skips its subtree to `next`, a top node goes
        // on at its first child.
        let mut branches = Vec::new();
        let mut top_nodes = Vec::new();
        let mut id: NodeId = 0;
        while (id as usize) < tree.len() {
            let node = tree.node(id);
            let z0 = zone_of_position[node.start as usize];
            let z1 = zone_of_position[node.end as usize - 1];
            if z0 == z1 || node.is_leaf() {
                // A leaf spanning a boundary cannot be split further; its
                // owner is the zone of its first particle (particle owners
                // stay per the zone map — driving and serving may differ).
                let owner = z0;
                branches.push(BranchInfo { node: id, key: node.key, owner, cluster: u32::MAX });
                mark_subtree(tree, id, owner as i32, &mut owner_of_node);
                id = node.next;
            } else {
                top_nodes.push(id);
                id += 1;
            }
        }
        branches.sort_by_key(|b| tree.node(b.node).start);
        Partition { p, branches, owner_of_node, owner_of_particle, top_nodes }
    }

    /// Particle indices owned by each processor.
    pub fn particles_by_owner(&self) -> Vec<Vec<u32>> {
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); self.p];
        for (pi, &q) in self.owner_of_particle.iter().enumerate() {
            lists[q].push(pi as u32);
        }
        lists
    }

    /// Branch count per processor (the paper keeps this "of the order of
    /// hundreds or less" per processor, §4.2.3).
    pub fn branches_per_owner(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.p];
        for b in &self.branches {
            counts[b.owner] += 1;
        }
        counts
    }

    /// Structural sanity checks; returns the first violation.
    pub fn check(&self, tree: &Tree) -> Result<(), String> {
        let mut covered = 0u32;
        for b in &self.branches {
            let node = tree.node(b.node);
            covered += node.count();
            if self.owner_of_node[b.node as usize] != b.owner as i32 {
                return Err(format!("branch {} owner mismatch", b.node));
            }
        }
        if covered as usize != tree.order.len() {
            return Err(format!("branches cover {covered} of {} particles", tree.order.len()));
        }
        for &t in &self.top_nodes {
            if self.owner_of_node[t as usize] != -1 {
                return Err(format!("top node {t} has an owner"));
            }
        }
        if self.owner_of_particle.iter().any(|&q| q >= self.p) {
            return Err("particle owner out of range".into());
        }
        Ok(())
    }
}

/// Spread per-node interaction loads onto per-particle weights: each node's
/// load is divided equally among the particles of its subtree. This is how
/// the previous time-step's tree loads survive a rebuild (§3.3: "The number
/// of force computations associated with a part of the tree in one time-step
/// can be used to balance load in the next time-step").
pub fn particle_weights_from_node_loads(tree: &Tree, node_loads: &[u64]) -> Vec<f64> {
    assert_eq!(node_loads.len(), tree.len());
    let n = tree.order.len();
    let mut weights = vec![0.0f64; n];
    if n == 0 {
        return weights;
    }
    let mut stack = vec![(0 as NodeId, 0.0f64)];
    while let Some((id, inherited)) = stack.pop() {
        let node = tree.node(id);
        let share = inherited + node_loads[id as usize] as f64 / node.count() as f64;
        if node.is_leaf() {
            for t in node.start..node.end {
                weights[tree.order[t as usize] as usize] += share;
            }
        } else {
            stack.extend(tree.children_of(id).map(|c| (c, share)));
        }
    }
    weights
}

/// Mark every node of the subtree rooted at `root` with `owner`: the
/// preorder id range `root..next`.
fn mark_subtree(tree: &Tree, root: NodeId, owner: i32, owner_of_node: &mut [i32]) {
    owner_of_node[root as usize..tree.node(root).next as usize].fill(owner);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::spsa_assignment;
    use bhut_geom::{uniform_cube, Aabb};
    use bhut_tree::build::{build_in_cell, BuildParams};

    fn setup(c: u32, n: usize) -> (Tree, ClusterGrid, bhut_geom::ParticleSet) {
        let set = uniform_cube(n, 100.0, 7);
        let cell = Aabb::origin_cube(100.0);
        let grid = ClusterGrid::new(c, cell);
        let params =
            BuildParams { leaf_capacity: 8, collapse: true, min_split_level: grid.level() };
        let tree = build_in_cell(&set.particles, cell, params);
        (tree, grid, set)
    }

    #[test]
    fn cluster_partition_covers_everything() {
        let (tree, grid, set) = setup(4, 800);
        let owners = spsa_assignment(&grid, 4);
        let part = Partition::from_clusters(&tree, &grid, &owners, 4);
        part.check(&tree).unwrap();
        assert_eq!(part.owner_of_particle.len(), set.len());
        // every branch is at the grid level
        for b in &part.branches {
            assert_eq!(b.key.level(), grid.level());
            assert!(b.cluster != u32::MAX);
        }
        // all four processors hold something for a uniform distribution
        let counts = part.branches_per_owner();
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn cluster_partition_particle_owner_matches_cluster_owner() {
        let (tree, grid, set) = setup(4, 500);
        let owners = spsa_assignment(&grid, 4);
        let part = Partition::from_clusters(&tree, &grid, &owners, 4);
        for (pi, p) in set.particles.iter().enumerate() {
            let cl = grid.cluster_of(p.pos) as usize;
            assert_eq!(part.owner_of_particle[pi], owners[cl], "particle {pi}");
        }
    }

    #[test]
    fn top_nodes_are_above_branches() {
        let (tree, grid, _) = setup(8, 2000);
        let owners = spsa_assignment(&grid, 16);
        let part = Partition::from_clusters(&tree, &grid, &owners, 16);
        for &t in &part.top_nodes {
            assert!(tree.node(t).key.level() < grid.level());
        }
        // union of top + owned = all nodes
        let tops = part.owner_of_node.iter().filter(|&&o| o == -1).count();
        assert_eq!(tops, part.top_nodes.len());
    }

    #[test]
    fn costzones_equal_counts_without_loads() {
        let (tree, _, set) = setup(4, 1000);
        let loads = vec![0u64; tree.len()];
        let part = Partition::costzones(&tree, &loads, 4);
        part.check(&tree).unwrap();
        let lists = part.particles_by_owner();
        for l in &lists {
            let frac = l.len() as f64 / set.len() as f64;
            assert!((frac - 0.25).abs() < 0.05, "zone got {frac}");
        }
    }

    #[test]
    fn costzones_balances_weighted_loads() {
        let (tree, _, _) = setup(4, 2000);
        // Put heavy load on the first half of the in-order sequence by
        // loading the leaves there.
        let mut loads = vec![0u64; tree.len()];
        for (id, node) in tree.nodes.iter().enumerate() {
            if node.is_leaf() && (node.end as usize) < 1000 {
                loads[id] = 1000 * node.count() as u64;
            }
        }
        let part = Partition::costzones(&tree, &loads, 4);
        part.check(&tree).unwrap();
        let lists = part.particles_by_owner();
        // Heavily loaded front half should be split among more processors:
        // processor 0 gets far fewer particles than processor 3.
        assert!(
            lists[0].len() * 2 < lists[3].len(),
            "{:?}",
            lists.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }

    #[test]
    fn costzones_zones_are_contiguous_in_order() {
        let (tree, _, _) = setup(4, 600);
        let loads = vec![1u64; tree.len()];
        let part = Partition::costzones(&tree, &loads, 8);
        let zones: Vec<usize> =
            tree.order.iter().map(|&pi| part.owner_of_particle[pi as usize]).collect();
        // non-decreasing along the Z-curve
        assert!(zones.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn costzones_single_processor() {
        let (tree, _, _) = setup(4, 300);
        let part = Partition::costzones(&tree, &vec![0; tree.len()], 1);
        part.check(&tree).unwrap();
        assert_eq!(part.branches.len(), 1);
        assert_eq!(part.branches[0].node, 0);
        assert!(part.top_nodes.is_empty());
    }

    #[test]
    fn empty_tree_partitions() {
        let cell = Aabb::origin_cube(1.0);
        let tree = build_in_cell(&[], cell, BuildParams::default());
        let grid = ClusterGrid::new(4, cell);
        let part = Partition::from_clusters(&tree, &grid, &[0; 16], 4);
        assert!(part.branches.is_empty());
        let part = Partition::costzones(&tree, &[], 4);
        assert!(part.branches.is_empty());
    }
}
