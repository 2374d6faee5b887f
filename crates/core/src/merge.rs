//! Distributed tree construction: cost accounting for the merge and
//! broadcast phases (§3.1, Table 3 rows 1–3).
//!
//! After each processor builds its subdomain trees locally, the *top* of the
//! global tree (everything above the branch nodes) must be assembled:
//!
//! * [`local_tree_cost`] — the embarrassingly parallel local build.
//! * [`hierarchical_merge`] — the non-replicated construction of §3.1.2:
//!   each top node has a designated owner (the owner of its first branch
//!   descendant); owners of the other child subtrees send their records up,
//!   level by level. With SPSA's gray-code mapping these transfers are
//!   hypercube-neighbor hops; with SPDA's Morton runs the senders scatter —
//!   reproducing the paper's observation that SPDA's merge costs more
//!   (Table 3).
//! * [`broadcast_top`] — the all-to-all broadcast that replicates the
//!   assembled top levels (and branch records) everywhere.
//!
//! Node records carry `5 + C(k+3,3)` words: key, mass, COM, plus the degree-k
//! series coefficients.

use crate::partition::Partition;
use bhut_machine::{Collectives, CostModel, Topology};
use bhut_multipole::Expansion;
use bhut_tree::Tree;

/// Words in one communicated node record at multipole degree `k`.
pub fn record_words(degree: u32) -> u64 {
    5 + Expansion::num_coeffs(degree) as u64
}

/// Flops to combine one child record into a parent (mass/COM update plus an
/// M2M shift of the series).
pub fn combine_flops(degree: u32) -> u64 {
    10 + 4 * Expansion::num_coeffs(degree) as u64
}

/// Charge each processor for building its local trees: ≈`15 + 2·depth` flops
/// per owned particle (sort + insertion path).
pub fn local_tree_cost(
    clocks: &mut [f64],
    particles_per_proc: &[usize],
    tree_depth: u32,
    cost: &CostModel,
) {
    assert_eq!(clocks.len(), particles_per_proc.len());
    let per_particle = 15 + 2 * tree_depth as u64;
    for (c, &n) in clocks.iter_mut().zip(particles_per_proc) {
        *c += cost.compute_time(per_particle * n as u64);
    }
}

/// The non-replicated hierarchical merge. Returns `(messages, words)`.
pub fn hierarchical_merge<T: Topology>(
    clocks: &mut [f64],
    tree: &Tree,
    partition: &Partition,
    topo: &T,
    cost: &CostModel,
    degree: u32,
) -> (u64, u64) {
    if tree.is_empty() || partition.top_nodes.is_empty() {
        return (0, 0);
    }
    // Designated owner of every node: owner of its first (Z-order) branch
    // descendant == owner of its first particle's zone for costzones, or of
    // the first branch under it. Compute by propagating from branches up.
    let mut designated: Vec<i32> = partition.owner_of_node.clone();
    // top nodes in walk (pre-order) order: process bottom-up by reversing.
    for &t in partition.top_nodes.iter().rev() {
        if let Some(fc) = tree.children_of(t).next() {
            designated[t as usize] = designated[fc as usize];
        }
    }
    let words = record_words(degree);
    let mut msgs = 0u64;
    let mut total_words = 0u64;
    // Bottom-up: children owners send their records to the parent's
    // designated owner, which combines them.
    for &t in partition.top_nodes.iter().rev() {
        let dst = designated[t as usize];
        debug_assert!(dst >= 0);
        let dst = dst as usize;
        for c in tree.children_of(t) {
            let src = designated[c as usize];
            debug_assert!(src >= 0);
            let src = src as usize;
            if src != dst {
                msgs += 1;
                total_words += words;
                clocks[src] += cost.message_time(0, words);
                let arrival = clocks[src] + cost.t_h * topo.hops(src, dst) as f64;
                clocks[dst] = clocks[dst].max(arrival);
            }
            clocks[dst] += cost.compute_time(combine_flops(degree));
        }
    }
    (msgs, total_words)
}

/// All-to-all broadcast of the assembled top: every processor contributes
/// the records of the top nodes it designated-owns plus its branch records;
/// everyone ends with the replicated top. Also charges the redundant local
/// recomputation of the top levels (the broadcast-based construction of
/// §3.1.1 when `recompute` is set).
pub fn broadcast_top<T: Topology>(
    clocks: &mut [f64],
    partition: &Partition,
    coll: &Collectives<'_, T>,
    degree: u32,
    recompute: bool,
) {
    let p = clocks.len();
    let words = record_words(degree);
    // Contribution per processor: its branch records (the top nodes are
    // derived from them on arrival).
    let mut contrib: Vec<Vec<u64>> = vec![Vec::new(); p];
    for b in &partition.branches {
        contrib[b.owner].push(b.key.raw());
    }
    let _ = coll.all_to_all_broadcast(clocks, &contrib, words);
    if recompute {
        // Everyone rebuilds the top levels from the broadcast branch set:
        // redundant but latency-free (§3.1.1 — "some redundant computation
        // but relatively small overhead").
        let flops = partition.top_nodes.len() as u64 * combine_flops(degree) * 2;
        for c in clocks.iter_mut() {
            *c += coll.cost.compute_time(flops);
        }
    }
}

/// Charge the upward multipole pass (P2M at leaves, M2M inside): every
/// processor computes expansions for its own subtrees; the replicated top is
/// recomputed by everyone after the broadcast.
pub fn expansion_cost(
    clocks: &mut [f64],
    tree: &Tree,
    partition: &Partition,
    cost: &CostModel,
    degree: u32,
) {
    if degree == 0 || tree.is_empty() {
        return;
    }
    let coeffs = Expansion::num_coeffs(degree) as u64;
    // P2M: ~4 flops per coefficient per particle; M2M: ~8·coeffs per node.
    let mut per_proc = vec![0u64; clocks.len()];
    let mut top_flops = 0u64;
    for (id, node) in tree.nodes.iter().enumerate() {
        let flops = if node.is_leaf() { 4 * coeffs * node.count() as u64 } else { 8 * coeffs };
        match partition.owner_of_node[id] {
            -1 => top_flops += flops,
            q => per_proc[q as usize] += flops,
        }
    }
    for (c, f) in clocks.iter_mut().zip(&per_proc) {
        *c += cost.compute_time(f + top_flops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{spda_initial, spsa_assignment, Curve};
    use crate::domain::ClusterGrid;
    use bhut_geom::{multi_gaussian, uniform_cube, Aabb, GaussianSpec};
    use bhut_machine::Hypercube;
    use bhut_tree::build::{build_in_cell, BuildParams};

    fn setup(p: usize, owners: &dyn Fn(&ClusterGrid, usize) -> Vec<usize>) -> (Tree, Partition) {
        let set = uniform_cube(2000, 100.0, 31);
        let cell = Aabb::origin_cube(100.0);
        let grid = ClusterGrid::new(8, cell);
        let params =
            BuildParams { leaf_capacity: 8, collapse: true, min_split_level: grid.level() };
        let tree = build_in_cell(&set.particles, cell, params);
        let o = owners(&grid, p);
        let part = Partition::from_clusters(&tree, &grid, &o, p);
        (tree, part)
    }

    #[test]
    fn record_sizes() {
        assert_eq!(record_words(0), 6);
        assert!(record_words(4) > record_words(3));
    }

    #[test]
    fn local_tree_cost_proportional_to_particles() {
        let cost = CostModel::unit();
        let mut clocks = vec![0.0; 2];
        local_tree_cost(&mut clocks, &[10, 20], 5, &cost);
        assert!((clocks[1] - 2.0 * clocks[0]).abs() < 1e-9);
    }

    #[test]
    fn merge_charges_communication() {
        let p = 16;
        let topo = Hypercube::new(p);
        let cost = CostModel::ncube2();
        let (tree, part) = setup(p, &|g, p| spsa_assignment(g, p));
        let mut clocks = vec![0.0; p];
        let (msgs, words) = hierarchical_merge(&mut clocks, &tree, &part, &topo, &cost, 0);
        assert!(msgs > 0);
        assert_eq!(words, msgs * record_words(0));
        assert!(clocks.iter().any(|&c| c > 0.0));
    }

    #[test]
    fn spda_merge_costs_at_least_spsa() {
        // Table 3: "The tree-merging cost is higher for the SPDA scheme" —
        // scattered owners serialize at the combiners.
        let p = 16;
        let topo = Hypercube::new(p);
        let cost = CostModel::ncube2();
        // Irregular distribution exaggerates the asymmetry.
        let set =
            multi_gaussian(GaussianSpec { n: 3000, clusters: 4, seed: 5, ..Default::default() });
        let cell = Aabb::origin_cube(100.0);
        let grid = ClusterGrid::new(8, cell);
        let params =
            BuildParams { leaf_capacity: 8, collapse: true, min_split_level: grid.level() };
        let tree = build_in_cell(&set.particles, cell, params);
        let spsa = Partition::from_clusters(&tree, &grid, &spsa_assignment(&grid, p), p);
        let spda =
            Partition::from_clusters(&tree, &grid, &spda_initial(&grid, p, Curve::Morton), p);
        let mut c1 = vec![0.0; p];
        let mut c2 = vec![0.0; p];
        hierarchical_merge(&mut c1, &tree, &spsa, &topo, &cost, 0);
        hierarchical_merge(&mut c2, &tree, &spda, &topo, &cost, 0);
        let t1 = c1.iter().copied().fold(0.0, f64::max);
        let t2 = c2.iter().copied().fold(0.0, f64::max);
        assert!(t2 >= t1 * 0.5, "spsa {t1} vs spda {t2}"); // same order of magnitude
    }

    #[test]
    fn broadcast_top_charges_everyone_equally() {
        let p = 16;
        let topo = Hypercube::new(p);
        let cost = CostModel::ncube2();
        let (_, part) = setup(p, &|g, p| spsa_assignment(g, p));
        let coll = Collectives::new(&topo, cost);
        let mut clocks = vec![0.0; p];
        broadcast_top(&mut clocks, &part, &coll, 4, true);
        assert!(clocks[0] > 0.0);
        assert!(clocks.iter().all(|&c| (c - clocks[0]).abs() < 1e-12));
    }

    #[test]
    fn higher_degree_broadcast_costs_more() {
        let p = 16;
        let topo = Hypercube::new(p);
        let cost = CostModel::ncube2();
        let (_, part) = setup(p, &|g, p| spsa_assignment(g, p));
        let coll = Collectives::new(&topo, cost);
        let mut c0 = vec![0.0; p];
        let mut c4 = vec![0.0; p];
        broadcast_top(&mut c0, &part, &coll, 0, false);
        broadcast_top(&mut c4, &part, &coll, 4, false);
        assert!(c4[0] > c0[0]);
    }

    #[test]
    fn expansion_cost_zero_for_monopole() {
        let p = 4;
        let cost = CostModel::unit();
        let (tree, part) = setup(p, &|g, p| spsa_assignment(g, p));
        let mut clocks = vec![0.0; p];
        expansion_cost(&mut clocks, &tree, &part, &cost, 0);
        assert!(clocks.iter().all(|&c| c == 0.0));
        expansion_cost(&mut clocks, &tree, &part, &cost, 3);
        assert!(clocks.iter().all(|&c| c > 0.0));
    }
}
