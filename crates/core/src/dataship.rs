//! The data-shipping comparator (§4.2).
//!
//! In the owner-computes paradigm the requesting processor *fetches* the
//! children of every rejected remote node — paying `Θ(k²)` series words per
//! node — and caches them in a hash table. The paper argues (and Tables 6/7
//! corroborate) that function shipping wins because its communication volume
//! is independent of the multipole degree.
//!
//! We reproduce the comparison with an exact volume model: the *same*
//! traversals are replayed against the partition, but instead of shipping
//! particles we count the remote nodes whose data would have to be fetched.
//! Each distinct `(processor, node)` fetch is paid once (an ideal, perfectly
//! warm cache — generous to data shipping; a real bounded cache would evict
//! and refetch, §4.2.4).

use crate::evalcore::EvalEnv;
use crate::partition::Partition;
use bhut_multipole::flops::{series_words_3d, FUNCTION_SHIP_WORDS, RESULT_WORDS};
use bhut_tree::traverse::walk;
use bhut_tree::NodeId;
use std::collections::HashSet;

/// Communication volumes (in words) of the two paradigms for one force
/// phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShippingComparison {
    /// Words moved by function shipping: requests + replies.
    pub function_words: u64,
    /// Words moved by data shipping: fetched node records.
    pub data_words: u64,
    /// Remote particle shipments.
    pub shipped_particles: u64,
    /// Distinct remote nodes fetched.
    pub fetched_nodes: u64,
}

/// Walk the whole force phase and tally both paradigms' volumes at multipole
/// degree `degree`.
pub fn compare_shipping(
    env: &EvalEnv<'_>,
    partition: &Partition,
    degree: u32,
) -> ShippingComparison {
    let tree = env.tree;
    let mut cmp = ShippingComparison::default();
    if tree.is_empty() {
        return cmp;
    }
    // Per requesting processor: the set of remote nodes it would fetch.
    let mut fetched: Vec<HashSet<NodeId>> = (0..partition.p).map(|_| HashSet::new()).collect();

    for (pi, particle) in env.particles.iter().enumerate() {
        let me = partition.owner_of_particle[pi];
        // Function shipping: walk, stop at remote branches.
        let mut remote = Vec::new();
        let _ = crate::evalcore::eval_owned(
            env,
            particle.pos,
            Some(particle.id),
            me,
            &partition.owner_of_node,
            None,
            &mut remote,
        );
        cmp.shipped_particles += remote.len() as u64;
        cmp.function_words += remote.len() as u64 * (FUNCTION_SHIP_WORDS + RESULT_WORDS);

        // Data shipping: continue *into* remote subtrees, fetching every
        // node the traversal touches (its record must be resident to apply
        // the MAC / read children; a leaf's particle data comes with its
        // record). Fetches are deduplicated per processor.
        let mine = &mut fetched[me];
        for &(_, branch) in &remote {
            let fetch = |id, _| {
                mine.insert(id);
            };
            walk(tree, branch, particle.pos, env.mac, |_| false, fetch);
        }
    }
    for set in &fetched {
        cmp.fetched_nodes += set.len() as u64;
    }
    cmp.data_words = cmp.fetched_nodes * series_words_3d(degree);
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::spsa_assignment;
    use crate::domain::ClusterGrid;
    use bhut_geom::{uniform_cube, Aabb};
    use bhut_tree::build::{build_in_cell, BuildParams};
    use bhut_tree::BarnesHutMac;

    fn comparison(degree: u32, alpha: f64) -> ShippingComparison {
        let p = 16;
        let set = uniform_cube(1500, 100.0, 17);
        let cell = Aabb::origin_cube(100.0);
        let grid = ClusterGrid::new(8, cell);
        let params =
            BuildParams { leaf_capacity: 8, collapse: true, min_split_level: grid.level() };
        let tree = build_in_cell(&set.particles, cell, params);
        let part = Partition::from_clusters(&tree, &grid, &spsa_assignment(&grid, p), p);
        let mac = BarnesHutMac::new(alpha);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: 1e-6,
            degree,
        };
        compare_shipping(&env, &part, degree)
    }

    #[test]
    fn function_shipping_volume_is_degree_independent() {
        let d0 = comparison(0, 0.7);
        let d5 = comparison(5, 0.7);
        assert_eq!(d0.function_words, d5.function_words);
        assert_eq!(d0.shipped_particles, d5.shipped_particles);
    }

    #[test]
    fn data_shipping_volume_grows_quadratically_with_degree() {
        let d2 = comparison(2, 0.7);
        let d6 = comparison(6, 0.7);
        assert_eq!(d2.fetched_nodes, d6.fetched_nodes);
        let ratio = d6.data_words as f64 / d2.data_words as f64;
        let expect = series_words_3d(6) as f64 / series_words_3d(2) as f64;
        assert!((ratio - expect).abs() < 1e-9);
        assert!(ratio > 4.0);
    }

    #[test]
    fn function_shipping_wins_at_high_degree() {
        // §4.2.1: "data-shipping schemes require significantly higher
        // communication than function shipping" for multipoles.
        let c = comparison(6, 0.7);
        assert!(
            c.function_words < c.data_words,
            "function {} vs data {}",
            c.function_words,
            c.data_words
        );
    }

    #[test]
    fn volumes_are_nonzero_and_consistent() {
        let c = comparison(4, 0.7);
        assert!(c.shipped_particles > 0);
        assert_eq!(c.function_words, c.shipped_particles * 8);
        assert!(c.fetched_nodes > 0);
    }
}
