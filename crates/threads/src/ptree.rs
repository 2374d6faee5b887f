//! Parallel tree construction for shared memory.
//!
//! The distributed construction of §3.1 has each processor build the
//! subtrees of its own subdomains and then merge tops. The shared-memory
//! rendition: split the root cell into its eight octants, build each
//! octant's subtree on its own thread with the sequential bulk builder,
//! then splice the arenas together under a fresh root. The result is
//! structurally identical to a sequential [`bhut_tree::build::build_in_cell`]
//! with the same parameters (modulo empty-octant ordering, which the
//! sequential builder also skips).

use crate::pool::fork_join;
use bhut_geom::{Aabb, Particle, Vec3};
use bhut_morton::NodeKey;
use bhut_tree::build::{build_in_cell, BuildParams};
use bhut_tree::{Node, Tree, NIL};

/// Build a tree over `particles` in `cell`, with the eight top-level
/// octant subtrees constructed in parallel.
pub fn par_build_in_cell(particles: &[Particle], cell: Aabb, params: BuildParams) -> Tree {
    let n = particles.len();
    // Tiny inputs and forced-split configurations fall back to the
    // sequential builder (forced splits interact with the root split in
    // ways not worth parallelizing).
    if n <= params.leaf_capacity || params.min_split_level > 0 {
        return build_in_cell(particles, cell, params);
    }
    let subtrees = octant_subtrees(particles, cell, params);

    // Splice: new arena = [root] ++ subtree arenas (ids offset), order =
    // concatenation with indices mapped back to the global slice, keys
    // re-prefixed under the root.
    let mut nodes: Vec<Node> = Vec::with_capacity(1 + n / params.leaf_capacity.max(1));
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut root_children = [NIL; 8];
    let mut mass = 0.0;
    let mut weighted = Vec3::ZERO;
    nodes.push(Node {
        cell,
        key: NodeKey::ROOT,
        mass: 0.0,
        com: Vec3::ZERO,
        children: [NIL; 8],
        child_mask: 0,
        start: 0,
        end: n as u32,
        // Set once the subtrees are in.
        next: NIL,
    });
    for (oct, sub, members) in subtrees {
        if sub.is_empty() {
            continue;
        }
        let id_offset = nodes.len() as u32;
        let pos_offset = order.len() as u32;
        root_children[oct] = id_offset;
        for node in &sub.nodes {
            let mut children = node.children;
            for c in children.iter_mut() {
                if *c != NIL {
                    *c += id_offset;
                }
            }
            nodes.push(Node {
                cell: node.cell,
                key: under_octant(oct, node.key),
                mass: node.mass,
                com: node.com,
                children,
                // offsetting child ids never changes occupancy
                child_mask: node.child_mask,
                start: node.start + pos_offset,
                end: node.end + pos_offset,
                // The subtree arenas follow the root in octant order, each
                // one in preorder: `next` moves with the ids.
                next: node.next + id_offset,
            });
        }
        order.extend(sub.order.iter().map(|&local_i| members[local_i as usize]));
        let sub_root = &sub.nodes[0];
        mass += sub_root.mass;
        weighted += sub_root.com * sub_root.mass;
    }
    nodes[0].set_children(root_children);
    nodes[0].next = nodes.len() as u32;
    nodes[0].mass = mass;
    nodes[0].com = if mass > 0.0 { weighted / mass } else { cell.center() };
    Tree { nodes, order, root_cell: cell }
}

/// The subtrees of the non-empty top-level octants of `cell`, built in
/// parallel, each as `(octant, subtree, members)`: the subtree is built
/// over an owned copy of the octant's particles, whose indices into
/// `particles` are `members`.
fn octant_subtrees(
    particles: &[Particle],
    cell: Aabb,
    params: BuildParams,
) -> Vec<(usize, Tree, Vec<u32>)> {
    let mut octant_members: [Vec<u32>; 8] = Default::default();
    for (i, p) in particles.iter().enumerate() {
        octant_members[cell.octant_of(p.pos.min(cell.max).max(cell.min))].push(i as u32);
    }
    let subtrees = fork_join(8, |oct| {
        let members = &octant_members[oct];
        if members.is_empty() {
            return None;
        }
        let local: Vec<Particle> = members.iter().map(|&i| particles[i as usize]).collect();
        Some((oct, build_in_cell(&local, cell.octant(oct), params), members.clone()))
    });
    subtrees.into_iter().flatten().collect()
}

/// The key of a subtree node once the subtree hangs under octant `oct` of
/// the root: the node's path with `oct` in front, computed without
/// materializing the path. A level-`l` key is a placeholder bit above `3l`
/// path bits; the placeholder becomes `8 | oct`, three bits wider.
fn under_octant(oct: usize, key: NodeKey) -> NodeKey {
    let bits = 3 * key.level();
    let raw = ((8 | oct as u64) << bits) | (key.raw() & ((1 << bits) - 1));
    NodeKey::from_raw(raw).expect("a subtree is shallower than the depth cap")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhut_geom::{plummer, uniform_cube, ParticleSet, PlummerSpec};
    use bhut_tree::{
        eval_gathered_targets, gather_group_targets, BarnesHutMac, InteractionBuffers, QueryTarget,
    };

    #[test]
    fn parallel_build_is_valid() {
        let set = uniform_cube(3000, 1.0, 5);
        let cell = set.bounding_cube().unwrap();
        let t = par_build_in_cell(&set.particles, cell, BuildParams::default());
        t.check_invariants(set.len()).unwrap();
        assert_eq!(t.root().count() as usize, set.len());
        assert!((t.root().mass - set.total_mass()).abs() < 1e-9);
    }

    #[test]
    fn matches_sequential_physics() {
        let set = plummer(PlummerSpec { n: 2000, seed: 3, ..Default::default() });
        let cell = set.bounding_cube().unwrap();
        let par = par_build_in_cell(&set.particles, cell, BuildParams::default());
        let seq = build_in_cell(&set.particles, cell, BuildParams::default());
        let mac = BarnesHutMac::new(0.6);
        for p in set.iter().take(100) {
            let (a, _) =
                bhut_tree::potential_at(&par, &set.particles, p.pos, Some(p.id), &mac, 1e-4);
            let (b, _) =
                bhut_tree::potential_at(&seq, &set.particles, p.pos, Some(p.id), &mac, 1e-4);
            assert!((a - b).abs() < 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn matches_sequential_structure() {
        // Same multiset of (key, particle set) leaves.
        let set = uniform_cube(800, 1.0, 9);
        let cell = set.bounding_cube().unwrap();
        let par = par_build_in_cell(&set.particles, cell, BuildParams::default());
        let seq = build_in_cell(&set.particles, cell, BuildParams::default());
        let leaves = |t: &Tree| {
            let mut v: Vec<(u64, Vec<u32>)> = t
                .nodes
                .iter()
                .filter(|n| n.is_leaf())
                .map(|n| {
                    let mut ps = t.order[n.start as usize..n.end as usize].to_vec();
                    ps.sort_unstable();
                    (n.key.raw(), ps)
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(leaves(&par), leaves(&seq));
    }

    /// The evaluation replays each mixed root forward through its preorder
    /// id range, so hold it to the per-target walk on the spliced arena:
    /// every target within 1e-12 of `accel_on` / `potential_at`, with the
    /// walk's interaction count exactly.
    #[test]
    fn spliced_trees_replay_as_the_per_target_walk() {
        const EPS: f64 = 1e-4;
        let set = plummer(PlummerSpec { n: 1500, seed: 29, ..Default::default() });
        let ps = &set.particles;
        let tree = par_build_in_cell(ps, set.bounding_cube().unwrap(), BuildParams::default());
        tree.check_invariants(ps.len()).unwrap();
        let mac = BarnesHutMac::new(0.67);
        let mut buf = InteractionBuffers::new();
        let mut mixed = 0;
        for run in tree.order.chunks(40) {
            let targets: Vec<QueryTarget> =
                run.iter().map(|&pi| (ps[pi as usize].pos, pi)).collect();
            let bucket = Aabb::bounding(targets.iter().map(|t| t.0)).unwrap();
            gather_group_targets(&tree, ps, &bucket, &mac, &mut buf);
            mixed += buf.mixed.len();
            let mut rows = 0;
            let emit = |k: usize, phi: f64, acc: Vec3, it: u64| {
                assert_eq!(k, rows);
                rows += 1;
                let (pos, skip) = targets[k];
                let (acc_ref, st) = bhut_tree::accel_on(&tree, ps, pos, Some(skip), &mac, EPS);
                let (phi_ref, _) = bhut_tree::potential_at(&tree, ps, pos, Some(skip), &mac, EPS);
                assert_eq!(it, st.interactions(), "target {k} counts");
                assert!(acc.dist(acc_ref) <= 1e-12 * acc_ref.norm().max(1.0), "target {k}");
                assert!((phi - phi_ref).abs() <= 1e-12 * phi_ref.abs().max(1.0), "target {k}");
            };
            eval_gathered_targets(&tree, ps, &targets, &mac, EPS, &buf, emit);
            assert_eq!(rows, targets.len());
        }
        assert!(mixed > 0, "the buckets left no mixed frontier to replay");
    }

    /// Every spliced key is the one the path splice used to build: the
    /// subtree key's octant path with the root octant in front, through
    /// `NodeKey::from_path`. On uniform and Plummer data, and on coincident
    /// points chained down to the depth cap, where the keys are widest.
    #[test]
    fn spliced_keys_are_the_octant_prefixed_paths() {
        let chain = BuildParams { leaf_capacity: 2, collapse: false, min_split_level: 0 };
        let uniform = uniform_cube(3000, 1.0, 5);
        let sphere = plummer(PlummerSpec { n: 3000, seed: 6, ..Default::default() });
        let coincident = ParticleSet::from_positions(std::iter::repeat_n(Vec3::splat(0.3), 10));
        let cases = [
            (uniform.bounding_cube().unwrap(), uniform, BuildParams::default(), 0),
            (sphere.bounding_cube().unwrap(), sphere, BuildParams::default(), 0),
            (Aabb::origin_cube(1.0), coincident, chain, 21),
        ];
        for (cell, set, params, depth) in cases {
            let ps = &set.particles;
            let tree = par_build_in_cell(ps, cell, params);
            tree.check_invariants(ps.len()).unwrap();
            let mut id = 1;
            for (oct, sub, _) in octant_subtrees(ps, cell, params) {
                for node in &sub.nodes {
                    let path: Vec<u8> = std::iter::once(oct as u8).chain(node.key.path()).collect();
                    assert_eq!(tree.nodes[id].key, NodeKey::from_path(&path), "node {id}");
                    id += 1;
                }
            }
            assert_eq!(id, tree.len(), "every node but the root was spliced");
            if depth > 0 {
                let deepest = tree.nodes.iter().map(|n| n.key.level()).max();
                assert_eq!(deepest, Some(depth), "the chain reaches the depth cap");
            }
        }
    }

    #[test]
    fn small_inputs_fall_back() {
        let set = uniform_cube(4, 1.0, 1);
        let cell = set.bounding_cube().unwrap();
        let t = par_build_in_cell(&set.particles, cell, BuildParams::default());
        t.check_invariants(4).unwrap();
        assert!(t.root().is_leaf());
    }

    #[test]
    fn empty_octants_are_fine() {
        // All particles crammed in one octant.
        let set = uniform_cube(500, 1.0, 2);
        let mut clustered = set.clone();
        for p in &mut clustered.particles {
            p.pos *= 0.25; // everything in the low octant
        }
        let cell = Aabb::origin_cube(1.0);
        let t = par_build_in_cell(&clustered.particles, cell, BuildParams::default());
        t.check_invariants(500).unwrap();
        let children: Vec<_> = t.children_of(0).collect();
        assert_eq!(children.len(), 1);
    }
}
