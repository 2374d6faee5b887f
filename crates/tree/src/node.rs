//! Arena-based oct-tree storage.
//!
//! Nodes live in one flat `Vec`; children are looked up through a
//! `[NodeId; 8]` table indexed by octant (0 = absent, valid because slot 0
//! always holds the root). Every node — internal or leaf — covers a
//! contiguous range of `Tree::order`, the Morton-permuted particle index
//! array, so "the particles under node X" is always a slice. That property
//! is load-bearing for the DPDA costzones scheme, which carves the in-order
//! particle sequence at load boundaries.
//!
//! Every builder lays the arena out in *preorder* (a node, then its
//! children's subtrees in octant order), so a subtree is also a contiguous
//! id range, `id..next` ([`Node::next`]). The lane replay
//! ([`crate::replay`]) walks a subtree forward through that range instead of
//! pushing and popping children on a stack.

use bhut_geom::{Aabb, Particle, Vec3};
use bhut_morton::NodeKey;

/// Index of a node in [`Tree::nodes`].
pub type NodeId = u32;

/// Level of the deepest nodes a builder makes; a leaf there may hold more
/// than the leaf capacity.
pub(crate) const DEPTH_CAP: u32 = crate::build::MAX_LEVEL - 1;

/// Absent-child sentinel. Slot 0 of the arena is the root, which is never
/// anybody's child, so 0 is free to mean "no child".
pub const NIL: NodeId = 0;

/// One oct-tree node.
#[derive(Debug, Clone)]
pub struct Node {
    /// The (cubic, axis-aligned) cell this node covers. With box collapsing
    /// this can be a strict descendant cell of the parent's octant.
    pub cell: Aabb,
    /// Warren–Salmon path key of this node (see `bhut_morton::keys`).
    pub key: NodeKey,
    /// Total mass of the subtree.
    pub mass: f64,
    /// Center of mass of the subtree.
    pub com: Vec3,
    /// Children by octant; `NIL` where the octant is empty. All-`NIL` for
    /// leaves.
    pub children: [NodeId; 8],
    /// Occupancy bitmask over `children`: bit `o` set iff octant `o` is
    /// present. Cached so `is_leaf`/`children_of` don't scan eight slots on
    /// every traversal step; keep in sync via [`Node::set_children`].
    pub child_mask: u8,
    /// Range `[start, end)` into [`Tree::order`] of the particles below this
    /// node.
    pub start: u32,
    pub end: u32,
    /// The first node after this node's subtree: the arena is in preorder,
    /// so the subtree is exactly the ids `id..next`: `id + 1` for a leaf,
    /// [`Tree::len`] for the root (and for every node whose subtree ends
    /// the arena). Skipping a subtree is one jump to `next`.
    pub next: NodeId,
}

// `next` fills tail padding: the node must not grow past its 136 bytes.
const _: () = assert!(std::mem::size_of::<Node>() <= 136);

impl Node {
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.child_mask == 0
    }

    /// The occupancy mask implied by a child table.
    #[inline]
    pub fn mask_of(children: &[NodeId; 8]) -> u8 {
        let mut m = 0u8;
        for (o, &c) in children.iter().enumerate() {
            if c != NIL {
                m |= 1 << o;
            }
        }
        m
    }

    /// Install a child table and recompute the cached occupancy mask.
    #[inline]
    pub fn set_children(&mut self, children: [NodeId; 8]) {
        self.children = children;
        self.child_mask = Self::mask_of(&children);
    }

    /// Number of particles in the subtree.
    #[inline]
    pub fn count(&self) -> u32 {
        self.end - self.start
    }
}

/// The monopole of node `id` of the arena `nodes`, its `(mass, com)`: the
/// one moment rule of both builders and [`Tree::validate`].
///
/// A leaf folds its range of `order` left to right from zero, `mass += m`
/// and `weighted += pos * m`; an internal node folds its children's stored
/// moments in octant order, `mass += c.mass` and `weighted += c.com *
/// c.mass`. Then `com = weighted / mass`, or, where that mass is not
/// positive, the count-weighted mean of the positions (children's `com`s).
/// The mass is thus degree-0 M2M, the zeroth moment of an upward pass bit
/// for bit, and a build reads each particle once, at its leaf. The node's
/// range and, for an internal node, its children's moments must be set.
pub(crate) fn monopole(
    nodes: &[Node],
    id: NodeId,
    order: &[u32],
    particles: &[Particle],
) -> (f64, Vec3) {
    let n = &nodes[id as usize];
    let (mut mass, mut weighted, mut spread) = (0.0, Vec3::ZERO, Vec3::ZERO);
    if n.is_leaf() {
        for &i in &order[n.start as usize..n.end as usize] {
            let p = &particles[i as usize];
            mass += p.mass;
            weighted += p.pos * p.mass;
            spread += p.pos;
        }
    } else {
        for c in n.children.iter().filter(|&&c| c != NIL).map(|&c| &nodes[c as usize]) {
            mass += c.mass;
            weighted += c.com * c.mass;
            spread += c.com * c.count() as f64;
        }
    }
    let com = if mass > 0.0 { weighted / mass } else { spread / n.count() as f64 };
    (mass, com)
}

/// An immutable Barnes–Hut oct-tree over a borrowed particle slice.
///
/// The tree stores particle *indices* only; traversals take the particle
/// slice as an argument so one tree can serve several derived arrays
/// (positions at different half-steps, etc.).
#[derive(Debug, Clone)]
pub struct Tree {
    /// Node arena; slot 0 is the root.
    pub nodes: Vec<Node>,
    /// Morton-permuted particle indices; each node covers a contiguous
    /// range. The identity once [`Tree::permute_to_order`] has stored the
    /// particles in this order.
    pub order: Vec<u32>,
    /// The root cell used for the build.
    pub root_cell: Aabb,
}

impl Tree {
    /// The root node.
    #[inline]
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }

    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of the present children of `id`, in octant (Z-curve) order.
    /// Drives the iteration off the cached occupancy mask instead of
    /// scanning all eight slots.
    pub fn children_of(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let n = self.node(id);
        let mut mask = n.child_mask;
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let o = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(n.children[o])
        })
    }

    /// Indices (into the original particle slice) of the particles under
    /// node `id`, in Morton order.
    #[inline]
    pub fn particles_under(&self, id: NodeId) -> &[u32] {
        let n = self.node(id);
        &self.order[n.start as usize..n.end as usize]
    }

    /// Depth of the tree (root = depth 1; empty tree = 0).
    pub fn depth(&self) -> u32 {
        if self.nodes.is_empty() {
            return 0;
        }
        let mut max = 0;
        let mut stack = vec![(0 as NodeId, 1u32)];
        while let Some((id, d)) = stack.pop() {
            max = max.max(d);
            for c in self.children_of(id) {
                stack.push((c, d + 1));
            }
        }
        max
    }

    /// Count of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Walk the tree depth-first in octant order, calling `f(id, level)` on
    /// every node. This is the "in-order" (left-to-right) order the DPDA
    /// load-boundary search uses — with Morton child ordering it enumerates
    /// particles along the Z-curve.
    pub fn walk(&self, mut f: impl FnMut(NodeId, u32)) {
        if self.nodes.is_empty() {
            return;
        }
        // Recursion via explicit stack; children pushed in reverse so they
        // pop in octant order.
        let mut stack = vec![(0 as NodeId, 0u32)];
        while let Some((id, level)) = stack.pop() {
            f(id, level);
            let n = self.node(id);
            for &c in n.children.iter().rev() {
                if c != NIL {
                    stack.push((c, level + 1));
                }
            }
        }
    }

    /// Find the deepest node whose cell contains `p`, starting from the
    /// root. Returns `None` for an empty tree or a point outside the root
    /// node's cell (the root cell, or the smaller cell box collapsing
    /// shrank it to).
    pub fn locate(&self, p: Vec3) -> Option<NodeId> {
        if self.nodes.is_empty() || !self.root().cell.contains(p) {
            return None;
        }
        let mut id: NodeId = 0;
        loop {
            let n = self.node(id);
            let c = n.children[n.cell.octant_of(p)];
            // Box collapsing can shrink the child's cell away from `p`: then
            // `id` is the deepest cell that holds it.
            if c == NIL || !self.node(c).cell.contains(p) {
                return Some(id);
            }
            id = c;
        }
    }

    /// Store `particles` (the array the tree was built over) in tree order:
    /// afterwards `particles[k]` is the particle `order[k]` named before,
    /// and `order` is the identity, so every node's particles are the slice
    /// `particles[start..end]`. The permutation runs in place, one cycle at
    /// a time, with no second array. Every traversal reads the same particle
    /// at the same step as before, so its results do not change; skip ids
    /// are particle ids, which move with the particles.
    ///
    /// # Panics
    /// If `particles` is not as long as `order`, or `order` is not a
    /// permutation.
    pub fn permute_to_order<T>(&mut self, particles: &mut [T]) {
        let n = particles.len();
        assert_eq!(self.order.len(), n, "tree order and particle array lengths differ");
        for start in 0..n {
            // Slot `at` takes the particle at `order[at]`; a settled slot's
            // entry becomes its own index, which marks it.
            let mut at = start;
            while self.order[at] as usize != at {
                let from = self.order[at] as usize;
                assert!(
                    from < n && (from == start || self.order[from] as usize != from),
                    "tree order is not a permutation: position {at} names {from}, which is out of range or named twice"
                );
                self.order[at] = at as u32;
                if from == start {
                    break;
                }
                particles.swap(at, from);
                at = from;
            }
        }
    }

    /// Sanity-check structural invariants; returns a description of the
    /// first violation. Used by tests and debug assertions, not hot paths.
    pub fn check_invariants(&self, particles_len: usize) -> Result<(), String> {
        if self.nodes.is_empty() {
            return if self.order.is_empty() {
                Ok(())
            } else {
                Err("empty arena but non-empty order".into())
            };
        }
        if self.order.len() != particles_len {
            return Err(format!("order len {} != particles {}", self.order.len(), particles_len));
        }
        // order is a permutation
        let mut seen = vec![false; particles_len];
        for &i in &self.order {
            let i = i as usize;
            if i >= particles_len || seen[i] {
                return Err(format!("order not a permutation at {i}"));
            }
            seen[i] = true;
        }
        // A depth-first walk in octant order: the arena is in preorder iff it
        // reaches the ids in arena order.
        let mut preorder: NodeId = 0;
        let mut stack = vec![0 as NodeId];
        while let Some(id) = stack.pop() {
            if id != preorder {
                return Err(format!("arena not in preorder: node {id} where {preorder} belongs"));
            }
            preorder += 1;
            let n = self.node(id);
            if n.start > n.end || n.end as usize > particles_len {
                return Err(format!("node {id} bad range {}..{}", n.start, n.end));
            }
            if n.child_mask != Node::mask_of(&n.children) {
                return Err(format!(
                    "node {id}: child_mask {:#010b} disagrees with child table (expected {:#010b})",
                    n.child_mask,
                    Node::mask_of(&n.children)
                ));
            }
            if !n.is_leaf() {
                // children ranges tile the parent range in octant order
                let mut cursor = n.start;
                let mut child_total = 0;
                for &c in &n.children {
                    if c == NIL {
                        continue;
                    }
                    if c as usize >= self.nodes.len() {
                        return Err(format!("node {id}: child {c} outside the arena"));
                    }
                    let ch = self.node(c);
                    if ch.start != cursor {
                        return Err(format!(
                            "node {id}: child {c} starts at {} expected {cursor}",
                            ch.start
                        ));
                    }
                    cursor = ch.end;
                    child_total += ch.count();
                    if !n.cell.contains_box(&ch.cell) {
                        return Err(format!("node {id}: child {c} cell escapes parent"));
                    }
                }
                if child_total != n.count() || cursor != n.end {
                    return Err(format!("node {id}: children don't tile range"));
                }
                stack.extend(n.children.iter().rev().filter(|&&c| c != NIL));
            }
            // `next` is the id past the subtree: each child's subtree starts
            // where the one before it ends, the first right after `id`, and
            // the node's ends with its last child's (a leaf's at `id + 1`).
            let mut past = id + 1;
            for c in self.children_of(id) {
                if c != past {
                    return Err(format!(
                        "arena not in preorder: node {id}'s child {c} is not at {past}"
                    ));
                }
                past = self.node(c).next;
            }
            if n.next != past {
                return Err(format!("node {id}: next {} but its subtree ends at {past}", n.next));
            }
            // The moments against the particles are `validate`'s to check;
            // here only their finiteness.
            if !n.com.is_finite() || !n.mass.is_finite() {
                return Err(format!("node {id}: non-finite mass/com"));
            }
        }
        if preorder as usize != self.nodes.len() {
            return Err("unreachable nodes in arena".into());
        }
        Ok(())
    }

    /// [`Tree::check_invariants`] (ranges tile, preorder, `next` links) and
    /// what a tree built from `particles` at leaf capacity `leaf_capacity`
    /// must also hold; returns a description of the first violation. Tests,
    /// debug builds and diagnostics: it re-reads every particle once, at its
    /// leaf, and every internal node's children.
    ///
    /// * Each node's `mass` and `com` are what `monopole` gives, bit for
    ///   bit: a leaf's folded from its range of `order`, an internal node's
    ///   from its stored children, which are checked in turn.
    /// * A leaf holds at most `leaf_capacity` particles, unless it sits at
    ///   the depth cap, where no split separates what is left.
    /// * Every particle lies inside its leaf's cell, and so inside the cell
    ///   of each node that holds it (a child's cell lies in its parent's), up
    ///   to one ulp of the root cell's largest coordinate. Not exactly: the
    ///   builder sorts by Morton code, which quantizes a position against
    ///   the root cell, while the cells are float midpoints, and where the
    ///   two round apart a body lands about an ulp outside its cell (Plummer
    ///   n = 50k seed 1: body 24890, 1.8e-15 outside its unit's parent).
    pub fn validate(&self, particles: &[Particle], leaf_capacity: usize) -> Result<(), String> {
        self.check_invariants(particles.len())?;
        let Some(root) = self.nodes.first() else { return Ok(()) };
        let reach = [root.cell.min, root.cell.max]
            .iter()
            .flat_map(|v| [v.x, v.y, v.z])
            .fold(0.0f64, |m, x| m.max(x.abs()));
        let ulp = f64::from_bits(reach.to_bits() + 1) - reach;
        // Cells and occupancy first: a body out of place also shifts the
        // moments of every node above it, and the cell names the cause.
        for (id, n) in self.nodes.iter().enumerate().filter(|(_, n)| n.is_leaf()) {
            if n.count() as usize > leaf_capacity && n.key.level() < DEPTH_CAP {
                return Err(format!(
                    "node {id}: leaf of {} particles above capacity {leaf_capacity} at level {}",
                    n.count(),
                    n.key.level()
                ));
            }
            let slack = Aabb::new(n.cell.min - Vec3::splat(ulp), n.cell.max + Vec3::splat(ulp));
            let members = &self.order[n.start as usize..n.end as usize];
            if let Some(&i) = members.iter().find(|&&i| !slack.contains(particles[i as usize].pos))
            {
                return Err(format!(
                    "node {id}: particle {i} at {:?} outside its cell {:?} by more than {ulp:e}",
                    particles[i as usize].pos, n.cell
                ));
            }
        }
        for (id, n) in self.nodes.iter().enumerate() {
            let (mass, com) = monopole(&self.nodes, id as NodeId, &self.order, particles);
            let bits = |m: f64, c: Vec3| [m, c.x, c.y, c.z].map(f64::to_bits);
            if bits(n.mass, n.com) != bits(mass, com) {
                let from = if n.is_leaf() { "its range" } else { "its child list" };
                return Err(format!(
                    "node {id}: mass {} com {:?} but {from} folds to {mass} {com:?}",
                    n.mass, n.com
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, build_in_cell, build_incremental, BuildParams};
    use bhut_geom::ParticleSet;

    /// Twenty unit masses in a tight run near `(0.1, 0.1, 0.1)` and one at
    /// `(0.9, 0.9, 0.9)`, in the unit cube with leaf capacity 4: box
    /// collapsing shrinks the run's node to a cell of side 1/64.
    fn cluster_and_one() -> (ParticleSet, Tree) {
        let run = (0..20).map(|i| {
            let f = i as f64 * 1e-4;
            Vec3::new(0.1 + f, 0.1 + f / 2.0, 0.1 + f / 4.0)
        });
        let set = ParticleSet::from_positions(run.chain([Vec3::splat(0.9)]));
        let tree = build_in_cell(
            &set.particles,
            Aabb::origin_cube(1.0),
            BuildParams::with_leaf_capacity(4),
        );
        (set, tree)
    }

    /// A point in the run's root octant but outside its collapsed cell: the
    /// deepest cell holding it is the root's, not the run's.
    #[test]
    fn locate_does_not_step_into_a_collapsed_cell_that_misses_the_point() {
        let (set, tree) = cluster_and_one();
        tree.check_invariants(set.len()).unwrap();
        let p = Vec3::new(0.4, 0.4, 0.05);
        let run = tree.children_of(0).next().unwrap();
        assert_eq!(tree.node(run).cell.side(), 1.0 / 64.0, "the run's cell is collapsed");
        assert_eq!(tree.node(0).cell.octant_of(p), tree.node(0).cell.octant_of(Vec3::splat(0.1)));
        assert_eq!(tree.locate(p), Some(0));
        // Inside the run's cell the descent goes on as before.
        let inside = Vec3::new(0.1005, 0.1003, 0.1002);
        let id = tree.locate(inside).unwrap();
        assert_ne!(id, 0);
        assert!(tree.node(id).cell.contains(inside));
    }

    /// `next` on the edge cases of the builders: no particles, one, and
    /// coincident points that no split separates, chained down to the depth
    /// cap (each node of the chain ends with the arena).
    #[test]
    fn next_links_hold_on_empty_single_and_depth_capped_trees() {
        let cube = Aabb::origin_cube(1.0);
        let chain = BuildParams { leaf_capacity: 2, collapse: false, min_split_level: 0 };
        for (n, at) in [(0, 0.5), (1, 0.5), (10, 0.25)] {
            let set = ParticleSet::from_positions(std::iter::repeat_n(Vec3::splat(at), n));
            let trees = [
                build(&set.particles, BuildParams::with_leaf_capacity(2)),
                build_in_cell(&set.particles, cube, chain),
                build_incremental(&set.particles, cube, chain),
            ];
            for (b, tree) in trees.iter().enumerate() {
                tree.check_invariants(n).unwrap_or_else(|e| panic!("n {n} builder {b}: {e}"));
                assert_eq!(tree.is_empty(), n == 0);
                if n == 10 && b > 0 {
                    assert!(tree.len() > 20, "builder {b}: the chain reaches the depth cap");
                    assert!(tree.nodes.iter().all(|nd| nd.next as usize == tree.len()));
                }
            }
        }
    }

    /// `permute_to_order` on no particles, one, ten coincident points chained
    /// to the depth cap, and a Plummer sphere: the tree stays valid, `order`
    /// becomes the identity, position `k` holds the particle `order[k]`
    /// named, and every walk — at each particle, skipping it and not — reads
    /// the same bits and counts as on the caller's layout.
    #[test]
    fn permuting_to_tree_order_keeps_every_walk_bitwise() {
        use crate::{accel_on, potential_at, BarnesHutMac};
        let (mac, eps) = (BarnesHutMac::new(0.67), 1e-4);
        let chain = BuildParams { leaf_capacity: 2, collapse: false, min_split_level: 0 };
        let coincident = |n| ParticleSet::from_positions(std::iter::repeat_n(Vec3::splat(0.25), n));
        let sphere = bhut_geom::plummer(bhut_geom::PlummerSpec { n: 2000, ..Default::default() });
        for set in [coincident(0), coincident(1), coincident(10), sphere] {
            let (ps, n) = (&set.particles, set.len());
            let tree = if n == 10 {
                let tree = build_in_cell(ps, Aabb::origin_cube(1.0), chain);
                assert!(tree.len() > 20, "the coincident points chain to the depth cap");
                tree
            } else {
                build(ps, BuildParams::default())
            };
            let (mut sorted_tree, mut sorted) = (tree.clone(), ps.clone());
            sorted_tree.permute_to_order(&mut sorted);
            sorted_tree.check_invariants(n).unwrap_or_else(|e| panic!("n {n}: {e}"));
            assert!(sorted_tree.order.iter().enumerate().all(|(k, &i)| i as usize == k), "n {n}");
            for (k, &i) in tree.order.iter().enumerate() {
                assert_eq!(sorted[k], ps[i as usize], "n {n}: position {k}");
            }
            for p in ps {
                for skip in [Some(p.id), None] {
                    let walk = |t: &Tree, on: &[bhut_geom::Particle]| {
                        let (acc, st) = accel_on(t, on, p.pos, skip, &mac, eps);
                        let (phi, st_phi) = potential_at(t, on, p.pos, skip, &mac, eps);
                        ([acc.x, acc.y, acc.z, phi].map(f64::to_bits), st, st_phi)
                    };
                    assert_eq!(
                        walk(&sorted_tree, &sorted),
                        walk(&tree, ps),
                        "n {n}: {p:?} {skip:?}"
                    );
                }
            }
        }
    }

    /// An `order` that names a position twice, or one past the array, panics
    /// instead of looping or reading out of bounds.
    #[test]
    fn permuting_by_a_non_permutation_panics() {
        let (set, tree) = cluster_and_one();
        let n = set.len() as u32;
        // One cycle through every position, then one entry bent: onto a
        // position another entry names (ahead of the walk, behind it, or the
        // cycle's start), or out of range.
        for (at, to) in [(0, 2), (5, 2), (n - 1, 5), (7, 0), (3, n), (0, u32::MAX)] {
            let mut bad = tree.clone();
            bad.order = (0..n).map(|k| (k + 1) % n).collect();
            bad.order[at as usize] = to;
            let mut ps = set.particles.clone();
            let err = std::panic::catch_unwind(move || bad.permute_to_order(&mut ps)).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("not a permutation"), "order[{at}] = {to}: {msg}");
        }
    }

    /// Fresh builds of the sets where a body sits about an ulp outside its
    /// cell pass [`Tree::validate`]; a moment one ulp off, a leaf over
    /// capacity above the depth cap, or a body moved out of its cell do not.
    #[test]
    fn validate_accepts_fresh_builds_and_names_what_is_broken() {
        use bhut_geom::{plummer, uniform_cube, PlummerSpec};
        let sphere = plummer(PlummerSpec { n: 50_000, seed: 1, ..Default::default() });
        for set in [sphere, uniform_cube(50_000, 1.0, 1)] {
            let tree = build(&set.particles, BuildParams::default());
            tree.validate(&set.particles, 8).unwrap();
        }
        let (set, tree) = cluster_and_one();
        let ps = &set.particles;
        tree.validate(ps, 4).unwrap();
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);

        let mut bad = tree.clone();
        bad.nodes[1].com.y = up(bad.nodes[1].com.y);
        assert!(bad.validate(ps, 4).unwrap_err().contains("folds to"));
        let mut bad = tree.clone();
        bad.nodes[0].mass = up(bad.nodes[0].mass);
        assert!(bad.validate(ps, 4).unwrap_err().contains("folds to"));

        let leaf = tree.nodes.iter().position(|n| n.is_leaf() && n.count() > 1).unwrap();
        let err = tree.validate(ps, 1).unwrap_err();
        assert!(err.contains("above capacity"), "{err}");
        assert!(tree.nodes[leaf].key.level() < DEPTH_CAP);

        let mut moved = ps.clone();
        let i = tree.order[tree.nodes[leaf].start as usize] as usize;
        moved[i].pos.x += 0.5;
        let err = tree.validate(&moved, 4).unwrap_err();
        assert!(err.contains(&format!("particle {i} at")), "{err}");
    }

    /// The invariant check notices a `next` off by one, and a subtree the
    /// arena does not hold in preorder.
    #[test]
    fn check_invariants_rejects_a_wrong_next_and_a_non_preorder_arena() {
        let (set, tree) = cluster_and_one();
        for id in 0..tree.len() {
            let mut bad = tree.clone();
            bad.nodes[id].next += 1;
            assert!(bad.check_invariants(set.len()).is_err(), "next of node {id}");
        }
        // Move the root's first subtree behind the rest of the arena and
        // renumber the child links: the same tree, not in preorder.
        let (first, len) = (tree.children_of(0).next().unwrap(), tree.len() as NodeId);
        let end = tree.node(first).next;
        let moved = |id: NodeId| match id {
            NIL => NIL,
            id if id < first => id,
            id if id < end => id + (len - end),
            id => id - (end - first),
        };
        let mut shuffled = tree.clone();
        shuffled.nodes = (0..first)
            .chain(end..len)
            .chain(first..end)
            .map(|old| {
                let mut node = tree.node(old).clone();
                node.children = node.children.map(moved);
                node
            })
            .collect();
        let err = shuffled.check_invariants(set.len()).unwrap_err();
        assert!(err.contains("preorder"), "{err}");
    }
}
