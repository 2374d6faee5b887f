//! Arena-based oct-tree storage.
//!
//! Nodes live in one flat `Vec` of 64-byte records, a cache line's worth each.
//! Every node — internal or leaf — covers a contiguous range of
//! `Tree::order`, the Morton-permuted particle index array, so "the
//! particles under node X" is always a slice. That property is load-bearing
//! for the DPDA costzones scheme, which carves the in-order particle
//! sequence at load boundaries.
//!
//! Every builder lays the arena out in *preorder* (a node, then its
//! children's subtrees in octant order), so a subtree is also a contiguous
//! id range, `id..next` ([`Node::next`]). That is what makes the child ids
//! derivable: the first child of `id` is `id + 1` and each next sibling is
//! the previous child's `next` ([`Tree::children_of`]). The cell is derived
//! too, from the node's key ([`Tree::cell`]); a node stores only what the
//! walks read. The lane replay ([`crate::replay`]) and the per-target walk
//! ([`crate::traverse::walk`]) go forward through the id range instead of
//! pushing and popping children on a stack.

use bhut_geom::{Aabb, Particle, Vec3};
use bhut_morton::NodeKey;

/// Index of a node in [`Tree::nodes`].
pub type NodeId = u32;

/// Level of the deepest nodes a builder makes; a leaf there may hold more
/// than the leaf capacity.
pub(crate) const DEPTH_CAP: u32 = crate::build::MAX_LEVEL - 1;

/// One oct-tree node: the record a walk reads, 64 bytes.
///
/// Stored: the monopole (`com`, `mass`), the side of the node's cell (the
/// MAC's only operand from the cell), the key, the particle range, the
/// preorder link `next` and the octant occupancy. Derived: the cell itself,
/// [`Tree::cell`], which replays the key's octant digits from the root cell;
/// and the child ids, [`Tree::children_of`], which follows the preorder
/// links.
#[derive(Debug, Clone)]
pub struct Node {
    /// Center of mass of the subtree.
    pub com: Vec3,
    /// Total mass of the subtree.
    pub mass: f64,
    /// `cell.side()` of the node's cell ([`Tree::cell`]), taken once by the
    /// builder from the cell it halved down to. With box collapsing the cell
    /// can be a strict descendant cell of the parent's octant.
    pub side: f64,
    /// Warren–Salmon path key of this node (see `bhut_morton::keys`); its
    /// octant digits name the cell.
    pub key: NodeKey,
    /// Range `[start, end)` into [`Tree::order`] of the particles below this
    /// node.
    pub start: u32,
    pub end: u32,
    /// The first node after this node's subtree: the arena is in preorder,
    /// so the subtree is exactly the ids `id..next`: `id + 1` for a leaf,
    /// [`Tree::len`] for the root (and for every node whose subtree ends
    /// the arena). Skipping a subtree is one jump to `next`.
    pub next: NodeId,
    /// Occupancy bitmask: bit `o` set iff a child lies in octant `o` (the
    /// child key's digit at this node's level). 0 for leaves.
    pub child_mask: u8,
}

// One cache line's worth. Not `repr(align(64))`: the arena then comes from
// the allocator's aligned path, and on the served workload, which clones and
// frees a tree every republish, glibc's heap fragmented around those blocks
// (peak RSS 28.9 MiB against 18.8 with the default alignment).
const _: () = assert!(std::mem::size_of::<Node>() == 64);

impl Node {
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.child_mask == 0
    }

    /// Number of particles in the subtree.
    #[inline]
    pub fn count(&self) -> u32 {
        self.end - self.start
    }
}

/// The children of node `id` of the preorder arena `nodes`, in octant order:
/// `id + 1`, then each child's `next`, up to the parent's `next`.
fn children(nodes: &[Node], id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    let end = nodes[id as usize].next;
    let mut at = id + 1;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let c = at;
            at = nodes[c as usize].next;
            c
        })
    })
}

/// The cell keyed `key`, from `cell`, the cell keyed `above` on its root
/// path: one [`Aabb::octant`] per octant digit of `key` below `above`, the
/// halving both builders do as they extend a key, so the cell comes out bit
/// for bit as they had it.
#[inline]
fn cell_below(mut cell: Aabb, above: NodeKey, key: NodeKey) -> Aabb {
    debug_assert!(above.is_ancestor_of(key), "{above} is not on the root path of {key}");
    for level in above.level()..key.level() {
        cell = cell.octant(key.octant_at(level) as usize);
    }
    cell
}

/// Which way [`follow_cycles`] moves array entries along a permutation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Position `k` takes what position `order[k]` held (a gather).
    ToOrder,
    /// Position `order[k]` takes what position `k` held (a scatter).
    FromOrder,
}

/// Apply the permutation `order` in place through `swap(a, b)`, one cycle
/// at a time: each cycle costs one swap per position but the first, and a
/// bitset marks the positions already settled. Walking the cycle `start →
/// order[start] → …`, the gather swaps each position `at` with `order[at]`
/// (`at` takes its entry, and the one carried moves on); the scatter swaps
/// `start` with each `order[at]` (the entry carried at `start` lands where
/// it belongs).
///
/// # Panics
/// If `order` names a position out of range or twice: the walk then reaches
/// a settled position other than its cycle's start.
fn follow_cycles(order: &[u32], direction: Direction, mut swap: impl FnMut(usize, usize)) {
    let n = order.len();
    let mut settled = vec![0u64; n.div_ceil(64)];
    let is_settled = |settled: &[u64], k: usize| settled[k / 64] >> (k % 64) & 1 == 1;
    for start in 0..n {
        if is_settled(&settled, start) {
            continue;
        }
        let mut at = start;
        loop {
            settled[at / 64] |= 1 << (at % 64);
            let next = order[at] as usize;
            if next == start {
                break;
            }
            assert!(
                next < n && !is_settled(&settled, next),
                "tree order is not a permutation: position {at} names {next}, which is out of range or named twice"
            );
            match direction {
                Direction::ToOrder => swap(at, next),
                Direction::FromOrder => swap(start, next),
            }
            at = next;
        }
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
/// range, its `next` and, for an internal node, its children's moments must
/// be set.
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
        for c in children(nodes, id).map(|c| &nodes[c as usize]) {
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
    /// The root cell used for the build: the cell of [`NodeKey::ROOT`],
    /// from which every node's cell is derived.
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

    /// Ids of the present children of `id`, in octant (Z-curve) order. Not
    /// stored: the arena is in preorder, so the first child is `id + 1`
    /// and each next sibling is the previous child's `next`, up to `id`'s
    /// own `next`.
    pub fn children_of(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        children(&self.nodes, id)
    }

    /// The cell of node `id`. Not stored: the key's octant digits are
    /// replayed from [`Tree::root_cell`] through [`Aabb::octant`], the
    /// builders' own halving, so the cell is the builder's bit for bit (and
    /// its `side()` is [`Node::side`]). This costs one halving per level;
    /// a walk that needs the cells on its way down carries them with
    /// [`Tree::cell_below`] instead.
    pub fn cell(&self, id: NodeId) -> Aabb {
        cell_below(self.root_cell, NodeKey::ROOT, self.node(id).key)
    }

    /// The cell of node `id` from `cell`, the cell of node `above` on its
    /// root path: one halving per level between the two, so a walk carries
    /// cells down at the cost of the levels it descends.
    #[inline]
    pub fn cell_below(&self, cell: Aabb, above: NodeId, id: NodeId) -> Aabb {
        cell_below(cell, self.node(above).key, self.node(id).key)
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
        let mut max = 0;
        self.walk(|_, level| max = max.max(level + 1));
        max
    }

    /// Count of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Walk the tree depth-first in octant order, calling `f(id, level)` on
    /// every node (`level` counts the node's ancestors). This is the
    /// "in-order" (left-to-right) order the DPDA load-boundary search uses —
    /// with Morton child ordering it enumerates particles along the Z-curve
    /// — and, the arena being in preorder, it is arena order.
    pub fn walk(&self, mut f: impl FnMut(NodeId, u32)) {
        // The `next` of every ancestor of the current node.
        let mut open: Vec<NodeId> = Vec::new();
        for (id, n) in self.nodes.iter().enumerate() {
            let id = id as NodeId;
            while open.last().is_some_and(|&end| end <= id) {
                open.pop();
            }
            f(id, open.len() as u32);
            open.push(n.next);
        }
    }

    /// Find the deepest node whose cell contains `p`, starting from the
    /// root, and return it with its cell. `None` for an empty tree or a
    /// point outside the root node's cell (the root cell, or the smaller
    /// cell box collapsing shrank it to). The cells are carried down the
    /// descent, one halving per level.
    pub fn locate(&self, p: Vec3) -> Option<(NodeId, Aabb)> {
        if self.nodes.is_empty() {
            return None;
        }
        let (mut id, mut cell) = (0, self.cell(0));
        if !cell.contains(p) {
            return None;
        }
        loop {
            let mask = self.node(id).child_mask;
            let o = cell.octant_of(p);
            if mask >> o & 1 == 0 {
                return Some((id, cell));
            }
            let before = (mask & ((1u8 << o) - 1)).count_ones() as usize;
            let c = self.children_of(id).nth(before).expect("a child per mask bit");
            let inner = self.cell_below(cell, id, c);
            // Box collapsing can shrink the child's cell away from `p`: then
            // `id` is the deepest cell that holds it.
            if !inner.contains(p) {
                return Some((id, cell));
            }
            (id, cell) = (c, inner);
        }
    }

    /// Store `particles` (the array the tree was built over) in tree order:
    /// afterwards `particles[k]` is the particle `order[k]` named before,
    /// and `order` is the identity, so every node's particles are the slice
    /// `particles[start..end]`. The permutation runs in place, one cycle at
    /// a time, with no second array (a bitset of `n` bits marks the settled
    /// positions). Every traversal reads the same particle at the same step
    /// as before, so its results do not change; skip ids are particle ids,
    /// which move with the particles.
    ///
    /// # Panics
    /// If `particles` is not as long as `order`, or `order` is not a
    /// permutation.
    pub fn permute_to_order<T>(&mut self, particles: &mut [T]) {
        assert_eq!(
            self.order.len(),
            particles.len(),
            "tree order and particle array lengths differ"
        );
        follow_cycles(&self.order, Direction::ToOrder, |a, b| particles.swap(a, b));
        for (k, o) in self.order.iter_mut().enumerate() {
            *o = k as u32;
        }
    }

    /// The inverse of [`Tree::permute_to_order`], for arrays the caller
    /// filled in tree order: `swap(a, b)` exchanges positions `a` and `b` of
    /// every such array, and afterwards position `order[k]` holds what
    /// position `k` held, so they are indexed by particle id. One pass
    /// permutes all of them in place, one cycle at a time; the tree is only
    /// borrowed (`order` is not touched).
    ///
    /// # Panics
    /// If `order` is not a permutation.
    pub fn permute_from_order(&self, swap: impl FnMut(usize, usize)) {
        follow_cycles(&self.order, Direction::FromOrder, swap);
    }

    /// Every node's cell, in arena order, each carried down from its
    /// parent's ([`Tree::cell_below`]). The `next` links must hold.
    fn cells(&self) -> Vec<Aabb> {
        let mut cells: Vec<Aabb> = Vec::with_capacity(self.nodes.len());
        // The ids of the current node's ancestors.
        let mut open: Vec<NodeId> = Vec::new();
        for id in 0..self.nodes.len() as NodeId {
            while open.last().is_some_and(|&a| self.node(a).next <= id) {
                open.pop();
            }
            cells.push(match open.last() {
                Some(&parent) => self.cell_below(cells[parent as usize], parent, id),
                None => self.cell(id),
            });
            open.push(id);
        }
        cells
    }

    /// Sanity-check structural invariants; returns a description of the
    /// first violation. Used by tests and debug assertions, not hot paths.
    ///
    /// The arena is in preorder: every subtree is the id range `id..next`,
    /// tiled by the children's subtrees in octant order (each child's key
    /// extends its parent's; its octant is its key's digit at the parent's
    /// level), and `child_mask` names exactly those octants. The children's
    /// particle ranges tile their parent's, and every `side` is its derived
    /// cell's.
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
        let len = self.nodes.len() as NodeId;
        if self.root().next != len {
            return Err(format!("unreachable nodes in arena: the root's subtree ends at {}", len));
        }
        for (id, n) in self.nodes.iter().enumerate() {
            let id = id as NodeId;
            if n.start > n.end || n.end as usize > particles_len {
                return Err(format!("node {id} bad range {}..{}", n.start, n.end));
            }
            if n.next <= id || n.next > len {
                return Err(format!("node {id}: next {} outside {}..={len}", n.next, id + 1));
            }
            // The children: the preorder chain from `id + 1` to `next`, each
            // link landing inside the parent's subtree, in octant order.
            let (level, mut mask, mut at) = (n.key.level(), 0u8, id + 1);
            while at < n.next {
                let ch = self.node(at);
                if ch.next <= at || ch.next > n.next {
                    return Err(format!(
                        "arena not in preorder: node {id}'s child {at} ends at {}, outside {}..={}",
                        ch.next,
                        at + 1,
                        n.next
                    ));
                }
                if !(ch.key.level() > level && n.key.is_ancestor_of(ch.key)) {
                    return Err(format!(
                        "node {id}: child {at} key {} not below {}",
                        ch.key, n.key
                    ));
                }
                let o = ch.key.octant_at(level);
                if mask >> o != 0 {
                    return Err(format!(
                        "arena not in preorder: node {id}'s child {at} in octant {o} follows octant {}",
                        7 - mask.leading_zeros()
                    ));
                }
                mask |= 1 << o;
                at = ch.next;
            }
            if n.child_mask != mask {
                return Err(format!(
                    "node {id}: child_mask {:#010b} disagrees with its children (expected {mask:#010b})",
                    n.child_mask
                ));
            }
            // Children ranges tile the parent range in octant order.
            let mut cursor = n.start;
            for c in self.children_of(id) {
                let ch = self.node(c);
                if ch.start != cursor {
                    return Err(format!(
                        "node {id}: child {c} starts at {} expected {cursor}",
                        ch.start
                    ));
                }
                cursor = ch.end;
            }
            if !n.is_leaf() && cursor != n.end {
                return Err(format!("node {id}: children don't tile range"));
            }
            // The moments against the particles are `validate`'s to check;
            // here only their finiteness.
            if !n.com.is_finite() || !n.mass.is_finite() {
                return Err(format!("node {id}: non-finite mass/com"));
            }
        }
        for (id, (n, cell)) in self.nodes.iter().zip(self.cells()).enumerate() {
            if n.side.to_bits() != cell.side().to_bits() {
                return Err(format!(
                    "node {id}: side {} but its cell {cell:?} is {}",
                    n.side,
                    cell.side()
                ));
            }
        }
        Ok(())
    }

    /// [`Tree::check_invariants`] (ranges tile, preorder, `next` links,
    /// sides) and what a tree built from `particles` at leaf capacity
    /// `leaf_capacity` must also hold; returns a description of the first
    /// violation. Tests, debug builds and diagnostics: it re-reads every
    /// particle once, at its leaf, and every internal node's children.
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
        if self.nodes.is_empty() {
            return Ok(());
        }
        let cells = self.cells();
        let reach = [cells[0].min, cells[0].max]
            .iter()
            .flat_map(|v| [v.x, v.y, v.z])
            .fold(0.0f64, |m, x| m.max(x.abs()));
        let ulp = f64::from_bits(reach.to_bits() + 1) - reach;
        // Cells and occupancy first: a body out of place also shifts the
        // moments of every node above it, and the cell names the cause.
        for (id, (n, cell)) in
            self.nodes.iter().zip(&cells).enumerate().filter(|(_, (n, _))| n.is_leaf())
        {
            if n.count() as usize > leaf_capacity && n.key.level() < DEPTH_CAP {
                return Err(format!(
                    "node {id}: leaf of {} particles above capacity {leaf_capacity} at level {}",
                    n.count(),
                    n.key.level()
                ));
            }
            let slack = Aabb::new(cell.min - Vec3::splat(ulp), cell.max + Vec3::splat(ulp));
            let members = &self.order[n.start as usize..n.end as usize];
            if let Some(&i) = members.iter().find(|&&i| !slack.contains(particles[i as usize].pos))
            {
                return Err(format!(
                    "node {id}: particle {i} at {:?} outside its cell {cell:?} by more than {ulp:e}",
                    particles[i as usize].pos
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
        assert_eq!(tree.node(run).side, 1.0 / 64.0, "the run's cell is collapsed");
        assert_eq!(tree.cell(run).side(), 1.0 / 64.0);
        assert_eq!(tree.cell(0).octant_of(p), tree.cell(0).octant_of(Vec3::splat(0.1)));
        assert_eq!(tree.locate(p), Some((0, Aabb::origin_cube(1.0))));
        // Inside the run's cell the descent goes on as before.
        let inside = Vec3::new(0.1005, 0.1003, 0.1002);
        let (id, cell) = tree.locate(inside).unwrap();
        assert_ne!(id, 0);
        assert!(cell.contains(inside));
        assert_eq!(cell, tree.cell(id));
    }

    /// The child tables and cells a node no longer stores, rebuilt from the
    /// keys alone: a node's parent is the deepest node keyed by a proper
    /// ancestor of its key, and its slot there is its key's digit at the
    /// parent's level. `children_of` yields the table's entries in octant
    /// order, and `locate` answers as the descent through that table and
    /// each node's own [`Tree::cell`] did, cell and all — on collapsed,
    /// forced-level and depth-capped trees, at the particles, beside them and
    /// outside the root.
    #[test]
    fn children_of_and_locate_are_what_the_child_table_gave() {
        let (set, collapsed) = cluster_and_one();
        let sphere = bhut_geom::plummer(bhut_geom::PlummerSpec { n: 2000, ..Default::default() });
        let forced = BuildParams { leaf_capacity: 4, collapse: false, min_split_level: 3 };
        let coincident = ParticleSet::from_positions(std::iter::repeat_n(Vec3::splat(0.25), 6));
        let chain = BuildParams { leaf_capacity: 2, collapse: false, min_split_level: 0 };
        let (cube, sphere_cell) = (Aabb::origin_cube(1.0), sphere.bounding_cube().unwrap());
        let cases = [
            (set.particles.clone(), collapsed),
            (sphere.particles.clone(), build(&sphere.particles, BuildParams::default())),
            (sphere.particles.clone(), build_in_cell(&sphere.particles, sphere_cell, forced)),
            (coincident.particles.clone(), build_incremental(&coincident.particles, cube, chain)),
        ];
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut unit = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        for (case, (ps, tree)) in cases.iter().enumerate() {
            let ids: std::collections::HashMap<NodeKey, NodeId> =
                tree.nodes.iter().enumerate().map(|(id, n)| (n.key, id as NodeId)).collect();
            let mut table = vec![[None; 8]; tree.len()];
            for (id, n) in tree.nodes.iter().enumerate().skip(1) {
                let mut up = n.key.parent().expect("only the root has the root key");
                let parent = loop {
                    match ids.get(&up) {
                        Some(&p) => break p,
                        None => up = up.parent().expect("the root node is an ancestor"),
                    }
                };
                let slot = &mut table[parent as usize][n.key.octant_at(up.level()) as usize];
                assert_eq!(*slot, None, "case {case}: two children in one octant");
                *slot = Some(id as NodeId);
            }
            for (id, row) in table.iter().enumerate() {
                let want: Vec<NodeId> = row.iter().flatten().copied().collect();
                let got: Vec<NodeId> = tree.children_of(id as NodeId).collect();
                assert_eq!(got, want, "case {case} node {id}");
            }
            // The descent as it was: the child in the point's octant of the
            // node's cell, unless that child's cell misses the point.
            let old_locate = |p: Vec3| {
                let mut id = 0;
                if !tree.cell(0).contains(p) {
                    return None;
                }
                loop {
                    match table[id as usize][tree.cell(id).octant_of(p)] {
                        Some(c) if tree.cell(c).contains(p) => id = c,
                        _ => return Some((id, tree.cell(id))),
                    }
                }
            };
            let (lo, side) = (tree.root_cell.min, tree.root_cell.side());
            let probes =
                ps.iter().map(|p| p.pos).chain((0..500).map(|_| {
                    lo + (Vec3::new(unit(), unit(), unit()) * 1.2 - Vec3::splat(0.1)) * side
                }));
            for p in probes {
                assert_eq!(tree.locate(p), old_locate(p), "case {case} at {p:?}");
            }
        }
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
            let (mut ps, mut back) = (set.particles.clone(), set.particles.clone());
            let inverse = bad.clone();
            let errs = [
                std::panic::catch_unwind(move || bad.permute_to_order(&mut ps)).unwrap_err(),
                std::panic::catch_unwind(move || {
                    inverse.permute_from_order(|a, b| back.swap(a, b))
                })
                .unwrap_err(),
            ];
            for err in errs {
                let msg = err.downcast_ref::<String>().expect("a formatted message");
                assert!(msg.contains("not a permutation"), "order[{at}] = {to}: {msg}");
            }
        }
    }

    /// A tree over no nodes whose `order` is `order`: all the permutations
    /// read.
    fn with_order(order: Vec<u32>) -> Tree {
        Tree { nodes: Vec::new(), order, root_cell: Aabb::origin_cube(1.0) }
    }

    /// `permute_from_order` by `order` is the naive scatter `out[order[k]] =
    /// in[k]` on every array its `swap` moves, and it and `permute_to_order`
    /// undo each other in either order.
    fn check_inverse_permutation(order: &[u32]) {
        let n = order.len();
        let values: Vec<u64> = (0..n as u64).map(|k| k * 7919 + 3).collect();
        let (mut want, mut want_ranks) = (vec![0; n], vec![0; n]);
        for (k, &o) in order.iter().enumerate() {
            (want[o as usize], want_ranks[o as usize]) = (values[k], k);
        }
        let tree = with_order(order.to_vec());
        let (mut got, mut ranks) = (values.clone(), (0..n).collect::<Vec<_>>());
        tree.permute_from_order(|a, b| {
            got.swap(a, b);
            ranks.swap(a, b);
        });
        assert_eq!(got, want, "{order:?}");
        assert_eq!(ranks, want_ranks, "{order:?}");
        assert_eq!(tree.order, order, "the tree is only borrowed");

        let mut there_and_back = values.clone();
        with_order(order.to_vec()).permute_to_order(&mut there_and_back);
        tree.permute_from_order(|a, b| there_and_back.swap(a, b));
        assert_eq!(there_and_back, values, "{order:?}");
        got = values.clone();
        tree.permute_from_order(|a, b| got.swap(a, b));
        with_order(order.to_vec()).permute_to_order(&mut got);
        assert_eq!(got, values, "{order:?}");
    }

    #[test]
    fn the_inverse_permutation_of_fixed_orders() {
        for n in [0u32, 1, 2, 5, 64, 65, 200] {
            check_inverse_permutation(&(0..n).collect::<Vec<_>>());
            // One n-cycle, each way round.
            check_inverse_permutation(&(0..n).map(|k| (k + 1) % n).collect::<Vec<_>>());
            check_inverse_permutation(&(0..n).map(|k| (k + n - 1) % n).collect::<Vec<_>>());
        }
        // A built tree's own order.
        let (_, tree) = cluster_and_one();
        check_inverse_permutation(&tree.order);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn the_inverse_permutation_of_random_orders(n in 0usize..300, seed in 0u64..u64::MAX) {
            use rand::{rngs::SmallRng, Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut order: Vec<u32> = (0..n as u32).collect();
            for k in (1..n).rev() {
                order.swap(k, rng.gen_range(0..=k));
            }
            check_inverse_permutation(&order);
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

    /// The invariant check notices a `next` off by one, a subtree the arena
    /// does not hold in preorder, an occupancy mask that is not the
    /// children's, and a side that is not the derived cell's.
    #[test]
    fn check_invariants_rejects_a_wrong_next_and_a_non_preorder_arena() {
        let (set, tree) = cluster_and_one();
        for id in 0..tree.len() {
            let mut bad = tree.clone();
            bad.nodes[id].next += 1;
            assert!(bad.check_invariants(set.len()).is_err(), "next of node {id}");
        }
        // Move the root's first subtree behind the rest of the arena and
        // renumber the `next` links: the same subtrees, the root's children
        // out of octant order.
        let (first, len) = (tree.children_of(0).next().unwrap(), tree.len() as NodeId);
        let end = tree.node(first).next;
        let moved = |id: NodeId| match id {
            id if id <= first => id,
            id if id <= end => id + (len - end),
            id => id - (end - first),
        };
        let mut shuffled = tree.clone();
        shuffled.nodes = (0..first)
            .chain(end..len)
            .chain(first..end)
            .map(|old| {
                let mut node = tree.node(old).clone();
                node.next = if old == 0 { len } else { moved(node.next) };
                node
            })
            .collect();
        let err = shuffled.check_invariants(set.len()).unwrap_err();
        assert!(err.contains("preorder"), "{err}");

        let mut bad = tree.clone();
        bad.nodes[0].child_mask ^= 0b0100_0000;
        let err = bad.check_invariants(set.len()).unwrap_err();
        assert!(err.contains("child_mask"), "{err}");
        let mut bad = tree.clone();
        bad.nodes[first as usize].side *= 2.0;
        let err = bad.check_invariants(set.len()).unwrap_err();
        assert!(err.contains("side"), "{err}");
    }
}
