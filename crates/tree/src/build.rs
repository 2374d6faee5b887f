//! Oct-tree construction.
//!
//! Two equivalent builders:
//!
//! * [`build`] / [`build_in_cell`] — bulk construction: particles are sorted
//!   once by their Morton code on a 2²¹-deep virtual grid, then the tree is
//!   carved out of the sorted sequence recursively. *Box collapsing* (§2) is
//!   the longest-common-prefix jump over runs of single-occupancy levels,
//!   which keeps the node count `O(n)` even for adversarially close particle
//!   pairs.
//! * [`build_incremental`] — the particle-injection formulation of §3.1:
//!   "Every time the domain contains more than `s` particles, it is split
//!   into eight octs… We now try to re-inject the particle into the domain."
//!   Used to mirror the paper's distributed construction; produces the same
//!   `Tree` type.
//!
//! Both builders accept an explicit root cell so the distributed formulations
//! can build *subdomain* trees that align with the global decomposition.
//!
//! # The bulk builder's bits
//!
//! A tree is a function of the particles, the cell and the [`BuildParams`]
//! alone, and every way of building it must give the same bits: the sort
//! order decides `order` and the summation order of every moment.
//!
//! * **Sort.** `sorted_codes` must give the `(code, index)` order a
//!   comparison sort of the pairs gives — ties between coincident codes
//!   broken by index. A stable LSD radix sort, four passes of 8-bit digits,
//!   orders `u64` items that pack the top 32 code bits above the particle
//!   index; the items start out in index order, so they come out in
//!   `(top bits, index)` order. What is left are the runs of equal top bits
//!   (one level-10 cell each, a handful of particles), which insertion sorts
//!   by whole code without ever moving a code past an equal one. A pass whose
//!   digit is the same for every item is skipped.
//! * **Splits.** Inside a node's range the codes share every octant field
//!   above the node's level, so the field at that level never decreases along
//!   the range, and each child's run ends where a binary search
//!   (`partition_point`) finds the next field.
//! * **Moments.** One rule, `node::monopole`, bottom up: a leaf folds its
//!   range of `order` left to right from zero, and an internal node folds
//!   its children's moments in octant order once they return, so each
//!   particle is read once. The mass is the degree-0 M2M of an upward pass,
//!   bit for bit. [`build_incremental`] and [`Tree::validate`] call the
//!   same function.

use crate::node::{monopole, Node, NodeId, Tree};
use bhut_geom::{Aabb, Particle, Vec3};
use bhut_morton::{encode_3d, NodeKey};

/// Tree-construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct BuildParams {
    /// The paper's `s`: maximum number of particles per leaf before a cell
    /// is split.
    pub leaf_capacity: usize,
    /// Enable box collapsing (skip chains of single-child cells).
    pub collapse: bool,
    /// Force splitting down to this tree level even for under-full cells —
    /// §3.1: "we artificially force the particles down to the level at which
    /// the tree node corresponding to the subtree actually exists". The
    /// distributed formulations set this to the subdomain (branch) level so
    /// every non-empty subdomain owns an explicit tree node. Collapsing is
    /// suppressed above this level.
    pub min_split_level: u32,
}

impl Default for BuildParams {
    fn default() -> Self {
        BuildParams { leaf_capacity: 8, collapse: true, min_split_level: 0 }
    }
}

impl BuildParams {
    /// Leaf capacity `s`, collapsing on.
    pub fn with_leaf_capacity(s: usize) -> Self {
        BuildParams { leaf_capacity: s.max(1), ..Default::default() }
    }
}

/// Grid depth of the Morton quantization: 21 levels of octants.
pub(crate) const MAX_LEVEL: u32 = 21;

/// Quantize a position inside `cell` to its 63-bit Morton code.
#[inline]
pub fn morton_code(cell: &Aabb, p: Vec3) -> u64 {
    Grid::new(cell).code(p)
}

/// The Morton grid of a cell: its low corner and the grid steps per unit
/// length, worked out once for a whole particle set.
struct Grid {
    lo: Vec3,
    scale: f64,
}

impl Grid {
    #[inline]
    fn new(cell: &Aabb) -> Self {
        let side = cell.side().max(f64::MIN_POSITIVE);
        Grid { lo: cell.min, scale: (1u64 << MAX_LEVEL) as f64 / side }
    }

    #[inline]
    fn code(&self, p: Vec3) -> u64 {
        let q = |x: f64, lo: f64| -> u32 {
            let v = ((x - lo) * self.scale) as i64;
            v.clamp(0, (1 << MAX_LEVEL) - 1) as u32
        };
        encode_3d(q(p.x, self.lo.x), q(p.y, self.lo.y), q(p.z, self.lo.z))
    }
}

/// Octant field of `code` at tree level `level` (0 = root split).
#[inline]
fn octant_at(code: u64, level: u32) -> usize {
    debug_assert!(level < MAX_LEVEL);
    ((code >> (3 * (MAX_LEVEL - 1 - level))) & 0b111) as usize
}

/// Build a tree over `particles` in the smallest enclosing cube.
pub fn build(particles: &[Particle], params: BuildParams) -> Tree {
    let cell = Aabb::bounding_cube(particles.iter().map(|p| p.pos), 0.0)
        .unwrap_or_else(|| Aabb::origin_cube(1.0));
    build_in_cell(particles, cell, params)
}

/// Build a tree over `particles` with an explicit root cell. Positions
/// outside the cell are clamped onto its surface grid (the distributed
/// formulations guarantee containment; clamping just keeps the builder
/// total). Debug builds check the tree with [`Tree::validate`], which a
/// body more than an ulp outside the cell fails.
pub fn build_in_cell(particles: &[Particle], cell: Aabb, params: BuildParams) -> Tree {
    let n = particles.len();
    if n == 0 {
        return Tree { nodes: Vec::new(), order: Vec::new(), root_cell: cell };
    }
    let (codes, order) = sorted_codes(particles, &cell);
    let mut b = Builder {
        particles,
        codes: &codes,
        order: &order,
        params,
        nodes: Vec::with_capacity(node_estimate(n, params.leaf_capacity)),
    };
    b.rec(cell, NodeKey::ROOT, 0, 0, n as u32);
    let tree = Tree { nodes: b.nodes, order, root_cell: cell };
    debug_assert_eq!(tree.validate(particles, params.leaf_capacity), Ok(()));
    tree
}

/// Where the radix sort splits a code: it sorts by `code >> LOW_BITS`, the
/// top 32 of the 63 bits (levels 0 to 10), and insertion the rest.
const LOW_BITS: u32 = 3 * MAX_LEVEL - 32;
/// Radix digit width of [`sorted_codes`]: four passes of 8 bits cover the
/// 32 sorted bits.
const DIGIT_BITS: u32 = 8;
const DIGITS: usize = (32 / DIGIT_BITS) as usize;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// The Morton codes of `particles` in `cell`, sorted, and the particle
/// index of each, in exactly the `(code, index)` order a comparison sort of
/// the pairs gives.
///
/// Each item packs the top 32 code bits above the 32-bit particle index, so
/// the radix passes move one `u64` per particle. The items start out in
/// index order and every pass is stable, so they come out in `(top bits,
/// index)` order, and only the runs of equal top bits — the particles of
/// one level-10 cell, a handful — are left to sort by whole code. One read
/// of the particles makes the codes, the items and every digit's histogram;
/// a pass whose digit is the same for every item moves nothing, so it is
/// skipped. The codes, the items, a spare and `order` hold at most 28 bytes
/// per particle at once, what the comparison sort's pairs, codes and order
/// held.
fn sorted_codes(particles: &[Particle], cell: &Aabb) -> (Vec<u64>, Vec<u32>) {
    let n = particles.len();
    let digit = |item: u64, d: usize| (item >> (32 + DIGIT_BITS as usize * d)) as usize % BUCKETS;
    let mut counts = [[0u32; BUCKETS]; DIGITS];
    let grid = Grid::new(cell);
    let mut codes: Vec<u64> = Vec::with_capacity(n);
    let mut items: Vec<u64> = Vec::with_capacity(n);
    for (i, p) in particles.iter().enumerate() {
        let code = grid.code(p.pos);
        let item = (code >> LOW_BITS) << 32 | i as u64;
        for (d, count) in counts.iter_mut().enumerate() {
            count[digit(item, d)] += 1;
        }
        codes.push(code);
        items.push(item);
    }
    let mut spare = vec![0u64; n];
    for (d, count) in counts.iter().enumerate() {
        if count[digit(items[0], d)] as usize == n {
            continue;
        }
        let mut at = [0u32; BUCKETS];
        let mut sum = 0;
        for (a, &c) in at.iter_mut().zip(count) {
            *a = sum;
            sum += c;
        }
        for &item in &items {
            let slot = &mut at[digit(item, d)];
            spare[*slot as usize] = item;
            *slot += 1;
        }
        std::mem::swap(&mut items, &mut spare);
    }
    // Gather the codes into item order, then finish each run of equal top
    // bits, which is in index order: insertion sorts it by whole code,
    // moving a code only past greater ones, so ties stay in index order. A
    // run longer than `SHORT_RUN` (a dense clump inside one level-10 cell)
    // would make that quadratic; it is sorted as `(code, index)` pairs once
    // it ends.
    let mut order: Vec<u32> = items.iter().map(|&item| item as u32).collect();
    drop(items);
    let mut sorted = spare;
    for (code, &i) in sorted.iter_mut().zip(&order) {
        *code = codes[i as usize];
    }
    drop(codes);
    let mut run = 0;
    for k in 1..n {
        let code = sorted[k];
        if (code ^ sorted[k - 1]) >> LOW_BITS != 0 {
            sort_long_run(&mut sorted[run..k], &mut order[run..k]);
            run = k;
        } else if k - run < SHORT_RUN && sorted[k - 1] > code {
            let i = order[k];
            let mut at = k;
            while at > run && sorted[at - 1] > code {
                sorted[at] = sorted[at - 1];
                order[at] = order[at - 1];
                at -= 1;
            }
            sorted[at] = code;
            order[at] = i;
        }
    }
    sort_long_run(&mut sorted[run..], &mut order[run..]);
    (sorted, order)
}

/// Runs of equal top bits up to this long are sorted by insertion.
const SHORT_RUN: usize = 32;

/// Sort a run of `codes` longer than [`SHORT_RUN`], with its particle
/// indices `order`, into `(code, index)` order as pairs; leave a shorter
/// one, which insertion has sorted.
fn sort_long_run(codes: &mut [u64], order: &mut [u32]) {
    if codes.len() <= SHORT_RUN {
        return;
    }
    let mut pairs: Vec<(u64, u32)> = codes.iter().copied().zip(order.iter().copied()).collect();
    pairs.sort_unstable();
    for ((c, o), (code, i)) in codes.iter_mut().zip(order.iter_mut()).zip(pairs) {
        (*c, *o) = (code, i);
    }
}

/// Arena slots to reserve for `n` particles at leaf capacity `s`: at
/// `s` = 8 a Plummer sphere takes 3.4 n/s nodes and Gaussian blobs 3.3, so
/// their arenas fill without a copy, while a uniform cube (4.4 n/s) grows
/// once. Reserving for the uniform cube too raised the benchmark's peak RSS
/// by 0.5–2.5 MiB: the unused tail shifts what the heap hands out next.
fn node_estimate(n: usize, s: usize) -> usize {
    (4 * n / s.max(1)).min(2 * n) + 64
}

struct Builder<'a> {
    particles: &'a [Particle],
    codes: &'a [u64],
    order: &'a [u32],
    params: BuildParams,
    nodes: Vec<Node>,
}

impl Builder<'_> {
    /// Build the subtree over `order[start..end]` at the end of the arena.
    fn rec(&mut self, mut cell: Aabb, mut key: NodeKey, mut level: u32, start: u32, end: u32) {
        debug_assert!(start < end);
        let count = end - start;

        // Box collapsing: jump to the deepest aligned cell that still holds
        // the whole range. Because the range is Morton-sorted, the longest
        // common prefix of the first and last codes is the common prefix of
        // all of them.
        if self.params.collapse && count > self.params.leaf_capacity as u32 {
            let mut lcp_levels = ((self.codes[start as usize] ^ self.codes[end as usize - 1])
                .leading_zeros()
                .saturating_sub(1))
                / 3;
            // Never collapse past the forced-split level: the distributed
            // formulations need explicit nodes at the subdomain level. (A
            // node entering recursion *at* that level must materialize
            // there, so the clamp includes equality.)
            if self.params.min_split_level > 0 && level <= self.params.min_split_level {
                lcp_levels = lcp_levels.min(self.params.min_split_level);
            }
            while level < lcp_levels && level < MAX_LEVEL - 1 {
                let oct = octant_at(self.codes[start as usize], level);
                cell = cell.octant(oct);
                key = key.child(oct as u8);
                level += 1;
            }
        }

        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node {
            com: Vec3::ZERO,
            mass: 0.0,
            side: cell.side(),
            key,
            start,
            end,
            next: id + 1,
            child_mask: 0,
        });

        let deep_enough = level >= self.params.min_split_level;
        if (count as usize > self.params.leaf_capacity || !deep_enough) && level < MAX_LEVEL - 1 {
            // Split the (sorted) range by the octant field at this level and
            // recurse. The codes share every field above it, so the field
            // never decreases along the range and each octant's run ends
            // where a binary search says. Children are built in octant order
            // so particle ranges tile the parent's range along the Z-curve,
            // and each child's subtree follows the one before it in the
            // arena: the preorder links are the only child table.
            let mut mask = 0u8;
            let mut lo = start;
            while lo < end {
                let oct = octant_at(self.codes[lo as usize], level);
                let run = self.codes[lo as usize..end as usize]
                    .partition_point(|&c| octant_at(c, level) == oct);
                let hi = lo + run as u32;
                self.rec(cell.octant(oct), key.child(oct as u8), level + 1, lo, hi);
                mask |= 1 << oct;
                lo = hi;
            }
            let next = self.nodes.len() as NodeId;
            let node = &mut self.nodes[id as usize];
            node.child_mask = mask;
            node.next = next;
        }
        // A leaf's moments from its range, an internal node's from the
        // children just built.
        let (mass, com) = monopole(&self.nodes, id, self.order, self.particles);
        let node = &mut self.nodes[id as usize];
        (node.mass, node.com) = (mass, com);
    }
}

/// Incremental (particle-injection) construction, §3.1. Functionally
/// equivalent to [`build_in_cell`] with `collapse: false`; kept as a faithful
/// rendering of the paper's distributed-construction primitive and as a
/// differential-testing oracle for the bulk builder. Debug builds check the
/// tree with [`Tree::validate`].
pub fn build_incremental(particles: &[Particle], cell: Aabb, params: BuildParams) -> Tree {
    if particles.is_empty() {
        return Tree { nodes: Vec::new(), order: Vec::new(), root_cell: cell };
    }
    // Mutable insertion tree with per-leaf buckets.
    enum INode {
        Leaf { bucket: Vec<u32> },
        Internal { children: [i32; 8] },
    }
    let mut inodes: Vec<(Aabb, INode)> = vec![(cell, INode::Leaf { bucket: Vec::new() })];

    let s = params.leaf_capacity.max(1);
    for (pi, p) in particles.iter().enumerate() {
        // Descend to the leaf containing p, splitting full leaves on the way
        // (split, then re-inject, exactly as §3.1 describes).
        let mut cur = 0usize;
        let mut depth = 0u32;
        loop {
            match &mut inodes[cur].1 {
                INode::Leaf { bucket } => {
                    if bucket.len() < s || depth >= MAX_LEVEL - 1 {
                        bucket.push(pi as u32);
                        break;
                    }
                    // Split: push existing particles one level down.
                    let old = std::mem::take(bucket);
                    let cell_here = inodes[cur].0;
                    let mut children = [-1i32; 8];
                    for &q in &old {
                        let oct = cell_here.octant_of(particles[q as usize].pos);
                        if children[oct] < 0 {
                            children[oct] = inodes.len() as i32;
                            inodes
                                .push((cell_here.octant(oct), INode::Leaf { bucket: Vec::new() }));
                        }
                        if let INode::Leaf { bucket } = &mut inodes[children[oct] as usize].1 {
                            bucket.push(q);
                        }
                    }
                    inodes[cur].1 = INode::Internal { children };
                    // fall through: re-inject p from this node
                }
                INode::Internal { .. } => {}
            }
            let cell_here = inodes[cur].0;
            let oct = cell_here.octant_of(p.pos.min(cell.max).max(cell.min));
            let fresh = inodes.len() as i32;
            let next = match &mut inodes[cur].1 {
                INode::Internal { children } => {
                    if children[oct] < 0 {
                        children[oct] = fresh;
                    }
                    children[oct] as usize
                }
                INode::Leaf { .. } => unreachable!("just split"),
            };
            if next == fresh as usize {
                inodes.push((cell_here.octant(oct), INode::Leaf { bucket: Vec::new() }));
            }
            cur = next;
            depth += 1;
        }
    }

    // Flatten into the arena representation by DFS in octant order.
    let mut nodes: Vec<Node> = Vec::new();
    let mut order: Vec<u32> = Vec::with_capacity(particles.len());
    flatten(&inodes, particles, 0, NodeKey::ROOT, &mut nodes, &mut order);

    fn flatten(
        inodes: &[(Aabb, impl FlattenNode)],
        particles: &[Particle],
        cur: usize,
        key: NodeKey,
        nodes: &mut Vec<Node>,
        order: &mut Vec<u32>,
    ) {
        let id = nodes.len() as NodeId;
        let start = order.len() as u32;
        nodes.push(Node {
            com: Vec3::ZERO,
            mass: 0.0,
            side: inodes[cur].0.side(),
            key,
            start,
            end: start,
            next: id + 1,
            child_mask: 0,
        });
        let mut mask = 0u8;
        match inodes[cur].1.view() {
            FlatView::Leaf(bucket) => order.extend_from_slice(bucket),
            FlatView::Internal(ch) => {
                for (oct, &c) in ch.iter().enumerate() {
                    if c >= 0 {
                        flatten(inodes, particles, c as usize, key.child(oct as u8), nodes, order);
                        mask |= 1 << oct;
                    }
                }
            }
        }
        let next = nodes.len() as NodeId;
        let node = &mut nodes[id as usize];
        node.child_mask = mask;
        node.next = next;
        node.end = order.len() as u32;
        let (mass, com) = monopole(nodes, id, order, particles);
        let node = &mut nodes[id as usize];
        (node.mass, node.com) = (mass, com);
    }

    enum FlatView<'a> {
        Leaf(&'a [u32]),
        Internal(&'a [i32; 8]),
    }
    trait FlattenNode {
        fn view(&self) -> FlatView<'_>;
    }
    impl FlattenNode for INode {
        fn view(&self) -> FlatView<'_> {
            match self {
                INode::Leaf { bucket } => FlatView::Leaf(bucket),
                INode::Internal { children } => FlatView::Internal(children),
            }
        }
    }

    let tree = Tree { nodes, order, root_cell: cell };
    debug_assert_eq!(tree.validate(particles, s), Ok(()));
    tree
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bhut_geom::{plummer, uniform_cube, ParticleSet, PlummerSpec};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The builder as it was before the radix sort, the binary-search splits
    /// and the arena reservation: a comparison sort of `(code, index)` pairs
    /// and a linear scan for each octant's run. Every tree [`build_in_cell`]
    /// makes must equal its tree bit for bit. It records each node's cell as
    /// it halves down to it, beside the arena, so the comparison holds
    /// [`Tree::cell`]'s derived cells to the cells a builder had. Its moments
    /// come from the builder's own [`monopole`], so they match by
    /// construction; what the comparison pins is `order`, the cells, sides,
    /// keys and links, and [`Tree::validate`] pins the moments.
    mod oracle {
        use crate::build::{octant_at, BuildParams, MAX_LEVEL};
        use crate::node::{monopole, Node, NodeId, Tree};
        use bhut_geom::{Aabb, Particle, Vec3};
        use bhut_morton::encode_3d;
        use bhut_morton::NodeKey;

        fn morton_code(cell: &Aabb, p: Vec3) -> u64 {
            let side = cell.side().max(f64::MIN_POSITIVE);
            let scale = (1u64 << MAX_LEVEL) as f64 / side;
            let q = |x: f64, lo: f64| -> u32 {
                let v = ((x - lo) * scale) as i64;
                v.clamp(0, (1 << MAX_LEVEL) - 1) as u32
            };
            encode_3d(q(p.x, cell.min.x), q(p.y, cell.min.y), q(p.z, cell.min.z))
        }

        /// The tree, and the cell of each of its nodes.
        pub(super) fn build_in_cell(
            particles: &[Particle],
            cell: Aabb,
            params: BuildParams,
        ) -> (Tree, Vec<Aabb>) {
            let n = particles.len();
            if n == 0 {
                return (
                    Tree { nodes: Vec::new(), order: Vec::new(), root_cell: cell },
                    Vec::new(),
                );
            }
            let mut keyed: Vec<(u64, u32)> = particles
                .iter()
                .enumerate()
                .map(|(i, p)| (morton_code(&cell, p.pos), i as u32))
                .collect();
            keyed.sort_unstable();
            let codes: Vec<u64> = keyed.iter().map(|&(c, _)| c).collect();
            let order: Vec<u32> = keyed.iter().map(|&(_, i)| i).collect();

            let mut b = Builder {
                particles,
                codes: &codes,
                order: &order,
                params,
                nodes: Vec::new(),
                cells: Vec::new(),
            };
            b.nodes.reserve(2 * n / params.leaf_capacity.max(1) + 8);
            b.rec(cell, NodeKey::ROOT, 0, 0, n as u32);
            let (nodes, cells) = (b.nodes, b.cells);
            (Tree { nodes, order, root_cell: cell }, cells)
        }

        struct Builder<'a> {
            particles: &'a [Particle],
            codes: &'a [u64],
            order: &'a [u32],
            params: BuildParams,
            nodes: Vec<Node>,
            cells: Vec<Aabb>,
        }

        impl Builder<'_> {
            /// Build the subtree over `order[start..end]`; returns its arena id.
            fn rec(
                &mut self,
                mut cell: Aabb,
                mut key: NodeKey,
                mut level: u32,
                start: u32,
                end: u32,
            ) -> NodeId {
                debug_assert!(start < end);
                let count = end - start;

                // Box collapsing: jump to the deepest aligned cell that still holds
                // the whole range. Because the range is Morton-sorted, the longest
                // common prefix of the first and last codes is the common prefix of
                // all of them.
                if self.params.collapse && count > self.params.leaf_capacity as u32 {
                    let mut lcp_levels = ((self.codes[start as usize]
                        ^ self.codes[end as usize - 1])
                        .leading_zeros()
                        .saturating_sub(1))
                        / 3;
                    // Never collapse past the forced-split level: the distributed
                    // formulations need explicit nodes at the subdomain level. (A
                    // node entering recursion *at* that level must materialize
                    // there, so the clamp includes equality.)
                    if self.params.min_split_level > 0 && level <= self.params.min_split_level {
                        lcp_levels = lcp_levels.min(self.params.min_split_level);
                    }
                    while level < lcp_levels && level < MAX_LEVEL - 1 {
                        let oct = octant_at(self.codes[start as usize], level);
                        cell = cell.octant(oct);
                        key = key.child(oct as u8);
                        level += 1;
                    }
                }

                let id = self.nodes.len() as NodeId;
                self.nodes.push(Node {
                    com: Vec3::ZERO,
                    mass: 0.0,
                    side: cell.side(),
                    key,
                    start,
                    end,
                    next: id + 1,
                    child_mask: 0,
                });
                self.cells.push(cell);

                let deep_enough = level >= self.params.min_split_level;
                if (count as usize <= self.params.leaf_capacity && deep_enough)
                    || level >= MAX_LEVEL - 1
                {
                    return self.fold_moments(id);
                }

                // Partition the (sorted) range by the octant field at this level and
                // recurse. Children are built in octant order so particle ranges
                // tile the parent's range along the Z-curve.
                let mut lo = start;
                while lo < end {
                    let oct = octant_at(self.codes[lo as usize], level);
                    let mut hi = lo + 1;
                    while hi < end && octant_at(self.codes[hi as usize], level) == oct {
                        hi += 1;
                    }
                    let child_cell = cell.octant(oct);
                    self.rec(child_cell, key.child(oct as u8), level + 1, lo, hi);
                    self.nodes[id as usize].child_mask |= 1 << oct;
                    lo = hi;
                }
                let next = self.nodes.len() as NodeId;
                self.nodes[id as usize].next = next;
                self.fold_moments(id)
            }

            /// The one moment rule, once the node's range and children are
            /// set: the builder's by construction.
            fn fold_moments(&mut self, id: NodeId) -> NodeId {
                let (mass, com) = monopole(&self.nodes, id, self.order, self.particles);
                let node = &mut self.nodes[id as usize];
                (node.mass, node.com) = (mass, com);
                id
            }
        }
    }

    /// `n` particles of one shape, positions in the cube of side `extent` at
    /// the origin: 0 uniform, 1 duplicated positions, 2 collinear, 3 two
    /// tight clusters, 4 like 0 but massless (the centroid fallback), 5 like
    /// 0 with every mass negative, 6 like 0 with masses of either sign (sums
    /// that are not positive, or nearly cancel), 7 every particle at one
    /// point. Masses vary so every sum has rounding to get right.
    pub(crate) fn shaped(shape: usize, n: usize, seed: u64, extent: f64) -> Vec<Particle> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut unit = || Vec3::new(rng.gen(), rng.gen(), rng.gen());
        let pool: Vec<Vec3> = (0..(n / 4).max(1)).map(|_| unit()).collect();
        let centers = [Vec3::new(0.2, 0.7, 0.4), Vec3::new(0.9, 0.1, 0.3)];
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        (0..n)
            .map(|i| {
                let pos = match shape {
                    1 => pool[rng.gen_range(0..pool.len())],
                    2 => {
                        let t: f64 = rng.gen();
                        Vec3::new(t, 0.5 * t, 0.25)
                    }
                    3 => {
                        let jitter = Vec3::new(rng.gen(), rng.gen(), rng.gen()) * 1e-9;
                        centers[i % 2] + jitter
                    }
                    7 => pool[0],
                    _ => Vec3::new(rng.gen(), rng.gen(), rng.gen()),
                };
                let mass = match shape {
                    4 => 0.0,
                    5 => -rng.gen_range(0.5..2.0),
                    6 if rng.gen() => -rng.gen_range(0.5..2.0),
                    _ => rng.gen_range(0.5..2.0),
                };
                Particle::new(i as u32, mass, pos * extent, Vec3::ZERO)
            })
            .collect()
    }

    /// Every field of every node, and `order`, equal bit for bit, and every
    /// node's derived cell ([`Tree::cell`]) the cell the oracle halved down
    /// to.
    fn assert_same_tree(got: &Tree, (want, cells): &(Tree, Vec<Aabb>)) {
        let bits = |v: Vec3| [v.x, v.y, v.z].map(f64::to_bits);
        assert_eq!(got.len(), want.len(), "node count");
        assert_eq!(got.order, want.order, "order");
        assert_eq!(bits(got.root_cell.min), bits(want.root_cell.min));
        assert_eq!(bits(got.root_cell.max), bits(want.root_cell.max));
        for (id, (g, w)) in got.nodes.iter().zip(&want.nodes).enumerate() {
            let cell = got.cell(id as NodeId);
            assert_eq!(bits(cell.min), bits(cells[id].min), "node {id} cell");
            assert_eq!(bits(cell.max), bits(cells[id].max), "node {id} cell");
            assert_eq!(g.side.to_bits(), w.side.to_bits(), "node {id} side");
            assert_eq!(g.key, w.key, "node {id} key");
            assert_eq!(g.mass.to_bits(), w.mass.to_bits(), "node {id} mass");
            assert_eq!(bits(g.com), bits(w.com), "node {id} com");
            assert_eq!(g.child_mask, w.child_mask, "node {id} child mask");
            assert_eq!((g.start, g.end, g.next), (w.start, w.end, w.next), "node {id} links");
        }
    }

    /// Each non-empty node of a [`build_incremental`] tree has the cell that
    /// the injection of its first particle passed through at the node's
    /// level: replayed from the root cell by `octant_of`, the builder's own
    /// descent, without reading the key, whose digits it must match.
    fn assert_injection_cells(tree: &Tree, ps: &[Particle]) {
        let bits =
            |c: Aabb| [c.min.x, c.min.y, c.min.z, c.max.x, c.max.y, c.max.z].map(f64::to_bits);
        let root = tree.root_cell;
        for (id, n) in tree.nodes.iter().enumerate().filter(|(_, n)| n.count() > 0) {
            let at = ps[tree.order[n.start as usize] as usize].pos.min(root.max).max(root.min);
            let mut cell = root;
            for level in 0..n.key.level() {
                let o = cell.octant_of(at);
                assert_eq!(o as u8, n.key.octant_at(level), "node {id}: digit {level}");
                cell = cell.octant(o);
            }
            assert_eq!(bits(tree.cell(id as NodeId)), bits(cell), "node {id} cell");
            assert_eq!(n.side.to_bits(), cell.side().to_bits(), "node {id} side");
        }
    }

    fn check(tree: &Tree, set: &ParticleSet) {
        tree.check_invariants(set.len()).unwrap();
        if set.is_empty() {
            return;
        }
        let root = tree.root();
        assert_eq!(root.count() as usize, set.len());
        assert!((root.mass - set.total_mass()).abs() < 1e-9 * set.total_mass().max(1.0));
        // A massless set has no center of mass; `validate` holds its centroid.
        if let Some(com) = set.center_of_mass() {
            assert!(root.com.dist(com) < 1e-9 * (1.0 + com.norm()));
        }
    }

    #[test]
    fn empty_and_singleton() {
        let empty = ParticleSet::default();
        let t = build(&empty.particles, BuildParams::default());
        assert!(t.is_empty());
        check(&t, &empty);

        let one = ParticleSet::from_positions([Vec3::splat(0.5)]);
        let t = build(&one.particles, BuildParams::default());
        assert_eq!(t.len(), 1);
        assert!(t.root().is_leaf());
        check(&t, &one);
    }

    #[test]
    fn uniform_build_properties() {
        let set = uniform_cube(2000, 1.0, 3);
        let t = build(&set.particles, BuildParams::with_leaf_capacity(8));
        check(&t, &set);
        // Every leaf within capacity.
        for n in &t.nodes {
            if n.is_leaf() {
                assert!(n.count() <= 8);
            }
        }
        // Node count is O(n) for uniform data.
        assert!(t.len() < 2 * 2000);
    }

    #[test]
    fn leaf_capacity_one() {
        let set = uniform_cube(256, 1.0, 9);
        let t = build(&set.particles, BuildParams::with_leaf_capacity(1));
        check(&t, &set);
        for n in &t.nodes {
            if n.is_leaf() {
                assert!(n.count() <= 1);
            }
        }
    }

    #[test]
    fn adversarial_close_pair_is_bounded_by_collapsing() {
        // Two particles 1e-12 apart in a unit box: without collapsing this
        // needs ~40 levels; with collapsing the chain is skipped.
        let set = ParticleSet::from_positions([
            Vec3::new(0.1, 0.1, 0.1),
            Vec3::new(0.1 + 1e-12, 0.1, 0.1),
            Vec3::new(0.9, 0.9, 0.9),
        ]);
        let t = build(&set.particles, BuildParams::with_leaf_capacity(1));
        check(&t, &set);
        assert!(t.len() <= 16, "collapsing failed: {} nodes", t.len());
    }

    #[test]
    fn coincident_particles_terminate() {
        let set = ParticleSet::from_positions(std::iter::repeat_n(Vec3::splat(0.25), 10));
        let t = build(&set.particles, BuildParams::with_leaf_capacity(2));
        check(&t, &set);
        // they can never be separated; the deepest cell holds all 10
        assert!(t.nodes.iter().any(|n| n.is_leaf() && n.count() == 10));
    }

    #[test]
    fn plummer_build() {
        let set = plummer(PlummerSpec { n: 3000, ..Default::default() });
        let t = build(&set.particles, BuildParams::default());
        check(&t, &set);
        assert!(t.depth() > 3); // strongly clustered center forces depth
    }

    #[test]
    fn incremental_matches_bulk_node_and_particle_sets() {
        // Massive and massless (collinear, so whole cells stay empty) sets;
        // a massless node's com is the centroid of its positions in both.
        let massless = |ps: Vec<Particle>| {
            ParticleSet::new(ps.into_iter().map(|p| Particle { mass: 0.0, ..p }).collect())
        };
        for set in [uniform_cube(500, 1.0, 17), massless(shaped(2, 40, 18, 1.0))] {
            incremental_matches_bulk(&set);
        }
    }

    fn incremental_matches_bulk(set: &ParticleSet) {
        let cell = set.bounding_cube().unwrap();
        let params = BuildParams { leaf_capacity: 4, collapse: false, min_split_level: 0 };
        let bulk = build_in_cell(&set.particles, cell, params);
        let inc = build_incremental(&set.particles, cell, params);
        check(&bulk, set);
        check(&inc, set);
        inc.validate(&set.particles, params.leaf_capacity).unwrap();
        // Same multiset of leaf keys and per-leaf particle sets.
        let leaf_map = |t: &Tree| {
            let mut v: Vec<(u64, Vec<u32>)> = t
                .nodes
                .iter()
                .filter(|n| n.is_leaf() && n.count() > 0)
                .map(|n| {
                    let mut ps = t.order[n.start as usize..n.end as usize].to_vec();
                    ps.sort_unstable();
                    (n.key.raw(), ps)
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(leaf_map(&bulk), leaf_map(&inc));
    }

    #[test]
    fn locate_finds_containing_leaf() {
        let set = uniform_cube(300, 1.0, 5);
        let t = build(&set.particles, BuildParams::default());
        for p in set.iter().take(50) {
            let (id, cell) = t.locate(p.pos).unwrap();
            assert!(cell.contains(p.pos));
            assert_eq!(cell, t.cell(id));
        }
        assert!(t.locate(Vec3::splat(50.0)).is_none());
    }

    #[test]
    fn walk_visits_every_node_once_in_preorder() {
        let set = uniform_cube(200, 1.0, 6);
        let t = build(&set.particles, BuildParams::default());
        let mut seen = vec![0; t.len()];
        let mut last_start = 0;
        t.walk(|id, _| {
            seen[id as usize] += 1;
            // octant-ordered DFS ⇒ node ranges appear with non-decreasing
            // start along the walk
            assert!(t.node(id).start >= last_start || t.node(id).start == 0);
            last_start = last_start.max(t.node(id).start);
        });
        assert!(seen.iter().all(|&c| c == 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn invariants_hold_for_random_sets(
            n in 0usize..400,
            s in 1usize..16,
            seed in 0u64..1000,
            collapse: bool,
        ) {
            let set = uniform_cube(n + 1, 1.0, seed);
            let t = build(&set.particles, BuildParams { leaf_capacity: s, collapse, min_split_level: 0 });
            prop_assert!(t.check_invariants(set.len()).is_ok());
        }

        #[test]
        fn morton_code_respects_cell(p in prop::array::uniform3(0.0f64..1.0)) {
            let cell = Aabb::origin_cube(1.0);
            let code = morton_code(&cell, Vec3::from_array(p));
            prop_assert!(code < (1u64 << 63));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The radix sort and the binary-search splits build exactly the
        /// tree the comparison sort and the linear scans built, over leaf
        /// capacities, collapsing, forced levels (down to chains of internal
        /// nodes over one particle), sizes from empty up, extents of 1 and
        /// 1e±150, and duplicated, collinear, clustered, massless, negative,
        /// mixed-sign and coincident points; every cell [`Tree::cell`]
        /// derives from a key is the cell the builder halved down to, for the
        /// bulk builder against the oracle's record and for
        /// [`build_incremental`] against the descent of its injections; and
        /// both builders' trees pass [`Tree::validate`], whose invariants
        /// hold every `com` finite and every `side` its derived cell's.
        #[test]
        fn build_is_the_comparison_sort_builder_bit_for_bit(
            s_at in 0usize..4,
            n_at in 0usize..5,
            shape in 0usize..8,
            extent_at in 0usize..3,
            forced in 0u32..3,
            collapse: bool,
            seed in 0u64..1000,
        ) {
            let s = [1, 2, 8, 16][s_at];
            let n = [0, 1, 2, 9, 1000][n_at];
            let extent = [1.0, 1e150, 1e-150][extent_at];
            let params = BuildParams { leaf_capacity: s, collapse, min_split_level: 2 * forced };
            let ps = shaped(shape, n, seed, extent);
            let tree = build(&ps, params);
            assert_same_tree(&tree, &oracle::build_in_cell(&ps, tree.root_cell, params));
            let shifted = Aabb::cube(Vec3::splat(0.375 * extent), 1.5 * extent);
            assert_same_tree(
                &build_in_cell(&ps, shifted, params),
                &oracle::build_in_cell(&ps, shifted, params),
            );
            let incremental = build_incremental(&ps, shifted, params);
            assert_injection_cells(&incremental, &ps);
            for t in [&tree, &incremental] {
                if let Err(e) = t.validate(&ps, s) {
                    prop_assert!(false, "{e}");
                }
            }
        }
    }
}
