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

use crate::node::{Node, NodeId, Tree, NIL};
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
const MAX_LEVEL: u32 = 21;

/// Quantize a position inside `cell` to its 63-bit Morton code.
#[inline]
pub fn morton_code(cell: &Aabb, p: Vec3) -> u64 {
    let side = cell.side().max(f64::MIN_POSITIVE);
    let scale = (1u64 << MAX_LEVEL) as f64 / side;
    let q = |x: f64, lo: f64| -> u32 {
        let v = ((x - lo) * scale) as i64;
        v.clamp(0, (1 << MAX_LEVEL) - 1) as u32
    };
    encode_3d(q(p.x, cell.min.x), q(p.y, cell.min.y), q(p.z, cell.min.z))
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
/// total).
pub fn build_in_cell(particles: &[Particle], cell: Aabb, params: BuildParams) -> Tree {
    let n = particles.len();
    if n == 0 {
        return Tree { nodes: Vec::new(), order: Vec::new(), root_cell: cell };
    }
    let mut keyed: Vec<(u64, u32)> =
        particles.iter().enumerate().map(|(i, p)| (morton_code(&cell, p.pos), i as u32)).collect();
    keyed.sort_unstable();
    let codes: Vec<u64> = keyed.iter().map(|&(c, _)| c).collect();
    let order: Vec<u32> = keyed.iter().map(|&(_, i)| i).collect();

    let mut b = Builder { particles, codes: &codes, order: &order, params, nodes: Vec::new() };
    b.nodes.reserve(2 * n / params.leaf_capacity.max(1) + 8);
    b.rec(cell, NodeKey::ROOT, 0, 0, n as u32);
    Tree { nodes: b.nodes, order, root_cell: cell }
}

struct Builder<'a> {
    particles: &'a [Particle],
    codes: &'a [u64],
    order: &'a [u32],
    params: BuildParams,
    nodes: Vec<Node>,
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
        let (mass, com) = self.mass_com(start, end);
        self.nodes.push(Node {
            cell,
            key,
            mass,
            com,
            children: [NIL; 8],
            child_mask: 0,
            start,
            end,
            next: id + 1,
        });

        let deep_enough = level >= self.params.min_split_level;
        if (count as usize <= self.params.leaf_capacity && deep_enough) || level >= MAX_LEVEL - 1 {
            return id;
        }

        // Partition the (sorted) range by the octant field at this level and
        // recurse. Children are built in octant order so particle ranges
        // tile the parent's range along the Z-curve.
        let mut children = [NIL; 8];
        let mut lo = start;
        while lo < end {
            let oct = octant_at(self.codes[lo as usize], level);
            let mut hi = lo + 1;
            while hi < end && octant_at(self.codes[hi as usize], level) == oct {
                hi += 1;
            }
            let child_cell = cell.octant(oct);
            children[oct] = self.rec(child_cell, key.child(oct as u8), level + 1, lo, hi);
            lo = hi;
        }
        let next = self.nodes.len() as NodeId;
        let node = &mut self.nodes[id as usize];
        node.set_children(children);
        node.next = next;
        id
    }

    fn mass_com(&self, start: u32, end: u32) -> (f64, Vec3) {
        let mut mass = 0.0;
        let mut weighted = Vec3::ZERO;
        for &i in &self.order[start as usize..end as usize] {
            let p = &self.particles[i as usize];
            mass += p.mass;
            weighted += p.pos * p.mass;
        }
        let com = if mass > 0.0 {
            weighted / mass
        } else {
            // massless subtree: fall back to geometric centroid
            let mut c = Vec3::ZERO;
            for &i in &self.order[start as usize..end as usize] {
                c += self.particles[i as usize].pos;
            }
            c / (end - start) as f64
        };
        (mass, com)
    }
}

/// Incremental (particle-injection) construction, §3.1. Functionally
/// equivalent to [`build_in_cell`] with `collapse: false`; kept as a faithful
/// rendering of the paper's distributed-construction primitive and as a
/// differential-testing oracle for the bulk builder.
pub fn build_incremental(particles: &[Particle], cell: Aabb, params: BuildParams) -> Tree {
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
    // Empty tree if no particles.
    if particles.is_empty() {
        return Tree { nodes: Vec::new(), order: Vec::new(), root_cell: cell };
    }

    fn flatten(
        inodes: &[(Aabb, impl FlattenNode)],
        particles: &[Particle],
        cur: usize,
        key: NodeKey,
        nodes: &mut Vec<Node>,
        order: &mut Vec<u32>,
    ) -> NodeId {
        let id = nodes.len() as NodeId;
        let start = order.len() as u32;
        nodes.push(Node {
            cell: inodes[cur].0,
            key,
            mass: 0.0,
            com: Vec3::ZERO,
            children: [NIL; 8],
            child_mask: 0,
            start,
            end: start,
            next: id + 1,
        });
        let mut children = [NIL; 8];
        match inodes[cur].1.view() {
            FlatView::Leaf(bucket) => order.extend_from_slice(bucket),
            FlatView::Internal(ch) => {
                for (oct, &c) in ch.iter().enumerate() {
                    if c >= 0 {
                        children[oct] = flatten(
                            inodes,
                            particles,
                            c as usize,
                            key.child(oct as u8),
                            nodes,
                            order,
                        );
                    }
                }
            }
        }
        let end = order.len() as u32;
        // Upward mass/COM.
        let mut mass = 0.0;
        let mut weighted = Vec3::ZERO;
        for &i in &order[start as usize..end as usize] {
            let p = &particles[i as usize];
            mass += p.mass;
            weighted += p.pos * p.mass;
        }
        let next = nodes.len() as NodeId;
        let node = &mut nodes[id as usize];
        node.set_children(children);
        node.next = next;
        node.end = end;
        node.mass = mass;
        node.com = if mass > 0.0 { weighted / mass } else { node.cell.center() };
        id
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

    Tree { nodes, order, root_cell: cell }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhut_geom::{plummer, uniform_cube, ParticleSet, PlummerSpec};
    use proptest::prelude::*;

    fn check(tree: &Tree, set: &ParticleSet) {
        tree.check_invariants(set.len()).unwrap();
        if set.is_empty() {
            return;
        }
        let root = tree.root();
        assert_eq!(root.count() as usize, set.len());
        assert!((root.mass - set.total_mass()).abs() < 1e-9 * set.total_mass().max(1.0));
        let com = set.center_of_mass().unwrap();
        assert!(root.com.dist(com) < 1e-9 * (1.0 + com.norm()));
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
        let set = uniform_cube(500, 1.0, 17);
        let cell = set.bounding_cube().unwrap();
        let params = BuildParams { leaf_capacity: 4, collapse: false, min_split_level: 0 };
        let bulk = build_in_cell(&set.particles, cell, params);
        let inc = build_incremental(&set.particles, cell, params);
        check(&bulk, &set);
        check(&inc, &set);
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
            let id = t.locate(p.pos).unwrap();
            assert!(t.node(id).cell.contains(p.pos));
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
}
