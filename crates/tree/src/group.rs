//! Grouped tree walks: one traversal per *walk unit* — a subtree of a few
//! neighbouring leaves — instead of one per particle.
//!
//! The per-particle walk ([`crate::traverse`]) re-discovers nearly the same
//! interaction list for every particle of a neighbourhood — neighbors in
//! space agree on all but the closest nodes. A grouped walk runs the
//! multipole acceptance test once per node against the *bucket* (the tight
//! bounding box of the unit's particles), using [`BarnesHutMac::classify`]
//! to bracket the per-member decision:
//!
//! * **AcceptAll** — every member accepts; the node's monopole goes into a
//!   shared structure-of-arrays M2P slab, evaluated once per member by a
//!   straight-line batched kernel.
//! * **RejectAll** — every member rejects; an internal node is expanded, a
//!   leaf's particles are appended to the shared P2P slab.
//! * **Mixed** — the bucket straddles the acceptance boundary; the subtree
//!   root is recorded and replayed lane-parallel during evaluation: the
//!   exact per-particle walk ([`crate::traverse::for_each_interaction_from`])
//!   from it for up to 32 targets per traversal, each lane accumulating what
//!   its walk accepts on the spot ([`crate::replay`]).
//!
//! A *target* is a position plus the particle id to leave out
//! ([`QueryTarget`]). The pipeline is `gather → eval`, and it is the same
//! for a unit's (active) members and for a batch of query points — the
//! member entry points only build the target list from the unit. It is a
//! monopole pipeline: degree-k expansions are evaluated per target, by
//! `bhut_multipole::MultipoleTree::eval`. Its arithmetic is the slab
//! kernels' f64 sequence ([`crate::kernel`]), in the slabs and the replay
//! alike; the exact scalar kernels survive as the per-particle walk, which
//! the tests hold this pipeline to.
//!
//! Because the walk only descends on RejectAll, every member's individual
//! walk is guaranteed to reach each shared or mixed frontier node, which
//! makes the grouped evaluation *interaction-for-interaction identical* to
//! the per-particle walk: identical [`TraversalStats`] and per-interaction
//! arithmetic, with only the summation order changed. That argument uses the
//! bucket only through the [`BarnesHutMac::classify`] bracket (AcceptAll ⇒
//! every point of the bucket accepts, RejectAll ⇒ every point rejects), so
//! it holds for *any* bucket: a leaf, a subtree of several leaves, a run of
//! query points.
//! What the bucket's size trades is cost — a larger one amortizes the shared
//! walk over more targets and leaves more nodes Mixed for the replay — and
//! [`leaf_schedule`] picks it: the maximal subtrees of at most `UNIT_TARGETS`
//! particles (a private constant). The one thing that is per *leaf*
//! and not per unit is self-exclusion: a member finds itself in the shared
//! P2P slab iff the walk appended its own leaf there
//! ([`InteractionBuffers::self_in_p2p`]); members of the unit's other
//! leaves leave themselves out in the replay instead.
//!
//! # One walk, two uses
//!
//! There is one classification loop, the private `settle_level`: walk a list
//! of roots forward through the preorder arena, as [`crate::traverse::walk`]
//! walks it for one point, with one [`BarnesHutMac::classify`] per tested
//! node — opening a node goes on at `id + 1`, settling it skips to `next` —
//! append what settles, hand back what stays Mixed.
//! [`gather_group_targets`] is one level from the root against a bucket
//! of query targets. A unit's members are gathered *through the unit's
//! ancestors* ([`GroupSweep`], of which [`gather_group`] is the one-unit
//! case): the shared slabs are the concatenation, level by
//! level from the root down to the unit's parent and then the unit itself,
//! of what each level's bucket — the ancestor's cell; for the unit, the tight
//! box of its members — settles out of what the level above left Mixed. Every
//! one of those buckets contains every member, so the bracket argument above
//! applies level by level and per-member exactness needs nothing else. The
//! α-criterion's [`BarnesHutMac::classify`] is in addition *monotone* in the
//! bucket (the distance bracket of a box contains that of any box inside it,
//! in floating point as well), so a node settles at some level exactly as the
//! tight box alone would have settled it: the accepted nodes, the direct
//! leaves, the mixed roots and their order, and all counters are those of
//! the single from-root walk; only the row order of the shared slabs is by
//! level. What this buys is that the slabs are a *stack*: Morton-consecutive
//! units share all but their last one or two ancestors (on the 50k Plummer a
//! unit has 6.6 levels, its own included, 5.46 of them already in the
//! buffers), so a sweep rewinds to the deepest shared level and walks only
//! below it.
//!
//! The chain lives in the buffers but only a [`GroupSweep`] can extend it,
//! and the sweep borrows the tree, the particles, the MAC and the buffers
//! for as long as it exists: the tree cannot be rebuilt, a particle cannot
//! move and nobody else can write the buffers while a chain is live, every
//! sweep starts from an empty chain, and every other gather clears it. So a
//! stale chain cannot be expressed, and there is no key or generation to
//! check. A unit whose members are not all inside its parent's cell gets no
//! chain at all: one level from the root against its tight box, decided from
//! the tree, the particles and the unit alone, so a sweep and a one-shot
//! gather agree on it. Fresh builds make such units: the build sorts by
//! quantized Morton key, and where the quantization disagrees with the float
//! midpoints of the cells, a body sits about an ulp outside its own cell (on
//! the 50k Plummer set, seed 1, one unit of 1 446). Particles that moved
//! after the build make them too; the fallback keeps the gather exact per
//! member on either.

use crate::kernel::{accel_slab_member_f64, SlabView};
use crate::mac::{BarnesHutMac, GroupClass};
use crate::node::{Node, NodeId, Tree};
use crate::replay::{ReplayLanes, REPLAY_LANES};
use crate::traverse::TraversalStats;
use bhut_geom::{Aabb, Particle, Vec3};
use bhut_simd::{AlignedF64Slab, AlignedU32Slab, KernelPrecision, PAD_MULTIPLE};
use std::cell::Cell;

/// Below this many elements, slab capacity is noise — the shrink policy
/// never releases it.
const SHRINK_FLOOR: usize = 4096;

/// Reusable structure-of-arrays scratch for grouped walks. Allocate once per
/// worker thread; [`gather_group`] refills it for every unit without
/// releasing capacity (call [`InteractionBuffers::maybe_shrink`] between
/// steps to give back capacity a transient dense group pinned).
///
/// The SoA slabs are 64-byte-aligned and padded to [`PAD_MULTIPLE`] with
/// zero-mass sentinels (`pid` padding is `u32::MAX`), so the vector kernels
/// iterate whole lanes with no tail. Dereferencing a slab (`&buf.px[..]`,
/// `buf.px.len()`) sees only the logical contents — padding is visible only
/// through `.padded()`.
#[derive(Debug, Clone, Default)]
pub struct InteractionBuffers {
    /// MAC-accepted nodes, in M2P slab order (ids kept for the profile's
    /// classification counters and for tests).
    pub node_ids: Vec<NodeId>,
    /// Monopole M2P sources: centers of mass and masses, SoA.
    pub com_x: AlignedF64Slab,
    pub com_y: AlignedF64Slab,
    pub com_z: AlignedF64Slab,
    pub node_mass: AlignedF64Slab,
    /// Direct P2P sources, SoA; `pid` carries particle ids so kernels can
    /// exclude the target itself.
    pub px: AlignedF64Slab,
    pub py: AlignedF64Slab,
    pub pz: AlignedF64Slab,
    pub pmass: AlignedF64Slab,
    pub pid: AlignedU32Slab,
    /// Roots of subtrees that straddle the acceptance boundary for this
    /// bucket, in depth-first order; the evaluation replays them per target
    /// ([`crate::replay`]).
    pub mixed: Vec<NodeId>,
    /// MAC tests charged to *each* member by the shared walk (AcceptAll +
    /// RejectAll classifications of non-singleton nodes).
    pub shared_mac_tests: u64,
    /// RejectAll classifications (leaf appends plus internal expansions).
    /// AcceptAll and Mixed counts are `node_ids.len()` and `mixed.len()`.
    pub class_reject: u64,
    /// Internal nodes opened (RejectAll, the walk going on at their first
    /// child) during the shared walk.
    pub nodes_opened: u64,
    /// The gathered unit's range of `tree.order` (empty for a bucket of
    /// query targets, which are not tree particles).
    unit: (u32, u32),
    /// Per member ordinal of the unit: whether the shared walk appended that
    /// member's own leaf to the P2P slab, so the member finds itself there
    /// exactly once. The other members meet their leaf in the replay, which
    /// leaves out the skip id itself.
    self_cover: Vec<bool>,
    /// Lane slots the evaluation computed: padded slab length × targets for
    /// the slab kernels, plus every lane of every chunk the mixed-frontier
    /// replay ran its interaction arithmetic on. `Cell` because evaluation
    /// holds the buffers by shared reference.
    pub lane_slots: Cell<u64>,
    /// Lane slots carrying a real interaction (logical slab length ×
    /// targets, plus the replay lanes that interacted) —
    /// `lane_useful / lane_slots` is the SIMD lane utilization.
    pub lane_useful: Cell<u64>,
    /// Largest P2P / M2P slab fills since the last shrink window, recorded
    /// by [`InteractionBuffers::clear`].
    hwm_p2p: usize,
    hwm_m2p: usize,
    /// Nodes whose particles the walk appended to the P2P slab, in append
    /// order: what a [`GroupSweep`] re-marks `self_cover` from after
    /// rewinding.
    direct: Vec<NodeId>,
    /// The ancestor chain of a [`GroupSweep`]: `levels[..depth]` are the
    /// settled levels the shared slabs currently hold, root first; entries
    /// past `depth` only keep their allocations for reuse.
    levels: Vec<ChainLevel>,
    depth: usize,
    /// Scratch for the ancestors a [`GroupSweep`] still has to walk, each
    /// with its cell.
    path: Vec<(NodeId, Aabb)>,
}

/// Where the shared slabs and counters stood at some point of a gather —
/// what [`InteractionBuffers::rewind`] restores.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    /// `node_ids.len()`, which is also the M2P slab's logical length.
    nodes: usize,
    /// The P2P slab's logical length.
    parts: usize,
    direct: usize,
    shared_mac_tests: u64,
    class_reject: u64,
    nodes_opened: u64,
}

/// One settled ancestor level of a [`GroupSweep`]'s chain.
#[derive(Debug, Clone)]
struct ChainLevel {
    /// The ancestor whose cell was this level's bucket.
    node: NodeId,
    /// That cell, carried down from the level above.
    cell: Aabb,
    /// What the level left Mixed, in depth-first order: the next level's
    /// roots.
    frontier: Vec<NodeId>,
    /// The buffers right after the level.
    mark: Mark,
}

impl InteractionBuffers {
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty all slabs, keeping capacity.
    pub fn clear(&mut self) {
        self.depth = 0;
        self.rewind(Mark::default());
    }

    /// Where the shared slabs and counters stand now.
    fn mark(&self) -> Mark {
        Mark {
            nodes: self.node_ids.len(),
            parts: self.px.len(),
            direct: self.direct.len(),
            shared_mac_tests: self.shared_mac_tests,
            class_reject: self.class_reject,
            nodes_opened: self.nodes_opened,
        }
    }

    /// Cut the shared slabs and counters back to `to` and drop everything
    /// that belongs to the gathered unit alone (mixed roots, the unit's
    /// range and self-cover marks), keeping capacity. The slabs are
    /// left unpadded.
    fn rewind(&mut self, to: Mark) {
        self.note_high_water();
        self.node_ids.truncate(to.nodes);
        self.com_x.truncate(to.nodes);
        self.com_y.truncate(to.nodes);
        self.com_z.truncate(to.nodes);
        self.node_mass.truncate(to.nodes);
        self.px.truncate(to.parts);
        self.py.truncate(to.parts);
        self.pz.truncate(to.parts);
        self.pmass.truncate(to.parts);
        self.pid.truncate(to.parts);
        self.direct.truncate(to.direct);
        self.mixed.clear();
        self.shared_mac_tests = to.shared_mac_tests;
        self.class_reject = to.class_reject;
        self.nodes_opened = to.nodes_opened;
        self.unit = (0, 0);
        self.self_cover.clear();
    }

    fn push_node(&mut self, id: NodeId, com: Vec3, mass: f64) {
        self.node_ids.push(id);
        self.com_x.push(com.x);
        self.com_y.push(com.y);
        self.com_z.push(com.z);
        self.node_mass.push(mass);
    }

    fn push_particle(&mut self, p: &Particle) {
        self.px.push(p.pos.x);
        self.py.push(p.pos.y);
        self.pz.push(p.pos.z);
        self.pmass.push(p.mass);
        self.pid.push(p.id);
    }

    /// Append the particles under `id` — a leaf, or a singleton node — to
    /// the P2P slab, and record which members of the gathered unit now find
    /// themselves in it.
    fn push_leaf(&mut self, tree: &Tree, particles: &[Particle], id: NodeId) {
        for &pi in tree.particles_under(id) {
            self.push_particle(&particles[pi as usize]);
        }
        self.direct.push(id);
        let node = tree.node(id);
        self.cover(node.start, node.end);
    }

    /// Mark the members of the gathered unit inside `tree.order[start..end]`
    /// as present in the P2P slab.
    fn cover(&mut self, start: u32, end: u32) {
        let (lo, hi) = (start.max(self.unit.0), end.min(self.unit.1));
        if lo < hi {
            self.self_cover[(lo - self.unit.0) as usize..(hi - self.unit.0) as usize].fill(true);
        }
    }

    /// Name the unit the (just rewound) buffers are about to gather, marking
    /// the members the kept part of the P2P slab already holds.
    fn set_unit(&mut self, tree: &Tree, node: &Node) {
        self.unit = (node.start, node.end);
        self.self_cover.resize(node.count() as usize, false);
        for i in 0..self.direct.len() {
            let kept = tree.node(self.direct[i]);
            self.cover(kept.start, kept.end);
        }
    }

    /// Whether member `k` of the gathered unit (its ordinal in
    /// `tree.particles_under`) is itself an entry of the P2P slab. Such a
    /// member's id-masked self-entry is not an interaction.
    pub fn self_in_p2p(&self, k: usize) -> bool {
        self.self_cover[k]
    }

    /// Pad every slab to [`PAD_MULTIPLE`] with zero-mass sentinels
    /// (positions 0, ids `u32::MAX`), so the vector kernels never straddle
    /// a tail. Called by [`gather_group`] after the walk; logical lengths
    /// are unchanged.
    fn pad(&mut self) {
        self.com_x.pad_to(PAD_MULTIPLE, 0.0);
        self.com_y.pad_to(PAD_MULTIPLE, 0.0);
        self.com_z.pad_to(PAD_MULTIPLE, 0.0);
        self.node_mass.pad_to(PAD_MULTIPLE, 0.0);
        self.px.pad_to(PAD_MULTIPLE, 0.0);
        self.py.pad_to(PAD_MULTIPLE, 0.0);
        self.pz.pad_to(PAD_MULTIPLE, 0.0);
        self.pmass.pad_to(PAD_MULTIPLE, 0.0);
        self.pid.pad_to(PAD_MULTIPLE, u32::MAX);
    }

    fn note_high_water(&mut self) {
        self.hwm_p2p = self.hwm_p2p.max(self.px.len());
        self.hwm_m2p = self.hwm_m2p.max(self.com_x.len());
    }

    /// High-water-mark shrink: if a slab family's capacity exceeds 4× the
    /// largest fill seen since the last call (a transient dense group pinned
    /// it), release down to 2× that mark. Call once per step, between
    /// evaluation sweeps; the high-water window then restarts.
    pub fn maybe_shrink(&mut self) {
        self.note_high_water();
        let oversized = |hwm: usize, cap: usize| cap > SHRINK_FLOOR && cap > 4 * hwm;
        if oversized(self.hwm_p2p, self.px.capacity()) {
            let keep = (2 * self.hwm_p2p).max(SHRINK_FLOOR);
            self.px.shrink_to(keep);
            self.py.shrink_to(keep);
            self.pz.shrink_to(keep);
            self.pmass.shrink_to(keep);
            self.pid.shrink_to(keep);
        }
        if oversized(self.hwm_m2p, self.com_x.capacity()) {
            let keep = (2 * self.hwm_m2p).max(SHRINK_FLOOR);
            self.com_x.shrink_to(keep);
            self.com_y.shrink_to(keep);
            self.com_z.shrink_to(keep);
            self.node_mass.shrink_to(keep);
        }
        self.hwm_p2p = 0;
        self.hwm_m2p = 0;
    }

    /// Take and zero the lane-utilization counters (slots, useful).
    pub fn take_lane_counters(&self) -> (u64, u64) {
        (self.lane_slots.take(), self.lane_useful.take())
    }

    #[inline(always)]
    fn count_lanes(&self, slots: usize, useful: usize) {
        self.lane_slots.set(self.lane_slots.get() + slots as u64);
        self.lane_useful.set(self.lane_useful.get() + useful as u64);
    }

    /// The padded accepted-node slab, as the f64 kernel takes it.
    fn nodes_view(&self) -> SlabView<'_> {
        SlabView::new(
            self.com_x.padded(),
            self.com_y.padded(),
            self.com_z.padded(),
            self.node_mass.padded(),
        )
    }

    /// The padded near-field particle slab (ids in `pid`).
    fn parts_view(&self) -> SlabView<'_> {
        SlabView::new(self.px.padded(), self.py.padded(), self.pz.padded(), self.pmass.padded())
    }
}

/// A slab kernel's `(ax, ay, az, phi)` as acceleration and potential.
#[inline(always)]
fn split((ax, ay, az, phi): (f64, f64, f64, f64)) -> (Vec3, f64) {
    (Vec3::new(ax, ay, az), phi)
}

/// Walk the tree once for the bucket of particles under `unit` — any node,
/// in practice one from [`leaf_schedule`] — filling `buf` with the shared
/// M2P/P2P slabs and the mixed subtree roots.
///
/// Returns the number of members. `buf` is cleared first; an empty unit (or
/// empty tree) leaves it empty and returns 0. This is a [`GroupSweep`] of
/// one unit, so a sweep leaves exactly these buffers after every unit.
pub fn gather_group(
    tree: &Tree,
    particles: &[Particle],
    unit: NodeId,
    mac: &BarnesHutMac,
    buf: &mut InteractionBuffers,
) -> usize {
    GroupSweep::new(tree, particles, mac, buf).gather(unit)
}

/// A worker's pass over consecutive units of one tree, gathering each
/// *through its ancestors* instead of from the root.
///
/// The shared slabs of a unit are built level by level: for every proper
/// ancestor, root first, classify what the level above left Mixed against
/// the ancestor's cell (the root level starts from the root itself), append
/// what settles — AcceptAll nodes, RejectAll leaves — and keep the rest as
/// the next level's roots; the last level does the same against the tight
/// box of the unit's members and leaves [`InteractionBuffers::mixed`]. The
/// slabs are therefore a stack of levels, and Morton-consecutive units share
/// all but the deepest few: moving on rewinds the slabs to the deepest level
/// whose node still contains the next unit and walks only the levels below.
///
/// Every bucket of the chain contains every member, so by the
/// [`BarnesHutMac::classify`] bracket each member's interaction set is
/// exactly its own walk's, as for any bucket. The α-criterion's `classify`
/// is moreover monotone in the bucket — AcceptAll or RejectAll for a box
/// holds for every box inside it — so a node settles at some level exactly
/// as the tight box alone would have settled it: accepted ids, direct
/// leaves, mixed roots (in the same depth-first order) and all counters
/// equal the single from-root walk's, and only the row order of the shared
/// slabs differs.
///
/// The guard borrows the tree, the particles, the MAC and the buffers for
/// its whole life, and is the only thing that can change the buffers
/// meanwhile, so the chain it keeps in them always describes *this* tree and
/// *these* positions; it starts empty, and every other gather clears it.
/// What a level leaves depends only on the levels above it, never on which
/// units came before, so [`GroupSweep::gather`] fills the buffers bitwise as
/// [`gather_group`] does.
pub struct GroupSweep<'a> {
    tree: &'a Tree,
    particles: &'a [Particle],
    mac: &'a BarnesHutMac,
    buf: &'a mut InteractionBuffers,
}

impl<'a> GroupSweep<'a> {
    /// Start a sweep with an empty chain; `buf` is cleared.
    pub fn new(
        tree: &'a Tree,
        particles: &'a [Particle],
        mac: &'a BarnesHutMac,
        buf: &'a mut InteractionBuffers,
    ) -> Self {
        buf.clear();
        GroupSweep { tree, particles, mac, buf }
    }

    /// The buffers as the last [`GroupSweep::gather`] left them, for
    /// evaluation.
    pub fn buffers(&self) -> &InteractionBuffers {
        self.buf
    }

    /// Gather `unit` as [`gather_group`] does, reusing the levels of the
    /// chain it shares with the previous unit. Returns the number of
    /// members.
    ///
    /// A unit whose members are not all inside its parent's cell (a body
    /// about an ulp outside its own cell on a fresh build, or particles that
    /// moved since the build) is walked from the root against its tight box
    /// alone, like a unit without ancestors: the nesting the chain relies on
    /// does not hold for it.
    pub fn gather(&mut self, unit: NodeId) -> usize {
        let (tree, particles, mac) = (self.tree, self.particles, self.mac);
        let buf = &mut *self.buf;
        let members = if tree.is_empty() { &[][..] } else { tree.particles_under(unit) };
        if members.is_empty() {
            buf.clear();
            return 0;
        }
        let node = tree.node(unit);
        let tight = Aabb::bounding(members.iter().map(|&pi| particles[pi as usize].pos))
            .expect("non-empty member set");
        let mut levels = std::mem::take(&mut buf.levels);
        let mut path = std::mem::take(&mut buf.path);

        // Keep the levels whose node holds the unit and more: node ranges
        // nest along a root path, so these are proper ancestors of the unit.
        let mut depth = buf.depth;
        while depth > 0 {
            let a = tree.node(levels[depth - 1].node);
            if a.start <= node.start && node.end <= a.end && a.count() > node.count() {
                break;
            }
            depth -= 1;
        }
        // The proper ancestors still to walk, down to the unit's parent, each
        // with its cell carried down from the one above.
        path.clear();
        let (mut cur, mut cell) = if depth > 0 {
            (levels[depth - 1].node, levels[depth - 1].cell)
        } else {
            (0, tree.cell(0))
        };
        if depth == 0 && unit != 0 {
            path.push((0, cell));
        }
        while cur != unit {
            let below = tree.children_of(cur).find(|&c| {
                let c = tree.node(c);
                c.start <= node.start && node.end <= c.end
            });
            match below {
                Some(c) if c == unit => break,
                Some(c) => {
                    cell = tree.cell_below(cell, cur, c);
                    path.push((c, cell));
                    cur = c;
                }
                // `unit` is not below `cur` (it is not a node of this tree's
                // root path at all): nothing to share.
                None => {
                    depth = 0;
                    path.clear();
                    break;
                }
            }
        }
        let parent = path
            .last()
            .map(|&(_, cell)| cell)
            .or_else(|| (depth > 0).then(|| levels[depth - 1].cell));
        if parent.is_some_and(|cell| !cell.contains_box(&tight)) {
            depth = 0;
            path.clear();
        }

        buf.rewind(if depth > 0 { levels[depth - 1].mark } else { Mark::default() });
        buf.set_unit(tree, node);
        for &(ancestor, cell) in &path {
            if levels.len() == depth {
                levels.push(ChainLevel {
                    node: ancestor,
                    cell,
                    frontier: Vec::new(),
                    mark: Mark::default(),
                });
            }
            let (above, below) = levels.split_at_mut(depth);
            let roots = above.last().map_or(&[0][..], |l| &l.frontier);
            let level = &mut below[0];
            (level.node, level.cell) = (ancestor, cell);
            level.frontier.clear();
            settle_level(tree, particles, roots, &cell, mac, buf, &mut level.frontier);
            level.mark = buf.mark();
            depth += 1;
        }
        let roots = levels[..depth].last().map_or(&[0][..], |l| &l.frontier);
        settle_last_level(tree, particles, roots, &tight, mac, buf);
        buf.levels = levels;
        buf.path = path;
        buf.depth = depth;
        members.len()
    }
}

/// Walk the tree once for an *arbitrary* bucket of query targets — field
/// evaluation points that are not particles of the tree — filling `buf`
/// with the shared M2P/P2P slabs and mixed subtree roots exactly as
/// [`gather_group`] does for a unit's members.
///
/// `bucket` must bound every target the caller will evaluate against this
/// gather (typically `Aabb::bounding` of a Morton-sorted run of query
/// points). The [`BarnesHutMac::classify`] bracketing contract is what
/// makes the result per-target exact for *any* bucketing: AcceptAll ⇒ every
/// point in the bucket accepts, RejectAll ⇒ every point rejects, so each
/// target's interaction set is identical to its individual walk regardless
/// of which other targets share the bucket. No target is a tree particle
/// here, so there is no unit and no member to mark as its own source;
/// per-target self-exclusion (for query points placed *at* particle
/// positions) rides on the skip ids passed to [`eval_gathered_targets`].
pub fn gather_group_targets(
    tree: &Tree,
    particles: &[Particle],
    bucket: &Aabb,
    mac: &BarnesHutMac,
    buf: &mut InteractionBuffers,
) {
    buf.clear();
    if tree.is_empty() {
        return;
    }
    settle_last_level(tree, particles, &[0], bucket, mac, buf);
}

/// The level that completes a gather: settle `roots` against `bucket`,
/// leave what stays Mixed in [`InteractionBuffers::mixed`], and pad the
/// slabs. With `roots = [root]` on cleared buffers this is the whole
/// single-bucket walk — [`gather_group_targets`] (bucket = a batch of query
/// points) and a [`GroupSweep`] unit without ancestors.
fn settle_last_level(
    tree: &Tree,
    particles: &[Particle],
    roots: &[NodeId],
    bucket: &Aabb,
    mac: &BarnesHutMac,
    buf: &mut InteractionBuffers,
) {
    let mut mixed = std::mem::take(&mut buf.mixed);
    settle_level(tree, particles, roots, bucket, mac, buf, &mut mixed);
    buf.mixed = mixed;
    buf.pad();
}

/// The one classification walk: settle the subtrees under `roots` against
/// `bucket`, each root's a forward pass over its id range `root..next` of
/// the preorder arena. An empty node is skipped and a singleton, which like
/// the per-particle walk skips the MAC, goes to the P2P slab. Any other node
/// takes one [`BarnesHutMac::classify`]: AcceptAll goes to the M2P slab and
/// Mixed to `mixed`, both skipping the subtree to `next`; RejectAll appends
/// a leaf's particles to the P2P slab and opens an internal node, going on at
/// its first child, `id + 1`. This is [`crate::traverse::walk`]'s loop with
/// the bucket for the point, so the nodes come in its depth-first order.
/// `buf` is appended to, not cleared, and left unpadded.
fn settle_level(
    tree: &Tree,
    particles: &[Particle],
    roots: &[NodeId],
    bucket: &Aabb,
    mac: &BarnesHutMac,
    buf: &mut InteractionBuffers,
    mixed: &mut Vec<NodeId>,
) {
    for &root in roots {
        let end = tree.node(root).next;
        let mut id = root;
        while id < end {
            let node = tree.node(id);
            let mut to = node.next;
            match node.count() {
                0 => {}
                1 => buf.push_leaf(tree, particles, id),
                _ => match mac.classify(node.side, node.com, bucket) {
                    GroupClass::AcceptAll => {
                        buf.shared_mac_tests += 1;
                        buf.push_node(id, node.com, node.mass);
                    }
                    GroupClass::RejectAll => {
                        buf.shared_mac_tests += 1;
                        buf.class_reject += 1;
                        if node.is_leaf() {
                            buf.push_leaf(tree, particles, id);
                        } else {
                            buf.nodes_opened += 1;
                            to = id + 1;
                        }
                    }
                    GroupClass::Mixed => mixed.push(id),
                },
            }
            id = to;
        }
    }
}

/// A target of the grouped force path: an evaluation position plus the
/// particle id to exclude from direct interactions (`u32::MAX` = exclude
/// nothing; no particle carries that id — it is the slab padding sentinel).
/// A unit member is the target `(its position, its own id)`; the skip id is
/// also how a query placed *at* a particle's position reproduces the
/// simulation's self-excluded force on that particle.
pub type QueryTarget = (Vec3, u32);

/// The (active) members of `unit` as `(member ordinal, particle index,
/// particle)`, in `tree.particles_under` order — how the member entry point
/// turns a unit into a target list.
fn unit_targets<'a>(
    tree: &'a Tree,
    particles: &'a [Particle],
    unit: NodeId,
    active: Option<&'a [bool]>,
) -> impl Iterator<Item = (usize, u32, &'a Particle)> {
    let members = if tree.is_empty() { &[][..] } else { tree.particles_under(unit) };
    members
        .iter()
        .enumerate()
        .filter(move |&(_, &pi)| active.is_none_or(|mask| mask[pi as usize]))
        .map(move |(k, &pi)| (k, pi, &particles[pi as usize]))
}

/// Does nothing: the mixed frontier is no longer resolved into per-target
/// tail slabs between the gather and the evaluation — the evaluation
/// replays it itself ([`crate::replay`]). The name survives, with its old
/// signature, only because the benchmark harness under `spine/` calls it
/// between [`gather_group`] and [`eval_gathered_monopole_masked`]; the next
/// `benchmark` PR (ROADMAP direction 3(e)) drops that call and deletes this
/// function.
pub fn resolve_mixed_tails_lanes(
    _tree: &Tree,
    _particles: &[Particle],
    _unit: NodeId,
    _mac: &BarnesHutMac,
    _buf: &mut InteractionBuffers,
    _active: Option<&[bool]>,
) {
}

/// The one monopole evaluation: every target against the gathered slabs and
/// its own walks below the gather's mixed roots. `targets` yields `(key,
/// position, skip id, self hits)`; `emit(key, phi, accel, interactions)` is
/// called once per target, in order.
///
/// *Self hits* is how often the skip id occurs in the P2P slab: a masked
/// self-entry contributes nothing and is not an interaction, so it is
/// subtracted to keep the stats equal to the per-point walk's.
///
/// Targets are taken [`REPLAY_LANES`] at a time. A chunk first replays the
/// mixed roots lane-parallel — each lane testing, descending and
/// accumulating exactly as its own per-point walk would — and then every
/// target of it makes one slab-kernel call over the shared slabs and adds
/// its lane's sums. A lane's sums depend on nothing but its own target, so
/// neither does the result: not on the chunk, the lane, or the mask that
/// chose the other targets.
///
/// One fused kernel call and one horizontal-sum reduction cover the
/// accepted-node slab and the id-masked near-field slab — per-target call
/// overhead is the dominant cost left after vectorization.
#[allow(clippy::too_many_arguments)] // the pipeline's inputs plus the target stream
fn eval_targets<K: Copy>(
    tree: &Tree,
    particles: &[Particle],
    mac: &BarnesHutMac,
    buf: &InteractionBuffers,
    eps: f64,
    mut targets: impl Iterator<Item = (K, Vec3, u32, u64)>,
    mut emit: impl FnMut(K, f64, Vec3, u64),
) -> TraversalStats {
    let mut stats = TraversalStats::default();
    let shared_p2n = buf.node_ids.len() as u64;
    let (n_nodes, n_nodes_padded) = (buf.com_x.len(), buf.com_x.padded_len());
    let (nodes, parts) = (buf.nodes_view(), buf.parts_view());
    let mut lanes = ReplayLanes::new();
    // What the lanes do not hold of their targets: key and self hits.
    let mut seated: [Option<(K, u64)>; REPLAY_LANES] = [None; REPLAY_LANES];
    // Replay lanes that interacted: one per interaction below a mixed root.
    let mut replayed = 0;
    loop {
        lanes.clear();
        for (key, pos, skip, self_hits) in targets.by_ref().take(REPLAY_LANES) {
            seated[lanes.len()] = Some((key, self_hits));
            lanes.push(pos, skip);
        }
        if lanes.len() == 0 {
            break;
        }
        lanes.replay(tree, particles, &buf.mixed, mac, eps);
        for (l, seat) in seated[..lanes.len()].iter_mut().enumerate() {
            let (key, self_hits) = seat.take().expect("seated with its lane above");
            let (pos, skip) = lanes.target(l);
            let mut target = TraversalStats {
                p2n: shared_p2n,
                p2p: buf.px.len() as u64 - self_hits,
                mac_tests: buf.shared_mac_tests,
            };
            let below_mixed = lanes.stats(l);
            replayed += below_mixed.interactions();
            target.merge(below_mixed);
            buf.count_lanes(n_nodes_padded + buf.px.padded_len(), n_nodes + buf.px.len());
            let (acc, phi) = split(accel_slab_member_f64(
                pos.x,
                pos.y,
                pos.z,
                // Padding sentinels carry id u32::MAX with zero mass, so a
                // no-skip target masking u32::MAX changes nothing.
                skip,
                nodes,
                parts,
                buf.pid.padded(),
                eps * eps,
            ));
            let (acc_m, phi_m) = lanes.sums(l);
            emit(key, phi + phi_m, acc + acc_m, target.interactions());
            stats.merge(target);
        }
    }
    buf.count_lanes(lanes.take_lane_slots() as usize, replayed as usize);
    stats
}

/// Evaluate a batch of query targets against slabs gathered by
/// [`gather_group_targets`] on `tree` and `particles` for a bucket bounding
/// them all, with the `mac` of that gather.
///
/// `emit(target_ordinal, phi, accel, interactions)` is called once per
/// target, in order. Per-target results are identical (to summation-order
/// rounding; stats exactly) to the individual per-point walk
/// [`crate::accel_on`]`(tree, particles, pos, skip, mac, eps)` — the
/// group-MAC bracketing guarantees every target of the bucket agrees with
/// the shared classification, and each target's skip id masks its own
/// particle out of the near field exactly as the per-particle sweep does.
pub fn eval_gathered_targets(
    tree: &Tree,
    particles: &[Particle],
    targets: &[QueryTarget],
    mac: &BarnesHutMac,
    eps: f64,
    buf: &InteractionBuffers,
    emit: impl FnMut(usize, f64, Vec3, u64),
) -> TraversalStats {
    let targets = targets.iter().enumerate().map(|(k, &(pos, skip))| {
        let self_hits = if skip == u32::MAX {
            0
        } else {
            buf.pid.iter().filter(|&&id| id == skip).count() as u64
        };
        (k, pos, skip, self_hits)
    });
    eval_targets(tree, particles, mac, buf, eps, targets, emit)
}

/// The evaluation half of the pipeline for a unit: evaluate the members of
/// `unit` against slabs filled by [`gather_group`] (or a [`GroupSweep`]) for
/// that same unit on the same `tree` and `particles`, replaying the gather's
/// mixed roots per member with the same `mac`. Splitting the gather from
/// the evaluation (this) lets callers time the two phases separately.
///
/// Members with `active[pi] == false` are not targets at all (no kernels,
/// no stats, no `emit`), while the shared slabs — which already contain
/// every source, active or not — are reused untouched. `active == None`
/// evaluates every member with literally the same code path, which is what
/// makes the masked and unmasked walks bit-identical on their common
/// members.
///
/// `_precision` is [`KernelPrecision::F64`], its only value; the parameter
/// is removed by ROADMAP direction 3(e).
#[allow(clippy::too_many_arguments)] // the pipeline's inputs plus mask and precision
pub fn eval_gathered_monopole_masked(
    tree: &Tree,
    particles: &[Particle],
    unit: NodeId,
    mac: &BarnesHutMac,
    eps: f64,
    _precision: KernelPrecision,
    buf: &InteractionBuffers,
    active: Option<&[bool]>,
    emit: impl FnMut(u32, f64, Vec3, u64),
) -> TraversalStats {
    // A member finds itself in the P2P slab exactly once iff the walk
    // appended its own leaf — an O(1) lookup, no id scan.
    let targets = unit_targets(tree, particles, unit, active)
        .map(|(k, pi, p)| (pi, p.pos, p.id, buf.self_in_p2p(k) as u64));
    eval_targets(tree, particles, mac, buf, eps, targets, emit)
}

/// Most targets one walk serves: a unit of the schedule is a maximal
/// subtree holding at most this many particles. Per unit the gather costs
/// about the same whatever its population, so a larger unit buys fewer
/// gathers; what it costs is a looser bucket, which leaves more of each
/// member's interactions below Mixed roots, where the evaluation replays
/// them per lane instead of reading them from the shared slabs. Nothing of a
/// unit is resident but the shared slabs and one chunk of ≤ 32 replay lanes,
/// so the cap does not move peak RSS. `op_ms_p10`, ms (spine, seed 1, three
/// alternating rounds of 6 s, 2-vCPU box; CHANGES.md PR 24):
///
/// | cap | `plummer50k_t1` | `plummer50k_t2` | `block20k_reuse` | `mesh2_dpda50k` |
/// |---|---|---|---|---|
/// | 32 | 125.0 | 70.3 | 240.1 | 80.4 |
/// | 64 | 108.3 | 58.6 | 192.3 | 68.6 |
/// | 128 | 93.2 | 54.2 | 159.4 | 62.9 |
/// | 256 | 93.9 | 52.6 | 153.1 | 59.0 |
///
/// (`serve50k_closed` does not see the cap either: the query engine buckets
/// by `ServeConfig::group_size`, one replay chunk of [`REPLAY_LANES`] points
/// since it stored its epochs in tree order, and it read 2.93–2.98 ms under
/// all four caps with its earlier 16-point buckets. Degree > 0 walks per
/// target and does not see the cap.) 256 is no faster than 128 on the single-thread step and
/// 3–6 % faster elsewhere, inside or next to the run-to-run quartiles, and
/// it halves the number of units the partitioners balance with. 128 is the
/// last step that wins everywhere it is measured. Units above 32 members
/// replay in chunks of 32 lanes; a 64-lane mask was measured at this cap and
/// lost (evaluation 80 → 89 ms per 50k sweep).
const UNIT_TARGETS: u32 = 128;

/// The units of `tree` that `keep` in Morton (in-order) sequence: every
/// maximal subtree of at most [`UNIT_TARGETS`] particles, and every leaf
/// above that (a leaf cannot be split, so it stays a unit of its own).
fn unit_schedule(tree: &Tree, keep: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
    let mut units = Vec::new();
    // In preorder: a unit (or an empty node) skips its subtree to `next`;
    // a node above the cap goes on at its first child.
    let mut id = 0;
    while (id as usize) < tree.len() {
        let n = tree.node(id);
        if n.count() > 0 && !n.is_leaf() && n.count() > UNIT_TARGETS {
            id += 1;
            continue;
        }
        if n.count() > 0 && keep(id) {
            units.push(id);
        }
        id = n.next;
    }
    units
}

/// The walk units of `tree` in Morton (in-order) sequence — the group
/// schedule. A unit is a node id: the maximal subtrees of at most
/// `UNIT_TARGETS` (128) particles, so one walk serves a neighbourhood of
/// leaves (the name predates that: the unit used to be the leaf). Every
/// particle lies under exactly one returned unit, and the units' ranges of
/// `tree.order` are consecutive.
pub fn leaf_schedule(tree: &Tree) -> Vec<NodeId> {
    unit_schedule(tree, |_| true)
}

/// The group schedule restricted to an active subset: the units of
/// [`leaf_schedule`] that contain at least one particle with
/// `active[pi] == true`. Units of only-inactive particles are never walked —
/// their members still act as sources through other units' slabs, but cost
/// no target work.
pub fn leaf_schedule_active(tree: &Tree, active: &[bool]) -> Vec<NodeId> {
    unit_schedule(tree, |id| tree.particles_under(id).iter().any(|&pi| active[pi as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, BuildParams};
    use crate::mac::BarnesHutMac;
    use crate::traverse::{accel_on, potential_at};
    use bhut_geom::{plummer, uniform_cube, PlummerSpec};

    const EPS: f64 = 1e-4;

    /// What `emit` reports for one target: key, potential, acceleration,
    /// interaction count.
    type Emitted = Vec<(u32, f64, Vec3, u64)>;

    /// The evaluation of `leaf`'s (active) members on slabs `buf` already
    /// holds for it.
    fn eval_gathered_leaf(
        tree: &Tree,
        particles: &[Particle],
        leaf: NodeId,
        mac: &BarnesHutMac,
        mask: Option<&[bool]>,
        buf: &InteractionBuffers,
    ) -> (Emitted, TraversalStats) {
        let mut out = Vec::new();
        let st = eval_gathered_monopole_masked(
            tree,
            particles,
            leaf,
            mac,
            EPS,
            KernelPrecision::F64,
            buf,
            mask,
            |pi, phi, acc, it| out.push((pi, phi, acc, it)),
        );
        (out, st)
    }

    /// `gather → eval` for every member of `unit` in one call.
    fn eval_unit(
        tree: &Tree,
        particles: &[Particle],
        unit: NodeId,
        mac: &BarnesHutMac,
        buf: &mut InteractionBuffers,
        emit: impl FnMut(u32, f64, Vec3, u64),
    ) -> TraversalStats {
        gather_group(tree, particles, unit, mac, buf);
        let f64s = KernelPrecision::F64;
        eval_gathered_monopole_masked(tree, particles, unit, mac, EPS, f64s, buf, None, emit)
    }

    fn assert_group_matches_per_particle(
        set: &bhut_geom::ParticleSet,
        mac: &BarnesHutMac,
        leaf_capacity: usize,
    ) {
        let tree = build(&set.particles, BuildParams::with_leaf_capacity(leaf_capacity));
        let mut buf = InteractionBuffers::new();
        let mut grouped_stats = TraversalStats::default();
        let mut seen = vec![false; set.len()];
        for leaf in leaf_schedule(&tree) {
            let st =
                eval_unit(&tree, &set.particles, leaf, mac, &mut buf, |pi, phi, acc, inter| {
                    let p = &set.particles[pi as usize];
                    assert!(!seen[pi as usize], "particle {pi} visited twice");
                    seen[pi as usize] = true;
                    let (phi_ref, st_phi) =
                        potential_at(&tree, &set.particles, p.pos, Some(p.id), mac, EPS);
                    let (acc_ref, _) = accel_on(&tree, &set.particles, p.pos, Some(p.id), mac, EPS);
                    assert_eq!(
                        inter,
                        st_phi.interactions(),
                        "interaction count differs for particle {pi}"
                    );
                    let tol = 1e-12;
                    assert!(
                        (phi - phi_ref).abs() <= tol * phi_ref.abs().max(1.0),
                        "phi {phi} vs {phi_ref} for particle {pi}"
                    );
                    assert!(
                        acc.dist(acc_ref) <= tol * acc_ref.norm().max(1.0),
                        "acc {acc:?} vs {acc_ref:?} for particle {pi}"
                    );
                });
            grouped_stats.merge(st);
        }
        assert!(seen.iter().all(|&s| s), "leaf schedule must cover every particle");

        // Aggregate stats equal the per-particle totals field by field.
        let mut reference = TraversalStats::default();
        for p in set.iter() {
            let (_, st) = potential_at(&tree, &set.particles, p.pos, Some(p.id), mac, EPS);
            reference.merge(st);
        }
        assert_eq!(grouped_stats, reference);
    }

    #[test]
    fn grouped_matches_per_particle_uniform() {
        let set = uniform_cube(500, 1.0, 7);
        for alpha in [0.67, 1.0] {
            assert_group_matches_per_particle(&set, &BarnesHutMac::new(alpha), 8);
        }
    }

    #[test]
    fn grouped_matches_per_particle_plummer() {
        let set = plummer(PlummerSpec { n: 700, seed: 4, ..Default::default() });
        assert_group_matches_per_particle(&set, &BarnesHutMac::new(0.67), 8);
        assert_group_matches_per_particle(&set, &BarnesHutMac::new(0.67), 1);
        assert_group_matches_per_particle(&set, &BarnesHutMac::new(0.67), 32);
    }

    #[test]
    fn buffers_are_reusable() {
        let set = plummer(PlummerSpec { n: 300, seed: 2, ..Default::default() });
        let tree = build(&set.particles, BuildParams::with_leaf_capacity(8));
        let mac = BarnesHutMac::new(0.67);
        let mut buf = InteractionBuffers::new();
        let leaves = leaf_schedule(&tree);
        let mut first = Vec::new();
        for &leaf in &leaves {
            eval_unit(&tree, &set.particles, leaf, &mac, &mut buf, |pi, phi, _, _| {
                first.push((pi, phi));
            });
        }
        let mut second = Vec::new();
        for &leaf in &leaves {
            eval_unit(&tree, &set.particles, leaf, &mac, &mut buf, |pi, phi, _, _| {
                second.push((pi, phi));
            });
        }
        assert_eq!(first, second);
    }

    #[test]
    fn walk_classification_counters_are_consistent() {
        let set = plummer(PlummerSpec { n: 600, seed: 5, ..Default::default() });
        let tree = build(&set.particles, BuildParams::with_leaf_capacity(8));
        let mac = BarnesHutMac::new(0.67);
        let mut buf = InteractionBuffers::new();
        let mut total_opened = 0;
        let mut total_mixed = 0;
        for leaf in leaf_schedule(&tree) {
            gather_group(&tree, &set.particles, leaf, &mac, &mut buf);
            // Every shared MAC test is either an accept-all or a reject-all
            // classification; mixed nodes are charged per member instead.
            assert_eq!(buf.shared_mac_tests, buf.node_ids.len() as u64 + buf.class_reject);
            // Only reject-all classifications of internal nodes open them.
            assert!(buf.nodes_opened <= buf.class_reject);
            total_opened += buf.nodes_opened;
            total_mixed += buf.mixed.len() as u64;
        }
        // A 600-body Plummer tree at α=0.67 must both descend and hit the
        // acceptance boundary somewhere.
        assert!(total_opened > 0, "no nodes opened");
        assert!(total_mixed > 0, "no mixed frontiers");
    }

    #[test]
    fn masked_eval_is_bitwise_restriction_of_full_eval() {
        // Active-set evaluation must agree bit-for-bit with the full grouped
        // walk on the active members, and touch nothing else.
        let set = plummer(PlummerSpec { n: 500, seed: 17, ..Default::default() });
        let tree = build(&set.particles, BuildParams::with_leaf_capacity(8));
        let mac = BarnesHutMac::new(0.67);
        // Every third particle active.
        let active: Vec<bool> = (0..set.len()).map(|i| i % 3 == 0).collect();
        let mut buf = InteractionBuffers::new();
        let mut full: Vec<Option<(f64, Vec3, u64)>> = vec![None; set.len()];
        for leaf in leaf_schedule(&tree) {
            gather_group(&tree, &set.particles, leaf, &mac, &mut buf);
            let (out, _) = eval_gathered_leaf(&tree, &set.particles, leaf, &mac, None, &buf);
            for (pi, phi, acc, it) in out {
                full[pi as usize] = Some((phi, acc, it));
            }
        }
        let mut masked: Vec<Option<(f64, Vec3, u64)>> = vec![None; set.len()];
        let sched = leaf_schedule_active(&tree, &active);
        for &leaf in &sched {
            gather_group(&tree, &set.particles, leaf, &mac, &mut buf);
            let mask = Some(active.as_slice());
            let (out, _) = eval_gathered_leaf(&tree, &set.particles, leaf, &mac, mask, &buf);
            for (pi, phi, acc, it) in out {
                masked[pi as usize] = Some((phi, acc, it));
            }
        }
        for i in 0..set.len() {
            if active[i] {
                assert_eq!(masked[i], full[i], "active particle {i}");
            } else {
                assert_eq!(masked[i], None, "inactive particle {i} was evaluated");
            }
        }
        // The active schedule is exactly the leaves holding active members.
        for leaf in leaf_schedule(&tree) {
            let holds_active = tree.particles_under(leaf).iter().any(|&pi| active[pi as usize]);
            assert_eq!(sched.contains(&leaf), holds_active);
        }
        // An all-true mask reproduces the full schedule.
        assert_eq!(leaf_schedule_active(&tree, &vec![true; set.len()]), leaf_schedule(&tree));
    }

    #[test]
    fn slabs_are_padded_to_lane_width() {
        let set = plummer(PlummerSpec { n: 300, seed: 6, ..Default::default() });
        let tree = build(&set.particles, BuildParams::with_leaf_capacity(8));
        let mac = BarnesHutMac::new(0.67);
        let mut buf = InteractionBuffers::new();
        for leaf in leaf_schedule(&tree) {
            gather_group(&tree, &set.particles, leaf, &mac, &mut buf);
            for (len, padded) in
                [(buf.px.len(), buf.px.padded_len()), (buf.com_x.len(), buf.com_x.padded_len())]
            {
                assert_eq!(padded % bhut_simd::PAD_MULTIPLE, 0);
                assert!(padded >= len && padded < len + bhut_simd::PAD_MULTIPLE);
            }
            // Sentinels: zero mass, id u32::MAX.
            for &m in &buf.pmass.padded()[buf.pmass.len()..] {
                assert_eq!(m, 0.0);
            }
            for &id in &buf.pid.padded()[buf.pid.len()..] {
                assert_eq!(id, u32::MAX);
            }
        }
    }

    #[test]
    fn high_water_shrink_releases_transient_capacity() {
        let mut buf = InteractionBuffers::new();
        let blow_up = |buf: &mut InteractionBuffers, n: usize| {
            for i in 0..n {
                buf.px.push(i as f64);
                buf.py.push(0.0);
                buf.pz.push(0.0);
                buf.pmass.push(1.0);
                buf.pid.push(i as u32);
            }
        };
        // One transient dense group...
        blow_up(&mut buf, 50_000);
        buf.clear();
        buf.maybe_shrink(); // window containing the spike: capacity retained
        assert!(buf.px.capacity() >= 50_000, "in-window spike must not be dropped");
        // ...followed by a window of small fills.
        for _ in 0..4 {
            blow_up(&mut buf, 100);
            buf.clear();
        }
        let before = buf.px.capacity();
        buf.maybe_shrink();
        assert!(buf.px.capacity() < before, "stale spike capacity must be released");
        assert!(buf.px.capacity() >= 100);
        // Small buffers are left alone (below the shrink floor).
        let mut small = InteractionBuffers::new();
        blow_up(&mut small, 64);
        small.clear();
        small.maybe_shrink();
        let cap = small.px.capacity();
        blow_up(&mut small, 8);
        small.clear();
        small.maybe_shrink();
        assert_eq!(small.px.capacity(), cap, "sub-floor capacity is never shrunk");
    }

    #[test]
    fn lane_counters_reflect_padding() {
        let set = plummer(PlummerSpec { n: 400, seed: 31, ..Default::default() });
        let tree = build(&set.particles, BuildParams::with_leaf_capacity(8));
        let mac = BarnesHutMac::new(0.67);
        let mut buf = InteractionBuffers::new();
        for leaf in leaf_schedule(&tree) {
            gather_group(&tree, &set.particles, leaf, &mac, &mut buf);
            // A member that finds itself in the near-field slab fills a lane
            // there without interacting.
            let members = tree.node(leaf).count() as usize;
            let self_hits = (0..members).filter(|&k| buf.self_in_p2p(k)).count() as u64;
            buf.take_lane_counters();
            let (_, st) = eval_gathered_leaf(&tree, &set.particles, leaf, &mac, None, &buf);
            let (slots, useful) = buf.take_lane_counters();
            assert!(useful > 0);
            // Slabs and replay alike: one useful lane per interaction.
            assert_eq!(useful, st.interactions() + self_hits);
            // Padded slab chunks, and replay chunks as wide as the ISA tier
            // makes them.
            assert!(slots >= useful);
        }
    }

    /// Arbitrary query points, arbitrarily bucketed, must reproduce the
    /// per-point walk exactly: stats field-for-field, values to rounding.
    #[test]
    fn target_eval_matches_per_point_walk() {
        let set = plummer(PlummerSpec { n: 600, seed: 41, ..Default::default() });
        let tree = build(&set.particles, BuildParams::with_leaf_capacity(8));
        let mac = BarnesHutMac::new(0.67);
        // Query points: offsets from particle positions (dense, so buckets
        // straddle acceptance boundaries) plus a few far-field points.
        let mut points: Vec<Vec3> =
            set.iter().take(120).map(|p| p.pos + Vec3::new(1.3e-3, -2.1e-3, 0.7e-3)).collect();
        points.push(Vec3::new(10.0, 10.0, 10.0));
        points.push(Vec3::new(-25.0, 3.0, 0.1));
        let mut buf = InteractionBuffers::new();
        for chunk in points.chunks(16) {
            let targets: Vec<QueryTarget> = chunk.iter().map(|&p| (p, u32::MAX)).collect();
            let bucket = Aabb::bounding(chunk.iter().copied()).unwrap();
            gather_group_targets(&tree, &set.particles, &bucket, &mac, &mut buf);
            let mut calls = 0usize;
            let ps = &set.particles;
            let each = |k: usize, phi: f64, acc: Vec3, it: u64| {
                assert_eq!(k, calls);
                calls += 1;
                let pos = targets[k].0;
                let (acc_ref, st) = accel_on(&tree, &set.particles, pos, None, &mac, EPS);
                let (phi_ref, _) = potential_at(&tree, &set.particles, pos, None, &mac, EPS);
                assert_eq!(it, st.interactions(), "target {k}");
                let tol = 1e-12;
                assert!(
                    (phi - phi_ref).abs() <= tol * phi_ref.abs().max(1.0),
                    "phi {phi} vs {phi_ref}, target {k}"
                );
                assert!(
                    acc.dist(acc_ref) <= tol * acc_ref.norm().max(1.0),
                    "acc {acc:?} vs {acc_ref:?}, target {k}"
                );
            };
            eval_gathered_targets(&tree, ps, &targets, &mac, EPS, &buf, each);
            assert_eq!(calls, targets.len());
        }
    }

    /// Query targets placed at particle positions with the particle's own
    /// skip id must reproduce the simulation's member evaluation: identical
    /// stats and ≤1e-12 values — the equivalence the query service pins.
    #[test]
    fn targets_at_particle_positions_match_member_eval() {
        let set = plummer(PlummerSpec { n: 500, seed: 47, ..Default::default() });
        let tree = build(&set.particles, BuildParams::with_leaf_capacity(8));
        let mac = BarnesHutMac::new(0.67);
        let (mut buf_m, mut buf_t) = (InteractionBuffers::new(), InteractionBuffers::new());
        for leaf in leaf_schedule(&tree) {
            // Reference: the simulation's own grouped member evaluation.
            gather_group(&tree, &set.particles, leaf, &mac, &mut buf_m);
            let (member_out, _) =
                eval_gathered_leaf(&tree, &set.particles, leaf, &mac, None, &buf_m);
            // Query path: same positions as targets, same bucket geometry.
            let members = tree.particles_under(leaf);
            let targets: Vec<QueryTarget> = members
                .iter()
                .map(|&pi| {
                    let p = &set.particles[pi as usize];
                    (p.pos, p.id)
                })
                .collect();
            let bucket = Aabb::bounding(targets.iter().map(|t| t.0)).unwrap();
            gather_group_targets(&tree, &set.particles, &bucket, &mac, &mut buf_t);
            let mut query_out = Vec::new();
            let each = |k: usize, phi, acc, it| query_out.push((members[k], phi, acc, it));
            let ps = &set.particles;
            eval_gathered_targets(&tree, ps, &targets, &mac, EPS, &buf_t, each);
            assert_eq!(member_out.len(), query_out.len());
            for (&(pi_m, phi_m, acc_m, it_m), &(pi_q, phi_q, acc_q, it_q)) in
                member_out.iter().zip(&query_out)
            {
                assert_eq!(pi_m, pi_q);
                assert_eq!(it_m, it_q, "interaction count differs for particle {pi_m}");
                let tol = 1e-12;
                assert!(
                    (phi_m - phi_q).abs() <= tol * phi_m.abs().max(1.0),
                    "phi {phi_q} vs member {phi_m} for particle {pi_m}"
                );
                assert!(
                    acc_m.dist(acc_q) <= tol * acc_m.norm().max(1.0),
                    "acc {acc_q:?} vs member {acc_m:?} for particle {pi_m}"
                );
            }
        }
    }

    #[test]
    fn target_eval_on_empty_tree_emits_zeros() {
        let tree = build(&[], BuildParams::default());
        let mut buf = InteractionBuffers::new();
        let targets = vec![(Vec3::new(0.5, 0.5, 0.5), u32::MAX)];
        let bucket = Aabb::bounding(targets.iter().map(|t| t.0)).unwrap();
        let mac = BarnesHutMac::new(0.67);
        gather_group_targets(&tree, &[], &bucket, &mac, &mut buf);
        let mut calls = 0;
        let each = |_, phi, acc, it| {
            calls += 1;
            assert_eq!((phi, acc, it), (0.0, Vec3::ZERO, 0));
        };
        eval_gathered_targets(&tree, &[], &targets, &mac, EPS, &buf, each);
        assert_eq!(calls, 1);
    }

    #[test]
    fn empty_and_tiny_trees() {
        let tree = build(&[], BuildParams::default());
        let mut buf = InteractionBuffers::new();
        assert_eq!(leaf_schedule(&tree).len(), 0);

        let set = uniform_cube(1, 1.0, 1);
        let tree = build(&set.particles, BuildParams::default());
        let leaves = leaf_schedule(&tree);
        assert_eq!(leaves.len(), 1);
        let mac = BarnesHutMac::new(0.67);
        let mut calls = 0;
        let st =
            eval_unit(&tree, &set.particles, leaves[0], &mac, &mut buf, |_, phi, acc, inter| {
                calls += 1;
                assert_eq!(phi, 0.0);
                assert_eq!(acc, Vec3::ZERO);
                assert_eq!(inter, 0);
            });
        assert_eq!(calls, 1);
        assert_eq!(st.interactions(), 0);
    }

    /// The schedule's contract on `tree` under `mask`, checked against the
    /// tree itself: the units tile `tree.order` in Morton order, each is a
    /// maximal subtree within the cap (or an unsplittable leaf above it),
    /// and the active schedule is the full one filtered by the mask.
    fn assert_schedule_contract(tree: &Tree, mask: &[bool]) {
        let units = leaf_schedule(tree);
        let mut parent = vec![None; tree.len()];
        for id in 0..tree.len() as NodeId {
            for c in tree.children_of(id) {
                parent[c as usize] = Some(id);
            }
        }
        let mut cursor = 0;
        for &u in &units {
            let n = tree.node(u);
            assert!(n.count() > 0, "unit {u} is empty");
            assert_eq!(n.start, cursor, "unit {u} does not continue the Morton run");
            cursor = n.end;
            assert!(n.count() <= UNIT_TARGETS || n.is_leaf(), "unit {u} exceeds the cap");
            if let Some(up) = parent[u as usize] {
                assert!(tree.node(up).count() > UNIT_TARGETS, "unit {u} is not maximal");
            }
        }
        assert_eq!(cursor as usize, tree.order.len(), "units must cover tree.order");
        let filtered: Vec<NodeId> = units
            .iter()
            .copied()
            .filter(|&u| tree.particles_under(u).iter().any(|&pi| mask[pi as usize]))
            .collect();
        assert_eq!(leaf_schedule_active(tree, mask), filtered);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn schedule_units_tile_the_morton_order(
            n in 0usize..700,
            s in 1usize..2 * UNIT_TARGETS as usize,
            seed in 0u64..1000,
            coincident: bool,
            stride in 1usize..9,
        ) {
            let mut set = uniform_cube(n, 1.0, seed);
            if coincident {
                // One depth-capped leaf holding everything: above the cap
                // whenever n is.
                for p in &mut set.particles {
                    p.pos = Vec3::new(0.25, 0.5, 0.75);
                }
            }
            let tree = build(&set.particles, BuildParams::with_leaf_capacity(s));
            let mask: Vec<bool> = (0..n).map(|i| i % stride == 0).collect();
            assert_schedule_contract(&tree, &mask);
            assert_schedule_contract(&tree, &vec![false; n]);
        }
    }

    #[test]
    fn schedule_edge_cases() {
        // n = 0 and n = 1.
        let tree = build(&[], BuildParams::default());
        assert_schedule_contract(&tree, &[]);
        assert!(leaf_schedule(&tree).is_empty());
        let one = uniform_cube(1, 1.0, 1);
        let tree = build(&one.particles, BuildParams::default());
        assert_schedule_contract(&tree, &[true]);
        assert_eq!(leaf_schedule(&tree).len(), 1);
        // All-coincident points: the depth cap leaves one leaf above the
        // unit cap, which stays a unit of its own — and still evaluates.
        let cap = UNIT_TARGETS as usize;
        let mut heap = uniform_cube(cap + 18, 1.0, 2);
        for p in &mut heap.particles {
            p.pos = Vec3::new(0.5, 0.5, 0.5);
        }
        let tree = build(&heap.particles, BuildParams::with_leaf_capacity(8));
        let units = leaf_schedule(&tree);
        assert_eq!(units.len(), 1);
        assert!(tree.node(units[0]).is_leaf() && tree.node(units[0]).count() as usize == cap + 18);
        assert_group_matches_per_particle(&heap, &BarnesHutMac::new(0.67), 8);
        // leaf_capacity above the cap: full leaves are units, never split.
        let set = plummer(PlummerSpec { n: 900, seed: 3, ..Default::default() });
        let tree = build(&set.particles, BuildParams::with_leaf_capacity(2 * cap));
        assert_schedule_contract(&tree, &vec![true; set.len()]);
        assert!(leaf_schedule(&tree).iter().any(|&u| tree.node(u).count() > UNIT_TARGETS));
        assert_group_matches_per_particle(&set, &BarnesHutMac::new(0.67), 2 * cap);
        // And the default shape: units span several leaves, so there are
        // far fewer walks than leaves.
        let tree = build(&set.particles, BuildParams::with_leaf_capacity(8));
        let units = leaf_schedule(&tree);
        assert!(units.iter().any(|&u| !tree.node(u).is_leaf()));
        assert!(units.len() * 2 < tree.leaf_count(), "{} units", units.len());
    }

    /// Every observable of two gathers must match bitwise: slab contents
    /// (logical and padding), ids, counters, flags.
    fn assert_buffers_bitwise(a: &InteractionBuffers, b: &InteractionBuffers, ctx: &str) {
        assert_eq!(a.node_ids, b.node_ids, "{ctx}: node_ids");
        assert_eq!(a.com_x.padded(), b.com_x.padded(), "{ctx}: com_x");
        assert_eq!(a.com_y.padded(), b.com_y.padded(), "{ctx}: com_y");
        assert_eq!(a.com_z.padded(), b.com_z.padded(), "{ctx}: com_z");
        assert_eq!(a.node_mass.padded(), b.node_mass.padded(), "{ctx}: node_mass");
        assert_eq!(a.px.padded(), b.px.padded(), "{ctx}: px");
        assert_eq!(a.py.padded(), b.py.padded(), "{ctx}: py");
        assert_eq!(a.pz.padded(), b.pz.padded(), "{ctx}: pz");
        assert_eq!(a.pmass.padded(), b.pmass.padded(), "{ctx}: pmass");
        assert_eq!(a.pid.padded(), b.pid.padded(), "{ctx}: pid");
        assert_eq!(a.direct, b.direct, "{ctx}: direct leaves");
        assert_eq!(a.mixed, b.mixed, "{ctx}: mixed roots");
        assert_eq!(a.shared_mac_tests, b.shared_mac_tests, "{ctx}: shared_mac_tests");
        assert_eq!(a.class_reject, b.class_reject, "{ctx}: class_reject");
        assert_eq!(a.nodes_opened, b.nodes_opened, "{ctx}: nodes_opened");
        assert_eq!(a.unit, b.unit, "{ctx}: unit range");
        assert_eq!(a.self_cover, b.self_cover, "{ctx}: self_cover");
    }

    /// A [`GroupSweep`] over `units`, in that order, must leave after every
    /// unit exactly the buffers a one-shot [`gather_group`] of it leaves.
    /// Returns the ancestor levels the sweep reused.
    fn assert_sweep_is_one_shot(
        tree: &Tree,
        ps: &[Particle],
        mac: &BarnesHutMac,
        units: &[NodeId],
        ctx: &str,
    ) -> usize {
        let (mut swept, mut fresh) = (InteractionBuffers::new(), InteractionBuffers::new());
        let mut sweep = GroupSweep::new(tree, ps, mac, &mut swept);
        let mut reused = 0;
        for (i, &unit) in units.iter().enumerate() {
            let held = sweep.buf.depth;
            let members = sweep.gather(unit);
            assert_eq!(members, gather_group(tree, ps, unit, mac, &mut fresh), "{ctx}: members");
            let ctx = format!("{ctx}: unit {unit} (#{i})");
            assert_buffers_bitwise(sweep.buffers(), &fresh, &ctx);
            // The one-shot chain is the whole chain: what the sweep kept of
            // the previous unit's plus what it walked.
            assert_eq!(sweep.buf.depth, fresh.depth, "{ctx}: chain depth");
            reused += held.min(sweep.buf.depth);
        }
        reused
    }

    /// Move particles under a tree that stays as built: every particle by up
    /// to `scale` (at 1e-4 a member stays inside its parent's cell), and with
    /// `far` every `far`-th one right out of it.
    fn drift(particles: &mut [Particle], k: u64, scale: f64, far: Option<usize>) {
        for (i, p) in particles.iter_mut().enumerate() {
            let s = scale * ((i as u64 * 37 + k * 101) % 13) as f64;
            p.pos += Vec3::new(s, -0.5 * s, 0.25 * s);
            if far.is_some_and(|every| i % every == 0) {
                p.pos += Vec3::new(0.9, -0.7, 0.8);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]
        #[test]
        fn sweep_leaves_the_one_shot_buffers_after_every_unit(
            n in 0usize..600,
            s in 1usize..24,
            seed in 0u64..1000,
            coincident: bool,
            stride in 1usize..6,
            alpha_pick in 0usize..3,
            drifted in 0usize..3,
        ) {
            let mut set = plummer(PlummerSpec { n, seed, ..Default::default() });
            if coincident {
                for p in &mut set.particles {
                    p.pos = Vec3::new(0.25, 0.5, 0.75);
                }
            }
            let tree = build(&set.particles, BuildParams::with_leaf_capacity(s));
            // The tree is the one built above; the particles may have moved
            // since, a little (the chain holds) or out of their parent's cell
            // (the unit is walked from the root).
            match drifted {
                0 => {}
                1 => drift(&mut set.particles, seed, 1e-4, None),
                _ => drift(&mut set.particles, seed, 1e-4, Some(stride + 6)),
            }
            let ps = &set.particles;
            let units = leaf_schedule(&tree);
            let mask: Vec<bool> = (0..n).map(|i| (i + seed as usize).is_multiple_of(stride)).collect();
            let orders: [(&str, Vec<NodeId>); 5] = [
                ("in order", units.clone()),
                ("skipping", units.iter().copied().step_by(stride).collect()),
                ("active", leaf_schedule_active(&tree, &mask)),
                ("reversed", units.iter().rev().copied().collect()),
                // Any node is a unit: the root (no ancestors), internal
                // nodes, a node right after its own ancestor or descendant.
                ("every node", (0..tree.len() as NodeId).step_by(stride).collect()),
            ];
            let alpha = [0.4, 0.67, 1.0][alpha_pick];
            for (name, order) in &orders {
                let ctx = format!("n {n} s {s} seed {seed} drifted {drifted} {name}");
                assert_sweep_is_one_shot(&tree, ps, &BarnesHutMac::new(alpha), order, &ctx);
            }
        }
    }

    #[test]
    fn sweep_edge_cases() {
        let mac = BarnesHutMac::new(0.67);
        // n = 0: nothing to schedule, and any gather is empty.
        let tree = build(&[], BuildParams::default());
        assert_sweep_is_one_shot(&tree, &[], &mac, &[0, 0], "empty tree");
        // n = 1 and a unit that is the root: no ancestors, no chain.
        for n in [1, 20] {
            let set = uniform_cube(n, 1.0, 3);
            let tree = build(&set.particles, BuildParams::default());
            assert_eq!(leaf_schedule(&tree), [0], "n = {n}: the root is the only unit");
            let reused = assert_sweep_is_one_shot(&tree, &set.particles, &mac, &[0, 0], "root");
            assert_eq!(reused, 0);
        }
        // All-coincident points: one depth-capped leaf above the unit cap.
        let mut heap = uniform_cube(50, 1.0, 2);
        for p in &mut heap.particles {
            p.pos = Vec3::new(0.5, 0.5, 0.5);
        }
        let tree = build(&heap.particles, BuildParams::with_leaf_capacity(8));
        let units = leaf_schedule(&tree);
        assert_sweep_is_one_shot(&tree, &heap.particles, &mac, &units, "coincident");
        // And the shape the sweep is for: a clustered set, where consecutive
        // units share most of their ancestors.
        let set = plummer(PlummerSpec { n: 3000, seed: 5, ..Default::default() });
        let tree = build(&set.particles, BuildParams::default());
        let units = leaf_schedule(&tree);
        let reused = assert_sweep_is_one_shot(&tree, &set.particles, &mac, &units, "plummer");
        assert!(reused > 2 * units.len(), "only {reused} levels reused over {} units", units.len());
        // The same under particles that drifted a little since the build:
        // the chain is still what is reused. Thrown far out of their cells,
        // those units lose it.
        let mut ps = set.particles.clone();
        drift(&mut ps, 1, 1e-4, None);
        let near = assert_sweep_is_one_shot(&tree, &ps, &mac, &units, "small drift");
        assert!(near > 2 * units.len(), "only {near} levels reused after a small drift");
        drift(&mut ps, 2, 1e-4, Some(3));
        let far = assert_sweep_is_one_shot(&tree, &ps, &mac, &units, "large drift");
        assert!(far < near, "{far} levels reused with a third of the particles thrown out");
    }

    /// What the chain settles is what one walk from the root against the
    /// unit's tight box settles: the same accepted nodes, direct leaves and
    /// counters, and the same mixed roots in the same order — only the rows
    /// of the shared slabs come in level order.
    #[test]
    fn chain_settles_exactly_what_the_single_bucket_walk_settles() {
        fn check(mac: &BarnesHutMac, name: &str) {
            let set = plummer(PlummerSpec { n: 2500, seed: 77, ..Default::default() });
            let ps = &set.particles;
            let tree = build(ps, BuildParams::with_leaf_capacity(8));
            let (mut chain, mut single) = (InteractionBuffers::new(), InteractionBuffers::new());
            let (mut levels, mut reordered) = (0, 0);
            // Schedule units, then every seventh node as a unit of its own.
            let units = leaf_schedule(&tree);
            for unit in units.into_iter().chain((0..tree.len() as NodeId).step_by(7)) {
                gather_group(&tree, ps, unit, mac, &mut chain);
                let tight = Aabb::bounding(
                    tree.particles_under(unit).iter().map(|&pi| ps[pi as usize].pos),
                )
                .expect("every node of a built tree holds a particle");
                gather_group_targets(&tree, ps, &tight, mac, &mut single);
                let ctx = format!("{name} unit {unit}");
                let sorted = |ids: &[NodeId]| {
                    let mut ids = ids.to_vec();
                    ids.sort_unstable();
                    ids
                };
                assert_eq!(sorted(&chain.node_ids), sorted(&single.node_ids), "{ctx}: accepted");
                assert_eq!(sorted(&chain.direct), sorted(&single.direct), "{ctx}: direct leaves");
                assert_eq!(chain.mixed, single.mixed, "{ctx}: mixed roots");
                assert_eq!(chain.px.len(), single.px.len(), "{ctx}: near-field particles");
                assert_eq!(chain.shared_mac_tests, single.shared_mac_tests, "{ctx}: mac tests");
                assert_eq!(chain.class_reject, single.class_reject, "{ctx}: rejects");
                assert_eq!(chain.nodes_opened, single.nodes_opened, "{ctx}: opened");
                levels += chain.depth;
                reordered += usize::from(chain.node_ids != single.node_ids);
            }
            assert!(levels > 0, "{name}: no unit had an ancestor level");
            assert!(reordered > 0, "{name}: the chain never changed the row order");
        }
        for alpha in [0.4, 0.67, 1.0] {
            check(&BarnesHutMac::new(alpha), &format!("bh {alpha}"));
        }
    }

    /// The unit's parent, found the way [`GroupSweep::gather`] descends:
    /// by `order` range from the root. `None` for the root.
    fn parent_of(tree: &Tree, unit: NodeId) -> Option<NodeId> {
        let node = tree.node(unit);
        let mut cur = 0;
        while cur != unit {
            let below = tree.children_of(cur).find(|&c| {
                let c = tree.node(c);
                c.start <= node.start && node.end <= c.end
            })?;
            if below == unit {
                return Some(cur);
            }
            cur = below;
        }
        None
    }

    /// The fallback is live on trees built from the very positions they
    /// hold: the build sorts by quantized Morton key, and where that
    /// disagrees with the float midpoints of the cells a body lands in a
    /// cell that misses it by about an ulp. Such a unit is not nested in its
    /// parent's cell; search for one in fresh builds and hold the sweep there
    /// to the one-shot gather.
    #[test]
    fn a_fresh_build_can_leave_a_unit_outside_its_parents_cell() {
        let sets = [
            ("plummer", plummer(PlummerSpec { n: 50_000, seed: 1, ..Default::default() })),
            ("uniform", uniform_cube(50_000, 1.0, 1)),
        ];
        let mac = BarnesHutMac::new(0.67);
        let mut found = 0;
        for (name, set) in &sets {
            let ps = &set.particles;
            let tree = build(ps, BuildParams::default());
            let units = leaf_schedule(&tree);
            let outside: Vec<NodeId> = units
                .iter()
                .copied()
                .filter(|&u| {
                    let members = tree.particles_under(u).iter().map(|&pi| ps[pi as usize].pos);
                    let tight = Aabb::bounding(members).expect("a unit holds a particle");
                    parent_of(&tree, u).is_some_and(|p| !tree.cell(p).contains_box(&tight))
                })
                .collect();
            let (mut swept, mut fresh) = (InteractionBuffers::new(), InteractionBuffers::new());
            let mut sweep = GroupSweep::new(&tree, ps, &mac, &mut swept);
            for &u in &units {
                sweep.gather(u);
                if outside.contains(&u) {
                    gather_group(&tree, ps, u, &mac, &mut fresh);
                    assert_buffers_bitwise(sweep.buffers(), &fresh, &format!("{name} unit {u}"));
                    assert_eq!(sweep.buf.depth, 0, "{name} unit {u}: no chain kept");
                }
            }
            found += outside.len();
        }
        assert!(found > 0, "no fresh build left a unit outside its parent's cell");
    }

    /// A member that left its parent's cell since the tree was built breaks
    /// the nesting the chain relies on; its unit takes the single-level walk
    /// against the tight box — and stays exact per member on the stale tree.
    #[test]
    fn a_member_outside_its_parents_cell_takes_the_single_level_walk() {
        let set = plummer(PlummerSpec { n: 1500, seed: 83, ..Default::default() });
        let mut ps = set.particles.clone();
        let tree = build(&ps, BuildParams::with_leaf_capacity(8));
        let mac = BarnesHutMac::new(0.67);
        let units = leaf_schedule(&tree);
        let at = units.len() / 2;
        let unit = units[at];
        let moved = tree.particles_under(unit)[0] as usize;
        ps[moved].pos += Vec3::new(0.9, -0.7, 0.8);
        let (mut swept, mut fresh, mut single) =
            (InteractionBuffers::new(), InteractionBuffers::new(), InteractionBuffers::new());
        let mut sweep = GroupSweep::new(&tree, &ps, &mac, &mut swept);
        let mut fell_back = false;
        for &u in &units[at - 3..at + 3] {
            sweep.gather(u);
            gather_group(&tree, &ps, u, &mac, &mut fresh);
            assert_buffers_bitwise(sweep.buffers(), &fresh, &format!("unit {u}"));
            if u == unit {
                // Row for row the walk of the tight box alone, no chain kept.
                let tight =
                    Aabb::bounding(tree.particles_under(u).iter().map(|&pi| ps[pi as usize].pos));
                gather_group_targets(&tree, &ps, &tight.unwrap(), &mac, &mut single);
                assert_eq!(sweep.buf.depth, 0);
                assert_eq!(sweep.buffers().node_ids, single.node_ids);
                assert_eq!(sweep.buffers().pid.padded(), single.pid.padded());
                assert_eq!(sweep.buffers().mixed, single.mixed);
                fell_back = true;
            } else {
                assert!(sweep.buf.depth > 0, "unit {u} has ancestors to share");
            }
            let emit = |pi: u32, phi: f64, acc: Vec3, it: u64| {
                let p = &ps[pi as usize];
                let (acc_ref, st) = accel_on(&tree, &ps, p.pos, Some(p.id), &mac, EPS);
                let (phi_ref, _) = potential_at(&tree, &ps, p.pos, Some(p.id), &mac, EPS);
                assert_eq!(it, st.interactions(), "particle {pi}: interactions");
                assert!((phi - phi_ref).abs() <= 1e-12 * phi_ref.abs().max(1.0), "particle {pi}");
                assert!(acc.dist(acc_ref) <= 1e-12 * acc_ref.norm().max(1.0), "particle {pi}");
            };
            let f64s = KernelPrecision::F64;
            eval_gathered_monopole_masked(
                &tree,
                &ps,
                u,
                &mac,
                EPS,
                f64s,
                sweep.buffers(),
                None,
                emit,
            );
        }
        assert!(fell_back);
    }

    /// What a walk settles against one bucket, by the plain recursion of §2:
    /// test a node, open it on RejectAll by recursing into
    /// [`Tree::children_of`], with one scalar [`BarnesHutMac::classify`] per
    /// node of two or more particles.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Settled {
        accepted: Vec<NodeId>,
        /// The particle ids appended for direct interaction.
        direct: Vec<u32>,
        mixed: Vec<NodeId>,
        shared_mac_tests: u64,
        class_reject: u64,
        nodes_opened: u64,
    }

    impl Settled {
        /// The recursion from the root of `tree` against `bucket`.
        fn from_root(tree: &Tree, ps: &[Particle], bucket: &Aabb, mac: &BarnesHutMac) -> Self {
            let mut out = Settled::default();
            if !tree.is_empty() {
                out.settle(tree, ps, 0, bucket, mac);
            }
            out
        }

        fn settle(
            &mut self,
            tree: &Tree,
            ps: &[Particle],
            id: NodeId,
            b: &Aabb,
            mac: &BarnesHutMac,
        ) {
            let node = tree.node(id);
            let under = tree.particles_under(id).iter().map(|&pi| ps[pi as usize].id);
            match node.count() {
                0 => {}
                1 => self.direct.extend(under),
                _ => match mac.classify(node.side, node.com, b) {
                    GroupClass::AcceptAll => {
                        self.shared_mac_tests += 1;
                        self.accepted.push(id);
                    }
                    GroupClass::RejectAll => {
                        self.shared_mac_tests += 1;
                        self.class_reject += 1;
                        if node.is_leaf() {
                            self.direct.extend(under);
                        } else {
                            self.nodes_opened += 1;
                            for c in tree.children_of(id) {
                                self.settle(tree, ps, c, b, mac);
                            }
                        }
                    }
                    GroupClass::Mixed => self.mixed.push(id),
                },
            }
        }

        /// What `buf` holds, in slab order.
        fn of(buf: &InteractionBuffers) -> Self {
            Settled {
                accepted: buf.node_ids.clone(),
                direct: buf.pid.to_vec(),
                mixed: buf.mixed.clone(),
                shared_mac_tests: buf.shared_mac_tests,
                class_reject: buf.class_reject,
                nodes_opened: buf.nodes_opened,
            }
        }

        /// The same, with the slab rows sorted: a chain fills them by level.
        fn sorted(mut self) -> Self {
            self.accepted.sort_unstable();
            self.direct.sort_unstable();
            self
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// Every gather settles what the plain recursion settles against the
        /// unit's tight box — the accepted nodes, the direct particles, the
        /// mixed roots in order and every counter — for one-shot gathers and
        /// for a sweep over the schedule, and a single-bucket gather fills
        /// its slabs in the recursion's order row for row. On the builder
        /// shapes that stress the arena: negative, mixed-sign and massless
        /// bodies, coincident points chained down to the depth cap, forced
        /// split levels, and extents of 1e±150.
        #[test]
        fn gathers_settle_what_the_recursive_classification_settles(
            s_at in 0usize..4,
            n_at in 0usize..5,
            shape in 0usize..8,
            extent_at in 0usize..3,
            forced in 0u32..3,
            collapse: bool,
            incremental: bool,
            alpha_pick in 0usize..3,
            seed in 0u64..1000,
        ) {
            let s = [1, 2, 8, 16][s_at];
            let n = [0, 1, 2, 9, 600][n_at];
            let extent = [1.0, 1e150, 1e-150][extent_at];
            let params = BuildParams { leaf_capacity: s, collapse, min_split_level: 2 * forced };
            let ps = crate::build::tests::shaped(shape, n, seed, extent);
            let cell = Aabb::cube(Vec3::splat(0.375 * extent), 1.5 * extent);
            let tree = if incremental {
                crate::build::build_incremental(&ps, cell, params)
            } else {
                build(&ps, params)
            };
            let mac = BarnesHutMac::new([0.4, 0.67, 1.0][alpha_pick]);
            let (mut swept, mut fresh) = (InteractionBuffers::new(), InteractionBuffers::new());
            let mut sweep = GroupSweep::new(&tree, &ps, &mac, &mut swept);
            for unit in leaf_schedule(&tree) {
                let members = tree.particles_under(unit).iter().map(|&pi| ps[pi as usize].pos);
                let tight = Aabb::bounding(members).expect("a unit holds a particle");
                let want = Settled::from_root(&tree, &ps, &tight, &mac);
                let by_row = want.clone().sorted();
                let ctx = format!("n {n} s {s} shape {shape} extent {extent:e} unit {unit}");
                sweep.gather(unit);
                let got = Settled::of(sweep.buffers()).sorted();
                proptest::prop_assert_eq!(&got, &by_row, "{}: sweep", ctx);
                gather_group(&tree, &ps, unit, &mac, &mut fresh);
                let got = Settled::of(&fresh).sorted();
                proptest::prop_assert_eq!(&got, &by_row, "{}: one-shot", ctx);
                gather_group_targets(&tree, &ps, &tight, &mac, &mut fresh);
                proptest::prop_assert_eq!(&Settled::of(&fresh), &want, "{}: single bucket", ctx);
            }
        }
    }
}
