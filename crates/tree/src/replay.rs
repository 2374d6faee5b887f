//! Lane-parallel replay of a gather's mixed frontier, fused with the
//! evaluation.
//!
//! A grouped gather ([`crate::group`]) leaves the subtrees its bucket
//! straddles as *mixed roots*: below them every target needs its own walk.
//! This module makes those walks for up to [`REPLAY_LANES`] targets at once
//! and evaluates what they find on the spot. The targets sit in
//! structure-of-arrays lane columns (position, skip id, the running
//! `ax ay az φ`, and the three [`TraversalStats`] counters); one depth-first
//! traversal per mixed root carries a `u32` mask of the lanes still
//! descending. At a node the live lanes take the multipole acceptance test;
//! the lanes that accept accumulate the node's monopole right there and drop
//! out, the others descend, and a leaf's (or a singleton's) particles
//! interact with the lanes that reached them, each lane leaving out its own
//! skip id. Nothing is written down between deciding and computing: no
//! interaction rows, no per-target tail slabs, nothing for a kernel to load
//! back.
//!
//! **One pass per lane chunk.** The α-criterion and a monopole interaction
//! start from the same `d = com − p` and `|d|²`. So the node step forms `d`
//! and `d² = (dx² + dy²) + dz²` once per chunk with a live lane, decides the
//! lanes as `side² < α²·d²` with `α² = α·α` ([`BarnesHutMac::alpha`]) —
//! [`BarnesHutMac::accept`]'s operands in its order — and runs the
//! arithmetic on `r² = d² + ε²` only in chunks where a lane accepted.
//!
//! **The walk is forward through the arena.** Every builder lays the arena
//! out in preorder, so a subtree is the id range `id..next`
//! ([`crate::Node::next`]). A root's subtree is walked from `root` to its
//! `next`: a node whose lanes all stop there (accepted, a leaf, a singleton)
//! jumps to its `next`; a node some lanes descend into goes on at `id + 1`,
//! its first child, and pushes a frame (its `next`, the descending lanes)
//! that is dropped when the walk reaches that `next`. Nothing is pushed per
//! child, and the nodes come in the order a depth-first stack visits them.
//!
//! Per lane this makes exactly the decisions of
//! [`crate::traverse::for_each_interaction_from`] from every mixed root —
//! the same [`BarnesHutMac::accept`] on the same operands — in the same
//! depth-first order, and a lane's sums are a sequential fold over its own
//! walk, never reduced across lanes. So a target's result does not depend
//! on its lane, on the other lanes or on how full the chunk is, which is
//! what keeps a masked sweep a bitwise restriction of the full one.
//!
//! The traversal is written once, generic over the lane arithmetic, and
//! instantiated per instruction set like the slab kernels ([`crate::kernel`]),
//! dispatched by [`bhut_simd::isa`]:
//!
//! * a **portable** body — safe code that visits the set bits of a mask and
//!   nothing else (whole-chunk scalar arithmetic on dead lanes costs more
//!   than the walk it replaces). It is the reference, and the only body
//!   under `force-scalar` or off x86_64;
//! * **AVX2** and **AVX-512** bodies in intrinsics, four and eight lanes per
//!   chunk, computing only the chunks with a bit set and masking the
//!   accumulation. Letting LLVM vectorize the portable lane loop inside a
//!   `#[target_feature]` clone was measured and left scalar code, as
//!   [`crate::kernel`] found for the slabs.
//!
//! The vector bodies perform, lane for lane, the portable body's IEEE
//! operations in its order — the slab kernels' per-interaction sequence:
//! unfused multiply/add, `+ ε²`, the [`R2_FLOOR_F64`] clamp,
//! [`bhut_simd::rsqrt_nr_f64`], `m·inv`, `·inv·inv` — so the three agree to
//! the bit and dispatch changes speed only.

use crate::mac::BarnesHutMac;
use crate::node::{NodeId, Tree};
use crate::traverse::TraversalStats;
use bhut_geom::{Particle, Vec3};
use bhut_simd::{rsqrt_nr_f64, Isa, R2_FLOOR_F64};

/// Targets one replay carries: the bits of its lane mask.
pub const REPLAY_LANES: usize = u32::BITS as usize;

/// The positions of up to [`REPLAY_LANES`] targets, one column per axis.
/// Lanes past the loaded targets hold finite leftovers and are never named
/// by a mask.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
struct LanePoints {
    x: [f64; REPLAY_LANES],
    y: [f64; REPLAY_LANES],
    z: [f64; REPLAY_LANES],
}

/// The lane columns the kernels work on.
#[derive(Clone)]
#[repr(C, align(64))]
struct Columns {
    pts: LanePoints,
    ax: [f64; REPLAY_LANES],
    ay: [f64; REPLAY_LANES],
    az: [f64; REPLAY_LANES],
    phi: [f64; REPLAY_LANES],
    /// A lane's [`TraversalStats`] since the last clear. `u32` holds them: a
    /// lane tests a node and meets a particle at most once per replay, and
    /// node and particle ids are `u32`.
    mac_tests: [u32; REPLAY_LANES],
    p2n: [u32; REPLAY_LANES],
    p2p: [u32; REPLAY_LANES],
    /// The particle id each lane leaves out (`u32::MAX`: none).
    skip: [u32; REPLAY_LANES],
    /// Lanes the interaction arithmetic ran on: whole chunks in the vector
    /// bodies, the interacting lanes alone in the portable one.
    slots: u64,
}

/// Up to [`REPLAY_LANES`] targets and what their replays have summed.
pub(crate) struct ReplayLanes {
    cols: Columns,
    len: usize,
    /// The walk's open subtrees, innermost last: (the id past the subtree,
    /// the lanes descending through it).
    frames: Vec<(NodeId, u32)>,
}

impl ReplayLanes {
    pub(crate) fn new() -> Self {
        const F: [f64; REPLAY_LANES] = [0.0; REPLAY_LANES];
        const N: [u32; REPLAY_LANES] = [0; REPLAY_LANES];
        ReplayLanes {
            cols: Columns {
                pts: LanePoints { x: F, y: F, z: F },
                ax: F,
                ay: F,
                az: F,
                phi: F,
                mac_tests: N,
                p2n: N,
                p2p: N,
                skip: [u32::MAX; REPLAY_LANES],
                slots: 0,
            },
            len: 0,
            frames: Vec::new(),
        }
    }

    /// Drop the targets and zero their sums; the lane-slot counts run on.
    pub(crate) fn clear(&mut self) {
        let c = &mut self.cols;
        for col in [&mut c.ax, &mut c.ay, &mut c.az, &mut c.phi] {
            col[..self.len].fill(0.0);
        }
        for col in [&mut c.mac_tests, &mut c.p2n, &mut c.p2p] {
            col[..self.len].fill(0);
        }
        self.len = 0;
    }

    /// Seat a target in the next lane.
    ///
    /// # Panics
    /// If all [`REPLAY_LANES`] lanes are taken.
    pub(crate) fn push(&mut self, pos: Vec3, skip: u32) {
        let (l, c) = (self.len, &mut self.cols);
        (c.pts.x[l], c.pts.y[l], c.pts.z[l], c.skip[l]) = (pos.x, pos.y, pos.z, skip);
        self.len += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Lane `l`'s target: position and skip id.
    pub(crate) fn target(&self, l: usize) -> (Vec3, u32) {
        let c = &self.cols;
        (Vec3::new(c.pts.x[l], c.pts.y[l], c.pts.z[l]), c.skip[l])
    }

    /// What lane `l` has accumulated: acceleration and potential.
    pub(crate) fn sums(&self, l: usize) -> (Vec3, f64) {
        let c = &self.cols;
        (Vec3::new(c.ax[l], c.ay[l], c.az[l]), c.phi[l])
    }

    /// What lane `l`'s walks counted.
    pub(crate) fn stats(&self, l: usize) -> TraversalStats {
        let c = &self.cols;
        TraversalStats {
            p2n: c.p2n[l].into(),
            p2p: c.p2p[l].into(),
            mac_tests: c.mac_tests[l].into(),
        }
    }

    /// Take and zero the count of lane slots the replays computed; the
    /// useful ones among them are the lanes' interactions.
    pub(crate) fn take_lane_slots(&mut self) -> u64 {
        std::mem::take(&mut self.cols.slots)
    }

    /// Replay the subtrees under `roots` for the seated targets, adding to
    /// their sums and counters, in the slab kernels' f64 sequence through
    /// the body of the dispatched tier.
    pub(crate) fn replay(
        &mut self,
        tree: &Tree,
        particles: &[Particle],
        roots: &[NodeId],
        mac: &BarnesHutMac,
        eps: f64,
    ) {
        // SAFETY: `isa()` names a tier only after detecting it.
        unsafe { self.replay_on(bhut_simd::isa(), tree, particles, roots, mac, eps * eps) }
    }

    /// The replay through the body of one tier.
    ///
    /// # Safety
    /// The CPU must support `tier` (AVX2 and FMA for [`Isa::Avx2`], AVX-512F
    /// on top for [`Isa::Avx512`]).
    unsafe fn replay_on(
        &mut self,
        tier: Isa,
        tree: &Tree,
        particles: &[Particle],
        roots: &[NodeId],
        mac: &BarnesHutMac,
        eps2: f64,
    ) {
        match tier {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => avx512::replay(self, tree, particles, roots, mac, eps2),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => avx2::replay(self, tree, particles, roots, mac, eps2),
            _ => run::<Portable>(self, tree, particles, roots, mac, eps2),
        }
    }
}

/// The lane arithmetic of one instruction-set tier: what the traversal does
/// to the lane columns at the two kinds of source it meets. Every body
/// leaves in a lane exactly what [`Portable`] leaves.
///
/// # Safety
/// The functions may only run on a CPU that supports the implementor's
/// tier.
trait LaneKernel {
    /// A tested node: charge one MAC test to every lane of `live`,
    /// accumulate the monopole `m` at `com` into the lanes of `live` that
    /// accept it — `s2 < a2·d²`, the node's `side²` against `α²` times the
    /// lane's `d² = (dx² + dy²) + dz²` of `d = com − p` — counting it as
    /// their node interaction, and return those lanes.
    unsafe fn node(
        cols: &mut Columns,
        com: Vec3,
        m: f64,
        eps2: f64,
        live: u32,
        s2: f64,
        a2: f64,
    ) -> u32;

    /// A particle reached directly: accumulate `q` into the lanes of `mask`
    /// that do not skip its id, counting it as their particle interaction.
    unsafe fn particle(cols: &mut Columns, q: &Particle, eps2: f64, mask: u32);
}

/// The one traversal: replay every root for the lanes `0..lanes.len`,
/// forward through each root's preorder id range.
///
/// # Safety
/// The CPU must support `K`'s tier.
#[inline(always)]
unsafe fn run<K: LaneKernel>(
    lanes: &mut ReplayLanes,
    tree: &Tree,
    particles: &[Particle],
    roots: &[NodeId],
    mac: &BarnesHutMac,
    eps2: f64,
) {
    if lanes.len == 0 {
        return;
    }
    let all = u32::MAX >> (REPLAY_LANES - lanes.len);
    // `BarnesHutMac::accept`'s α², formed as it forms it.
    let a2 = mac.alpha * mac.alpha;
    // A local stack keeps its length in a register across the column stores.
    let (cols, mut frames) = (&mut lanes.cols, std::mem::take(&mut lanes.frames));
    // Root by root, in order: a lane still meets its sources in root order.
    for &root in roots {
        // The bottom frame is the root's whole subtree with every lane; the
        // walk is over when it drops.
        frames.push((tree.node(root).next, all));
        let mut id = root;
        while let Some(&(_, live)) = frames.last() {
            let node = tree.node(id);
            // Where the walk goes on: past the subtree unless lanes descend.
            let mut to = node.next;
            match node.count() {
                0 => {}
                // A singleton is a direct interaction, never tested.
                1 => {
                    let pi = tree.order[node.start as usize];
                    K::particle(cols, &particles[pi as usize], eps2, live);
                }
                _ => {
                    let s2 = node.side * node.side;
                    let accept = K::node(cols, node.com, node.mass, eps2, live, s2, a2);
                    let reject = live & !accept;
                    if reject != 0 {
                        if node.is_leaf() {
                            for &pi in tree.particles_under(id) {
                                K::particle(cols, &particles[pi as usize], eps2, reject);
                            }
                        } else {
                            frames.push((node.next, reject));
                            to = id + 1;
                        }
                    }
                }
            }
            id = to;
            while frames.last().is_some_and(|&(end, _)| end == id) {
                frames.pop();
            }
        }
    }
    lanes.frames = frames;
}

/// The safe body: one lane at a time, set bits only.
struct Portable;

impl Portable {
    /// Lane `l`'s `d = src − p` and `|d|² = (dx² + dy²) + dz²`.
    #[inline(always)]
    fn offset(cols: &Columns, l: usize, src: Vec3) -> ([f64; 3], f64) {
        let dx = src.x - cols.pts.x[l];
        let dy = src.y - cols.pts.y[l];
        let dz = src.z - cols.pts.z[l];
        ([dx, dy, dz], dx * dx + dy * dy + dz * dz)
    }

    /// Lane `l` gains the monopole `m` at offset `d`, `r2 = |d|² + ε²`, in
    /// the slab kernels' division-free sequence.
    #[inline(always)]
    fn interact(cols: &mut Columns, l: usize, [dx, dy, dz]: [f64; 3], r2: f64, m: f64) {
        // The clamp in the `maxpd` convention of `bhut_simd::F64s::max`.
        let inv = rsqrt_nr_f64(if r2 > R2_FLOOR_F64 { r2 } else { R2_FLOOR_F64 });
        let im = m * inv;
        let (w, ph) = (im * inv * inv, -im);
        cols.phi[l] += ph;
        cols.ax[l] += dx * w;
        cols.ay[l] += dy * w;
        cols.az[l] += dz * w;
        cols.slots += 1;
    }
}

impl LaneKernel for Portable {
    #[inline(always)]
    unsafe fn node(
        cols: &mut Columns,
        com: Vec3,
        m: f64,
        eps2: f64,
        live: u32,
        s2: f64,
        a2: f64,
    ) -> u32 {
        let (mut rest, mut accept) = (live, 0);
        while rest != 0 {
            let l = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            cols.mac_tests[l] += 1;
            let (d, d2) = Self::offset(cols, l, com);
            if s2 < a2 * d2 {
                accept |= 1 << l;
                Self::interact(cols, l, d, d2 + eps2, m);
                cols.p2n[l] += 1;
            }
        }
        accept
    }

    #[inline(always)]
    unsafe fn particle(cols: &mut Columns, q: &Particle, eps2: f64, mask: u32) {
        let mut rest = mask;
        while rest != 0 {
            let l = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if cols.skip[l] != q.id {
                let (d, d2) = Self::offset(cols, l, q.pos);
                Self::interact(cols, l, d, d2 + eps2, q.mass);
                cols.p2p[l] += 1;
            }
        }
    }
}

/// Four lanes per chunk; every operation the correctly rounded counterpart
/// of [`Portable`]'s, in its order.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{run, Columns, LaneKernel, LanePoints, ReplayLanes, REPLAY_LANES};
    use crate::kernel::avx2::floored_rsqrt_pd;
    use crate::mac::BarnesHutMac;
    use crate::node::{NodeId, Tree};
    use bhut_geom::{Particle, Vec3};
    use core::arch::x86_64::*;

    const CHUNK: usize = 4;

    /// All-ones in the 64-bit lanes named by the low four bits of `bits`.
    #[inline(always)]
    unsafe fn lane_mask(bits: u32) -> __m256i {
        let select = _mm256_set_epi64x(8, 4, 2, 1);
        _mm256_cmpeq_epi64(_mm256_and_si256(_mm256_set1_epi64x(bits as i64), select), select)
    }

    /// `col[l] += 1` for every lane `l` of `mask`, eight counters at a time
    /// (an all-ones lane is −1).
    #[inline(always)]
    unsafe fn bump(col: &mut [u32; REPLAY_LANES], mask: u32) {
        let select = _mm256_set_epi32(128, 64, 32, 16, 8, 4, 2, 1);
        for c in 0..REPLAY_LANES / 8 {
            let bits = _mm256_set1_epi32(((mask >> (8 * c)) & 0xff) as i32);
            let on = _mm256_cmpeq_epi32(_mm256_and_si256(bits, select), select);
            let p = col.as_mut_ptr().add(8 * c) as *mut __m256i;
            _mm256_storeu_si256(p, _mm256_sub_epi32(_mm256_loadu_si256(p), on));
        }
    }

    /// `col[o..o + 4] = v` on the lanes of `on`.
    #[inline(always)]
    unsafe fn store(col: &mut [f64; REPLAY_LANES], o: usize, v: __m256d, on: __m256d) {
        let p = col.as_mut_ptr().add(o);
        _mm256_storeu_pd(p, _mm256_blendv_pd(_mm256_loadu_pd(p), v, on));
    }

    /// `d = src − p` for the four lanes at `o`, and
    /// `|d|² = (dx² + dy²) + dz²`.
    #[inline(always)]
    unsafe fn offset(pts: &LanePoints, o: usize, src: Vec3) -> ([__m256d; 3], __m256d) {
        let dx = _mm256_sub_pd(_mm256_set1_pd(src.x), _mm256_loadu_pd(pts.x.as_ptr().add(o)));
        let dy = _mm256_sub_pd(_mm256_set1_pd(src.y), _mm256_loadu_pd(pts.y.as_ptr().add(o)));
        let dz = _mm256_sub_pd(_mm256_set1_pd(src.z), _mm256_loadu_pd(pts.z.as_ptr().add(o)));
        let d2 = _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
            _mm256_mul_pd(dz, dz),
        );
        ([dx, dy, dz], d2)
    }

    /// The four lanes at `o` named by `on` gain the monopole `m` at offset
    /// `d`, `r2 = |d|² + ε²`.
    #[inline(always)]
    unsafe fn interact(
        cols: &mut Columns,
        o: usize,
        [dx, dy, dz]: [__m256d; 3],
        r2: __m256d,
        m: f64,
        on: __m256i,
    ) {
        let inv = floored_rsqrt_pd(r2);
        let im = _mm256_mul_pd(_mm256_set1_pd(m), inv);
        let w = _mm256_mul_pd(_mm256_mul_pd(im, inv), inv);
        let on = _mm256_castsi256_pd(on);
        let ph = _mm256_sub_pd(_mm256_loadu_pd(cols.phi.as_ptr().add(o)), im);
        store(&mut cols.phi, o, ph, on);
        let ax = _mm256_add_pd(_mm256_loadu_pd(cols.ax.as_ptr().add(o)), _mm256_mul_pd(dx, w));
        store(&mut cols.ax, o, ax, on);
        let ay = _mm256_add_pd(_mm256_loadu_pd(cols.ay.as_ptr().add(o)), _mm256_mul_pd(dy, w));
        store(&mut cols.ay, o, ay, on);
        let az = _mm256_add_pd(_mm256_loadu_pd(cols.az.as_ptr().add(o)), _mm256_mul_pd(dz, w));
        store(&mut cols.az, o, az, on);
        cols.slots += CHUNK as u64;
    }

    /// The four lanes at `o` named by `on` gain the monopole `m` at `src`.
    #[inline(always)]
    unsafe fn accumulate(cols: &mut Columns, o: usize, src: Vec3, m: f64, eps2: f64, on: __m256i) {
        let (d, d2) = offset(&cols.pts, o, src);
        interact(cols, o, d, _mm256_add_pd(d2, _mm256_set1_pd(eps2)), m, on);
    }

    pub(super) struct Avx2;

    impl LaneKernel for Avx2 {
        /// Each chunk with a live lane forms its `d` and `d²` once, for the
        /// test and the arithmetic; only chunks where a lane accepts run
        /// the arithmetic.
        #[inline(always)]
        unsafe fn node(
            cols: &mut Columns,
            com: Vec3,
            m: f64,
            eps2: f64,
            live: u32,
            s2: f64,
            a2: f64,
        ) -> u32 {
            bump(&mut cols.mac_tests, live);
            let (eps2, s2, a2) = (_mm256_set1_pd(eps2), _mm256_set1_pd(s2), _mm256_set1_pd(a2));
            let mut accept = 0;
            for c in 0..REPLAY_LANES / CHUNK {
                let o = CHUNK * c;
                let on = (live >> o) & 0xf;
                if on == 0 {
                    continue;
                }
                let (d, d2) = offset(&cols.pts, o, com);
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(s2, _mm256_mul_pd(a2, d2));
                let bits = _mm256_movemask_pd(lt) as u32 & on;
                if bits != 0 {
                    interact(cols, o, d, _mm256_add_pd(d2, eps2), m, lane_mask(bits));
                    accept |= bits << o;
                }
            }
            bump(&mut cols.p2n, accept);
            accept
        }

        #[inline(always)]
        unsafe fn particle(cols: &mut Columns, q: &Particle, eps2: f64, mask: u32) {
            let id = _mm256_set1_epi32(q.id as i32);
            let mut skipping = 0u32;
            for c in 0..REPLAY_LANES / 8 {
                let ids = _mm256_loadu_si256(cols.skip.as_ptr().add(8 * c) as *const __m256i);
                let eq = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(ids, id)));
                skipping |= (eq as u32) << (8 * c);
            }
            let mask = mask & !skipping;
            bump(&mut cols.p2p, mask);
            for c in 0..REPLAY_LANES / CHUNK {
                let o = CHUNK * c;
                let bits = (mask >> o) & 0xf;
                if bits != 0 {
                    accumulate(cols, o, q.pos, q.mass, eps2, lane_mask(bits));
                }
            }
        }
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn replay(
        lanes: &mut ReplayLanes,
        tree: &Tree,
        particles: &[Particle],
        roots: &[NodeId],
        mac: &BarnesHutMac,
        eps2: f64,
    ) {
        run::<Avx2>(lanes, tree, particles, roots, mac, eps2)
    }

    /// [`Avx2`]'s node step compiled for its tier, for the tests.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[cfg(test)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn node(
        cols: &mut Columns,
        com: Vec3,
        m: f64,
        eps2: f64,
        live: u32,
        s2: f64,
        a2: f64,
    ) -> u32 {
        Avx2::node(cols, com, m, eps2, live, s2, a2)
    }
}

/// Eight lanes per chunk, accumulation under a mask register; the same
/// operations as [`avx2`] at twice the width.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{run, Columns, LaneKernel, LanePoints, ReplayLanes, REPLAY_LANES};
    use crate::kernel::avx512::floored_rsqrt_pd8;
    use crate::mac::BarnesHutMac;
    use crate::node::{NodeId, Tree};
    use bhut_geom::{Particle, Vec3};
    use core::arch::x86_64::*;

    const CHUNK: usize = 8;

    /// `col[l] += 1` for every lane `l` of `mask`, sixteen counters at a
    /// time.
    #[inline(always)]
    unsafe fn bump(col: &mut [u32; REPLAY_LANES], mask: u32) {
        for h in 0..REPLAY_LANES / 16 {
            let p = col.as_mut_ptr().add(16 * h) as *mut __m512i;
            let (v, k) = (_mm512_loadu_si512(p as *const _), (mask >> (16 * h)) as __mmask16);
            _mm512_storeu_si512(p as *mut _, _mm512_mask_add_epi32(v, k, v, _mm512_set1_epi32(1)));
        }
    }

    /// `d = src − p` for the eight lanes at `o`, and
    /// `|d|² = (dx² + dy²) + dz²`.
    #[inline(always)]
    unsafe fn offset(pts: &LanePoints, o: usize, src: Vec3) -> ([__m512d; 3], __m512d) {
        let dx = _mm512_sub_pd(_mm512_set1_pd(src.x), _mm512_loadu_pd(pts.x.as_ptr().add(o)));
        let dy = _mm512_sub_pd(_mm512_set1_pd(src.y), _mm512_loadu_pd(pts.y.as_ptr().add(o)));
        let dz = _mm512_sub_pd(_mm512_set1_pd(src.z), _mm512_loadu_pd(pts.z.as_ptr().add(o)));
        let d2 = _mm512_add_pd(
            _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)),
            _mm512_mul_pd(dz, dz),
        );
        ([dx, dy, dz], d2)
    }

    /// The eight lanes at `o` named by `k` gain the monopole `m` at offset
    /// `d`, `r2 = |d|² + ε²`.
    #[inline(always)]
    unsafe fn interact(
        cols: &mut Columns,
        o: usize,
        [dx, dy, dz]: [__m512d; 3],
        r2: __m512d,
        m: f64,
        k: __mmask8,
    ) {
        let inv = floored_rsqrt_pd8(r2);
        let im = _mm512_mul_pd(_mm512_set1_pd(m), inv);
        let w = _mm512_mul_pd(_mm512_mul_pd(im, inv), inv);
        let ph = _mm512_loadu_pd(cols.phi.as_ptr().add(o));
        _mm512_storeu_pd(cols.phi.as_mut_ptr().add(o), _mm512_mask_sub_pd(ph, k, ph, im));
        let ax = _mm512_loadu_pd(cols.ax.as_ptr().add(o));
        let ax = _mm512_mask_add_pd(ax, k, ax, _mm512_mul_pd(dx, w));
        _mm512_storeu_pd(cols.ax.as_mut_ptr().add(o), ax);
        let ay = _mm512_loadu_pd(cols.ay.as_ptr().add(o));
        let ay = _mm512_mask_add_pd(ay, k, ay, _mm512_mul_pd(dy, w));
        _mm512_storeu_pd(cols.ay.as_mut_ptr().add(o), ay);
        let az = _mm512_loadu_pd(cols.az.as_ptr().add(o));
        let az = _mm512_mask_add_pd(az, k, az, _mm512_mul_pd(dz, w));
        _mm512_storeu_pd(cols.az.as_mut_ptr().add(o), az);
        cols.slots += CHUNK as u64;
    }

    /// The eight lanes at `o` named by `k` gain the monopole `m` at `src`.
    #[inline(always)]
    unsafe fn accumulate(cols: &mut Columns, o: usize, src: Vec3, m: f64, eps2: f64, k: __mmask8) {
        let (d, d2) = offset(&cols.pts, o, src);
        interact(cols, o, d, _mm512_add_pd(d2, _mm512_set1_pd(eps2)), m, k);
    }

    pub(super) struct Avx512;

    impl LaneKernel for Avx512 {
        /// As [`super::avx2::Avx2`]'s, eight lanes per chunk.
        #[inline(always)]
        unsafe fn node(
            cols: &mut Columns,
            com: Vec3,
            m: f64,
            eps2: f64,
            live: u32,
            s2: f64,
            a2: f64,
        ) -> u32 {
            bump(&mut cols.mac_tests, live);
            let (eps2, s2, a2) = (_mm512_set1_pd(eps2), _mm512_set1_pd(s2), _mm512_set1_pd(a2));
            let mut accept = 0;
            for c in 0..REPLAY_LANES / CHUNK {
                let o = CHUNK * c;
                let on = (live >> o) as __mmask8;
                if on == 0 {
                    continue;
                }
                let (d, d2) = offset(&cols.pts, o, com);
                let k = _mm512_mask_cmp_pd_mask::<_CMP_LT_OQ>(on, s2, _mm512_mul_pd(a2, d2));
                if k != 0 {
                    interact(cols, o, d, _mm512_add_pd(d2, eps2), m, k);
                    accept |= u32::from(k) << o;
                }
            }
            bump(&mut cols.p2n, accept);
            accept
        }

        #[inline(always)]
        unsafe fn particle(cols: &mut Columns, q: &Particle, eps2: f64, mask: u32) {
            let id = _mm512_set1_epi32(q.id as i32);
            let lo = _mm512_loadu_si512(cols.skip.as_ptr() as *const _);
            let hi = _mm512_loadu_si512(cols.skip.as_ptr().add(16) as *const _);
            let lo = u32::from(_mm512_cmpneq_epi32_mask(lo, id));
            let hi = u32::from(_mm512_cmpneq_epi32_mask(hi, id));
            let mask = mask & (lo | hi << 16);
            bump(&mut cols.p2p, mask);
            for c in 0..REPLAY_LANES / CHUNK {
                let o = CHUNK * c;
                let k = (mask >> o) as __mmask8;
                if k != 0 {
                    accumulate(cols, o, q.pos, q.mass, eps2, k);
                }
            }
        }
    }

    /// # Safety
    /// The CPU must support AVX-512F, AVX2 and FMA.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn replay(
        lanes: &mut ReplayLanes,
        tree: &Tree,
        particles: &[Particle],
        roots: &[NodeId],
        mac: &BarnesHutMac,
        eps2: f64,
    ) {
        run::<Avx512>(lanes, tree, particles, roots, mac, eps2)
    }

    /// [`Avx512`]'s node step compiled for its tier, for the tests.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, AVX2 and FMA.
    #[cfg(test)]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn node(
        cols: &mut Columns,
        com: Vec3,
        m: f64,
        eps2: f64,
        live: u32,
        s2: f64,
        a2: f64,
    ) -> u32 {
        Avx512::node(cols, com, m, eps2, live, s2, a2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, build_incremental, BuildParams};
    use crate::group::{
        eval_gathered_targets, gather_group, gather_group_targets, leaf_schedule,
        InteractionBuffers, QueryTarget,
    };
    use crate::traverse::{for_each_interaction_from, Interaction};
    use bhut_geom::{plummer, Aabb, PlummerSpec};

    const EPS: f64 = 1e-4;

    /// What one target's lane must hold: `[ax, ay, az, φ]` as bits, and the
    /// walk's counters.
    type Lane = ([u64; 4], TraversalStats);

    /// The oracle: the per-target walk from every root in order, folded in
    /// walk order with the slab kernels' operation sequence written out.
    fn fold_walk(
        tree: &Tree,
        ps: &[Particle],
        roots: &[NodeId],
        (pos, skip): QueryTarget,
        mac: &BarnesHutMac,
        eps: f64,
    ) -> Lane {
        let skip = (skip != u32::MAX).then_some(skip);
        let (mut acc, mut phi) = (Vec3::ZERO, 0.0f64);
        let mut stats = TraversalStats::default();
        for &root in roots {
            let st = for_each_interaction_from(tree, root, ps, pos, skip, mac, |i| {
                let (src, m) = match i {
                    Interaction::Node(id) => (tree.node(id).com, tree.node(id).mass),
                    Interaction::Particle(qi) => (ps[qi as usize].pos, ps[qi as usize].mass),
                };
                let (dx, dy, dz) = (src.x - pos.x, src.y - pos.y, src.z - pos.z);
                let r2 = dx * dx + dy * dy + dz * dz + eps * eps;
                let inv = rsqrt_nr_f64(if r2 > R2_FLOOR_F64 { r2 } else { R2_FLOOR_F64 });
                let im = m * inv;
                phi -= im;
                let w = im * inv * inv;
                acc.x += dx * w;
                acc.y += dy * w;
                acc.z += dz * w;
            });
            stats.merge(st);
        }
        ([acc.x, acc.y, acc.z, phi].map(f64::to_bits), stats)
    }

    fn lane(lanes: &ReplayLanes, l: usize) -> Lane {
        let (acc, phi) = lanes.sums(l);
        ([acc.x, acc.y, acc.z, phi].map(f64::to_bits), lanes.stats(l))
    }

    /// Seat `targets` (at most [`REPLAY_LANES`]) in fresh lanes.
    fn seat(targets: &[QueryTarget]) -> ReplayLanes {
        let mut lanes = ReplayLanes::new();
        for &(pos, skip) in targets {
            lanes.push(pos, skip);
        }
        lanes
    }

    /// The tiers this host can execute, whatever [`bhut_simd::isa`] picked
    /// (under `force-scalar` the vector bodies are still there to compare).
    fn runnable_tiers() -> Vec<Isa> {
        let mut tiers = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                tiers.push(Isa::Avx2);
                if is_x86_feature_detected!("avx512f") {
                    tiers.push(Isa::Avx512);
                }
            }
        }
        tiers
    }

    /// The slab-arithmetic replay of `targets` from `roots` through the body
    /// of `tier`, one lane result per target.
    fn replay_through(
        tier: Isa,
        tree: &Tree,
        ps: &[Particle],
        roots: &[NodeId],
        targets: &[QueryTarget],
        mac: &BarnesHutMac,
        eps: f64,
    ) -> Vec<Lane> {
        assert!(runnable_tiers().contains(&tier));
        let mut out = Vec::new();
        for chunk in targets.chunks(REPLAY_LANES) {
            let mut lanes = seat(chunk);
            // SAFETY: `tier` is one this host was just detected to support.
            unsafe { lanes.replay_on(tier, tree, ps, roots, mac, eps * eps) };
            out.extend((0..chunk.len()).map(|l| lane(&lanes, l)));
        }
        out
    }

    /// Replay `targets` (any number: chunks of [`REPLAY_LANES`]) through the
    /// dispatched body and hold every lane to the oracle. Returns the
    /// interactions compared.
    fn assert_lanes_are_the_walk(
        tree: &Tree,
        ps: &[Particle],
        roots: &[NodeId],
        targets: &[QueryTarget],
        mac: &BarnesHutMac,
        ctx: &str,
    ) -> u64 {
        let mut compared = 0;
        for (c, chunk) in targets.chunks(REPLAY_LANES).enumerate() {
            let mut lanes = seat(chunk);
            lanes.replay(tree, ps, roots, mac, EPS);
            for (l, &target) in chunk.iter().enumerate() {
                let want = fold_walk(tree, ps, roots, target, mac, EPS);
                assert_eq!(lane(&lanes, l), want, "{ctx}: chunk {c} lane {l}");
                compared += want.1.interactions();
            }
            // Computed lanes cover the interacting ones.
            let slots = lanes.take_lane_slots();
            let useful: u64 = (0..chunk.len()).map(|l| lanes.stats(l).interactions()).sum();
            assert!(slots >= useful, "{ctx}: {slots} slots for {useful} interactions");
        }
        compared
    }

    /// Every lane against the oracle, on the trees of the bulk builder and of
    /// the incremental one (the forward walk relies on either's preorder).
    #[test]
    fn replayed_lanes_are_the_per_target_walk_bitwise() {
        fn check(tree: &Tree, ps: &[Particle], mac: &BarnesHutMac, name: &str) {
            let active: Vec<bool> = (0..ps.len()).map(|i| i % 3 != 1).collect();
            let mut buf = InteractionBuffers::new();
            let mut compared = 0;
            // Unit members, with and without an active mask.
            for mask in [None, Some(active.as_slice())] {
                for unit in leaf_schedule(tree) {
                    gather_group(tree, ps, unit, mac, &mut buf);
                    let targets: Vec<QueryTarget> = tree
                        .particles_under(unit)
                        .iter()
                        .filter(|&&pi| mask.is_none_or(|m| m[pi as usize]))
                        .map(|&pi| (ps[pi as usize].pos, ps[pi as usize].id))
                        .collect();
                    let ctx = format!("{name} unit {unit} masked {}", mask.is_some());
                    compared +=
                        assert_lanes_are_the_walk(tree, ps, &buf.mixed, &targets, mac, &ctx);
                }
            }
            // Point buckets of 40 (two chunks, 32 + 8): at particle positions
            // with skip ids, and off-particle without.
            for (b, run) in tree.order.chunks(40).enumerate() {
                for skip_ids in [true, false] {
                    let targets: Vec<QueryTarget> = run
                        .iter()
                        .map(|&pi| {
                            let p = &ps[pi as usize];
                            if skip_ids {
                                (p.pos, p.id)
                            } else {
                                (p.pos + Vec3::new(1.3e-3, -2.1e-3, 0.7e-3), u32::MAX)
                            }
                        })
                        .collect();
                    let bucket = Aabb::bounding(targets.iter().map(|t| t.0)).unwrap();
                    gather_group_targets(tree, ps, &bucket, mac, &mut buf);
                    let ctx = format!("{name} bucket {b} skip ids {skip_ids}");
                    compared +=
                        assert_lanes_are_the_walk(tree, ps, &buf.mixed, &targets, mac, &ctx);
                }
            }
            assert!(compared > 0, "{name}: the test tree produced no mixed frontier");
        }
        let set = plummer(PlummerSpec { n: 600, seed: 71, ..Default::default() });
        // Capacity 12: units of a few members up to a full replay chunk.
        let params = BuildParams::with_leaf_capacity(12);
        let bulk = build(&set.particles, params);
        let incremental = build_incremental(&set.particles, bulk.root_cell, params);
        for (tree, name) in [(&bulk, "bulk"), (&incremental, "incremental")] {
            tree.check_invariants(set.len()).unwrap();
            check(tree, &set.particles, &BarnesHutMac::new(0.67), &format!("{name} bh"));
        }
    }

    /// The dispatcher picks one body per host, so hold the body of *every*
    /// tier this host can execute to the portable one, lane for lane, and say
    /// which were covered: a runner without AVX-512 must be visible in the
    /// log, not silently green.
    #[test]
    fn every_runnable_replay_body_is_bitwise_the_portable_body() {
        let set = plummer(PlummerSpec { n: 900, seed: 5, ..Default::default() });
        let ps = &set.particles;
        let tree = build(ps, BuildParams::with_leaf_capacity(8));
        let mac = BarnesHutMac::new(0.67);
        let mut buf = InteractionBuffers::new();
        // Buckets of 40 straddle a chunk boundary and leave ragged chunks;
        // every third target skips nothing.
        for (b, run) in tree.order.chunks(40).enumerate() {
            let targets: Vec<QueryTarget> = run
                .iter()
                .enumerate()
                .map(|(k, &pi)| (ps[pi as usize].pos, if k % 3 == 0 { u32::MAX } else { pi }))
                .collect();
            let bucket = Aabb::bounding(targets.iter().map(|t| t.0)).unwrap();
            gather_group_targets(&tree, ps, &bucket, &mac, &mut buf);
            let through = |tier| replay_through(tier, &tree, ps, &buf.mixed, &targets, &mac, EPS);
            let want = through(Isa::Portable);
            for tier in runnable_tiers() {
                assert_eq!(through(tier), want, "bucket {b} {tier:?}");
            }
        }
        println!("ISA tiers covered (mixed-frontier replay): {:?}", runnable_tiers());
    }

    /// A small xorshift generator (no external crates in unit tests).
    struct Rng(u64);

    impl Rng {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.next_f64()
        }
    }

    /// The node step through the body of `tier`.
    ///
    /// # Safety
    /// The CPU must support `tier`.
    unsafe fn node_on(
        tier: Isa,
        cols: &mut Columns,
        com: Vec3,
        m: f64,
        eps2: f64,
        live: u32,
        (s2, a2): (f64, f64),
    ) -> u32 {
        match tier {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => avx512::node(cols, com, m, eps2, live, s2, a2),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => avx2::node(cols, com, m, eps2, live, s2, a2),
            _ => Portable::node(cols, com, m, eps2, live, s2, a2),
        }
    }

    /// What a node step leaves in the lanes, as bits: the four sums and the
    /// three counters of every lane.
    fn column_bits(c: &Columns) -> Vec<[u64; 7]> {
        (0..REPLAY_LANES)
            .map(|l| {
                let [ax, ay, az, phi] = [c.ax[l], c.ay[l], c.az[l], c.phi[l]].map(f64::to_bits);
                let [t, n, p] = [c.mac_tests[l], c.p2n[l], c.p2p[l]].map(u64::from);
                [ax, ay, az, phi, t, n, p]
            })
            .collect()
    }

    /// The fused node step of every tier this host can run must accept
    /// exactly the lanes of `live` that [`BarnesHutMac::accept`] accepts —
    /// random geometry, live masks from none to all 32, and lanes placed
    /// *on* `side² = α²·d²`, which reject — and leave the lanes what the
    /// unfused step (the scalar tests, then the arithmetic on the accepting
    /// lanes) leaves, to the bit.
    #[test]
    fn every_runnable_fused_node_step_decides_every_lane_as_accept_does() {
        let mut rng = Rng(0x51ab);
        let mut on_threshold = 0;
        for case in 0..3000 {
            let alpha = [0.5, 0.67, 1.0, 2.0][case % 4];
            let mac = BarnesHutMac::new(alpha);
            let a2 = mac.alpha * mac.alpha;
            // A unit cube with its centre of mass in the middle every eighth
            // case: with α a power of two, lanes at distance side/α from it
            // sit exactly on the threshold.
            let exact = case % 8 == 0;
            let (cell, com) = if exact {
                (Aabb::new(Vec3::ZERO, Vec3::splat(1.0)), Vec3::splat(0.5))
            } else {
                let scale = rng.range(0.05, 3.0);
                let (c, h) = (rng.range(-scale, scale), rng.range(1e-6, scale));
                let cell = Aabb::new(Vec3::splat(c - h), Vec3::splat(c + h));
                let com = Vec3::new(
                    rng.range(cell.min.x, cell.max.x),
                    rng.range(cell.min.y, cell.max.y),
                    rng.range(cell.min.z, cell.max.z),
                );
                (cell, com)
            };
            let mut cols = ReplayLanes::new().cols;
            for l in 0..REPLAY_LANES {
                let far = rng.range(0.1, 6.0);
                let pts = &mut cols.pts;
                (pts.x[l], pts.y[l], pts.z[l]) =
                    (rng.range(-far, far), rng.range(-far, far), rng.range(-far, far));
                if exact && l % 2 == 0 {
                    (pts.x[l], pts.y[l], pts.z[l]) = (com.x + 1.0 / alpha, 0.5, 0.5);
                }
            }
            let live = match case % 5 {
                0 => u32::MAX,
                1 => 1 << (case % 32),
                2 => 0x0000_ff00,
                3 => 0,
                _ => (rng.next_f64() * u32::MAX as f64) as u32,
            };
            let side = cell.side();
            let (m, eps2) = (rng.range(0.1, 2.0), 1e-8);
            // The unfused step: the scalar test on every live lane, then the
            // arithmetic on the lanes it accepts.
            let (mut want, mut unfused) = (0, cols.clone());
            for l in (0..REPLAY_LANES).filter(|&l| live >> l & 1 == 1) {
                let p = Vec3::new(cols.pts.x[l], cols.pts.y[l], cols.pts.z[l]);
                unfused.mac_tests[l] += 1;
                if mac.accept(side, com, p) {
                    want |= 1 << l;
                    let (d, d2) = Portable::offset(&unfused, l, com);
                    Portable::interact(&mut unfused, l, d, d2 + eps2, m);
                    unfused.p2n[l] += 1;
                }
                if side * side == a2 * com.dist_sq(p) {
                    on_threshold += 1;
                    assert!(
                        want >> l & 1 == 0,
                        "case {case} lane {l}: on the threshold must reject"
                    );
                }
            }
            let test = (side * side, a2);
            for tier in runnable_tiers() {
                let mut fused = cols.clone();
                // SAFETY: `tier` is one this host was just detected to support.
                let got = unsafe { node_on(tier, &mut fused, com, m, eps2, live, test) };
                assert_eq!(got, want, "case {case} {tier:?}: lanes {got:#x} vs {want:#x}");
                assert_eq!(column_bits(&fused), column_bits(&unfused), "case {case} {tier:?}");
            }
        }
        assert!(on_threshold > 0, "no lane sat exactly on the acceptance threshold");
        println!("ISA tiers covered (fused α-MAC node step): {:?}", runnable_tiers());
    }

    /// A lane's sums are a fold over its own walk: the same target alone, in
    /// lane 0 of a full chunk and in lane 17 among 31 others reads the same
    /// bits, through every body.
    #[test]
    fn a_targets_bits_do_not_depend_on_its_lane_its_co_lanes_or_the_fill() {
        let set = plummer(PlummerSpec { n: 700, seed: 19, ..Default::default() });
        let ps = &set.particles;
        let tree = build(ps, BuildParams::with_leaf_capacity(8));
        let mac = BarnesHutMac::new(0.67);
        // From the root: every lane walks the whole tree, so the co-lanes
        // reject, accept and skip all over the target's own path.
        let roots = [0];
        let others: Vec<QueryTarget> =
            tree.order[100..131].iter().map(|&pi| (ps[pi as usize].pos, pi)).collect();
        for &pi in &tree.order[40..44] {
            let target = (ps[pi as usize].pos, pi);
            let want = fold_walk(&tree, ps, &roots, target, &mac, EPS);
            for tier in runnable_tiers() {
                let at = |lane: usize, company: &[QueryTarget]| {
                    let mut targets = company.to_vec();
                    targets.insert(lane, target);
                    replay_through(tier, &tree, ps, &roots, &targets, &mac, EPS)[lane]
                };
                assert_eq!(at(0, &[]), want, "alone, {tier:?}");
                assert_eq!(at(0, &others), want, "lane 0 of 32, {tier:?}");
                assert_eq!(at(17, &others), want, "lane 17 of 32, {tier:?}");
                assert_eq!(at(5, &others[..9]), want, "lane 5 of 10, {tier:?}");
            }
        }
    }

    /// 1, 31, 32 and 33 targets on one gather: a target reads the same bits
    /// whether it closes a chunk, fills the last lane or opens the next
    /// chunk, and the evaluation emits every target once, in order.
    #[test]
    fn chunk_boundaries_do_not_show() {
        let set = plummer(PlummerSpec { n: 800, seed: 23, ..Default::default() });
        let ps = &set.particles;
        let tree = build(ps, BuildParams::with_leaf_capacity(8));
        let mac = BarnesHutMac::new(0.67);
        let targets: Vec<QueryTarget> =
            tree.order[200..233].iter().map(|&pi| (ps[pi as usize].pos, pi)).collect();
        let bucket = Aabb::bounding(targets.iter().map(|t| t.0)).unwrap();
        let mut buf = InteractionBuffers::new();
        gather_group_targets(&tree, ps, &bucket, &mac, &mut buf);
        assert!(!buf.mixed.is_empty(), "a 33-point bucket in a Plummer core has a mixed frontier");
        let eval = |some: &[QueryTarget]| {
            let mut rows = Vec::new();
            let emit = |k: usize, phi: f64, acc: Vec3, it: u64| {
                rows.push((k, [acc.x, acc.y, acc.z, phi].map(f64::to_bits), it))
            };
            let st = eval_gathered_targets(&tree, ps, some, &mac, EPS, &buf, emit);
            assert_eq!(st.interactions(), rows.iter().map(|r| r.2).sum::<u64>());
            rows
        };
        let all = eval(&targets);
        assert_eq!(all.iter().map(|r| r.0).collect::<Vec<_>>(), (0..33).collect::<Vec<_>>());
        for n in [1, 31, 32] {
            assert_eq!(eval(&targets[..n]), all[..n], "the first {n} of 33");
        }
        // Target 32 opens the second chunk of 33, and is lane 0 on its own.
        let (_, bits, it) = eval(&targets[32..])[0];
        assert_eq!((bits, it), (all[32].1, all[32].2));
        // The replay half of every row is the oracle's.
        let lanes = replay_through(bhut_simd::isa(), &tree, ps, &buf.mixed, &targets, &mac, EPS);
        for (k, &target) in targets.iter().enumerate() {
            assert_eq!(lanes[k], fold_walk(&tree, ps, &buf.mixed, target, &mac, EPS));
        }
    }

    #[test]
    fn no_mixed_roots_leave_the_lanes_at_zero() {
        let set = plummer(PlummerSpec { n: 300, seed: 3, ..Default::default() });
        let ps = &set.particles;
        let tree = build(ps, BuildParams::with_leaf_capacity(8));
        let mac = BarnesHutMac::new(0.67);
        let targets = [(Vec3::new(40.0, -35.0, 50.0), u32::MAX), (Vec3::new(41.0, -35.0, 50.0), 7)];
        // Far from everything: the root itself is accepted for the bucket.
        let bucket = Aabb::bounding(targets.iter().map(|t| t.0)).unwrap();
        let mut buf = InteractionBuffers::new();
        gather_group_targets(&tree, ps, &bucket, &mac, &mut buf);
        assert!(buf.mixed.is_empty() && buf.node_ids == [0]);
        let zero = ([0u64; 4], TraversalStats::default());
        for tier in runnable_tiers() {
            let lanes = replay_through(tier, &tree, ps, &buf.mixed, &targets, &mac, EPS);
            assert_eq!(lanes, [zero, zero], "{tier:?}");
        }
        // And the evaluation is then the slab kernel alone.
        let mut rows = 0;
        let emit = |_, phi: f64, acc: Vec3, it| {
            rows += 1;
            assert!(phi < 0.0 && acc.norm() > 0.0);
            assert_eq!(it, 1);
        };
        eval_gathered_targets(&tree, ps, &targets, &mac, EPS, &buf, emit);
        assert_eq!(rows, 2);
        // No lanes seated: nothing to do, whatever the roots.
        let mut empty = ReplayLanes::new();
        empty.replay(&tree, ps, &[0], &mac, EPS);
        assert_eq!((empty.len(), empty.take_lane_slots()), (0, 0));
    }

    /// ε = 0 and a query point on a particle it does not skip: `r² = 0` is
    /// clamped to the floor, as in the slab kernel — a finite (huge)
    /// potential term, no acceleration, no NaN — and counted as the
    /// interaction the walk counts.
    #[test]
    fn unsoftened_point_on_an_unskipped_particle_takes_the_floor() {
        let set = plummer(PlummerSpec { n: 200, seed: 11, ..Default::default() });
        let ps = &set.particles;
        let tree = build(ps, BuildParams::with_leaf_capacity(8));
        let mac = BarnesHutMac::new(0.67);
        let on = &ps[tree.order[57] as usize];
        let targets = [(on.pos, u32::MAX), (on.pos, on.id)];
        let want: Vec<Lane> =
            targets.iter().map(|&t| fold_walk(&tree, ps, &[0], t, &mac, 0.0)).collect();
        let (unskipped, skipped) = (want[0], want[1]);
        assert_eq!(unskipped.1.p2p, skipped.1.p2p + 1, "the coincident particle is an interaction");
        let [ax, ay, az, phi] = unskipped.0.map(f64::from_bits);
        assert!(ax.is_finite() && ay.is_finite() && az.is_finite() && phi.is_finite());
        assert!(phi < -1e40, "the floored term dominates: {phi:e}");
        // Its acceleration is the skipping target's plus an exact zero.
        assert_eq!(unskipped.0[..3], skipped.0[..3]);
        for tier in runnable_tiers() {
            assert_eq!(
                replay_through(tier, &tree, ps, &[0], &targets, &mac, 0.0),
                want,
                "{tier:?}"
            );
        }
    }
}
