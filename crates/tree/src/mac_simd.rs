//! Batched (SIMD-dispatched) group-MAC classification.
//!
//! The grouped walk used to classify one node per [`GroupMac::classify`]
//! call, which made the traversal a chain of dependent scalar AABB tests.
//! This module classifies up to [`MAC_BATCH`] *sibling* nodes per call: the
//! walk packs the children of an opened node into a [`NodeBatch`] (struct of
//! `[f64; 8]` arrays), and the batch classifiers below run the exact same
//! per-node arithmetic as the scalar `classify`, only laid out as
//! lane-parallel loops that the `simd_dispatch!` AVX2/AVX-512 clone lowers
//! to 256-bit instructions (the portable body *is* the `force-scalar`
//! fallback).
//!
//! Bitwise contract: for every lane the expression order replicates
//! [`Aabb::dist_sq_to`], [`Aabb::max_dist_sq_to`], [`Aabb::dist_sq_to_box`]
//! and the scalar `classify` comparisons term for term, so the returned
//! [`GroupClass`] decisions are identical to the scalar path on every input
//! — enforced by the equivalence tests at the bottom of this file and by
//! the walk-level bitwise tests in `group.rs`.

use crate::mac::{accept_lanes_scalar, GroupClass, GroupMac, Mac, MinDistMac};
use crate::replay::LanePoints;
use bhut_geom::{Aabb, Vec3};

/// Maximum nodes classified per batched MAC call — the children of one
/// opened octree node, and exactly one f64 SIMD register's worth of lanes
/// per coordinate on AVX-512 (two on AVX2).
pub const MAC_BATCH: usize = 8;

/// Up to [`MAC_BATCH`] tree nodes transposed into structure-of-arrays form
/// for one batched classification: cell bounds, center of mass, and the
/// pre-squared cell side (`side * side`, computed with the exact scalar
/// [`Aabb::side`] so decisions stay bitwise-identical).
#[derive(Debug, Clone)]
pub struct NodeBatch {
    len: usize,
    min_x: [f64; MAC_BATCH],
    min_y: [f64; MAC_BATCH],
    min_z: [f64; MAC_BATCH],
    max_x: [f64; MAC_BATCH],
    max_y: [f64; MAC_BATCH],
    max_z: [f64; MAC_BATCH],
    com_x: [f64; MAC_BATCH],
    com_y: [f64; MAC_BATCH],
    com_z: [f64; MAC_BATCH],
    side2: [f64; MAC_BATCH],
}

impl Default for NodeBatch {
    fn default() -> Self {
        NodeBatch {
            len: 0,
            min_x: [0.0; MAC_BATCH],
            min_y: [0.0; MAC_BATCH],
            min_z: [0.0; MAC_BATCH],
            max_x: [0.0; MAC_BATCH],
            max_y: [0.0; MAC_BATCH],
            max_z: [0.0; MAC_BATCH],
            com_x: [0.0; MAC_BATCH],
            com_y: [0.0; MAC_BATCH],
            com_z: [0.0; MAC_BATCH],
            side2: [0.0; MAC_BATCH],
        }
    }
}

impl NodeBatch {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline(always)]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one node. Panics if the batch is full ([`MAC_BATCH`] entries).
    #[inline(always)]
    pub fn push(&mut self, cell: &Aabb, com: Vec3) {
        let i = self.len;
        self.min_x[i] = cell.min.x;
        self.min_y[i] = cell.min.y;
        self.min_z[i] = cell.min.z;
        self.max_x[i] = cell.max.x;
        self.max_y[i] = cell.max.y;
        self.max_z[i] = cell.max.z;
        self.com_x[i] = com.x;
        self.com_y[i] = com.y;
        self.com_z[i] = com.z;
        let side = cell.side();
        self.side2[i] = side * side;
        self.len = i + 1;
    }

    /// Reconstruct lane `i`'s cell (for the scalar fallback path).
    #[inline(always)]
    pub fn cell(&self, i: usize) -> Aabb {
        Aabb::new(
            Vec3::new(self.min_x[i], self.min_y[i], self.min_z[i]),
            Vec3::new(self.max_x[i], self.max_y[i], self.max_z[i]),
        )
    }

    /// Lane `i`'s center of mass.
    #[inline(always)]
    pub fn com(&self, i: usize) -> Vec3 {
        Vec3::new(self.com_x[i], self.com_y[i], self.com_z[i])
    }
}

bhut_simd::simd_dispatch! {
    /// Batched `BarnesHutMac::classify`: `a2` is `alpha * alpha`. Lanes
    /// beyond `batch.len()` compute garbage (on zeroed state) and are
    /// masked out by the caller; lanes below it are bitwise-identical to
    /// the scalar decision.
    pub fn classify_batch_bh(a2: f64, batch: &NodeBatch, bucket: &Aabb) -> [GroupClass; MAC_BATCH] {
        let mut dmin2 = [0.0f64; MAC_BATCH];
        let mut dmax2 = [0.0f64; MAC_BATCH];
        for j in 0..MAC_BATCH {
            let (cx, cy, cz) = (batch.com_x[j], batch.com_y[j], batch.com_z[j]);
            // bucket.dist_sq_to(com), term for term per axis.
            let dx = (bucket.min.x - cx).max(0.0).max(cx - bucket.max.x);
            let dy = (bucket.min.y - cy).max(0.0).max(cy - bucket.max.y);
            let dz = (bucket.min.z - cz).max(0.0).max(cz - bucket.max.z);
            dmin2[j] = dx * dx + dy * dy + dz * dz;
            // bucket.max_dist_sq_to(com).
            let ex = (cx - bucket.min.x).abs().max((bucket.max.x - cx).abs());
            let ey = (cy - bucket.min.y).abs().max((bucket.max.y - cy).abs());
            let ez = (cz - bucket.min.z).abs().max((bucket.max.z - cz).abs());
            dmax2[j] = ex * ex + ey * ey + ez * ez;
        }
        let mut out = [GroupClass::Mixed; MAC_BATCH];
        for j in 0..batch.len {
            let s2 = batch.side2[j];
            out[j] = if s2 < a2 * dmin2[j] {
                GroupClass::AcceptAll
            } else if s2 >= a2 * dmax2[j] {
                GroupClass::RejectAll
            } else {
                GroupClass::Mixed
            };
        }
        out
    }
}

bhut_simd::simd_dispatch! {
    /// Batched `MinDistMac::classify`: `a2` is `alpha * alpha`. Unlike the
    /// scalar path this always evaluates the 8-corner maximum (no early
    /// return), but the decisions compare the same values and are
    /// bitwise-identical.
    pub fn classify_batch_md(a2: f64, batch: &NodeBatch, bucket: &Aabb) -> [GroupClass; MAC_BATCH] {
        let mut dmin2 = [0.0f64; MAC_BATCH];
        for (j, d) in dmin2.iter_mut().enumerate() {
            // cell.dist_sq_to_box(bucket): per axis
            // gap = (bmin - amax).max(0.0).max(amin - bmax).
            let gx = (bucket.min.x - batch.max_x[j]).max(0.0).max(batch.min_x[j] - bucket.max.x);
            let gy = (bucket.min.y - batch.max_y[j]).max(0.0).max(batch.min_y[j] - bucket.max.y);
            let gz = (bucket.min.z - batch.max_z[j]).max(0.0).max(batch.min_z[j] - bucket.max.z);
            *d = gx * gx + gy * gy + gz * gz;
        }
        // max over the bucket's 8 corners of cell.dist_sq_to(corner), in
        // corner order with a 0.0 seed — the scalar fold, lane-parallel.
        let mut dmax2 = [0.0f64; MAC_BATCH];
        for ci in 0..8 {
            let p = bucket.corner(ci);
            for (j, d) in dmax2.iter_mut().enumerate() {
                let dx = (batch.min_x[j] - p.x).max(0.0).max(p.x - batch.max_x[j]);
                let dy = (batch.min_y[j] - p.y).max(0.0).max(p.y - batch.max_y[j]);
                let dz = (batch.min_z[j] - p.z).max(0.0).max(p.z - batch.max_z[j]);
                *d = d.max(dx * dx + dy * dy + dz * dz);
            }
        }
        let mut out = [GroupClass::Mixed; MAC_BATCH];
        for j in 0..batch.len {
            let s2 = batch.side2[j];
            out[j] = if s2 < a2 * dmin2[j] {
                GroupClass::AcceptAll
            } else if s2 >= a2 * dmax2[j] {
                GroupClass::RejectAll
            } else {
                GroupClass::Mixed
            };
        }
        out
    }
}

/// [`Mac::accept_lanes`] of [`MinDistMac`]: the live lanes whose point `p`
/// has `side² < α²·dist²(cell, p)`, the distance term for term
/// [`Aabb::dist_sq_to`] and the comparison [`MinDistMac::accept`]'s — eight
/// lanes per instruction under AVX-512, four under AVX2, and only in chunks
/// that hold a live lane. Without a vector tier it is the scalar per-lane
/// loop. ([`crate::BarnesHutMac`] needs no such body: the replay decides its lanes
/// from the `com − p` of its own arithmetic, see
/// [`Mac::com_distance_alpha2`].)
#[inline]
pub fn accept_lanes_md(
    mac: &MinDistMac,
    cell: &Aabb,
    com: Vec3,
    pts: &LanePoints,
    live: u32,
) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        let side = cell.side();
        let (s2, a2) = (side * side, mac.alpha * mac.alpha);
        // SAFETY (both arms): `isa()` names a tier only after detecting it.
        match bhut_simd::isa() {
            bhut_simd::Isa::Avx512 => {
                return unsafe { lanes512::accept_md(s2, a2, cell, pts, live) }
            }
            bhut_simd::Isa::Avx2 => return unsafe { lanes256::accept_md(s2, a2, cell, pts, live) },
            bhut_simd::Isa::Portable => {}
        }
    }
    accept_lanes_scalar(mac, cell, com, pts, live)
}

/// Four-lane bodies of the lane MAC tests. `_CMP_LT_OQ` is the scalar `<`
/// (false on NaN); `_mm256_max_pd(a, b)` is `a > b ? a : b`, which returns
/// what `f64::max` returns wherever the result's sign of zero does not
/// matter — every maximum here is squared.
#[cfg(target_arch = "x86_64")]
mod lanes256 {
    use super::{Aabb, LanePoints};
    use crate::replay::REPLAY_LANES;
    use core::arch::x86_64::*;

    const CHUNK: usize = 4;

    /// The lanes of `d2` where `s2 < a2·d2`, as bits.
    #[inline(always)]
    unsafe fn below(s2: f64, a2: f64, d2: __m256d) -> u32 {
        let lt =
            _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_set1_pd(s2), _mm256_mul_pd(_mm256_set1_pd(a2), d2));
        _mm256_movemask_pd(lt) as u32
    }

    /// One axis of [`Aabb::dist_sq_to`]: `(min − p).max(0).max(p − max)`.
    #[inline(always)]
    unsafe fn gap(min: f64, max: f64, p: __m256d) -> __m256d {
        let under = _mm256_max_pd(_mm256_sub_pd(_mm256_set1_pd(min), p), _mm256_setzero_pd());
        _mm256_max_pd(_mm256_sub_pd(p, _mm256_set1_pd(max)), under)
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accept_md(
        s2: f64,
        a2: f64,
        cell: &Aabb,
        pts: &LanePoints,
        live: u32,
    ) -> u32 {
        let mut accepted = 0;
        for c in 0..REPLAY_LANES / CHUNK {
            let o = CHUNK * c;
            if (live >> o) & 0xf == 0 {
                continue;
            }
            let dx = gap(cell.min.x, cell.max.x, _mm256_loadu_pd(pts.x.as_ptr().add(o)));
            let dy = gap(cell.min.y, cell.max.y, _mm256_loadu_pd(pts.y.as_ptr().add(o)));
            let dz = gap(cell.min.z, cell.max.z, _mm256_loadu_pd(pts.z.as_ptr().add(o)));
            let d2 = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                _mm256_mul_pd(dz, dz),
            );
            accepted |= below(s2, a2, d2) << o;
        }
        accepted & live
    }
}

/// Eight-lane bodies: [`lanes256`] at twice the width, the comparison
/// landing in a mask register.
#[cfg(target_arch = "x86_64")]
mod lanes512 {
    use super::{Aabb, LanePoints};
    use crate::replay::REPLAY_LANES;
    use core::arch::x86_64::*;

    const CHUNK: usize = 8;

    #[inline(always)]
    unsafe fn below(s2: f64, a2: f64, d2: __m512d) -> u32 {
        let a2d2 = _mm512_mul_pd(_mm512_set1_pd(a2), d2);
        u32::from(_mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_set1_pd(s2), a2d2))
    }

    #[inline(always)]
    unsafe fn gap(min: f64, max: f64, p: __m512d) -> __m512d {
        let under = _mm512_max_pd(_mm512_sub_pd(_mm512_set1_pd(min), p), _mm512_setzero_pd());
        _mm512_max_pd(_mm512_sub_pd(p, _mm512_set1_pd(max)), under)
    }

    /// # Safety
    /// The CPU must support AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn accept_md(
        s2: f64,
        a2: f64,
        cell: &Aabb,
        pts: &LanePoints,
        live: u32,
    ) -> u32 {
        let mut accepted = 0;
        for c in 0..REPLAY_LANES / CHUNK {
            let o = CHUNK * c;
            if (live >> o) & 0xff == 0 {
                continue;
            }
            let dx = gap(cell.min.x, cell.max.x, _mm512_loadu_pd(pts.x.as_ptr().add(o)));
            let dy = gap(cell.min.y, cell.max.y, _mm512_loadu_pd(pts.y.as_ptr().add(o)));
            let dz = gap(cell.min.z, cell.max.z, _mm512_loadu_pd(pts.z.as_ptr().add(o)));
            let d2 = _mm512_add_pd(
                _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)),
                _mm512_mul_pd(dz, dz),
            );
            accepted |= below(s2, a2, d2) << o;
        }
        accepted & live
    }
}

/// Wrapper that pins a [`GroupMac`] to scalar one-node-at-a-time
/// decisions: delegates `accept`/`classify` but keeps the trait's default
/// (scalar-loop) `classify_batch` and `accept_lanes`, bypassing the SIMD
/// overrides, and the default `com_distance_alpha2` (`None`), so the replay
/// asks the scalar `accept` lane by lane even for a [`crate::BarnesHutMac`]. This
/// is the pre-vectorization walk, kept as a first-class citizen for the
/// `mac_batch: false` executor leg and for bitwise-equivalence tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarClassify<M>(pub M);

impl<M: Mac> Mac for ScalarClassify<M> {
    #[inline(always)]
    fn accept(&self, cell: &Aabb, com: Vec3, point: Vec3) -> bool {
        self.0.accept(cell, com, point)
    }

    fn flops(&self) -> u64 {
        self.0.flops()
    }
}

impl<M: GroupMac> GroupMac for ScalarClassify<M> {
    #[inline(always)]
    fn classify(&self, cell: &Aabb, com: Vec3, bucket: &Aabb) -> GroupClass {
        self.0.classify(cell, com, bucket)
    }
    // classify_batch intentionally NOT overridden: the trait default loops
    // over scalar `classify` (as `Mac::accept_lanes`' does over `accept`).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::BarnesHutMac;
    use crate::replay::REPLAY_LANES;

    /// A deterministic little generator (no external deps in unit tests).
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

    fn random_aabb(rng: &mut Rng, scale: f64) -> Aabb {
        let cx = rng.range(-scale, scale);
        let cy = rng.range(-scale, scale);
        let cz = rng.range(-scale, scale);
        let hx = rng.range(1e-6, scale);
        let hy = rng.range(1e-6, scale);
        let hz = rng.range(1e-6, scale);
        Aabb::new(Vec3::new(cx - hx, cy - hy, cz - hz), Vec3::new(cx + hx, cy + hy, cz + hz))
    }

    fn check_batch_matches_scalar<M: GroupMac>(mac: &M, seed: u64, cases: usize) {
        let mut rng = Rng(seed.max(1));
        for case in 0..cases {
            // Vary the scale ratio so all three classes actually occur.
            let bucket = random_aabb(&mut rng, 1.0);
            let mut batch = NodeBatch::new();
            let mut cells = Vec::new();
            let k = 1 + (case % MAC_BATCH);
            for _ in 0..k {
                let scale = rng.range(0.05, 40.0);
                let cell = random_aabb(&mut rng, scale);
                let com = Vec3::new(
                    rng.range(cell.min.x, cell.max.x),
                    rng.range(cell.min.y, cell.max.y),
                    rng.range(cell.min.z, cell.max.z),
                );
                batch.push(&cell, com);
                cells.push((cell, com));
            }
            let got = mac.classify_batch(&batch, &bucket);
            for (j, (cell, com)) in cells.iter().enumerate() {
                let want = mac.classify(cell, *com, &bucket);
                assert_eq!(
                    got[j], want,
                    "case {case} lane {j}: batch {:?} != scalar {:?} (cell {cell:?}, com \
                     {com:?}, bucket {bucket:?})",
                    got[j], want
                );
            }
        }
    }

    #[test]
    fn barnes_hut_batch_decisions_match_scalar() {
        for alpha in [0.3, 0.67, 1.2] {
            check_batch_matches_scalar(&BarnesHutMac::new(alpha), 0x8d1e ^ alpha.to_bits(), 4000);
        }
    }

    #[test]
    fn min_dist_batch_decisions_match_scalar() {
        for alpha in [0.3, 0.67, 1.2] {
            check_batch_matches_scalar(&MinDistMac::new(alpha), 0x77aa ^ alpha.to_bits(), 4000);
        }
    }

    #[test]
    fn scalar_classify_wrapper_agrees_everywhere() {
        // ScalarClassify must be observationally identical to the wrapped
        // MAC (it only changes *how* the decisions are computed).
        check_batch_matches_scalar(&ScalarClassify(BarnesHutMac::new(0.67)), 0x1234, 2000);
        let mut rng = Rng(9);
        let mac = BarnesHutMac::new(0.67);
        let wrapped = ScalarClassify(mac);
        for _ in 0..500 {
            let cell = random_aabb(&mut rng, 2.0);
            let bucket = random_aabb(&mut rng, 1.0);
            let com = cell.center();
            let p = Vec3::new(rng.range(-3.0, 3.0), rng.range(-3.0, 3.0), rng.range(-3.0, 3.0));
            assert_eq!(mac.accept(&cell, com, p), wrapped.accept(&cell, com, p));
            assert_eq!(mac.classify(&cell, com, &bucket), wrapped.classify(&cell, com, &bucket));
        }
        assert_eq!(mac.flops(), wrapped.flops());
        // The replay asks the wrapped MAC's `accept` lane by lane.
        assert_eq!(mac.com_distance_alpha2(), Some(0.67 * 0.67));
        assert_eq!(wrapped.com_distance_alpha2(), None);
    }

    /// The accept masks of every lane body this host can run, for one node
    /// and one set of lanes: the dispatched override first.
    fn lane_masks_md(
        mac: &MinDistMac,
        cell: &Aabb,
        com: Vec3,
        pts: &LanePoints,
        live: u32,
    ) -> Vec<u32> {
        let mut got = vec![mac.accept_lanes(cell, com, pts, live)];
        #[cfg(target_arch = "x86_64")]
        {
            let side = cell.side();
            let (s2, a2) = (side * side, mac.alpha * mac.alpha);
            // SAFETY (both): the feature was detected on this host just before.
            if is_x86_feature_detected!("avx2") {
                got.push(unsafe { lanes256::accept_md(s2, a2, cell, pts, live) });
            }
            if is_x86_feature_detected!("avx512f") {
                got.push(unsafe { lanes512::accept_md(s2, a2, cell, pts, live) });
            }
        }
        got
    }

    /// Every min-dist lane body — dispatched, AVX2, AVX-512, whichever the
    /// host has — must return exactly the lanes of `live` for which the
    /// scalar `accept` says yes: random geometry, live masks from one lane to
    /// all 32, and points placed *on* the acceptance threshold, where `<` and
    /// `≤` part. (The α-MAC's lanes are decided inside the replay's node
    /// step; `crate::replay`'s tests hold that step to `accept` the same way.)
    #[test]
    fn lane_accept_bodies_decide_every_lane_as_accept_does() {
        let mut rng = Rng(0x51ab);
        let mut on_threshold = 0;
        for case in 0..3000 {
            let alpha = [0.5, 0.67, 1.0, 2.0][case % 4];
            let md = MinDistMac::new(alpha);
            // A unit cube at the origin every eighth case: with α a power of
            // two, lanes at distance side/α sit exactly on the threshold.
            let exact = case % 8 == 0;
            let cell = if exact {
                Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 1.0, 1.0))
            } else {
                let scale = rng.range(0.05, 3.0);
                random_aabb(&mut rng, scale)
            };
            let com = Vec3::new(
                rng.range(cell.min.x, cell.max.x),
                rng.range(cell.min.y, cell.max.y),
                rng.range(cell.min.z, cell.max.z),
            );
            let mut pts = LanePoints {
                x: [0.0; REPLAY_LANES],
                y: [0.0; REPLAY_LANES],
                z: [0.0; REPLAY_LANES],
            };
            for l in 0..REPLAY_LANES {
                let far = rng.range(0.1, 6.0);
                (pts.x[l], pts.y[l], pts.z[l]) =
                    (rng.range(-far, far), rng.range(-far, far), rng.range(-far, far));
                if exact && l % 2 == 0 {
                    // side / α from the face along +x.
                    (pts.x[l], pts.y[l], pts.z[l]) = (cell.max.x + 1.0 / alpha, 0.5, 0.5);
                }
            }
            let live = match case % 5 {
                0 => u32::MAX,
                1 => 1 << (case % 32),
                2 => 0x0000_ff00,
                3 => 0,
                _ => (rng.next_f64() * u32::MAX as f64) as u32,
            };
            let p = |l: usize| Vec3::new(pts.x[l], pts.y[l], pts.z[l]);
            let want = accept_lanes_scalar(&md, &cell, com, &pts, live);
            for l in 0..REPLAY_LANES {
                let bit = |m: u32| m >> l & 1 == 1;
                assert_eq!(bit(want), bit(live) && md.accept(&cell, com, p(l)));
                let side = cell.side();
                on_threshold += usize::from(side * side == alpha * alpha * cell.dist_sq_to(p(l)));
            }
            for got in lane_masks_md(&md, &cell, com, &pts, live) {
                assert_eq!(got, want, "case {case}: min-dist lanes {got:#x} vs {want:#x}");
            }
        }
        assert!(on_threshold > 0, "no lane sat exactly on the acceptance threshold");
    }

    #[test]
    fn degenerate_geometry_matches_scalar() {
        // Touching boxes, contained boxes, point-thin cells: the boundary
        // comparisons (>= vs <) must tie-break identically.
        let bucket = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 1.0, 1.0));
        let cells = [
            Aabb::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0)), // face-touching
            Aabb::new(Vec3::new(0.25, 0.25, 0.25), Vec3::new(0.75, 0.75, 0.75)), // contained
            Aabb::new(Vec3::new(0.5, 0.5, 0.5), Vec3::new(0.5, 0.5, 0.5)), // degenerate point
            Aabb::new(Vec3::new(-4.0, -4.0, -4.0), Vec3::new(5.0, 5.0, 5.0)), // containing
            Aabb::new(Vec3::new(3.0, 3.0, 3.0), Vec3::new(3.5, 3.5, 3.5)), // far corner
        ];
        for alpha in [0.5, 1.0] {
            let bh = BarnesHutMac::new(alpha);
            let md = MinDistMac::new(alpha);
            let mut batch = NodeBatch::new();
            for cell in &cells {
                batch.push(cell, cell.center());
            }
            let got_bh = bh.classify_batch(&batch, &bucket);
            let got_md = md.classify_batch(&batch, &bucket);
            for (j, cell) in cells.iter().enumerate() {
                assert_eq!(got_bh[j], bh.classify(cell, cell.center(), &bucket));
                assert_eq!(got_md[j], md.classify(cell, cell.center(), &bucket));
            }
        }
    }
}
