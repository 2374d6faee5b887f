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
//! [`Aabb::dist_sq_to`], [`Aabb::max_dist_sq_to`] and the scalar `classify`
//! comparisons term for term, so the returned
//! [`GroupClass`] decisions are identical to the scalar path on every input
//! — enforced by the equivalence tests at the bottom of this file and by
//! the walk-level bitwise tests in `group.rs`.

use crate::mac::{GroupClass, GroupMac, Mac};
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

/// Wrapper that pins a [`GroupMac`]'s bucket classification to scalar
/// one-node-at-a-time decisions: delegates `accept`, `alpha` and `classify`
/// but keeps the trait's default (scalar-loop) `classify_batch`, bypassing
/// the SIMD override. This is the pre-vectorization gather, kept for the
/// `mac_batch: false` executor leg and for bitwise-equivalence tests; the
/// replay decides its lanes from `alpha` either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarClassify<M>(pub M);

impl<M: Mac> Mac for ScalarClassify<M> {
    #[inline(always)]
    fn accept(&self, cell: &Aabb, com: Vec3, point: Vec3) -> bool {
        self.0.accept(cell, com, point)
    }

    #[inline(always)]
    fn alpha(&self) -> f64 {
        self.0.alpha()
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
    // over scalar `classify`.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::BarnesHutMac;

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
        assert_eq!(mac.alpha(), wrapped.alpha());
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
            let mut batch = NodeBatch::new();
            for cell in &cells {
                batch.push(cell, cell.center());
            }
            let got = bh.classify_batch(&batch, &bucket);
            for (j, cell) in cells.iter().enumerate() {
                assert_eq!(got[j], bh.classify(cell, cell.center(), &bucket));
            }
        }
    }
}
