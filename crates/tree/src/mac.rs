//! The multipole acceptance criterion (MAC).
//!
//! §2: "The multipole acceptance criterion for the Barnes–Hut method computes
//! the ratio of the dimension of the box to the distance of the point from
//! the center of mass of the box. If this ratio is less than some constant,
//! α, an interaction can be computed." Larger α accepts boxes at shorter
//! range — fewer expansions, faster, less accurate (Table 7 sweeps α over
//! {0.67, 0.80, 1.0}). One test costs 14 flops in the paper's machine model
//! (§5.2.1; `bhut_multipole::MAC_FLOPS`).
//!
//! That α-criterion, [`BarnesHutMac`], is the one acceptance test here, in
//! three forms that decide alike:
//!
//! * per target — [`BarnesHutMac::accept`], what the per-target walks ask;
//! * per bucket — [`BarnesHutMac::classify`] brackets `accept` over a box
//!   of targets, for the group walk ([`crate::group`]);
//! * per batch — [`BarnesHutMac::classify_batch`] classifies up to
//!   [`MAC_BATCH`] sibling nodes against one bucket, lane-parallel, decision
//!   for decision `classify`.
//!
//! The lane replay ([`crate::replay`]) decides its lanes from
//! [`BarnesHutMac::alpha`] with `accept`'s operands.
//!
//! # The batch form
//!
//! The group walk packs the children of an opened node into a [`NodeBatch`]
//! (struct of `[f64; 8]` arrays), and the batch classifier runs the exact
//! per-node arithmetic of `classify`, only laid out as lane-parallel loops
//! over fixed-size arrays that the compiler vectorises at the baseline ISA.
//! For every lane the expression order replicates [`Aabb::dist_sq_to`],
//! [`Aabb::max_dist_sq_to`] and the comparisons of `classify` term for term,
//! so the decisions are identical on every input — held to `classify` by
//! the tests at the bottom of this file and, under test, at the walk's one
//! batching site on every tree the walk tests build.

use bhut_geom::{Aabb, Vec3};

/// The classic Barnes–Hut α-criterion: accept iff `side / dist(com) < α`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarnesHutMac {
    pub alpha: f64,
}

/// Outcome of testing a node against a whole *bucket* of targets at once
/// (the tight bounding box of a leaf's particles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupClass {
    /// Every point in the bucket accepts the node.
    AcceptAll,
    /// Every point in the bucket rejects the node.
    RejectAll,
    /// The bucket straddles the acceptance boundary; members must be walked
    /// individually below this node.
    Mixed,
}

impl BarnesHutMac {
    /// The criterion for `alpha`, which must be finite and positive.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be finite and positive, got {alpha}");
        BarnesHutMac { alpha }
    }

    /// `true` if the node `(side, com)` — `side` its cell's
    /// [`Aabb::side`], as [`crate::Node::side`] stores it — is acceptable for
    /// evaluation at `point`: `side² < α²·d²` with `α² = α·α` and
    /// `d² = (dx² + dy²) + dz²` of `d = com − point`, in that order.
    #[inline]
    pub fn accept(&self, side: f64, com: Vec3, point: Vec3) -> bool {
        // side/dist < alpha  ⇔  side² < α² · dist²  (avoids the sqrt)
        let d2 = com.dist_sq(point);
        side * side < self.alpha * self.alpha * d2
    }

    /// Classify the node `(side, com)` against every point of `bucket` in
    /// one test, by bracketing the per-point distance term between its
    /// minimum and maximum over the bucket.
    ///
    /// Contract (what the grouped walk's exactness rests on): for every
    /// point `p` inside `bucket`, `AcceptAll` implies `accept(side, com, p)`
    /// and `RejectAll` implies `!accept(side, com, p)`.
    #[inline]
    pub fn classify(&self, side: f64, com: Vec3, bucket: &Aabb) -> GroupClass {
        // Per-member test: side² < α² · dist²(com, p). Over p ∈ bucket the
        // distance to the com ranges over [dmin, dmax].
        let s2 = side * side;
        let a2 = self.alpha * self.alpha;
        if s2 < a2 * bucket.dist_sq_to(com) {
            GroupClass::AcceptAll
        } else if s2 >= a2 * bucket.max_dist_sq_to(com) {
            GroupClass::RejectAll
        } else {
            GroupClass::Mixed
        }
    }

    /// [`BarnesHutMac::classify`] of `batch.len()` sibling nodes against one
    /// bucket in a single lane-parallel call, decision for decision. Lanes
    /// at index ≥ `batch.len()` are unspecified.
    #[inline]
    pub fn classify_batch(&self, batch: &NodeBatch, bucket: &Aabb) -> [GroupClass; MAC_BATCH] {
        let a2 = self.alpha * self.alpha;
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

/// Maximum nodes classified per batched MAC call — the children of one
/// opened octree node, and exactly one f64 SIMD register's worth of lanes
/// per coordinate on AVX-512 (two on AVX2).
pub const MAC_BATCH: usize = 8;

/// Up to [`MAC_BATCH`] tree nodes transposed into structure-of-arrays form
/// for one batched classification: center of mass and the pre-squared cell
/// side (`side * side`, as the scalar `classify` squares it, so decisions
/// stay bitwise-identical).
#[derive(Debug, Clone)]
pub struct NodeBatch {
    len: usize,
    com_x: [f64; MAC_BATCH],
    com_y: [f64; MAC_BATCH],
    com_z: [f64; MAC_BATCH],
    side2: [f64; MAC_BATCH],
}

impl Default for NodeBatch {
    fn default() -> Self {
        NodeBatch {
            len: 0,
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

    /// Append the node `(side, com)`, as [`BarnesHutMac::classify`] takes
    /// it. Panics if the batch is full ([`MAC_BATCH`] entries).
    #[inline(always)]
    pub fn push(&mut self, side: f64, com: Vec3) {
        let i = self.len;
        self.com_x[i] = com.x;
        self.com_y[i] = com.y;
        self.com_z[i] = com.z;
        self.side2[i] = side * side;
        self.len = i + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_cell() -> Aabb {
        Aabb::origin_cube(1.0)
    }

    /// The unit cell's side, as a node stores it.
    const UNIT: f64 = 1.0;

    #[test]
    fn bh_accepts_far_rejects_near() {
        let mac = BarnesHutMac::new(1.0);
        let com = unit_cell().center();
        // dist 10 ≫ side 1 → accept
        assert!(mac.accept(UNIT, com, Vec3::new(10.0, 0.5, 0.5)));
        // dist 0.6 < side 1 → reject
        assert!(!mac.accept(UNIT, com, Vec3::new(1.1, 0.5, 0.5)));
    }

    #[test]
    fn smaller_alpha_is_stricter() {
        let loose = BarnesHutMac::new(1.0);
        let strict = BarnesHutMac::new(0.5);
        let com = unit_cell().center();
        let p = Vec3::new(2.0, 0.5, 0.5); // dist 1.5, side 1: ratio 0.67
        assert!(loose.accept(UNIT, com, p));
        assert!(!strict.accept(UNIT, com, p));
    }

    #[test]
    fn threshold_is_strict_inequality() {
        // ratio exactly α must NOT accept ("less than some constant α").
        let mac = BarnesHutMac::new(0.5);
        let com = unit_cell().center();
        let p = Vec3::new(0.5 + 2.0, 0.5, 0.5); // dist = 2.0, side 1 → ratio 0.5
        assert!(!mac.accept(UNIT, com, p));
    }

    /// Zero, negative, infinite and NaN α are all refused: an infinite α
    /// would accept every node at any distance, a NaN one none.
    #[test]
    fn alpha_that_is_not_finite_and_positive_is_rejected() {
        for alpha in [0.0, -0.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let refused = std::panic::catch_unwind(|| BarnesHutMac::new(alpha));
            let msg = refused.expect_err(&format!("alpha {alpha} was accepted"));
            let msg = msg.downcast_ref::<String>().expect("a formatted panic message");
            assert!(msg.contains("alpha must be finite and positive"), "{msg}");
        }
        assert_eq!(BarnesHutMac::new(f64::MIN_POSITIVE).alpha, f64::MIN_POSITIVE);
    }

    /// classify() must bracket accept(): AcceptAll ⇒ every sampled bucket
    /// point accepts, RejectAll ⇒ every sampled bucket point rejects.
    #[test]
    fn group_classification_is_conservative() {
        let com = Vec3::new(0.45, 0.55, 0.6); // slightly off-center
        for alpha in [0.4, 0.67, 1.0, 1.5] {
            let bh = BarnesHutMac::new(alpha);
            for bx in 0..40 {
                let base = Vec3::new(-2.0 + 0.2 * bx as f64, 0.3, 1.4);
                let bucket = Aabb::new(base, base + Vec3::new(0.7, 0.5, 0.3));
                // Deterministic sample grid inside the bucket, corners included.
                let samples = (0..27).map(|i| {
                    let f = |k: usize| (i / 3usize.pow(k as u32) % 3) as f64 / 2.0;
                    bucket.min
                        + Vec3::new(
                            f(0) * (bucket.max.x - bucket.min.x),
                            f(1) * (bucket.max.y - bucket.min.y),
                            f(2) * (bucket.max.z - bucket.min.z),
                        )
                });
                for p in samples {
                    match bh.classify(UNIT, com, &bucket) {
                        GroupClass::AcceptAll => assert!(bh.accept(UNIT, com, p)),
                        GroupClass::RejectAll => assert!(!bh.accept(UNIT, com, p)),
                        GroupClass::Mixed => {}
                    }
                }
            }
        }
    }

    #[test]
    fn far_bucket_accepts_near_bucket_rejects() {
        let mac = BarnesHutMac::new(0.67);
        let com = unit_cell().center();
        let far = Aabb::cube(Vec3::splat(50.0), 1.0);
        assert_eq!(mac.classify(UNIT, com, &far), GroupClass::AcceptAll);
        let near = Aabb::cube(Vec3::splat(0.6), 0.4);
        assert_eq!(mac.classify(UNIT, com, &near), GroupClass::RejectAll);
        // A bucket spanning the α boundary is Mixed.
        let straddling = Aabb::new(Vec3::splat(0.5), Vec3::splat(40.0));
        assert_eq!(mac.classify(UNIT, com, &straddling), GroupClass::Mixed);
    }

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

    fn check_batch_matches_scalar(mac: &BarnesHutMac, seed: u64, cases: usize) {
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
                batch.push(cell.side(), com);
                cells.push((cell, com));
            }
            let got = mac.classify_batch(&batch, &bucket);
            for (j, (cell, com)) in cells.iter().enumerate() {
                let want = mac.classify(cell.side(), *com, &bucket);
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
                batch.push(cell.side(), cell.center());
            }
            let got = bh.classify_batch(&batch, &bucket);
            for (j, cell) in cells.iter().enumerate() {
                assert_eq!(got[j], bh.classify(cell.side(), cell.center(), &bucket));
            }
        }
    }
}
