//! The multipole acceptance criterion (MAC).
//!
//! §2: "The multipole acceptance criterion for the Barnes–Hut method computes
//! the ratio of the dimension of the box to the distance of the point from
//! the center of mass of the box. If this ratio is less than some constant,
//! α, an interaction can be computed." Larger α accepts boxes at shorter
//! range — fewer expansions, faster, less accurate (Table 7 sweeps α over
//! {0.67, 0.80, 1.0}).
//!
//! That α-criterion, [`BarnesHutMac`], is the one acceptance test here. The
//! per-target walks ask [`Mac::accept`], the group walk brackets it over a
//! bucket ([`GroupMac`]), and the lane replay ([`crate::replay`]) decides
//! its lanes from [`Mac::alpha`] with the same operands.

use crate::mac_simd::{NodeBatch, MAC_BATCH};
use bhut_geom::{Aabb, Vec3};

/// Decides whether a particle–node interaction may be approximated by the
/// node's multipole expansion.
pub trait Mac {
    /// `true` if the node `(cell, com)` is acceptable for evaluation at
    /// `point`: `side² < α²·d²` with `side = cell.side()`, `α² = α·α` and
    /// `d² = (dx² + dy²) + dz²` of `d = com − point`, in that order.
    fn accept(&self, cell: &Aabb, com: Vec3, point: Vec3) -> bool;

    /// The α of [`Mac::accept`]. The lane replay ([`crate::replay`]) decides
    /// its lanes as `side² < (α·α)·d²` from the `com − p` its interaction
    /// arithmetic starts from anyway, which is `accept` operand for operand.
    fn alpha(&self) -> f64;

    /// Number of floating-point operations one acceptance test costs in the
    /// paper's machine model (§5.2.1: "The MAC routine requires 14 floating
    /// point instructions").
    fn flops(&self) -> u64 {
        14
    }
}

/// The classic Barnes–Hut α-criterion: accept iff `side / dist(com) < α`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarnesHutMac {
    pub alpha: f64,
}

impl BarnesHutMac {
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        BarnesHutMac { alpha }
    }
}

impl Mac for BarnesHutMac {
    #[inline]
    fn accept(&self, cell: &Aabb, com: Vec3, point: Vec3) -> bool {
        // side/dist < alpha  ⇔  side² < α² · dist²  (avoids the sqrt)
        let side = cell.side();
        let d2 = com.dist_sq(point);
        side * side < self.alpha * self.alpha * d2
    }

    #[inline]
    fn alpha(&self) -> f64 {
        self.alpha
    }
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

/// A [`Mac`] that can classify a node against a bucket of targets in one
/// test, by bracketing the per-member distance term between its minimum and
/// maximum over the bucket.
///
/// Contract (what the grouped walk's exactness rests on): for every point
/// `p` inside `bucket`, `classify(cell, com, bucket) == AcceptAll` implies
/// `accept(cell, com, p)`, and `RejectAll` implies `!accept(cell, com, p)`.
pub trait GroupMac: Mac {
    fn classify(&self, cell: &Aabb, com: Vec3, bucket: &Aabb) -> GroupClass;

    /// Classify `batch.len()` sibling nodes against one bucket in a single
    /// call. The default loops over [`GroupMac::classify`] (so every
    /// implementor is automatically correct); [`BarnesHutMac`] overrides it
    /// with the lane-parallel body in [`crate::mac_simd`], which is
    /// bitwise-identical decision for decision. Lanes at index ≥
    /// `batch.len()` are unspecified.
    fn classify_batch(&self, batch: &NodeBatch, bucket: &Aabb) -> [GroupClass; MAC_BATCH] {
        let mut out = [GroupClass::Mixed; MAC_BATCH];
        for (j, slot) in out.iter_mut().enumerate().take(batch.len()) {
            *slot = self.classify(&batch.cell(j), batch.com(j), bucket);
        }
        out
    }
}

impl GroupMac for BarnesHutMac {
    #[inline]
    fn classify_batch(&self, batch: &NodeBatch, bucket: &Aabb) -> [GroupClass; MAC_BATCH] {
        crate::mac_simd::classify_batch_bh(self.alpha * self.alpha, batch, bucket)
    }

    #[inline]
    fn classify(&self, cell: &Aabb, com: Vec3, bucket: &Aabb) -> GroupClass {
        // Per-member test: side² < α² · dist²(com, p). Over p ∈ bucket the
        // distance to the com ranges over [dmin, dmax].
        let side = cell.side();
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_cell() -> Aabb {
        Aabb::origin_cube(1.0)
    }

    #[test]
    fn bh_accepts_far_rejects_near() {
        let mac = BarnesHutMac::new(1.0);
        let com = unit_cell().center();
        // dist 10 ≫ side 1 → accept
        assert!(mac.accept(&unit_cell(), com, Vec3::new(10.0, 0.5, 0.5)));
        // dist 0.6 < side 1 → reject
        assert!(!mac.accept(&unit_cell(), com, Vec3::new(1.1, 0.5, 0.5)));
    }

    #[test]
    fn smaller_alpha_is_stricter() {
        let loose = BarnesHutMac::new(1.0);
        let strict = BarnesHutMac::new(0.5);
        let com = unit_cell().center();
        let p = Vec3::new(2.0, 0.5, 0.5); // dist 1.5, side 1: ratio 0.67
        assert!(loose.accept(&unit_cell(), com, p));
        assert!(!strict.accept(&unit_cell(), com, p));
    }

    #[test]
    fn threshold_is_strict_inequality() {
        // ratio exactly α must NOT accept ("less than some constant α").
        let mac = BarnesHutMac::new(0.5);
        let com = unit_cell().center();
        let p = Vec3::new(0.5 + 2.0, 0.5, 0.5); // dist = 2.0, side 1 → ratio 0.5
        assert!(!mac.accept(&unit_cell(), com, p));
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn zero_alpha_rejected() {
        let _ = BarnesHutMac::new(0.0);
    }

    #[test]
    fn mac_flop_cost_matches_paper() {
        assert_eq!(BarnesHutMac::new(1.0).flops(), 14);
    }

    /// classify() must bracket accept(): AcceptAll ⇒ every sampled bucket
    /// point accepts, RejectAll ⇒ every sampled bucket point rejects.
    #[test]
    fn group_classification_is_conservative() {
        let cell = unit_cell();
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
                    match bh.classify(&cell, com, &bucket) {
                        GroupClass::AcceptAll => assert!(bh.accept(&cell, com, p)),
                        GroupClass::RejectAll => assert!(!bh.accept(&cell, com, p)),
                        GroupClass::Mixed => {}
                    }
                }
            }
        }
    }

    #[test]
    fn far_bucket_accepts_near_bucket_rejects() {
        let mac = BarnesHutMac::new(0.67);
        let cell = unit_cell();
        let com = cell.center();
        let far = Aabb::cube(Vec3::splat(50.0), 1.0);
        assert_eq!(mac.classify(&cell, com, &far), GroupClass::AcceptAll);
        let near = Aabb::cube(Vec3::splat(0.6), 0.4);
        assert_eq!(mac.classify(&cell, com, &near), GroupClass::RejectAll);
        // A bucket spanning the α boundary is Mixed.
        let straddling = Aabb::new(Vec3::splat(0.5), Vec3::splat(40.0));
        assert_eq!(mac.classify(&cell, com, &straddling), GroupClass::Mixed);
    }
}
