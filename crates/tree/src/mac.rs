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
//! two forms that decide alike:
//!
//! * per target — [`BarnesHutMac::accept`], what the per-target walks ask;
//! * per bucket — [`BarnesHutMac::classify`] brackets `accept` over a box
//!   of targets, one call per node the group walk ([`crate::group`]) tests.
//!
//! The lane replay ([`crate::replay`]) decides its lanes from
//! [`BarnesHutMac::alpha`] with `accept`'s operands.

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
}
