//! Multipole acceptance criteria (MACs).
//!
//! §2: "The multipole acceptance criterion for the Barnes–Hut method computes
//! the ratio of the dimension of the box to the distance of the point from
//! the center of mass of the box. If this ratio is less than some constant,
//! α, an interaction can be computed." Larger α accepts boxes at shorter
//! range — fewer expansions, faster, less accurate (Table 7 sweeps α over
//! {0.67, 0.80, 1.0}).
//!
//! [`MinDistMac`] is the variant attributed to Warren & Salmon (§2) that
//! measures distance to the *nearest point of the box*, trading a few more
//! expansions for a bounded worst-case error (the plain criterion can accept
//! a box that still contains the evaluation point's near field when the
//! center of mass sits far off-center).

use crate::mac_simd::{NodeBatch, MAC_BATCH};
use crate::replay::LanePoints;
use bhut_geom::{Aabb, Vec3};

/// Decides whether a particle–node interaction may be approximated by the
/// node's multipole expansion.
pub trait Mac {
    /// `true` if the node `(cell, com)` is acceptable for evaluation at
    /// `point`.
    fn accept(&self, cell: &Aabb, com: Vec3, point: Vec3) -> bool;

    /// [`Mac::accept`] for the lanes of `live` (bit `l` = the point in lane
    /// `l` of `pts`) at once: the returned mask has bit `l` set iff lane `l`
    /// is in `live` and accepts the node. The default asks `accept` lane by
    /// lane, so every implementor is exact by construction; [`MinDistMac`]
    /// overrides it with the vector bodies in [`crate::mac_simd`], which
    /// decide every lane exactly as `accept` does.
    #[inline]
    fn accept_lanes(&self, cell: &Aabb, com: Vec3, pts: &LanePoints, live: u32) -> u32 {
        accept_lanes_scalar(self, cell, com, pts, live)
    }

    /// `Some(α²)` if `accept(cell, com, p)` is exactly [`BarnesHutMac`]'s
    /// test: `side² < α²·d²` with `side = cell.side()` and
    /// `d² = (dx² + dy²) + dz²` of `d = com − p`, in that order. The lane
    /// replay ([`crate::replay`]) then decides the lanes from the `com − p`
    /// its interaction arithmetic starts from anyway, instead of calling
    /// [`Mac::accept_lanes`]. The default, `None`, is always correct.
    #[inline]
    fn com_distance_alpha2(&self) -> Option<f64> {
        None
    }

    /// Number of floating-point operations one acceptance test costs in the
    /// paper's machine model (§5.2.1: "The MAC routine requires 14 floating
    /// point instructions").
    fn flops(&self) -> u64 {
        14
    }
}

/// [`Mac::accept_lanes`] by one [`Mac::accept`] per live lane: the trait's
/// default, and what the shipped overrides fall back to where there is no
/// vector unit to use (computing dead lanes in scalar code costs more than
/// it saves).
#[inline]
pub fn accept_lanes_scalar<M: Mac + ?Sized>(
    mac: &M,
    cell: &Aabb,
    com: Vec3,
    pts: &LanePoints,
    live: u32,
) -> u32 {
    let (mut rest, mut accepted) = (live, 0);
    while rest != 0 {
        let l = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        if mac.accept(cell, com, Vec3::new(pts.x[l], pts.y[l], pts.z[l])) {
            accepted |= 1 << l;
        }
    }
    accepted
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
    fn com_distance_alpha2(&self) -> Option<f64> {
        Some(self.alpha * self.alpha)
    }
}

/// Warren–Salmon style minimum-distance criterion: accept iff
/// `side / dist(nearest box point) < α`. Strictly more conservative than
/// [`BarnesHutMac`] at equal α.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinDistMac {
    pub alpha: f64,
}

impl MinDistMac {
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        MinDistMac { alpha }
    }
}

impl Mac for MinDistMac {
    #[inline]
    fn accept(&self, cell: &Aabb, _com: Vec3, point: Vec3) -> bool {
        let side = cell.side();
        let d2 = cell.dist_sq_to(point);
        side * side < self.alpha * self.alpha * d2
    }

    #[inline]
    fn accept_lanes(&self, cell: &Aabb, com: Vec3, pts: &LanePoints, live: u32) -> u32 {
        crate::mac_simd::accept_lanes_md(self, cell, com, pts, live)
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
    /// implementor is automatically correct); the concrete MACs override it
    /// with the lane-parallel bodies in [`crate::mac_simd`], which are
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

impl GroupMac for MinDistMac {
    #[inline]
    fn classify_batch(&self, batch: &NodeBatch, bucket: &Aabb) -> [GroupClass; MAC_BATCH] {
        crate::mac_simd::classify_batch_md(self.alpha * self.alpha, batch, bucket)
    }

    #[inline]
    fn classify(&self, cell: &Aabb, _com: Vec3, bucket: &Aabb) -> GroupClass {
        // Per-member test: side² < α² · dist²(cell, p). The minimum over the
        // bucket is the box–box distance; the maximum is attained at a bucket
        // corner (dist-to-box is convex).
        let side = cell.side();
        let s2 = side * side;
        let a2 = self.alpha * self.alpha;
        if s2 < a2 * cell.dist_sq_to_box(bucket) {
            return GroupClass::AcceptAll;
        }
        let dmax2 = (0..8).map(|i| cell.dist_sq_to(bucket.corner(i))).fold(0.0, f64::max);
        if s2 >= a2 * dmax2 {
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
    fn min_dist_is_more_conservative() {
        let a = 0.9;
        let bh = BarnesHutMac::new(a);
        let md = MinDistMac::new(a);
        // A point whose distance to the COM passes but whose distance to the
        // box surface fails.
        let com = Vec3::new(0.1, 0.1, 0.1); // off-center COM
        let p = Vec3::new(-1.1, 0.5, 0.5); // 1.26 from com, 1.1 from box
        assert!(bh.accept(&unit_cell(), com, p));
        assert!(!md.accept(&unit_cell(), com, p));
        // Generally: md accepting implies bh would accept at the same α for
        // any com inside the cell (dist-to-box ≤ dist-to-com)… spot check:
        for i in 0..20 {
            let p = Vec3::new(1.0 + 0.2 * i as f64, 0.3, 0.7);
            if md.accept(&unit_cell(), unit_cell().center(), p) {
                assert!(bh.accept(&unit_cell(), unit_cell().center(), p));
            }
        }
    }

    #[test]
    fn point_inside_box_never_accepted_by_min_dist() {
        let md = MinDistMac::new(10.0);
        assert!(!md.accept(&unit_cell(), unit_cell().center(), Vec3::splat(0.4)));
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
            let md = MinDistMac::new(alpha);
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
                    match md.classify(&cell, com, &bucket) {
                        GroupClass::AcceptAll => assert!(md.accept(&cell, com, p)),
                        GroupClass::RejectAll => assert!(!md.accept(&cell, com, p)),
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

#[cfg(test)]
mod comparison_tests {
    use super::*;
    use crate::build::{build, BuildParams};
    use crate::direct;
    use crate::traverse::potential_at;
    use bhut_geom::{plummer, PlummerSpec};

    /// The Warren–Salmon min-distance criterion buys better worst-case
    /// accuracy for more interactions at the same α (§2's discussion of
    /// MAC variants).
    #[test]
    fn min_dist_trades_work_for_accuracy() {
        let set = plummer(PlummerSpec { n: 2000, seed: 12, ..Default::default() });
        let tree = build(&set.particles, BuildParams::default());
        let eps = 1e-4;
        let run = |use_min_dist: bool| -> (u64, f64) {
            let mut inter = 0;
            let mut approx = Vec::new();
            let mut exact = Vec::new();
            for p in set.iter().take(300) {
                let (phi, st) = if use_min_dist {
                    potential_at(
                        &tree,
                        &set.particles,
                        p.pos,
                        Some(p.id),
                        &MinDistMac::new(0.8),
                        eps,
                    )
                } else {
                    potential_at(
                        &tree,
                        &set.particles,
                        p.pos,
                        Some(p.id),
                        &BarnesHutMac::new(0.8),
                        eps,
                    )
                };
                inter += st.interactions();
                approx.push(phi);
                exact.push(direct::potential_direct(&set.particles, p.pos, Some(p.id), eps));
            }
            (inter, direct::fractional_error(&approx, &exact))
        };
        let (work_bh, err_bh) = run(false);
        let (work_md, err_md) = run(true);
        assert!(work_md > work_bh, "min-dist must do more interactions: {work_md} vs {work_bh}");
        assert!(err_md < err_bh, "min-dist must be more accurate: {err_md} vs {err_bh}");
    }

    /// Worst-case guard: an off-center center of mass near the evaluation
    /// point. BH-MAC can accept the box; min-dist never accepts a box the
    /// point is close to.
    #[test]
    fn min_dist_rejects_near_boxes_regardless_of_com() {
        use bhut_geom::{Aabb, Vec3};
        let cell = Aabb::origin_cube(1.0);
        let md = MinDistMac::new(2.0); // very loose
                                       // point touching the box surface
        for p in [Vec3::new(1.0001, 0.5, 0.5), Vec3::new(0.5, -0.0001, 0.5)] {
            assert!(!md.accept(&cell, cell.center(), p), "{p:?}");
        }
    }
}
