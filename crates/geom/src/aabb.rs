//! Axis-aligned bounding boxes and octant arithmetic.
//!
//! The Barnes–Hut oct-tree recursively splits a cubic domain into eight
//! octants; `Aabb` carries both the cubic cells of that decomposition and the
//! tight boxes used by the *box collapsing* technique (§2 of the paper) that
//! bounds the tree size for pathological particle pairs.

use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// An axis-aligned box `[min, max]` (inclusive on both ends).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb {
    /// Build from corners; panics in debug builds if `min > max` on any axis.
    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        debug_assert!(min.x <= max.x && min.y <= max.y && min.z <= max.z);
        Aabb { min, max }
    }

    /// A cube centered at `center` with side length `side`.
    #[inline]
    pub fn cube(center: Vec3, side: f64) -> Self {
        let h = Vec3::splat(side * 0.5);
        Aabb::new(center - h, center + h)
    }

    /// The unit-ish cube `[0, side]^3`.
    #[inline]
    pub fn origin_cube(side: f64) -> Self {
        Aabb::new(Vec3::ZERO, Vec3::splat(side))
    }

    /// Smallest box containing all `points`; `None` if empty.
    pub fn bounding(points: impl IntoIterator<Item = Vec3>) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let (min, max) = it.fold((first, first), |(lo, hi), p| (lo.min(p), hi.max(p)));
        Some(Aabb::new(min, max))
    }

    /// Smallest *cube* containing all `points` (used as the tree root so that
    /// octants stay cubic); `None` if empty. The cube is centered on the
    /// bounding box and padded by `pad` on each side so boundary particles
    /// fall strictly inside.
    pub fn bounding_cube(points: impl IntoIterator<Item = Vec3>, pad: f64) -> Option<Self> {
        let b = Self::bounding(points)?;
        let side = (b.max - b.min).max_component() + 2.0 * pad;
        Some(Aabb::cube(b.center(), side.max(f64::MIN_POSITIVE)))
    }

    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Per-axis extents.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// The length of the longest side — the "dimension of the box" used by
    /// the Barnes–Hut multipole acceptance criterion.
    #[inline]
    pub fn side(&self) -> f64 {
        self.extent().max_component()
    }

    #[inline]
    pub fn volume(&self) -> f64 {
        let e = self.extent();
        e.x * e.y * e.z
    }

    /// Whether `p` lies inside (boundary inclusive).
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Whether `other` lies entirely inside `self`.
    #[inline]
    pub fn contains_box(&self, other: &Aabb) -> bool {
        self.contains(other.min) && self.contains(other.max)
    }

    /// Octant index (0..8) of point `p` relative to the box center: bit 0 set
    /// if `p.x` is in the upper half, bit 1 for `y`, bit 2 for `z`. This
    /// matches the Morton child ordering in `bhut-morton`, so in-order
    /// traversal of children yields the Z-curve.
    #[inline]
    pub fn octant_of(&self, p: Vec3) -> usize {
        let c = self.center();
        ((p.x >= c.x) as usize) | (((p.y >= c.y) as usize) << 1) | (((p.z >= c.z) as usize) << 2)
    }

    /// The sub-box for octant `oct` (inverse of [`Aabb::octant_of`]).
    #[inline]
    pub fn octant(&self, oct: usize) -> Aabb {
        debug_assert!(oct < 8);
        let c = self.center();
        let pick = |bit: usize, lo: f64, mid: f64, hi: f64| -> (f64, f64) {
            if oct >> bit & 1 == 1 {
                (mid, hi)
            } else {
                (lo, mid)
            }
        };
        let (x0, x1) = pick(0, self.min.x, c.x, self.max.x);
        let (y0, y1) = pick(1, self.min.y, c.y, self.max.y);
        let (z0, z1) = pick(2, self.min.z, c.z, self.max.z);
        Aabb::new(Vec3::new(x0, y0, z0), Vec3::new(x1, y1, z1))
    }

    /// Grow the box to include `p`.
    #[inline]
    pub fn expand_to(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Union of two boxes.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb::new(self.min.min(other.min), self.max.max(other.max))
    }

    /// *Box collapsing* (§2): the smallest cube-aligned descendant of `self`
    /// (i.e. reachable by repeated octant subdivision) that still contains
    /// all of `tight`. Collapsing skips long chains of single-child nodes,
    /// which is what bounds the treecode complexity at `O(n log n)` even for
    /// adversarial particle placements.
    pub fn collapse_to(&self, tight: &Aabb) -> Aabb {
        let mut cell = *self;
        loop {
            let oct = cell.octant_of(tight.min);
            let child = cell.octant(oct);
            if child.contains_box(tight) && child.side() > 0.0 {
                cell = child;
            } else {
                return cell;
            }
        }
    }

    /// Squared distance from `p` to the nearest point of the box (0 inside).
    pub fn dist_sq_to(&self, p: Vec3) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        let dz = (self.min.z - p.z).max(0.0).max(p.z - self.max.z);
        dx * dx + dy * dy + dz * dz
    }

    /// Squared distance from `p` to the *farthest* point of the box. Together
    /// with [`Aabb::dist_sq_to`] this brackets the distance from `p` to any
    /// point inside the box — the bracket the grouped multipole acceptance
    /// test needs.
    pub fn max_dist_sq_to(&self, p: Vec3) -> f64 {
        let dx = (p.x - self.min.x).abs().max((self.max.x - p.x).abs());
        let dy = (p.y - self.min.y).abs().max((self.max.y - p.y).abs());
        let dz = (p.z - self.min.z).abs().max((self.max.z - p.z).abs());
        dx * dx + dy * dy + dz * dz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Aabb {
        Aabb::origin_cube(1.0)
    }

    #[test]
    fn cube_construction() {
        let c = Aabb::cube(Vec3::splat(1.0), 2.0);
        assert_eq!(c.min, Vec3::ZERO);
        assert_eq!(c.max, Vec3::splat(2.0));
        assert_eq!(c.center(), Vec3::splat(1.0));
        assert_eq!(c.side(), 2.0);
        assert_eq!(c.volume(), 8.0);
    }

    #[test]
    fn bounding_of_points() {
        let pts = [Vec3::new(1.0, 5.0, -1.0), Vec3::new(-2.0, 0.0, 3.0)];
        let b = Aabb::bounding(pts).unwrap();
        assert_eq!(b.min, Vec3::new(-2.0, 0.0, -1.0));
        assert_eq!(b.max, Vec3::new(1.0, 5.0, 3.0));
        assert!(Aabb::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn bounding_cube_is_cubic_and_contains() {
        let pts = [Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 10.0, 2.0)];
        let c = Aabb::bounding_cube(pts, 0.5).unwrap();
        let e = c.extent();
        assert!((e.x - e.y).abs() < 1e-12 && (e.y - e.z).abs() < 1e-12);
        for p in pts {
            assert!(c.contains(p));
        }
    }

    #[test]
    fn octant_roundtrip() {
        let b = unit();
        for oct in 0..8 {
            let sub = b.octant(oct);
            assert_eq!(b.octant_of(sub.center()), oct);
            assert!((sub.volume() - b.volume() / 8.0).abs() < 1e-12);
            assert!(b.contains_box(&sub));
        }
    }

    #[test]
    fn octant_bit_convention() {
        let b = unit();
        // x-upper-half only => octant 1; z-upper-half only => octant 4.
        assert_eq!(b.octant_of(Vec3::new(0.9, 0.1, 0.1)), 1);
        assert_eq!(b.octant_of(Vec3::new(0.1, 0.9, 0.1)), 2);
        assert_eq!(b.octant_of(Vec3::new(0.1, 0.1, 0.9)), 4);
        assert_eq!(b.octant_of(Vec3::new(0.9, 0.9, 0.9)), 7);
    }

    #[test]
    fn containment() {
        let b = unit();
        assert!(b.contains(Vec3::splat(0.5)));
        assert!(b.contains(Vec3::ZERO)); // boundary inclusive
        assert!(!b.contains(Vec3::new(1.1, 0.5, 0.5)));
    }

    #[test]
    fn expand_and_union() {
        let mut b = unit();
        b.expand_to(Vec3::splat(2.0));
        assert!(b.contains(Vec3::splat(2.0)));
        let u = unit().union(&Aabb::cube(Vec3::splat(3.0), 1.0));
        assert!(u.contains(Vec3::splat(3.4)));
        assert!(u.contains(Vec3::ZERO));
    }

    #[test]
    fn collapse_skips_empty_levels() {
        // Two points crammed into a tiny corner of a huge cube: the collapsed
        // cell must contain them and be much smaller than the root.
        let root = Aabb::origin_cube(1024.0);
        let tight = Aabb::bounding([Vec3::new(0.5, 0.5, 0.5), Vec3::new(1.0, 1.0, 1.0)]).unwrap();
        let c = root.collapse_to(&tight);
        assert!(c.contains_box(&tight));
        assert!(c.side() <= 2.0);
        // And it is an exact power-of-two descendant of the root: [0.5,1]^3.
        assert_eq!(c.side(), 0.5);
        assert_eq!(c.min, Vec3::splat(0.5));
    }

    #[test]
    fn collapse_noop_when_tight_spans_center() {
        let root = unit();
        let tight = Aabb::bounding([Vec3::splat(0.4), Vec3::splat(0.6)]).unwrap();
        assert_eq!(root.collapse_to(&tight), root);
    }

    #[test]
    fn dist_sq_inside_and_outside() {
        let b = unit();
        assert_eq!(b.dist_sq_to(Vec3::splat(0.5)), 0.0);
        assert_eq!(b.dist_sq_to(Vec3::new(2.0, 0.5, 0.5)), 1.0);
        assert_eq!(b.dist_sq_to(Vec3::new(2.0, 2.0, 0.5)), 2.0);
    }

    #[test]
    fn max_dist_reaches_farthest_corner() {
        let b = unit();
        // From the origin corner, the farthest point is (1,1,1).
        assert_eq!(b.max_dist_sq_to(Vec3::ZERO), 3.0);
        // From outside along +x, the farthest point is the min-x face.
        assert_eq!(b.max_dist_sq_to(Vec3::new(2.0, 0.0, 0.0)), 4.0 + 1.0 + 1.0);
        // Brackets dist_sq_to for arbitrary points.
        for i in 0..8 {
            let p = Vec3::new(0.3 * i as f64 - 1.0, 0.7, 1.9);
            assert!(b.dist_sq_to(p) <= b.max_dist_sq_to(p));
        }
    }
}
