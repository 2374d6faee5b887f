//! Cartesian multipole expansions: P2M, M2M, and evaluation.
//!
//! An [`Expansion`] of degree `k` about center `c` stores the raw moments
//! `M_a = Σ_j m_j (y_j − c)^a` for `|a| ≤ k`. The potential at a target `x`
//! with `r = x − c` is
//!
//! ```text
//! Φ(x) = − Σ_a (−1)^{|a|} M_a T_a(r),      T_a = (1/a!) ∂^a (1/|r|)
//! ```
//!
//! and the acceleration is its negative gradient, obtained from the same
//! tensor table extended one degree higher:
//! `∂_i T_a = (a_i + 1) T_{a+e_i}`.

use crate::multiindex::{binomial, MultiIndexSet};
use crate::taylor::taylor_tensors;
use bhut_geom::Vec3;

/// The highest degree an [`Expansion`] can be evaluated at: M2P reads the
/// Taylor tensors one degree above the moments, and [`MultiIndexSet::new`]
/// tabulates up to `MAX_DEGREE + 1`. Configurations are checked against it
/// where they enter the program.
pub const MAX_DEGREE: u32 = 19;

/// A degree-k Cartesian multipole expansion of a mass cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Expansion {
    pub center: Vec3,
    pub degree: u32,
    /// Raw moments `M_a`, indexed per [`MultiIndexSet::new`]`(degree)`.
    pub moments: Vec<f64>,
}

impl Expansion {
    /// The zero expansion about `center`.
    pub fn zero(center: Vec3, degree: u32) -> Self {
        Expansion { center, degree, moments: vec![0.0; MultiIndexSet::count(degree)] }
    }

    /// Number of real coefficients a degree-k expansion carries — the
    /// message size a data-shipping scheme pays per node (§4.2.1).
    pub fn num_coeffs(degree: u32) -> usize {
        MultiIndexSet::count(degree)
    }

    /// **P2M**: moments of a set of `(position, mass)` sources about
    /// `center`.
    pub fn from_particles(
        center: Vec3,
        degree: u32,
        sources: impl IntoIterator<Item = (Vec3, f64)>,
    ) -> Self {
        let set = MultiIndexSet::new(degree);
        let mut moments = vec![0.0; set.len()];
        for (pos, mass) in sources {
            let d = pos - center;
            // powers d^a accumulated in graded order: d^a = d^{a-e_d} * d_d
            // (we just recompute with powi; degrees are small).
            for (idx, &(ax, ay, az)) in set.indices.iter().enumerate() {
                moments[idx] +=
                    mass * d.x.powi(ax as i32) * d.y.powi(ay as i32) * d.z.powi(az as i32);
            }
        }
        Expansion { center, degree, moments }
    }

    /// Total mass (the zeroth moment).
    #[inline]
    pub fn mass(&self) -> f64 {
        self.moments[0]
    }

    /// **M2M**: the same cluster's expansion about `new_center`:
    /// `M'_b = Σ_{a ≤ b} C(b, a) (c − c')^{b−a} M_a`.
    pub fn translate(&self, new_center: Vec3) -> Expansion {
        let set = MultiIndexSet::new(self.degree);
        let s = self.center - new_center;
        let mut out = vec![0.0; set.len()];
        for (bi, &(bx, by, bz)) in set.indices.iter().enumerate() {
            let mut acc = 0.0;
            for ax in 0..=bx {
                for ay in 0..=by {
                    for az in 0..=bz {
                        let c = binomial(bx as u32, ax as u32)
                            * binomial(by as u32, ay as u32)
                            * binomial(bz as u32, az as u32);
                        let shift = s.x.powi((bx - ax) as i32)
                            * s.y.powi((by - ay) as i32)
                            * s.z.powi((bz - az) as i32);
                        acc += c * shift * self.moments[set.pos(ax, ay, az)];
                    }
                }
            }
            out[bi] = acc;
        }
        Expansion { center: new_center, degree: self.degree, moments: out }
    }

    /// Accumulate another expansion with the *same* center and degree
    /// (merging children after M2M).
    ///
    /// # Panics
    /// If centers or degrees differ.
    pub fn add_assign(&mut self, other: &Expansion) {
        assert_eq!(self.degree, other.degree, "degree mismatch");
        assert!(self.center.dist(other.center) == 0.0, "center mismatch");
        for (a, b) in self.moments.iter_mut().zip(&other.moments) {
            *a += b;
        }
    }

    /// **M2P**: potential and acceleration at `x`. The target must be
    /// outside the cluster for the series to converge; callers enforce that
    /// through the MAC.
    pub fn eval(&self, x: Vec3) -> (f64, Vec3) {
        use crate::multiindex::with_cached_set;
        with_cached_set(self.degree + 1, |set| {
            let r = x - self.center;
            // thread-local scratch for the tensor table
            use std::cell::RefCell;
            thread_local! {
                static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
            }
            SCRATCH.with(|scratch| {
                let mut t = scratch.borrow_mut();
                taylor_tensors(set, r, &mut t);
                let mut phi = 0.0;
                let mut grad = Vec3::ZERO;
                // Graded order makes the degree-k index set a prefix of the
                // (k+1) set, so the outer table serves both roles (and
                // avoids a nested borrow of the thread-local cache).
                let prefix = MultiIndexSet::count(self.degree);
                for (idx, &(ax, ay, az)) in set.indices[..prefix].iter().enumerate() {
                    let m = self.moments[idx];
                    if m == 0.0 {
                        continue;
                    }
                    let sign = if (ax + ay + az) % 2 == 0 { 1.0 } else { -1.0 };
                    let ta = t[set.pos(ax, ay, az)];
                    phi -= sign * m * ta;
                    // ∂_i T_a = (a_i + 1) T_{a+e_i}
                    grad.x -= sign * m * (ax as f64 + 1.0) * t[set.pos(ax + 1, ay, az)];
                    grad.y -= sign * m * (ay as f64 + 1.0) * t[set.pos(ax, ay + 1, az)];
                    grad.z -= sign * m * (az as f64 + 1.0) * t[set.pos(ax, ay, az + 1)];
                }
                // a = −∇Φ
                (phi, -grad)
            })
        })
    }

    /// Potential only (cheaper alias of [`Expansion::eval`] when the force is
    /// not needed; still computes the shared tensor table).
    pub fn potential_at(&self, x: Vec3) -> f64 {
        self.eval(x).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhut_geom::{uniform_cube, Particle};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn cluster(n: usize, seed: u64) -> Vec<Particle> {
        uniform_cube(n, 1.0, seed).particles
    }

    fn direct_phi(ps: &[Particle], x: Vec3) -> f64 {
        ps.iter().map(|p| -p.mass / p.pos.dist(x)).sum()
    }

    fn direct_accel(ps: &[Particle], x: Vec3) -> Vec3 {
        let mut a = Vec3::ZERO;
        for p in ps {
            let d = p.pos - x;
            let r2 = d.norm_sq();
            a += d * (p.mass / (r2 * r2.sqrt()));
        }
        a
    }

    #[test]
    fn monopole_matches_point_mass() {
        let ps = cluster(50, 1);
        let com: Vec3 = ps.iter().map(|p| p.pos * p.mass).sum::<Vec3>()
            / ps.iter().map(|p| p.mass).sum::<f64>();
        let e = Expansion::from_particles(com, 0, ps.iter().map(|p| (p.pos, p.mass)));
        let x = Vec3::new(10.0, 3.0, -4.0);
        let (phi, acc) = e.eval(x);
        let m: f64 = ps.iter().map(|p| p.mass).sum();
        let want_phi = -m / com.dist(x);
        assert!((phi - want_phi).abs() < 1e-12 * want_phi.abs());
        let d = com - x;
        let want_acc = d * (m / d.norm_sq().powf(1.5));
        assert!(acc.dist(want_acc) < 1e-12 * want_acc.norm());
    }

    #[test]
    fn error_decreases_with_degree() {
        let ps = cluster(100, 2);
        let center = Vec3::splat(0.5);
        let x = Vec3::new(10.0, 8.0, 9.0); // far field: ratio ≈ 0.06
        let exact = direct_phi(&ps, x);
        let mut prev = f64::INFINITY;
        for k in 0..=5 {
            let e = Expansion::from_particles(center, k, ps.iter().map(|p| (p.pos, p.mass)));
            let err = (e.potential_at(x) - exact).abs();
            assert!(err < prev * 1.01, "degree {k}: {err} !< {prev}");
            prev = err;
        }
        // Degree 5 at this separation is very accurate.
        assert!(prev < 1e-6 * exact.abs(), "residual {prev}");
    }

    #[test]
    fn acceleration_matches_direct_at_high_degree() {
        let ps = cluster(60, 3);
        let center = Vec3::splat(0.5);
        let e = Expansion::from_particles(center, 6, ps.iter().map(|p| (p.pos, p.mass)));
        let x = Vec3::new(-4.0, 1.0, 2.5);
        let (_, acc) = e.eval(x);
        let want = direct_accel(&ps, x);
        assert!(acc.dist(want) < 1e-5 * want.norm(), "{acc:?} vs {want:?}");
    }

    #[test]
    fn acceleration_is_negative_gradient() {
        // finite-difference check of ∇Φ from eval().
        let ps = cluster(40, 4);
        let e = Expansion::from_particles(Vec3::splat(0.5), 4, ps.iter().map(|p| (p.pos, p.mass)));
        let x = Vec3::new(2.7, -1.9, 3.3);
        let (_, acc) = e.eval(x);
        let h = 1e-6;
        let dx = (e.potential_at(x + Vec3::new(h, 0.0, 0.0))
            - e.potential_at(x - Vec3::new(h, 0.0, 0.0)))
            / (2.0 * h);
        let dy = (e.potential_at(x + Vec3::new(0.0, h, 0.0))
            - e.potential_at(x - Vec3::new(0.0, h, 0.0)))
            / (2.0 * h);
        let dz = (e.potential_at(x + Vec3::new(0.0, 0.0, h))
            - e.potential_at(x - Vec3::new(0.0, 0.0, h)))
            / (2.0 * h);
        let grad = Vec3::new(dx, dy, dz);
        assert!(acc.dist(-grad) < 1e-6 * grad.norm().max(1e-9), "{acc:?} vs {:?}", -grad);
    }

    #[test]
    fn m2m_is_exact() {
        // Translating the expansion must not change its predictions (up to
        // roundoff): the Cartesian M2M is exact, unlike truncated spherical
        // translations.
        let ps = cluster(80, 5);
        let e1 = Expansion::from_particles(Vec3::splat(0.4), 4, ps.iter().map(|p| (p.pos, p.mass)));
        let e2 = e1.translate(Vec3::new(1.0, -0.3, 0.2));
        let direct2 = Expansion::from_particles(e2.center, 4, ps.iter().map(|p| (p.pos, p.mass)));
        for (a, b) in e2.moments.iter().zip(&direct2.moments) {
            assert!((a - b).abs() < 1e-10 * (1.0 + b.abs()), "{a} vs {b}");
        }
        // Truncated series about different centers differ only in the
        // truncation tail; both must sit within it of the true potential.
        let x = Vec3::new(5.0, 5.0, 5.0);
        let exact = direct_phi(&ps, x);
        assert!((e1.potential_at(x) - exact).abs() < 1e-4 * exact.abs());
        assert!((e2.potential_at(x) - exact).abs() < 1e-4 * exact.abs());
    }

    #[test]
    fn m2m_composition_equals_single_hop() {
        let ps = cluster(30, 6);
        let e = Expansion::from_particles(Vec3::ZERO, 3, ps.iter().map(|p| (p.pos, p.mass)));
        let via = e.translate(Vec3::splat(0.3)).translate(Vec3::splat(1.0));
        let direct = e.translate(Vec3::splat(1.0));
        for (a, b) in via.moments.iter().zip(&direct.moments) {
            assert!((a - b).abs() < 1e-10 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn add_assign_merges_clusters() {
        let ps = cluster(40, 7);
        let (left, right) = ps.split_at(20);
        let c = Vec3::splat(0.5);
        let mut ea = Expansion::from_particles(c, 3, left.iter().map(|p| (p.pos, p.mass)));
        let eb = Expansion::from_particles(c, 3, right.iter().map(|p| (p.pos, p.mass)));
        ea.add_assign(&eb);
        let whole = Expansion::from_particles(c, 3, ps.iter().map(|p| (p.pos, p.mass)));
        for (a, b) in ea.moments.iter().zip(&whole.moments) {
            assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()));
        }
    }

    #[test]
    #[should_panic(expected = "degree mismatch")]
    fn add_assign_rejects_degree_mismatch() {
        let mut a = Expansion::zero(Vec3::ZERO, 2);
        let b = Expansion::zero(Vec3::ZERO, 3);
        a.add_assign(&b);
    }

    #[test]
    fn random_translations_property() {
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..10 {
            let ps = cluster(20, rng.gen());
            let k = rng.gen_range(0..5);
            let c1 = Vec3::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), 0.0);
            let c2 = Vec3::new(0.0, rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
            let e = Expansion::from_particles(c1, k, ps.iter().map(|p| (p.pos, p.mass)));
            let t = e.translate(c2);
            let d = Expansion::from_particles(c2, k, ps.iter().map(|p| (p.pos, p.mass)));
            for (a, b) in t.moments.iter().zip(&d.moments) {
                assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
            }
        }
    }
}
