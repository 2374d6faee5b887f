//! Seeded particle-distribution samplers.
//!
//! The paper evaluates on "Gaussian and Plummer distributions of varying
//! irregularity" (§5). We reproduce both:
//!
//! * [`plummer`] — the standard astrophysical Plummer (1911) sphere, sampled
//!   with the Aarseth–Hénon–Wielen inverse-CDF recipe, including velocities
//!   from the isotropic distribution function (so multi-timestep runs are
//!   physically sensible).
//! * [`single_gaussian`] / [`multi_gaussian`] — isotropic Gaussian blobs of
//!   controlled variance placed randomly in a cubic domain, matching the
//!   `s_1g_a` / `s_10g_b` family (§5.1, Table 4): a 100³ domain with each
//!   blob's particles concentrated in a 2×2×2 or 4×4×4 subregion.
//!
//! All samplers are deterministic given a seed.

use crate::particle::{Particle, ParticleSet};
use crate::vec3::Vec3;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of a Plummer sphere.
#[derive(Debug, Clone, Copy)]
pub struct PlummerSpec {
    /// Number of particles.
    pub n: usize,
    /// Total mass (equally divided).
    pub total_mass: f64,
    /// Plummer scale radius `a` in `Φ(r) = -GM / sqrt(r² + a²)`.
    pub scale_radius: f64,
    /// Positions beyond `cutoff * scale_radius` are rejected (the standard
    /// practice; the analytic Plummer sphere has infinite extent).
    pub cutoff: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlummerSpec {
    fn default() -> Self {
        PlummerSpec { n: 1000, total_mass: 1.0, scale_radius: 1.0, cutoff: 10.0, seed: 42 }
    }
}

/// Sample a Plummer sphere (positions *and* self-consistent velocities,
/// G = 1 units). The result is recentered so the center of mass and net
/// momentum are zero.
pub fn plummer(spec: PlummerSpec) -> ParticleSet {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let m_each = spec.total_mass / spec.n as f64;
    let mut particles = Vec::with_capacity(spec.n);
    for id in 0..spec.n {
        // Radius by inverting the cumulative mass profile
        // M(r)/M = r³/(r²+a²)^{3/2}  =>  r = a / sqrt(x^{-2/3} - 1).
        let r = loop {
            let x: f64 = rng.gen_range(1e-10..1.0);
            let r = spec.scale_radius / (x.powf(-2.0 / 3.0) - 1.0).sqrt();
            if r < spec.cutoff * spec.scale_radius {
                break r;
            }
        };
        let pos = random_unit(&mut rng) * r;
        // Velocity magnitude via von Neumann rejection on
        // g(q) = q²(1-q²)^{7/2}, q = v/v_esc  (Aarseth, Hénon & Wielen 1974).
        let q = loop {
            let q: f64 = rng.gen_range(0.0..1.0);
            let y: f64 = rng.gen_range(0.0..0.1);
            if y < q * q * (1.0 - q * q).powf(3.5) {
                break q;
            }
        };
        let v_esc = (2.0 * spec.total_mass).sqrt()
            * (r * r + spec.scale_radius * spec.scale_radius).powf(-0.25);
        let vel = random_unit(&mut rng) * (q * v_esc);
        particles.push(Particle::new(id as u32, m_each, pos, vel));
    }
    let mut set = ParticleSet::new(particles);
    set.recenter();
    set
}

/// Parameters of a (multi-)Gaussian distribution in a cubic domain.
#[derive(Debug, Clone, Copy)]
pub struct GaussianSpec {
    /// Total number of particles, divided evenly among `clusters` blobs
    /// (remainder goes to the first blobs).
    pub n: usize,
    /// Number of Gaussian blobs placed uniformly at random in the domain.
    pub clusters: usize,
    /// Side of the cubic simulation domain (the paper's `s_*` family uses
    /// 100×100×100).
    pub domain_side: f64,
    /// Side of the subregion that should contain essentially all (≈ 3σ) of a
    /// blob's particles — 2.0 reproduces the paper's "2×2×2" high-variance
    /// cases, 4.0 the "4×4×4" lower-variance ones.
    pub concentration_side: f64,
    /// Total mass, equally divided.
    pub total_mass: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaussianSpec {
    fn default() -> Self {
        GaussianSpec {
            n: 1000,
            clusters: 1,
            domain_side: 100.0,
            concentration_side: 4.0,
            total_mass: 1.0,
            seed: 42,
        }
    }
}

/// Sample `spec.clusters` isotropic Gaussian blobs. Blob centers are placed
/// uniformly at random but kept far enough from the walls that the 3σ sphere
/// stays inside the domain; samples outside the domain are re-drawn (truncated
/// Gaussian) so the returned set is exactly contained in the domain cube.
pub fn multi_gaussian(spec: GaussianSpec) -> ParticleSet {
    assert!(spec.clusters >= 1, "need at least one cluster");
    assert!(
        spec.concentration_side < spec.domain_side,
        "blob concentration must fit in the domain"
    );
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    // 3σ ≈ half the concentration side => σ = side/6.
    let sigma = spec.concentration_side / 6.0;
    let m_each = spec.total_mass / spec.n as f64;
    let margin = spec.concentration_side / 2.0;
    let lo = margin;
    let hi = spec.domain_side - margin;

    let mut particles = Vec::with_capacity(spec.n);
    let base = spec.n / spec.clusters;
    let extra = spec.n % spec.clusters;
    let mut id = 0u32;
    for c in 0..spec.clusters {
        let center = Vec3::new(rng.gen_range(lo..hi), rng.gen_range(lo..hi), rng.gen_range(lo..hi));
        let count = base + usize::from(c < extra);
        for _ in 0..count {
            let pos = loop {
                let p = center + gaussian_vec(&mut rng) * sigma;
                if p.x >= 0.0
                    && p.x <= spec.domain_side
                    && p.y >= 0.0
                    && p.y <= spec.domain_side
                    && p.z >= 0.0
                    && p.z <= spec.domain_side
                {
                    break p;
                }
            };
            particles.push(Particle::new(id, m_each, pos, Vec3::ZERO));
            id += 1;
        }
    }
    ParticleSet::new(particles)
}

/// A single Gaussian blob (convenience wrapper over [`multi_gaussian`]).
pub fn single_gaussian(spec: GaussianSpec) -> ParticleSet {
    multi_gaussian(GaussianSpec { clusters: 1, ..spec })
}

/// `n` particles uniform in a cube of side `side`, unit total mass. The
/// "easy" load-balance case against which the irregular distributions are
/// contrasted.
pub fn uniform_cube(n: usize, side: f64, seed: u64) -> ParticleSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m_each = 1.0 / n as f64;
    let particles = (0..n)
        .map(|id| {
            let pos = Vec3::new(
                rng.gen_range(0.0..side),
                rng.gen_range(0.0..side),
                rng.gen_range(0.0..side),
            );
            Particle::new(id as u32, m_each, pos, Vec3::ZERO)
        })
        .collect();
    ParticleSet::new(particles)
}

/// Uniform random point on the unit sphere (Marsaglia 1972).
fn random_unit(rng: &mut SmallRng) -> Vec3 {
    loop {
        let a: f64 = rng.gen_range(-1.0..1.0);
        let b: f64 = rng.gen_range(-1.0..1.0);
        let s = a * a + b * b;
        if s < 1.0 {
            let t = 2.0 * (1.0 - s).sqrt();
            return Vec3::new(a * t, b * t, 1.0 - 2.0 * s);
        }
    }
}

/// 3-D standard normal via Box–Muller.
fn gaussian_vec(rng: &mut SmallRng) -> Vec3 {
    let mut pair = || {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let r = (-2.0 * u1.ln()).sqrt();
        (r * u2.cos(), r * u2.sin())
    };
    let (x, y) = pair();
    let (z, _) = pair();
    Vec3::new(x, y, z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plummer_basic_properties() {
        let s = plummer(PlummerSpec { n: 2000, ..Default::default() });
        assert_eq!(s.len(), 2000);
        assert!((s.total_mass() - 1.0).abs() < 1e-12);
        // recentered
        assert!(s.center_of_mass().unwrap().norm() < 1e-10);
        // all within the cutoff (plus recentering slack)
        for p in s.iter() {
            assert!(p.pos.norm() < 11.0, "particle beyond cutoff: {:?}", p.pos);
            assert!(p.pos.is_finite() && p.vel.is_finite());
        }
    }

    #[test]
    fn plummer_half_mass_radius_matches_theory() {
        // Plummer half-mass radius = a / sqrt(2^{2/3} - 1) ≈ 1.3048 a.
        let s = plummer(PlummerSpec { n: 20_000, seed: 7, ..Default::default() });
        let mut radii: Vec<f64> = s.iter().map(|p| p.pos.norm()).collect();
        radii.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let half = radii[radii.len() / 2];
        let expect = 1.0 / (2f64.powf(2.0 / 3.0) - 1.0).sqrt();
        assert!(
            (half - expect).abs() / expect < 0.05,
            "half-mass radius {half} vs theory {expect}"
        );
    }

    #[test]
    fn plummer_velocities_bound() {
        // Sampled speeds never exceed local escape speed.
        let s = plummer(PlummerSpec { n: 5000, seed: 3, ..Default::default() });
        // Recentering shifts are tiny; test against a slightly padded bound.
        for p in s.iter() {
            let r = p.pos.norm();
            let v_esc = (2.0f64).sqrt() * (r * r + 1.0).powf(-0.25);
            assert!(p.vel.norm() <= v_esc * 1.05);
        }
    }

    #[test]
    fn plummer_deterministic_by_seed() {
        let a = plummer(PlummerSpec { n: 100, seed: 9, ..Default::default() });
        let b = plummer(PlummerSpec { n: 100, seed: 9, ..Default::default() });
        let c = plummer(PlummerSpec { n: 100, seed: 10, ..Default::default() });
        assert_eq!(a.particles, b.particles);
        assert_ne!(a.particles, c.particles);
    }

    #[test]
    fn gaussian_concentration() {
        let spec = GaussianSpec { n: 5000, concentration_side: 2.0, seed: 1, ..Default::default() };
        let s = single_gaussian(spec);
        assert_eq!(s.len(), 5000);
        let com = s.center_of_mass().unwrap();
        // ≈ 99.7% of particles within the 2×2×2 box around the blob center;
        // demand at least 95% within 1.2× of it to allow sampling noise.
        let inside =
            s.iter().filter(|p| (p.pos - com).to_array().iter().all(|d| d.abs() <= 1.2)).count();
        assert!(inside as f64 / s.len() as f64 > 0.95, "only {inside} inside");
    }

    #[test]
    fn multi_gaussian_counts_and_domain() {
        let spec = GaussianSpec { n: 1003, clusters: 10, seed: 5, ..Default::default() };
        let s = multi_gaussian(spec);
        assert_eq!(s.len(), 1003);
        for p in s.iter() {
            for d in p.pos.to_array() {
                assert!((0.0..=100.0).contains(&d));
            }
        }
    }

    #[test]
    fn multi_gaussian_blobs_are_distinct() {
        // With 10 blobs in a 100³ box, the particle cloud should span much
        // more than one blob's concentration region.
        let spec = GaussianSpec { n: 2000, clusters: 10, seed: 5, ..Default::default() };
        let s = multi_gaussian(spec);
        let bb = crate::aabb::Aabb::bounding(s.iter().map(|p| p.pos)).unwrap();
        assert!(bb.extent().max_component() > 20.0);
    }

    #[test]
    fn uniform_fills_domain() {
        let s = uniform_cube(4000, 10.0, 11);
        let bb = crate::aabb::Aabb::bounding(s.iter().map(|p| p.pos)).unwrap();
        let e = bb.extent();
        assert!(e.x.min(e.y).min(e.z) > 9.0);
        assert!((s.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_unit_is_unit() {
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..100 {
            let v = random_unit(&mut rng);
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
    }
}
