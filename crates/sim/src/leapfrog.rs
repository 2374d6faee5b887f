//! The kick and drift of the kick-drift-kick leapfrog.
//!
//! The standard second-order symplectic scheme:
//!
//! ```text
//! v(t+½) = v(t)   + a(t)·dt/2      (kick)
//! x(t+1) = x(t)   + v(t+½)·dt      (drift)
//! v(t+1) = v(t+½) + a(t+1)·dt/2    (kick)
//! ```
//!
//! Symplecticity bounds the long-term energy drift, which is what makes the
//! energy-conservation diagnostics in [`crate::diagnostics`] a meaningful
//! end-to-end check of the whole force pipeline.
//!
//! There is one integrator: [`bhut_timestep::BlockStepper`], whose one-rung
//! hierarchy (`max_rung = 0`) is exactly this step, the same floating-point
//! expressions bit for bit; [`crate::Simulation`] runs a global timestep that
//! way. The primitives here are for callers that assemble a step themselves:
//! [`kick`] and [`drift`] for a replica of the global step, and
//! [`kick_drift_owned`] for the multi-process backend.

use bhut_geom::{Particle, Vec3};

/// Advance velocities by `a·dt` (a "kick").
pub fn kick(particles: &mut [Particle], accels: &[Vec3], dt: f64) {
    assert_eq!(particles.len(), accels.len());
    for (p, a) in particles.iter_mut().zip(accels) {
        p.vel += *a * dt;
    }
}

/// Advance positions by `v·dt` (a "drift").
pub fn drift(particles: &mut [Particle], dt: f64) {
    for p in particles.iter_mut() {
        p.pos += p.vel * dt;
    }
}

/// Kick-then-drift for a rank's *owned* slice of a distributed particle
/// set: `accels` is indexed by particle id (the canonical full-set index),
/// so a rank holding an arbitrary subset advances exactly the rows it owns.
/// With the full set in id order this reduces to `kick` + `drift`.
///
/// This is the drift-kick half-step pairing of the multi-process backend:
/// the closing kick of step `t` and the opening kick of step `t+1` are
/// fused into one `a·dt`, so per-step state stays one (position, velocity,
/// acceleration) triple per owned particle.
pub fn kick_drift_owned(owned: &mut [Particle], accels_by_id: &[Vec3], dt: f64) {
    for p in owned.iter_mut() {
        p.vel += accels_by_id[p.id as usize] * dt;
        p.pos += p.vel * dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhut_geom::ParticleSet;
    use bhut_timestep::{BlockConfig, BlockStepper};

    /// Two-body circular orbit: m1 = m2 = ½ at distance 1, G = 1.
    /// Total mass 1 ⇒ angular velocity ω = 1, period 2π.
    fn binary() -> ParticleSet {
        let v = 0.5; // circular speed of each body about the barycenter
        ParticleSet::new(vec![
            Particle::new(0, 0.5, Vec3::new(0.5, 0.0, 0.0), Vec3::new(0.0, v, 0.0)),
            Particle::new(1, 0.5, Vec3::new(-0.5, 0.0, 0.0), Vec3::new(0.0, -v, 0.0)),
        ])
    }

    /// `steps` global leapfrog steps of `dt` under direct-sum forces: the
    /// block scheduler pinned to rung 0.
    fn leapfrog(set: &mut ParticleSet, dt: f64, steps: usize) {
        let cfg = BlockConfig { dt_max: dt, max_rung: 0, ..BlockConfig::default() };
        let mut stepper = BlockStepper::new(cfg);
        for _ in 0..steps {
            stepper.big_step(&mut set.particles, |ps, active| {
                assert!(active.is_full());
                bhut_tree::direct::all_accels_direct(ps, 0.0)
            });
        }
    }

    #[test]
    fn kick_and_drift_are_linear() {
        let mut set = binary();
        let a = vec![Vec3::new(1.0, 0.0, 0.0); 2];
        let v0 = set.particles[0].vel;
        kick(&mut set.particles, &a, 0.1);
        assert_eq!(set.particles[0].vel, v0 + Vec3::new(0.1, 0.0, 0.0));
        let p0 = set.particles[0].pos;
        drift(&mut set.particles, 2.0);
        assert_eq!(set.particles[0].pos, p0 + set.particles[0].vel * 2.0);
    }

    #[test]
    fn owned_subset_update_matches_full_kick_drift() {
        // Advancing two disjoint owned slices with id-indexed accelerations
        // must reproduce kick+drift of the full set, regardless of the order
        // the owned rows appear in.
        let set = binary();
        let accels = vec![Vec3::new(0.3, -0.1, 0.0), Vec3::new(-0.3, 0.1, 0.5)];
        let dt = 0.25;
        let mut full = set.particles.clone();
        kick(&mut full, &accels, dt);
        drift(&mut full, dt);
        // Owned slices in reversed order: accels must follow the id.
        let mut owned = vec![set.particles[1], set.particles[0]];
        kick_drift_owned(&mut owned, &accels, dt);
        assert_eq!(owned[0].pos, full[1].pos);
        assert_eq!(owned[0].vel, full[1].vel);
        assert_eq!(owned[1].pos, full[0].pos);
        assert_eq!(owned[1].vel, full[0].vel);
    }

    #[test]
    fn circular_orbit_stays_circular() {
        let mut set = binary();
        let dt = 0.01;
        leapfrog(&mut set, dt, (2.0 * std::f64::consts::PI / dt) as usize);
        // After one period the bodies are back near their start.
        assert!(
            set.particles[0].pos.dist(Vec3::new(0.5, 0.0, 0.0)) < 0.02,
            "{:?}",
            set.particles[0].pos
        );
        // Radius never collapsed: separation stayed ≈ 1.
        let sep = set.particles[0].pos.dist(set.particles[1].pos);
        assert!((sep - 1.0).abs() < 0.01, "separation {sep}");
    }

    #[test]
    fn energy_is_conserved_to_second_order() {
        let energy = |s: &ParticleSet| {
            s.kinetic_energy() + bhut_tree::direct::potential_energy(&s.particles, 0.0)
        };
        let drift_for = |dt: f64| -> f64 {
            let mut set = binary();
            let e0 = energy(&set);
            leapfrog(&mut set, dt, (1.0 / dt) as usize);
            (energy(&set) - e0).abs() / e0.abs()
        };
        let coarse = drift_for(0.02);
        let fine = drift_for(0.005);
        // Second order: 4× smaller dt ⇒ ≈16× less drift (allow slack).
        assert!(fine < coarse / 4.0, "coarse {coarse} fine {fine}");
        assert!(coarse < 1e-3);
    }

    #[test]
    fn momentum_is_exactly_conserved() {
        let mut set = binary();
        leapfrog(&mut set, 0.01, 100);
        let mom: Vec3 = set.particles.iter().map(|p| p.vel * p.mass).sum();
        assert!(mom.norm() < 1e-14);
    }
}
