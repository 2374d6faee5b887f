//! Conservation diagnostics.
//!
//! Energy and momentum are the end-to-end invariants that catch errors no
//! unit test sees: a sign slip in a multipole term or a dropped interaction
//! shows up immediately as secular energy drift.

use bhut_geom::{ParticleSet, Vec3};
use bhut_tree::direct;
use serde::{Deserialize, Serialize};

/// A snapshot of the system's conserved quantities.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EnergyReport {
    pub kinetic: f64,
    pub potential: f64,
    pub total: f64,
    pub momentum: Vec3,
    pub angular_momentum: Vec3,
}

impl EnergyReport {
    /// Exact (direct-summation) energies; `O(n²)` — intended for validation
    /// runs and tests, not hot loops.
    pub fn measure(set: &ParticleSet, eps: f64) -> EnergyReport {
        let kinetic = set.kinetic_energy();
        let potential = direct::potential_energy(&set.particles, eps);
        let momentum = set.particles.iter().map(|p| p.vel * p.mass).sum();
        let angular_momentum = set.particles.iter().map(|p| p.pos.cross(p.vel) * p.mass).sum();
        EnergyReport { kinetic, potential, total: kinetic + potential, momentum, angular_momentum }
    }

    /// Relative total-energy drift against a reference report.
    pub fn drift_from(&self, initial: &EnergyReport) -> f64 {
        (self.total - initial.total).abs() / initial.total.abs().max(f64::MIN_POSITIVE)
    }
}

/// Rolling history of energy reports over a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Diagnostics {
    pub reports: Vec<(f64, EnergyReport)>,
}

impl Diagnostics {
    pub fn record(&mut self, time: f64, report: EnergyReport) {
        self.reports.push((time, report));
    }

    /// Worst relative energy drift over the whole run.
    pub fn max_drift(&self) -> f64 {
        let Some((_, first)) = self.reports.first() else { return 0.0 };
        self.reports.iter().map(|(_, r)| r.drift_from(first)).fold(0.0, f64::max)
    }

    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhut_geom::{plummer, Particle, PlummerSpec};

    #[test]
    fn virial_ish_plummer() {
        // A sampled Plummer sphere is near virial equilibrium:
        // 2K + U ≈ 0 (within sampling noise).
        let set = plummer(PlummerSpec { n: 8000, seed: 4, ..Default::default() });
        let e = EnergyReport::measure(&set, 0.0);
        let virial = (2.0 * e.kinetic + e.potential).abs() / e.potential.abs();
        assert!(virial < 0.1, "virial ratio residual {virial}");
        assert!(e.total < 0.0, "bound system must have negative energy");
    }

    #[test]
    fn two_body_energy() {
        let set = ParticleSet::new(vec![
            Particle::new(0, 1.0, Vec3::ZERO, Vec3::ZERO),
            Particle::new(1, 1.0, Vec3::new(2.0, 0.0, 0.0), Vec3::new(0.0, 0.5, 0.0)),
        ]);
        let e = EnergyReport::measure(&set, 0.0);
        assert!((e.kinetic - 0.125).abs() < 1e-12);
        assert!((e.potential + 0.5).abs() < 1e-12);
        assert!((e.total + 0.375).abs() < 1e-12);
    }

    #[test]
    fn drift_tracking() {
        let mut d = Diagnostics::default();
        let base = EnergyReport {
            kinetic: 1.0,
            potential: -3.0,
            total: -2.0,
            momentum: Vec3::ZERO,
            angular_momentum: Vec3::ZERO,
        };
        d.record(0.0, base);
        d.record(1.0, EnergyReport { total: -2.02, ..base });
        d.record(2.0, EnergyReport { total: -1.99, ..base });
        assert!((d.max_drift() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn empty_diagnostics() {
        assert_eq!(Diagnostics::default().max_drift(), 0.0);
    }
}
