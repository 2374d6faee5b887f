//! Shared experiment protocol: dataset → warm-up iterations → one timed
//! iteration (§5.1), on a chosen simulated machine.

use bhut_core::balance::Scheme;
use bhut_core::{IterationOutcome, ParallelSim, SimConfig};
use bhut_geom::{dataset_domain, dataset_scaled, ParticleSet};
use bhut_machine::{CostModel, FatTree, Hypercube, Machine, Topology};
use bhut_tree::direct;
use rand::rngs::SmallRng;
use rand::{seq::index::sample, SeedableRng};

/// Which of the paper's two machines to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetMachine {
    /// 256-node hypercube, nCUBE2 constants (§5.1 experiments).
    Ncube2,
    /// 256-node 4-ary fat tree, CM5 constants (§5.2 experiments).
    Cm5,
}

impl TargetMachine {
    pub fn cost(&self) -> CostModel {
        match self {
            TargetMachine::Ncube2 => CostModel::ncube2(),
            TargetMachine::Cm5 => CostModel::cm5(),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            TargetMachine::Ncube2 => "nCUBE2",
            TargetMachine::Cm5 => "CM5",
        }
    }
}

/// One experiment cell.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub dataset: &'static str,
    /// Particle-count scale factor (1.0 = the paper's size).
    pub scale: f64,
    pub scheme: Scheme,
    pub p: usize,
    pub clusters_per_axis: u32,
    pub alpha: f64,
    pub degree: u32,
    pub machine: TargetMachine,
    /// Warm-up iterations before the timed one (assignments settle).
    pub warmup: usize,
    /// Compute the fractional error against direct summation on a sample of
    /// this many particles (0 = skip).
    pub error_sample: usize,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            dataset: "g_160535",
            scale: 0.02,
            scheme: Scheme::Spda,
            p: 16,
            clusters_per_axis: 16,
            alpha: 0.67,
            degree: 0,
            machine: TargetMachine::Ncube2,
            warmup: 1,
            error_sample: 0,
        }
    }
}

/// One experiment cell's results.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub spec: RunSpec,
    pub n: usize,
    pub outcome: IterationOutcome,
    /// Fractional potential error vs direct summation (if sampled).
    pub error: Option<f64>,
}

impl RunRecord {
    pub fn time(&self) -> f64 {
        self.outcome.phases.total
    }

    pub fn efficiency(&self) -> f64 {
        self.outcome.efficiency
    }
}

const EPS: f64 = 1e-4;

/// Execute one experiment cell.
pub fn run_once(spec: RunSpec) -> RunRecord {
    let set = dataset_scaled(spec.dataset, spec.scale);
    run_on_set(spec, &set)
}

/// Execute one experiment cell on an already-generated particle set.
pub fn run_on_set(spec: RunSpec, set: &ParticleSet) -> RunRecord {
    let config = sim_config(&spec);
    let cost = spec.machine.cost();
    let outcome = match spec.machine {
        TargetMachine::Ncube2 => {
            warm_then_time(Hypercube::new(spec.p), cost, config, spec.warmup, set)
        }
        TargetMachine::Cm5 => warm_then_time(FatTree::cm5(spec.p), cost, config, spec.warmup, set),
    };
    let error = (spec.error_sample > 0)
        .then(|| sampled_fractional_error(set, &outcome.potentials, spec.error_sample));
    RunRecord { spec, n: set.len(), outcome, error }
}

/// The simulator configuration of one experiment cell.
pub fn sim_config(spec: &RunSpec) -> SimConfig {
    SimConfig {
        scheme: spec.scheme,
        clusters_per_axis: spec.clusters_per_axis,
        alpha: spec.alpha,
        degree: spec.degree,
        eps: EPS,
        domain: dataset_domain(spec.dataset),
        ..Default::default()
    }
}

/// The §5.1 protocol on any interconnect: `warmup` iterations so the
/// assignment settles, then the timed one.
pub fn warm_then_time<T: Topology>(
    topo: T,
    cost: CostModel,
    config: SimConfig,
    warmup: usize,
    set: &ParticleSet,
) -> IterationOutcome {
    let mut sim = ParallelSim::new(Machine::new(topo, cost), config);
    for _ in 0..warmup {
        let _ = sim.run_iteration(&set.particles);
    }
    sim.run_iteration(&set.particles)
}

/// Fractional error `‖x_k − x‖/‖x‖` (§5.2.2) over a deterministic sample of
/// particles — direct summation over all n is `O(n²)` and only the sampled
/// targets need exact references.
pub fn sampled_fractional_error(set: &ParticleSet, potentials: &[f64], samples: usize) -> f64 {
    assert_eq!(potentials.len(), set.len());
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let m = samples.min(set.len());
    let idx = sample(&mut rng, set.len(), m);
    let mut approx = Vec::with_capacity(m);
    let mut exact = Vec::with_capacity(m);
    for i in idx {
        let p = &set.particles[i];
        approx.push(potentials[i]);
        exact.push(direct::potential_direct(&set.particles, p.pos, Some(p.id), EPS));
    }
    direct::fractional_error(&approx, &exact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_once_produces_sane_record() {
        let rec = run_once(RunSpec {
            dataset: "s_1g_b",
            scale: 0.05,
            p: 4,
            warmup: 0,
            error_sample: 50,
            ..Default::default()
        });
        assert!(rec.n > 1000);
        assert!(rec.time() > 0.0);
        assert!(rec.efficiency() > 0.0);
        let err = rec.error.unwrap();
        assert!(err > 0.0 && err < 0.2, "error {err}");
    }

    #[test]
    fn cm5_and_ncube2_differ_in_time() {
        let base =
            RunSpec { dataset: "s_10g_b", scale: 0.05, p: 16, warmup: 0, ..Default::default() };
        let a = run_once(RunSpec { machine: TargetMachine::Ncube2, ..base.clone() });
        let b = run_once(RunSpec { machine: TargetMachine::Cm5, ..base });
        // CM5 constants are faster across the board.
        assert!(b.time() < a.time());
        // Same physics either way.
        assert_eq!(a.outcome.interactions, b.outcome.interactions);
    }

    #[test]
    fn sampled_error_is_deterministic() {
        let rec = run_once(RunSpec {
            dataset: "s_1g_a",
            scale: 0.04,
            p: 4,
            warmup: 0,
            error_sample: 30,
            ..Default::default()
        });
        let e1 =
            sampled_fractional_error(&dataset_scaled("s_1g_a", 0.04), &rec.outcome.potentials, 30);
        let e2 =
            sampled_fractional_error(&dataset_scaled("s_1g_a", 0.04), &rec.outcome.potentials, 30);
        assert_eq!(e1, e2);
    }
}
