//! The multi-timestep simulation driver.
//!
//! Couples the shared-memory treecode executor (S7) with the block-timestep
//! scheduler (S12) — a global timestep is its one-rung case, the leapfrog —
//! and the diagnostics, exposing the "input: masses, positions, velocities →
//! output: positions and velocities at each subsequent time-step" contract
//! of §5.

use crate::diagnostics::{Diagnostics, EnergyReport};
use bhut_geom::ParticleSet;
use bhut_multipole::MAX_DEGREE;
use bhut_obs::{RungCounters, StepProfile};
use bhut_threads::{ThreadConfig, ThreadSim};
use bhut_timestep::{BlockConfig, BlockStepStats, BlockStepper, TimestepMode};
use bhut_tree::KernelPrecision;
use serde::{Deserialize, Serialize, Value};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Step length: the global dt under [`TimestepMode::Global`], and the
    /// big-step synchronization period `dt_max` under a block hierarchy
    /// (where [`BlockConfig::dt_max`] takes precedence).
    pub dt: f64,
    /// The opening parameter α of the acceptance criterion: finite and
    /// positive, or the config does not load.
    pub alpha: f64,
    /// Multipole degree (0 = monopole).
    pub degree: u32,
    pub eps: f64,
    pub leaf_capacity: usize,
    pub threads: usize,
    /// Record an `O(n²)` energy report every this many steps (0 = never —
    /// the default for large runs).
    pub diag_every: usize,
    /// Attach a phase-level [`StepProfile`] to every this-many-th step's
    /// report (0 = never, the default). Only an output selector: every force
    /// evaluation records its profile, and the other steps drop it.
    pub profile_every: usize,
    /// Global-dt leapfrog (default) or hierarchical block timesteps (S12).
    pub timestep: TimestepMode,
    /// Arithmetic of the grouped force kernels: [`KernelPrecision::F64`],
    /// the only value; removed by ROADMAP direction 3(e).
    pub precision: KernelPrecision,
    /// Selects nothing: every substep, synchronized or masked, builds its
    /// tree from the positions it evaluates. The field and its JSON key stay
    /// only because the benchmark harness names them; ROADMAP direction 3(e)
    /// deletes them.
    pub list_reuse: bool,
}

// Hand-written so `precision` defaults when absent — snapshots written
// before the SIMD kernels embed configs without the field, and the vendored
// serde derive rejects missing fields (and can't handle the enum anyway).
// Unknown keys are ignored, which is what lets configs written while there
// was a `grouped` switch still load.
impl Serialize for SimulationConfig {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("dt".to_string(), self.dt.to_value()),
            ("alpha".to_string(), self.alpha.to_value()),
            ("degree".to_string(), self.degree.to_value()),
            ("eps".to_string(), self.eps.to_value()),
            ("leaf_capacity".to_string(), self.leaf_capacity.to_value()),
            ("threads".to_string(), self.threads.to_value()),
            ("diag_every".to_string(), self.diag_every.to_value()),
            ("profile_every".to_string(), self.profile_every.to_value()),
            ("timestep".to_string(), self.timestep.to_value()),
            ("precision".to_string(), Value::Str(self.precision.as_str().to_string())),
            ("list_reuse".to_string(), self.list_reuse.to_value()),
        ])
    }
}

impl Deserialize for SimulationConfig {
    fn from_value(v: &Value) -> Result<Self, String> {
        fn req<T: Deserialize>(v: &Value, name: &str) -> Result<T, String> {
            T::from_value(
                v.get_field(name)
                    .ok_or_else(|| format!("missing field `{name}` in SimulationConfig"))?,
            )
        }
        let precision = match v.get_field("precision") {
            Some(x) => KernelPrecision::parse(&String::from_value(x)?)?,
            None => KernelPrecision::default(),
        };
        // Absent in configs written before the field existed.
        let list_reuse = match v.get_field("list_reuse") {
            Some(x) => bool::from_value(x)?,
            None => false,
        };
        let degree = req(v, "degree")?;
        if degree > MAX_DEGREE {
            return Err(format!("multipole degree {degree} exceeds the maximum, {MAX_DEGREE}"));
        }
        // JSON has no Inf or NaN (they are written as null), so a
        // non-finite α fails as a number; a finite one must be positive.
        let alpha: f64 = req(v, "alpha").map_err(|e| format!("`alpha`: {e}"))?;
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(format!("`alpha` {alpha} is not finite and positive"));
        }
        Ok(SimulationConfig {
            dt: req(v, "dt")?,
            alpha,
            degree,
            eps: req(v, "eps")?,
            leaf_capacity: req(v, "leaf_capacity")?,
            threads: req(v, "threads")?,
            diag_every: req(v, "diag_every")?,
            profile_every: req(v, "profile_every")?,
            timestep: req(v, "timestep")?,
            precision,
            list_reuse,
        })
    }
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            dt: 1e-3,
            alpha: 0.67,
            degree: 0,
            eps: 1e-4,
            leaf_capacity: 8,
            threads: 1,
            diag_every: 0,
            profile_every: 0,
            timestep: TimestepMode::Global,
            precision: KernelPrecision::default(),
            list_reuse: false,
        }
    }
}

/// Per-step summary.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    pub step: usize,
    pub time: f64,
    pub interactions: u64,
    pub imbalance: f64,
    /// Force-evaluation substeps inside this step (1 on the global path;
    /// the number of distinct tick boundaries on the block path).
    pub substeps: u64,
    /// Per-particle force evaluations this step (n on the global path; the
    /// sum over active sets on the block path — the work the hierarchy
    /// saved shows up as this number dropping below `substeps · n`).
    pub force_evals: u64,
    /// Phase timings and work counters for this step's force evaluation.
    /// `Some` only on steps selected by [`SimulationConfig::profile_every`].
    pub profile: Option<StepProfile>,
}

/// An in-flight n-body simulation.
pub struct Simulation {
    pub config: SimulationConfig,
    pub particles: ParticleSet,
    pub time: f64,
    pub step_count: usize,
    pub diagnostics: Diagnostics,
    executor: ThreadSim,
    /// Rung state and the accelerations of the next opening kick, carried
    /// across steps (one rung under [`TimestepMode::Global`]).
    stepper: Option<BlockStepper>,
    /// The most recent big step's scheduler statistics.
    pub last_block_stats: Option<BlockStepStats>,
}

impl Simulation {
    pub fn new(particles: ParticleSet, config: SimulationConfig) -> Self {
        let executor = ThreadSim::new(ThreadConfig {
            threads: config.threads.max(1),
            alpha: config.alpha,
            degree: config.degree,
            eps: config.eps,
            leaf_capacity: config.leaf_capacity,
            partitioning: bhut_threads::Partitioning::MortonZones,
            ..ThreadConfig::default()
        });
        Simulation {
            config,
            particles,
            time: 0.0,
            step_count: 0,
            diagnostics: Diagnostics::default(),
            executor,
            stepper: None,
            last_block_stats: None,
        }
    }

    /// Advance one step: one big step of the block scheduler, which under
    /// [`TimestepMode::Global`] is a one-rung hierarchy of `dt` — a single
    /// kick-drift-kick leapfrog step — and under [`TimestepMode::Block`]
    /// spans `dt_max` in one or more substeps. Returns the step summary.
    pub fn step(&mut self) -> StepReport {
        if self.config.diag_every > 0 && self.step_count == 0 {
            self.diagnostics
                .record(self.time, EnergyReport::measure(&self.particles, self.config.eps));
        }
        let (bcfg, block) = match self.config.timestep {
            TimestepMode::Global => (
                BlockConfig { dt_max: self.config.dt, max_rung: 0, ..BlockConfig::default() },
                false,
            ),
            TimestepMode::Block(bcfg) => (bcfg, true),
        };
        let keep_profile = self.config.profile_every > 0
            && (self.step_count + 1).is_multiple_of(self.config.profile_every);
        let stepper = self.stepper.get_or_insert_with(|| BlockStepper::new(bcfg));
        // A fresh stepper opens with a priming evaluation: set-up, not this
        // step's work, so it is counted nowhere (as in `force_evals`).
        let mut priming = !stepper.is_primed();
        let executor = &mut self.executor;
        let mut interactions = 0u64;
        let mut imbalance = 1.0;
        let mut profile = None;
        let stats = stepper.big_step(&mut self.particles.particles, |ps, active| {
            if std::mem::take(&mut priming) {
                return executor.compute_forces(ps).accels;
            }
            let mut out = executor.compute_forces_active(ps, active);
            interactions += out.stats.interactions();
            imbalance = out.imbalance();
            // The final substep of every big step is fully synchronized
            // (every rung completes at the last tick); a kept profile is its.
            if keep_profile && active.is_full() {
                profile = out.profile.take();
            }
            out.accels
        });
        self.time += bcfg.dt_max;
        self.step_count += 1;
        let force_evals = stats.force_evals;
        let substeps = stats.substeps;
        if let Some(p) = profile.as_mut() {
            p.step = self.step_count as u64;
            if block {
                p.rungs = (0..=bcfg.max_rung as usize)
                    .map(|r| RungCounters {
                        rung: r as u32,
                        population: stats.population[r],
                        force_evals: stats.forces_per_rung[r],
                    })
                    .collect();
                p.rung_migrations = stats.promotions + stats.demotions;
            }
        }
        if block {
            self.last_block_stats = Some(stats);
        }
        let report = StepReport {
            step: self.step_count,
            time: self.time,
            interactions,
            imbalance,
            substeps,
            force_evals,
            profile,
        };
        if self.config.diag_every > 0 && self.step_count.is_multiple_of(self.config.diag_every) {
            self.diagnostics
                .record(self.time, EnergyReport::measure(&self.particles, self.config.eps));
        }
        report
    }

    /// Per-particle rungs, if the block-timestep path has run (index =
    /// particle position; `None` under [`TimestepMode::Global`]).
    pub fn rungs(&self) -> Option<&[u32]> {
        match self.config.timestep {
            TimestepMode::Global => None,
            TimestepMode::Block(_) => self.stepper.as_ref().map(|s| s.rungs()),
        }
    }

    /// Capture the full simulation state for [`crate::snapshot`] I/O:
    /// particles and clock, plus the rung assignment and configuration
    /// needed to resume a block-timestep run faithfully.
    pub fn snapshot(&self) -> crate::snapshot::Snapshot {
        crate::snapshot::Snapshot {
            time: self.time,
            particles: self.particles.clone(),
            rungs: self.rungs().map(<[u32]>::to_vec),
            config: Some(self.config),
        }
    }

    /// Rebuild a simulation from a snapshot. The embedded config is used
    /// when present (defaults otherwise); saved rungs re-seed the block
    /// stepper so the resumed run continues on the same hierarchy.
    pub fn from_snapshot(snap: crate::snapshot::Snapshot) -> Simulation {
        let config = snap.config.unwrap_or_default();
        let mut sim = Simulation::new(snap.particles, config);
        sim.time = snap.time;
        if let (TimestepMode::Block(bcfg), Some(rungs)) = (config.timestep, snap.rungs) {
            let mut stepper = BlockStepper::new(bcfg);
            stepper.restore_rungs(rungs);
            sim.stepper = Some(stepper);
        }
        sim
    }

    /// Advance `n` steps; returns the last step's summary.
    pub fn run(&mut self, n: usize) -> StepReport {
        let mut last = StepReport::default();
        for _ in 0..n {
            last = self.step();
        }
        last
    }

    /// The octree the executor would walk for the current particle state —
    /// the one sequential build a force evaluation makes at every thread
    /// count, for inspection and testing.
    pub fn build_tree(&self) -> bhut_tree::Tree {
        self.executor.build_tree(&self.particles.particles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leapfrog::{drift, kick};
    use bhut_geom::{plummer, Particle, PlummerSpec};
    use bhut_threads::ForceResult;

    #[test]
    fn plummer_short_run_conserves_energy() {
        let set = plummer(PlummerSpec { n: 400, seed: 6, ..Default::default() });
        let cfg = SimulationConfig {
            dt: 2e-3,
            alpha: 0.4,
            eps: 0.02,
            diag_every: 10,
            threads: 2,
            ..Default::default()
        };
        let mut sim = Simulation::new(set, cfg);
        sim.run(50);
        assert_eq!(sim.step_count, 50);
        assert!((sim.time - 0.1).abs() < 1e-12);
        let drift = sim.diagnostics.max_drift();
        assert!(drift < 5e-3, "energy drift {drift}");
    }

    #[test]
    fn step_reports_carry_work_counters() {
        let set = plummer(PlummerSpec { n: 300, seed: 7, ..Default::default() });
        let mut sim = Simulation::new(set, SimulationConfig::default());
        let r = sim.step();
        assert_eq!(r.step, 1);
        assert!(r.interactions > 0);
        assert!(r.imbalance >= 1.0);
    }

    #[test]
    fn profiled_steps_attach_a_matching_profile() {
        let set = plummer(PlummerSpec { n: 300, seed: 9, ..Default::default() });
        let cfg = SimulationConfig { threads: 2, profile_every: 2, ..Default::default() };
        let mut sim = Simulation::new(set, cfg);
        let r1 = sim.step();
        assert!(r1.profile.is_none(), "step 1 is not a multiple of profile_every");
        let r2 = sim.step();
        let profile = r2.profile.expect("step 2 is profiled");
        assert_eq!(profile.step, 2);
        assert_eq!(profile.threads, 2);
        // the report's scalar summaries are the profile's
        assert_eq!(profile.totals.interactions(), r2.interactions);
        assert!(
            (profile.imbalance() - r2.imbalance).abs() < 1e-12,
            "profile imbalance {} vs report {}",
            profile.imbalance(),
            r2.imbalance
        );
        let back = bhut_obs::StepProfile::from_json(&profile.to_json()).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn profiling_does_not_change_the_trajectory() {
        let set = plummer(PlummerSpec { n: 200, seed: 11, ..Default::default() });
        let plain = SimulationConfig { threads: 2, ..Default::default() };
        let traced = SimulationConfig { threads: 2, profile_every: 1, ..plain };
        let mut a = Simulation::new(set.clone(), plain);
        let mut b = Simulation::new(set, traced);
        a.run(3);
        b.run(3);
        for (x, y) in a.particles.particles.iter().zip(&b.particles.particles) {
            assert_eq!(x.pos, y.pos);
            assert_eq!(x.vel, y.vel);
        }
    }

    #[test]
    fn build_tree_covers_all_particles() {
        let set = plummer(PlummerSpec { n: 250, seed: 12, ..Default::default() });
        let n = set.len();
        let sim = Simulation::new(set, SimulationConfig { threads: 4, ..Default::default() });
        let tree = sim.build_tree();
        assert_eq!(tree.order.len(), n);
    }

    fn bits(ps: &[Particle]) -> Vec<[u64; 6]> {
        ps.iter()
            .map(|p| [p.pos.x, p.pos.y, p.pos.z, p.vel.x, p.vel.y, p.vel.z].map(f64::to_bits))
            .collect()
    }

    /// The global leapfrog assembled from public calls, as the benchmark's
    /// traced replica does: prime with one evaluation, then per step
    /// `kick(dt/2)`, `drift(dt)`, [`ThreadSim::compute_forces`],
    /// `kick(dt/2)`. Returns each step's end state and evaluation.
    fn explicit_leapfrog(
        particles: &[Particle],
        exec: ThreadConfig,
        dt: f64,
        steps: usize,
    ) -> Vec<(Vec<Particle>, ForceResult)> {
        let mut exec = ThreadSim::new(exec);
        let mut ps = particles.to_vec();
        let mut accels = exec.compute_forces(&ps).accels;
        (0..steps)
            .map(|_| {
                kick(&mut ps, &accels, dt * 0.5);
                drift(&mut ps, dt);
                let out = exec.compute_forces(&ps);
                kick(&mut ps, &out.accels, dt * 0.5);
                accels.clone_from(&out.accels);
                (ps.clone(), out)
            })
            .collect()
    }

    /// A global run is the explicit leapfrog loop: the same bits every step,
    /// one substep of n evaluations whose counts are the loop's evaluation
    /// (the priming one counted nowhere), and no rungs anywhere.
    #[test]
    fn global_steps_are_the_explicit_leapfrog_loop() {
        let set = plummer(PlummerSpec { n: 300, seed: 17, ..Default::default() });
        let (dt, steps, n) = (2e-3, 8, set.len() as u64);
        for threads in [1, 2] {
            for profile_every in [0, 1] {
                let ctx = format!("{threads} thread(s), profile_every {profile_every}");
                let cfg = SimulationConfig { dt, threads, profile_every, ..Default::default() };
                let mut sim = Simulation::new(set.clone(), cfg);
                let want = explicit_leapfrog(&set.particles, sim.executor.config, dt, steps);
                for (step, (ps, out)) in (1..).zip(&want) {
                    let r = sim.step();
                    let ctx = format!("{ctx}, step {step}");
                    assert_eq!(bits(&sim.particles.particles), bits(ps), "{ctx}: state");
                    assert_eq!((r.step, r.substeps, r.force_evals), (step, 1, n), "{ctx}");
                    assert_eq!(r.interactions, out.stats.interactions(), "{ctx}: interactions");
                    assert_eq!(r.imbalance.to_bits(), out.imbalance().to_bits(), "{ctx}");
                    match &r.profile {
                        Some(p) => {
                            assert_eq!(profile_every, 1, "{ctx}: unrequested profile");
                            assert_eq!(p.totals.interactions(), r.interactions, "{ctx}");
                            assert_eq!(p.step, step as u64, "{ctx}");
                            assert!(p.rungs.is_empty() && p.rung_migrations == 0, "{ctx}");
                        }
                        None => assert_eq!(profile_every, 0, "{ctx}: missing profile"),
                    }
                }
                assert_eq!(sim.rungs(), None, "{ctx}");
                assert!(sim.last_block_stats.is_none(), "{ctx}");
                assert!(sim.snapshot().rungs.is_none(), "{ctx}");
            }
        }
    }

    #[test]
    fn rung0_block_path_is_bitwise_global_leapfrog() {
        // With the hierarchy pinned to a single rung the block scheduler
        // reproduces the explicit leapfrog loop exactly — same kicks, same
        // drifts, same force evaluations, bit for bit — as the global
        // timestep, which is that same one-rung hierarchy, does.
        let set = plummer(PlummerSpec { n: 300, seed: 17, ..Default::default() });
        let dt = 2e-3;
        let global = SimulationConfig { dt, threads: 2, ..Default::default() };
        let block = SimulationConfig {
            timestep: TimestepMode::Block(BlockConfig {
                dt_max: dt,
                max_rung: 0,
                eta: 0.1,
                eps: 1e-4,
            }),
            ..global
        };
        let mut a = Simulation::new(set.clone(), global);
        let mut b = Simulation::new(set.clone(), block);
        let want = explicit_leapfrog(&set.particles, a.executor.config, dt, 8);
        for (ps, out) in &want {
            let (ra, rb) = (a.step(), b.step());
            // The priming evaluation of the first step is counted by neither.
            assert_eq!(ra.interactions, out.stats.interactions());
            assert_eq!(rb.interactions, out.stats.interactions());
            assert_eq!(bits(&b.particles.particles), bits(ps), "step {}", rb.step);
        }
        assert_eq!(a.time, b.time);
        let (end, _) = want.last().unwrap();
        assert_eq!(bits(&a.particles.particles), bits(end), "global diverged");
        assert_eq!(bits(&b.particles.particles), bits(end), "rung-0 block diverged");
    }

    #[test]
    fn block_mode_reports_rungs_and_substeps() {
        let set = plummer(PlummerSpec { n: 400, seed: 18, ..Default::default() });
        let bcfg = BlockConfig { dt_max: 0.02, max_rung: 3, eta: 0.05, eps: 0.02 };
        let cfg = SimulationConfig {
            eps: 0.02,
            timestep: TimestepMode::Block(bcfg),
            profile_every: 1,
            ..Default::default()
        };
        let mut sim = Simulation::new(set, cfg);
        let r = sim.step();
        assert!(r.substeps >= 1 && r.substeps <= bcfg.ticks());
        assert!(r.force_evals > 0);
        let stats = sim.last_block_stats.as_ref().expect("block stats recorded");
        assert_eq!(stats.substeps, r.substeps);
        let rungs = sim.rungs().expect("rungs assigned");
        assert_eq!(rungs.len(), sim.particles.len());
        // A clustered Plummer model spreads over several rungs at this eta.
        let populated = stats.population.iter().filter(|&&p| p > 0).count();
        assert!(populated >= 2, "populations {:?}", stats.population);
        let profile = r.profile.expect("profiled step");
        assert_eq!(profile.rungs.len(), bcfg.max_rung as usize + 1);
        let pop_total: u64 = profile.rungs.iter().map(|rc| rc.population).sum();
        assert_eq!(pop_total, sim.particles.len() as u64);
        let evals_total: u64 = profile.rungs.iter().map(|rc| rc.force_evals).sum();
        assert_eq!(evals_total, r.force_evals);
    }

    #[test]
    fn block_mode_conserves_energy() {
        let set = plummer(PlummerSpec { n: 400, seed: 19, ..Default::default() });
        let cfg = SimulationConfig {
            alpha: 0.4,
            eps: 0.02,
            diag_every: 5,
            threads: 2,
            timestep: TimestepMode::Block(BlockConfig {
                dt_max: 8e-3,
                max_rung: 3,
                eta: 0.05,
                eps: 0.02,
            }),
            ..Default::default()
        };
        let mut sim = Simulation::new(set, cfg);
        sim.run(15);
        let drift = sim.diagnostics.max_drift();
        assert!(drift < 5e-3, "energy drift {drift}");
    }

    #[test]
    fn snapshot_resume_preserves_the_hierarchy() {
        let set = plummer(PlummerSpec { n: 200, seed: 20, ..Default::default() });
        let cfg = SimulationConfig {
            eps: 0.02,
            timestep: TimestepMode::Block(BlockConfig {
                dt_max: 0.01,
                max_rung: 2,
                eta: 0.05,
                eps: 0.02,
            }),
            ..Default::default()
        };
        let mut sim = Simulation::new(set, cfg);
        sim.run(3);
        let snap = sim.snapshot();
        assert!(snap.rungs.is_some());
        let resumed = Simulation::from_snapshot(snap.clone());
        assert_eq!(resumed.time, sim.time);
        assert_eq!(resumed.config.timestep, cfg.timestep);
        assert_eq!(resumed.rungs().unwrap(), sim.rungs().unwrap());
    }

    #[test]
    fn config_json_roundtrips_precision() {
        let cfg = SimulationConfig { threads: 3, ..Default::default() };
        let back = SimulationConfig::from_value(&cfg.to_value()).unwrap();
        assert_eq!(back.precision, KernelPrecision::F64);
        assert_eq!(back.threads, 3);
        assert_eq!(back.timestep, cfg.timestep);
    }

    #[test]
    fn config_json_roundtrips_list_reuse() {
        let cfg = SimulationConfig { list_reuse: true, ..Default::default() };
        let back = SimulationConfig::from_value(&cfg.to_value()).unwrap();
        assert!(back.list_reuse);
        // Configs written before the field existed default it off.
        let mut v = SimulationConfig::default().to_value();
        if let Value::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "list_reuse");
        }
        let cfg = SimulationConfig::from_value(&v).unwrap();
        assert!(!cfg.list_reuse);
    }

    #[test]
    fn profiled_block_run_takes_fine_substeps_and_conserves_energy() {
        let set = plummer(PlummerSpec { n: 400, seed: 25, ..Default::default() });
        let cfg = SimulationConfig {
            alpha: 0.4,
            eps: 0.02,
            diag_every: 5,
            threads: 2,
            profile_every: 1,
            timestep: TimestepMode::Block(BlockConfig {
                dt_max: 8e-3,
                max_rung: 3,
                eta: 0.05,
                eps: 0.02,
            }),
            ..Default::default()
        };
        let mut sim = Simulation::new(set, cfg);
        let mut substeps = 0u64;
        for _ in 0..15 {
            substeps += sim.step().substeps;
        }
        assert!(substeps > 15, "the hierarchy must actually produce fine-rung substeps");
        let drift = sim.diagnostics.max_drift();
        assert!(drift < 5e-3, "energy drift {drift}");
    }

    #[test]
    fn list_reuse_selects_nothing_on_the_block_path() {
        // Every substep builds its tree from the positions it evaluates,
        // whatever the inert field says.
        let set = plummer(PlummerSpec { n: 300, seed: 26, ..Default::default() });
        let bcfg = BlockConfig { dt_max: 8e-3, max_rung: 2, eta: 0.05, eps: 0.02 };
        for threads in [1, 2] {
            let off = SimulationConfig {
                eps: 0.02,
                threads,
                timestep: TimestepMode::Block(bcfg),
                ..Default::default()
            };
            let mut a = Simulation::new(set.clone(), off);
            let mut b = Simulation::new(set.clone(), SimulationConfig { list_reuse: true, ..off });
            let mut fine = 0;
            for step in 0..4 {
                let (ra, rb) = (a.step(), b.step());
                let ctx = format!("{threads} thread(s), big step {step}");
                assert_eq!(ra.interactions, rb.interactions, "{ctx}: interactions");
                assert_eq!(ra.substeps, rb.substeps, "{ctx}: substeps");
                assert_eq!(a.rungs(), b.rungs(), "{ctx}: rungs");
                let bits = |s: &Simulation| -> Vec<[u64; 6]> {
                    let ps = &s.particles.particles;
                    ps.iter()
                        .map(|p| [p.pos.x, p.pos.y, p.pos.z, p.vel.x, p.vel.y, p.vel.z])
                        .map(|c| c.map(f64::to_bits))
                        .collect()
                };
                assert_eq!(bits(&a), bits(&b), "{ctx}: positions and velocities");
                fine += ra.substeps - 1;
            }
            assert!(fine > 0, "{threads} thread(s): no masked substep was taken");
        }
    }

    #[test]
    fn legacy_config_with_grouped_key_loads_and_drops_it() {
        // Configs and snapshots written while `SimulationConfig` had a
        // `grouped` switch carry the key; it is ignored on load and gone
        // from whatever is written back.
        let json = serde_json::to_string(&SimulationConfig::default()).unwrap();
        assert!(!json.contains("grouped"));
        let legacy = json.replacen('{', "{\"grouped\":true,", 1);
        let cfg: SimulationConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(serde_json::to_string(&cfg).unwrap(), json);
    }

    #[test]
    fn legacy_config_without_precision_defaults_to_f64() {
        // Snapshots written before the SIMD kernels embed a config with no
        // `precision` key; they must keep loading with the f64 default.
        let mut v = SimulationConfig::default().to_value();
        if let Value::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "precision");
        }
        let cfg = SimulationConfig::from_value(&v).unwrap();
        assert_eq!(cfg.precision, KernelPrecision::F64);
        // But an unknown precision string is an error, not a silent default.
        if let Value::Obj(fields) = &mut v {
            fields.push(("precision".to_string(), Value::Str("f16".to_string())));
        }
        assert!(SimulationConfig::from_value(&v).is_err());
    }

    #[test]
    fn retired_precisions_fail_to_load() {
        // A config or snapshot naming a retired kernel mode is refused with
        // an error that names it: no panic, no fallback to f64.
        let json = serde_json::to_string(&SimulationConfig::default()).unwrap();
        let set = plummer(PlummerSpec { n: 8, seed: 27, ..Default::default() });
        let mut sim = Simulation::new(set, SimulationConfig::default());
        sim.run(1);
        let dir = std::env::temp_dir().join(format!("bhut_retired_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        crate::snapshot::save_snapshot_state(&path, &sim.snapshot()).unwrap();
        let snapshot = std::fs::read_to_string(&path).unwrap();
        for name in ["mixed_f32", "scalar_f64"] {
            let retire = |text: &str| text.replace("\"f64\"", &format!("\"{name}\""));
            assert_ne!(retire(&json), json, "the default config names its precision");
            let err = serde_json::from_str::<SimulationConfig>(&retire(&json)).unwrap_err();
            assert!(err.to_string().contains(name), "config: {err}");
            // The same config inside a full (rungs + config) snapshot file.
            std::fs::write(&path, retire(&snapshot)).unwrap();
            let err = crate::snapshot::load_snapshot(&path).unwrap_err();
            assert!(err.to_string().contains(name), "snapshot: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
