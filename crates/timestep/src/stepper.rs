//! The synchronized kick-drift-kick block scheduler.

use crate::active::ActiveSet;
use crate::config::BlockConfig;
use bhut_geom::{Particle, Vec3};

/// Work summary of one big step (one `dt_max` span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockStepStats {
    /// Drift/force events inside the big step (1 when every particle sits
    /// on rung 0, up to `2^max_rung` when the finest rung is occupied).
    pub substeps: u64,
    /// Per-particle force evaluations across all substeps (excluding the
    /// one-time priming evaluation of a fresh stepper).
    pub force_evals: u64,
    /// Force evaluations charged to each rung, indexed by rung.
    pub forces_per_rung: Vec<u64>,
    /// Particles on each rung after the big step, indexed by rung.
    pub population: Vec<u64>,
    /// Rung moves toward finer dt (rung number increased).
    pub promotions: u64,
    /// Rung moves toward coarser dt (rung number decreased).
    pub demotions: u64,
}

impl BlockStepStats {
    fn new(max_rung: u32) -> Self {
        BlockStepStats {
            substeps: 0,
            force_evals: 0,
            forces_per_rung: vec![0; max_rung as usize + 1],
            population: vec![0; max_rung as usize + 1],
            promotions: 0,
            demotions: 0,
        }
    }
}

/// The block-timestep integrator state: per-particle rungs plus the cached
/// accelerations each particle's next opening kick needs.
///
/// One [`BlockStepper::big_step`] call advances the system by exactly
/// `dt_max`, interleaving the rungs' kick-drift-kick cycles on the shared
/// tick grid. Rungs are reassigned from the acceleration criterion at each
/// particle's own step boundary, subject to the alignment rule
/// ([`BlockConfig::coarsest_allowed`]).
#[derive(Debug, Clone)]
pub struct BlockStepper {
    pub cfg: BlockConfig,
    rungs: Vec<u32>,
    accels: Vec<Vec3>,
    primed: bool,
    rungs_restored: bool,
}

impl BlockStepper {
    pub fn new(cfg: BlockConfig) -> Self {
        BlockStepper {
            cfg,
            rungs: Vec::new(),
            accels: Vec::new(),
            primed: false,
            rungs_restored: false,
        }
    }

    /// Current rung assignment (empty before the first big step).
    pub fn rungs(&self) -> &[u32] {
        &self.rungs
    }

    /// Whether the cached accelerations are set: `false` on a fresh or
    /// restored stepper, whose next big step opens with a priming
    /// evaluation.
    pub fn is_primed(&self) -> bool {
        self.primed
    }

    /// Adopt rung state from a snapshot: the first big step keeps these
    /// rungs instead of reassigning from the priming accelerations, so a
    /// restart resumes the hierarchy mid-flight. Rungs are clamped to
    /// `[0, max_rung]`.
    pub fn restore_rungs(&mut self, rungs: Vec<u32>) {
        self.rungs = rungs.into_iter().map(|r| r.min(self.cfg.max_rung)).collect();
        self.rungs_restored = true;
        self.primed = false;
    }

    /// Advance every particle by `dt_max`.
    ///
    /// `forces(particles, active)` must return the acceleration at the
    /// current positions for every *active* particle (inactive entries are
    /// ignored). On a fresh (or restored) stepper the first call primes the
    /// cached accelerations with a full evaluation and — unless rungs were
    /// restored — assigns initial rungs from it.
    pub fn big_step(
        &mut self,
        particles: &mut [Particle],
        mut forces: impl FnMut(&[Particle], &ActiveSet) -> Vec<Vec3>,
    ) -> BlockStepStats {
        let cfg = self.cfg;
        let n = particles.len();
        let mut stats = BlockStepStats::new(cfg.max_rung);
        if n == 0 {
            return stats;
        }
        if !self.primed {
            let accels = forces(particles, &ActiveSet::all(n));
            assert_eq!(accels.len(), n, "priming evaluation must cover every particle");
            if !self.rungs_restored || self.rungs.len() != n {
                self.rungs = accels.iter().map(|a| cfg.rung_for(a.norm())).collect();
            }
            self.accels = accels;
            self.primed = true;
        }

        // With one rung (the global timestep) every particle stays on rung
        // 0 and the one substep spans the big step: no rung to re-derive, no
        // boundary to search for, no population to count.
        let refine = cfg.max_rung > 0;
        let ticks = cfg.ticks();
        let dt_tick = cfg.dt_tick();
        // Per-rung constants, indexed by rung: the half-kick factor, and the
        // step length in ticks minus one — a power of two, so `t & mask` is
        // `t % rung_len(r)`.
        let half_kick: Vec<f64> = (0..=cfg.max_rung).map(|r| cfg.dt_of_rung(r) * 0.5).collect();
        let mask: Vec<u64> = (0..=cfg.max_rung).map(|r| cfg.rung_len(r) - 1).collect();
        let mut t: u64 = 0;
        while t < ticks {
            // Opening half-kick for every particle starting a rung step now.
            // All step boundaries live on the tick grid, so membership is a
            // divisibility test against the particle's step length.
            for (i, p) in particles.iter_mut().enumerate() {
                let r = self.rungs[i] as usize;
                if t & mask[r] == 0 {
                    p.vel += self.accels[i] * half_kick[r];
                }
            }

            // Next step-completion event: the soonest boundary any particle
            // reaches. Power-of-two alignment guarantees the finest occupied
            // rung bounds it, so with everyone on rung 0 this is one jump of
            // the whole big step.
            let mut delta = ticks - t;
            if refine {
                for &r in &self.rungs {
                    let m = mask[r as usize];
                    let rem = m + 1 - (t & m);
                    if rem < delta {
                        delta = rem;
                    }
                }
            }
            let t_next = t + delta;

            // Drift-all: positions advance together, so the tree the active
            // particles walk sees every source at the same epoch.
            let ddt = delta as f64 * dt_tick;
            for p in particles.iter_mut() {
                p.pos += p.vel * ddt;
            }

            // Particles completing a rung step at t_next need fresh forces.
            // Every rung's step ends with the big step, so its last
            // substep (the only one at rung 0) is full: no mask to collect,
            // and the cache takes the new accelerations in one copy.
            let full = t_next == ticks;
            let active = if full {
                ActiveSet::all(n)
            } else {
                ActiveSet::from_mask(
                    self.rungs.iter().map(|&r| t_next & mask[r as usize] == 0).collect(),
                )
            };
            debug_assert!(active.count() > 0, "every substep ends at someone's boundary");
            let new_accels = forces(particles, &active);
            assert_eq!(new_accels.len(), n, "force evaluation must return n entries");

            // Closing half-kick, acceleration cache update, and rung
            // reassignment — all only at the particle's own boundary.
            let floor = cfg.coarsest_allowed(t_next);
            for i in active.indices() {
                let r = self.rungs[i];
                particles[i].vel += new_accels[i] * half_kick[r as usize];
                if !full {
                    self.accels[i] = new_accels[i];
                }
                stats.forces_per_rung[r as usize] += 1;
                if !refine {
                    continue;
                }
                let new_r = cfg.rung_for(new_accels[i].norm()).max(floor);
                if new_r > r {
                    stats.promotions += 1;
                } else if new_r < r {
                    stats.demotions += 1;
                }
                self.rungs[i] = new_r;
            }
            // Copied, not moved: adopting the evaluation's buffer as the
            // cache and freeing the old one each step raised the 50k
            // single-thread step's peak RSS by ≈ 0.5 MiB (heap churn).
            if full {
                self.accels.copy_from_slice(&new_accels);
            }
            stats.force_evals += active.count() as u64;
            stats.substeps += 1;
            t = t_next;
        }

        if refine {
            for &r in &self.rungs {
                stats.population[r as usize] += 1;
            }
        } else {
            stats.population[0] = n as u64;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain softened direct summation, for closures in these tests.
    fn direct_accels(particles: &[Particle], eps: f64) -> Vec<Vec3> {
        let eps2 = eps * eps;
        particles
            .iter()
            .map(|p| {
                let mut acc = Vec3::ZERO;
                for q in particles {
                    if q.id == p.id {
                        continue;
                    }
                    let d = q.pos - p.pos;
                    let r2 = d.dot(d) + eps2;
                    if r2 > 0.0 {
                        acc += d * (q.mass / (r2 * r2.sqrt()));
                    }
                }
                acc
            })
            .collect()
    }

    fn binary() -> Vec<Particle> {
        vec![
            Particle::new(0, 0.5, Vec3::new(0.5, 0.0, 0.0), Vec3::new(0.0, 0.5, 0.0)),
            Particle::new(1, 0.5, Vec3::new(-0.5, 0.0, 0.0), Vec3::new(0.0, -0.5, 0.0)),
        ]
    }

    #[test]
    fn rung0_pinned_is_bitwise_leapfrog() {
        // max_rung = 0 pins everyone to dt_max; the scheduler must execute
        // the very same floating-point expressions as a global KDK step.
        let dt = 0.01;
        let cfg = BlockConfig { dt_max: dt, max_rung: 0, eta: 0.1, eps: 0.0 };
        let mut block = binary();
        let mut stepper = BlockStepper::new(cfg);
        let mut global = binary();
        let mut acc = direct_accels(&global, 0.0);
        for _ in 0..25 {
            stepper.big_step(&mut block, |ps, active| {
                assert!(active.is_full());
                direct_accels(ps, 0.0)
            });
            // Reference global KDK with the canonical expressions.
            for (p, a) in global.iter_mut().zip(&acc) {
                p.vel += *a * (dt * 0.5);
            }
            for p in global.iter_mut() {
                p.pos += p.vel * dt;
            }
            acc = direct_accels(&global, 0.0);
            for (p, a) in global.iter_mut().zip(&acc) {
                p.vel += *a * (dt * 0.5);
            }
        }
        for (b, g) in block.iter().zip(&global) {
            assert_eq!(b.pos, g.pos);
            assert_eq!(b.vel, g.vel);
        }
    }

    #[test]
    fn constant_accel_schedule_and_kicks() {
        // Fixed accelerations of magnitude 1, 16, 64 with η = ε = 1 map to
        // rungs 0, 1, 2 of a dt_max = 0.5, max_rung = 2 hierarchy. All
        // values are exact in binary floating point, so each particle's
        // velocity gain over one big step is exactly a·dt_max.
        let cfg = BlockConfig { dt_max: 0.5, max_rung: 2, eta: 1.0, eps: 1.0 };
        let accs = [Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 16.0, 0.0), Vec3::new(0.0, 0.0, 64.0)];
        let mut particles: Vec<Particle> =
            (0..3).map(|i| Particle::new(i, 1.0, Vec3::ZERO, Vec3::ZERO)).collect();
        let mut stepper = BlockStepper::new(cfg);
        let mut evals = 0u64;
        let stats = stepper.big_step(&mut particles, |ps, _active| {
            evals += 1;
            (0..ps.len()).map(|i| accs[ps[i].id as usize]).collect()
        });
        assert_eq!(stepper.rungs(), &[0, 1, 2]);
        // Finest rung occupied → one substep per tick.
        assert_eq!(stats.substeps, cfg.ticks());
        assert_eq!(stats.forces_per_rung, vec![1, 2, 4]);
        assert_eq!(stats.force_evals, 7);
        assert_eq!(stats.population, vec![1, 1, 1]);
        assert_eq!(evals, 1 + stats.substeps); // prime + one per substep
        for (i, p) in particles.iter().enumerate() {
            assert_eq!(p.vel, accs[i] * cfg.dt_max, "particle {i}");
        }
    }

    #[test]
    fn rung_changes_only_at_aligned_boundaries() {
        // A deterministic pseudo-random force field churns the rungs; the
        // scheduler must keep every rung in range and every reassignment
        // aligned (checked indirectly: per-rung eval counts match what the
        // rung lengths admit, and the big step always lands exactly).
        let cfg = BlockConfig { dt_max: 0.25, max_rung: 3, eta: 1.0, eps: 1.0 };
        let n = 40;
        let mut particles: Vec<Particle> = (0..n)
            .map(|i| Particle::new(i, 1.0, Vec3::new(i as f64 * 0.1, 0.0, 0.0), Vec3::ZERO))
            .collect();
        let mut stepper = BlockStepper::new(cfg);
        let mut tick = 0u64;
        for _ in 0..4 {
            let stats = stepper.big_step(&mut particles, |ps, _| {
                tick += 1;
                (0..ps.len())
                    .map(|i| {
                        // LCG-ish magnitude spanning several rungs.
                        let h =
                            (i as u64).wrapping_mul(6364136223846793005).wrapping_add(tick) % 97;
                        Vec3::new(0.1 + h as f64 * 3.0, 0.0, 0.0)
                    })
                    .collect()
            });
            assert!(stepper.rungs().iter().all(|&r| r <= cfg.max_rung));
            assert!(stats.substeps >= 1 && stats.substeps <= cfg.ticks());
            assert_eq!(stats.force_evals, stats.forces_per_rung.iter().sum::<u64>());
            assert_eq!(stats.population.iter().sum::<u64>(), n as u64);
            // Rung r can be evaluated at most 2^r times per particle.
            for (r, &count) in stats.forces_per_rung.iter().enumerate() {
                assert!(count <= n as u64 * (1 << r), "rung {r}: {count} evals");
            }
        }
    }

    #[test]
    fn restored_rungs_survive_priming() {
        let cfg = BlockConfig { dt_max: 0.5, max_rung: 2, eta: 1.0, eps: 1.0 };
        let mut particles = binary();
        let mut stepper = BlockStepper::new(cfg);
        stepper.restore_rungs(vec![2, 7]); // 7 clamps to max_rung
        assert_eq!(stepper.rungs(), &[2, 2]);
        // Zero forces would assign rung 0 everywhere; the restored rungs
        // must drive the first big step instead. The zero accelerations then
        // coarsen both particles as soon as alignment allows: rung 2 at
        // ticks 1 and 2, rung 1 at tick 4 — never skipping the sync rule.
        let stats = stepper.big_step(&mut particles, |ps, _| vec![Vec3::ZERO; ps.len()]);
        assert_eq!(stats.forces_per_rung, vec![0, 2, 4]);
        assert_eq!(stats.substeps, 3);
        assert_eq!(stepper.rungs(), &[0, 0]);
        assert_eq!(stats.demotions, 4);
    }

    #[test]
    fn empty_input_is_a_noop() {
        let mut stepper = BlockStepper::new(BlockConfig::default());
        let stats = stepper.big_step(&mut [], |_, _| Vec::new());
        assert_eq!(stats.substeps, 0);
        assert_eq!(stats.force_evals, 0);
    }
}
