//! One simulated time-step, end to end.
//!
//! [`ParallelSim::run_iteration`] executes the phase sequence of Fig. 4 —
//! local tree construction, tree merge, all-to-all broadcast, force
//! computation, load balancing — charging each phase to the per-processor
//! virtual clocks and reporting the Table-3 breakdown. Scheme state (SPDA
//! cluster assignments, DPDA particle weights) carries across iterations, so
//! "single iteration" timings after a warm-up mirror the paper's protocol
//! (§5.1: "We allow the simulation to run a few time-steps before timing an
//! iteration").

use crate::balance::{
    movement_cost, movement_matrix, spda_initial, spda_rebalance, spsa_assignment, Curve, Scheme,
};
use crate::domain::ClusterGrid;
use crate::evalcore::EvalEnv;
use crate::funcship::{run_force_phase, ForceConfig, ForceRun};
use crate::merge::{broadcast_top, expansion_cost, hierarchical_merge, local_tree_cost};
use crate::partition::{particle_weights_from_node_loads, Partition};
use bhut_geom::{Particle, Vec3};
use bhut_machine::topology::Collective;
use bhut_machine::{Collectives, Machine, Topology};
use bhut_multipole::{MultipoleTree, MAC_FLOPS};
use bhut_obs::{phase as obs_phase, Counters, Span, StepProfile};
use bhut_tree::build::{build_in_cell, BuildParams};
use bhut_tree::BarnesHutMac;

/// Configuration of one parallel simulation.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    pub scheme: Scheme,
    /// Clusters per axis (`c`; `r = c²`). Ignored by DPDA.
    pub clusters_per_axis: u32,
    /// The Barnes–Hut α-criterion.
    pub alpha: f64,
    /// Multipole degree (0 = monopole force computation, §5.1).
    pub degree: u32,
    /// Plummer softening length.
    pub eps: f64,
    /// Leaf bucket size `s`.
    pub leaf_capacity: usize,
    /// Shipping protocol tunables.
    pub force: ForceConfig,
    /// SPDA ordering curve.
    pub curve: Curve,
    /// Declared simulation domain. When set, the cluster grid and tree root
    /// tile this box (the paper's fixed 100³ domain); otherwise the data's
    /// bounding cube is used.
    pub domain: Option<bhut_geom::Aabb>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            scheme: Scheme::Spda,
            clusters_per_axis: 16,
            alpha: 0.67,
            degree: 0,
            eps: 1e-4,
            leaf_capacity: 8,
            force: ForceConfig::default(),
            curve: Curve::Morton,
            domain: None,
        }
    }
}

/// The Table-3 phase breakdown (seconds of simulated machine time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    pub local_tree: f64,
    pub tree_merge: f64,
    pub broadcast: f64,
    pub force: f64,
    pub load_balance: f64,
    pub total: f64,
}

/// Everything one iteration produces.
#[derive(Debug, Clone, Default)]
pub struct IterationOutcome {
    pub phases: PhaseTimes,
    /// Final per-processor clocks.
    pub clocks: Vec<f64>,
    pub potentials: Vec<f64>,
    pub accels: Vec<Vec3>,
    /// Total force computations `F` (particle–node + particle–particle).
    pub interactions: u64,
    pub mac_tests: u64,
    /// Particles shipped to remote processors.
    pub requests: u64,
    pub messages: u64,
    pub words: u64,
    /// Modeled sequential time for the same physics.
    pub serial_time: f64,
    pub efficiency: f64,
    pub speedup: f64,
    /// max/mean processor time in the force phase.
    pub imbalance: f64,
    /// Particles that changed owner in the balancing phase.
    pub moved_particles: u64,
    /// Per-rank virtual-clock spans for each phase, in the same schema as
    /// the threaded executor's wall-clock profiles (`wall_s` is the total
    /// simulated machine time; `per_worker` counters are not tracked on the
    /// simulated path, only totals).
    pub profile: StepProfile,
}

impl IterationOutcome {
    /// The iteration's phase breakdown folded onto the canonical
    /// build/exchange/force/balance groups — the machine model's
    /// *prediction* that the real multi-process backend is compared
    /// against (see [`bhut_machine::phases`]).
    pub fn phase_shares(&self) -> bhut_machine::PhaseShares {
        bhut_machine::PhaseShares::from_profile(&self.profile)
    }
}

/// Scheme state carried across iterations.
#[derive(Debug, Clone, Default)]
struct SchemeState {
    /// SPDA/SPSA: cluster → processor.
    cluster_owners: Option<Vec<usize>>,
    /// DPDA: per-particle load weights from the previous step.
    particle_weights: Option<Vec<f64>>,
}

/// A parallel Barnes–Hut simulation bound to one simulated machine.
pub struct ParallelSim<T: Topology> {
    pub machine: Machine<T>,
    pub config: SimConfig,
    state: SchemeState,
}

impl<T: Topology> ParallelSim<T> {
    pub fn new(machine: Machine<T>, config: SimConfig) -> Self {
        ParallelSim { machine, config, state: SchemeState::default() }
    }

    /// Reset carried state (e.g. when switching datasets).
    pub fn reset(&mut self) {
        self.state = SchemeState::default();
    }

    /// Execute one time-step's tree construction + force computation + load
    /// balancing on the simulated machine.
    pub fn run_iteration(&mut self, particles: &[Particle]) -> IterationOutcome {
        let p = self.machine.p();
        let cfg = self.config;
        let cost = self.machine.cost;
        let topo = &self.machine.topo;
        let coll = Collectives::new(topo, cost);

        let cell = cfg.domain.unwrap_or_else(|| {
            bhut_geom::Aabb::bounding_cube(particles.iter().map(|q| q.pos), 0.0)
                .unwrap_or_else(|| bhut_geom::Aabb::origin_cube(1.0))
        });
        let grid = ClusterGrid::new(cfg.clusters_per_axis, cell);
        let min_split = match cfg.scheme {
            Scheme::Dpda => 0,
            _ => grid.level(),
        };
        let tree = build_in_cell(
            particles,
            cell,
            BuildParams {
                leaf_capacity: cfg.leaf_capacity,
                collapse: true,
                min_split_level: min_split,
            },
        );
        let mtree = (cfg.degree > 0).then(|| MultipoleTree::new(&tree, particles, cfg.degree));

        // --- partition under the current assignment ---
        let cluster_info: Option<(Vec<usize>, Vec<u32>)> = match cfg.scheme {
            Scheme::Spsa => {
                let owners = self
                    .state
                    .cluster_owners
                    .get_or_insert_with(|| spsa_assignment(&grid, p))
                    .clone();
                let (of, _) = grid.bin_particles(particles);
                Some((owners, of))
            }
            Scheme::Spda => {
                let owners = self
                    .state
                    .cluster_owners
                    .get_or_insert_with(|| spda_initial(&grid, p, cfg.curve))
                    .clone();
                let (of, _) = grid.bin_particles(particles);
                Some((owners, of))
            }
            Scheme::Dpda => None,
        };
        let partition = match &cluster_info {
            Some((owners, _)) => Partition::from_clusters(&tree, &grid, owners, p),
            None => {
                let weights = self
                    .state
                    .particle_weights
                    .clone()
                    .unwrap_or_else(|| vec![0.0; particles.len()]);
                Partition::costzones_weighted(&tree, &weights, p)
            }
        };
        debug_assert!(partition.check(&tree).is_ok());

        let mut clocks = vec![0.0f64; p];
        let mut phases = PhaseTimes::default();
        let maxc = |c: &[f64]| c.iter().copied().fold(0.0, f64::max);

        // Per-rank span capture: `marks[r]` is rank r's clock at the last
        // phase boundary; each phase emits one span per rank from its mark
        // to its current clock (virtual seconds — same schema as the
        // wall-clock profiles from the threaded executor).
        let mut profile = StepProfile::new(p);
        let mut marks = vec![0.0f64; p];
        fn snap_phase(
            profile: &mut StepProfile,
            marks: &mut [f64],
            clocks: &[f64],
            superstep: u64,
            name: &str,
        ) {
            for (r, (&m, &c)) in marks.iter().zip(clocks.iter()).enumerate() {
                profile.record(Span::new(r, superstep, name, m, c));
            }
            marks.copy_from_slice(clocks);
        }

        // --- phase 1: local tree construction ---
        let counts: Vec<usize> = partition.particles_by_owner().iter().map(Vec::len).collect();
        let depth = tree.depth();
        local_tree_cost(&mut clocks, &counts, depth, &cost);
        phases.local_tree = maxc(&clocks);
        snap_phase(&mut profile, &mut marks, &clocks, 0, obs_phase::LOCAL_TREE);

        // --- phase 2: tree merge (+ expansion upward pass) ---
        let t0 = maxc(&clocks);
        let (merge_msgs, merge_words) =
            hierarchical_merge(&mut clocks, &tree, &partition, topo, &cost, cfg.degree);
        expansion_cost(&mut clocks, &tree, &partition, &cost, cfg.degree);
        phases.tree_merge = maxc(&clocks) - t0;
        snap_phase(&mut profile, &mut marks, &clocks, 1, obs_phase::TREE_MERGE);

        // --- phase 3: all-to-all broadcast of the top ---
        let t0 = maxc(&clocks);
        broadcast_top(&mut clocks, &partition, &coll, cfg.degree, cfg.scheme != Scheme::Spsa);
        phases.broadcast = maxc(&clocks) - t0;
        snap_phase(&mut profile, &mut marks, &clocks, 2, obs_phase::BROADCAST);

        // --- phase 4: force computation (BSP) ---
        let t0 = maxc(&clocks);
        // barrier into the phase — advance the span marks too, so the wait
        // at the barrier is profiled as idle time rather than force work
        for c in clocks.iter_mut() {
            *c = t0;
        }
        marks.copy_from_slice(&clocks);
        let mac = BarnesHutMac::new(cfg.alpha);
        let env = EvalEnv {
            tree: &tree,
            particles,
            mtree: mtree.as_ref(),
            mac: &mac,
            eps: cfg.eps,
            degree: cfg.degree,
        };
        let track_loads = cfg.scheme == Scheme::Dpda;
        let run: ForceRun = run_force_phase(
            &self.machine,
            &env,
            &partition,
            cluster_info.as_ref().map(|(_, of)| of.as_slice()),
            grid.r(),
            track_loads,
            cfg.force,
        );
        for (c, f) in clocks.iter_mut().zip(&run.report.clocks) {
            *c += f;
        }
        phases.force = maxc(&clocks) - t0;
        snap_phase(&mut profile, &mut marks, &clocks, 3, obs_phase::FORCE);
        let force_imbalance = {
            let mean =
                run.report.clocks.iter().sum::<f64>() / run.report.clocks.len().max(1) as f64;
            if mean > 0.0 {
                run.report.parallel_time() / mean
            } else {
                1.0
            }
        };

        // --- phase 5: load balancing ---
        let t0 = maxc(&clocks);
        let mut moved_particles = 0u64;
        let mut balance_msgs = 0u64;
        let mut balance_words = 0u64;
        match cfg.scheme {
            Scheme::Spsa => {} // load balance is implicit (Table 3: zero)
            Scheme::Spda => {
                let (owners, _) = cluster_info.as_ref().expect("cluster scheme");
                let loads: Vec<f64> = run.cluster_flops.iter().map(|&f| f as f64).collect();
                // global load sum + per-proc target (one all-reduce)
                let per_proc_load: Vec<f64> = {
                    let mut v = vec![0.0; p];
                    for (cl, &l) in loads.iter().enumerate() {
                        v[owners[cl]] += l;
                    }
                    v
                };
                let _w = coll.all_reduce_f64(&mut clocks, &per_proc_load, |a, b| a + b);
                let new_owners = spda_rebalance(&grid, &loads, p, cfg.curve);
                // each processor broadcasts its new run start (one word)
                coll.broadcast_time(&mut clocks, 1);
                // move cluster data (particles, 8 words each)
                let cluster_sizes: Vec<u64> = {
                    let (_, lists) = grid.bin_particles(particles);
                    lists.iter().map(|l| l.len() as u64).collect()
                };
                let moved = movement_matrix(owners, &new_owners, &cluster_sizes, p);
                moved_particles = moved.iter().flatten().sum();
                let (m, w) = movement_cost(&mut clocks, &moved, 8, topo, &cost);
                balance_msgs = m;
                balance_words = w;
                self.state.cluster_owners = Some(new_owners);
            }
            Scheme::Dpda => {
                let node_loads = run.node_loads.as_ref().expect("DPDA tracks loads");
                // upward load sum: ~2 flops per node, parallel over owners
                for c in clocks.iter_mut() {
                    *c += cost.compute_time(2 * (tree.len() as u64 / p.max(1) as u64 + 1));
                }
                // broadcast branch loads (2 words per branch)
                let mut contrib: Vec<Vec<u64>> = vec![Vec::new(); p];
                for b in &partition.branches {
                    contrib[b.owner].push(node_loads[b.node as usize]);
                }
                let _ = coll.all_to_all_broadcast(&mut clocks, &contrib, 2);
                // boundary location: each processor scans its local tree
                for c in clocks.iter_mut() {
                    *c += cost.compute_time(5 * depth as u64 * p as u64);
                }
                let weights = particle_weights_from_node_loads(&tree, node_loads);
                let new_part = Partition::costzones_weighted(&tree, &weights, p);
                moved_particles = partition
                    .owner_of_particle
                    .iter()
                    .zip(&new_part.owner_of_particle)
                    .filter(|(a, b)| a != b)
                    .count() as u64;
                // one all-to-all personalized exchange of moved particles
                let mut max_pair = 0u64;
                {
                    let mut pairs = vec![vec![0u64; p]; p];
                    for (o, n) in
                        partition.owner_of_particle.iter().zip(&new_part.owner_of_particle)
                    {
                        if o != n {
                            pairs[*o][*n] += 1;
                        }
                    }
                    for row in &pairs {
                        for &v in row {
                            max_pair = max_pair.max(v);
                        }
                    }
                }
                let t = topo.collective_time(Collective::AllToAllPersonalized, max_pair * 8, &cost);
                let m = maxc(&clocks);
                for c in clocks.iter_mut() {
                    *c = m + t;
                }
                balance_words = moved_particles * 8;
                balance_msgs = p as u64 * (p as u64 - 1);
                self.state.particle_weights = Some(weights);
            }
        }
        phases.load_balance = maxc(&clocks) - t0;
        phases.total = maxc(&clocks);
        snap_phase(&mut profile, &mut marks, &clocks, 4, obs_phase::LOAD_BALANCE);

        // --- sequential model for efficiency ---
        // Parallel eval flops minus the redundant MAC re-test per shipped
        // particle at the serving side.
        let eval_flops = run.own_flops + run.service_flops - run.requests * MAC_FLOPS;
        let serial_build = cost.compute_time((15 + 2 * depth as u64) * particles.len() as u64);
        let serial_expansion = if cfg.degree > 0 {
            let coeffs = bhut_multipole::Expansion::num_coeffs(cfg.degree) as u64;
            let mut f = 0u64;
            for node in &tree.nodes {
                f += if node.is_leaf() { 4 * coeffs * node.count() as u64 } else { 8 * coeffs };
            }
            cost.compute_time(f)
        } else {
            0.0
        };
        let serial_time = cost.compute_time(eval_flops) + serial_build + serial_expansion;
        let efficiency = serial_time / (p as f64 * phases.total);
        let speedup = serial_time / phases.total;

        profile.wall_s = phases.total;
        profile.totals = Counters {
            p2p: run.p2p,
            m2p: run.p2n,
            mac_tests: run.mac_tests,
            requests: run.requests,
            messages: run.report.messages + merge_msgs + balance_msgs,
            words: run.report.words + merge_words + balance_words,
            ..Counters::default()
        };

        IterationOutcome {
            phases,
            clocks,
            potentials: run.potentials,
            accels: run.accels,
            interactions: run.p2n + run.p2p,
            mac_tests: run.mac_tests,
            requests: run.requests,
            messages: run.report.messages + merge_msgs + balance_msgs,
            words: run.report.words + merge_words + balance_words,
            serial_time,
            efficiency,
            speedup,
            imbalance: force_imbalance,
            moved_particles,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhut_geom::{multi_gaussian, uniform_cube, GaussianSpec};
    use bhut_machine::{CostModel, Hypercube};

    fn sim(scheme: Scheme, p: usize, c: u32) -> ParallelSim<Hypercube> {
        let machine = Machine::new(Hypercube::new(p), CostModel::ncube2());
        ParallelSim::new(machine, SimConfig { scheme, clusters_per_axis: c, ..Default::default() })
    }

    #[test]
    fn all_schemes_agree_on_physics() {
        let set = uniform_cube(900, 100.0, 41);
        // SPSA and SPDA share the same tree (same min_split_level), so they
        // must agree to roundoff; DPDA builds without forced splits — a
        // slightly different (still valid) tree — so it agrees to
        // approximation accuracy.
        let spsa = sim(Scheme::Spsa, 8, 8).run_iteration(&set.particles);
        let spda = sim(Scheme::Spda, 8, 8).run_iteration(&set.particles);
        let dpda = sim(Scheme::Dpda, 8, 8).run_iteration(&set.particles);
        assert_eq!(spsa.potentials.len(), set.len());
        for i in 0..set.len() {
            let want = spsa.potentials[i];
            assert!(
                (spda.potentials[i] - want).abs() < 1e-9 * want.abs().max(1.0),
                "SPDA particle {i}: {} vs {want}",
                spda.potentials[i]
            );
            assert!(
                (dpda.potentials[i] - want).abs() < 5e-3 * want.abs().max(1.0),
                "DPDA particle {i}: {} vs {want}",
                dpda.potentials[i]
            );
        }
    }

    #[test]
    fn phase_breakdown_adds_up() {
        let set = uniform_cube(600, 100.0, 42);
        let mut s = sim(Scheme::Spda, 8, 8);
        let out = s.run_iteration(&set.particles);
        let ph = out.phases;
        let sum = ph.local_tree + ph.tree_merge + ph.broadcast + ph.force + ph.load_balance;
        assert!((sum - ph.total).abs() < 1e-6 * ph.total, "phases {sum} vs total {}", ph.total);
        assert!(ph.force > ph.local_tree, "force dominates");
        assert!(out.efficiency > 0.0 && out.efficiency <= 1.2);
    }

    #[test]
    fn profile_spans_mirror_the_phase_breakdown() {
        let set = uniform_cube(600, 100.0, 46);
        let mut s = sim(Scheme::Spda, 8, 8);
        let out = s.run_iteration(&set.particles);
        let prof = &out.profile;
        assert_eq!(prof.threads, 8);
        // one span per rank per phase, in phase order
        assert_eq!(prof.spans.len(), 5 * 8);
        assert_eq!(
            prof.phases(),
            vec!["local_tree", "tree_merge", "broadcast", "force", "load_balance"]
        );
        assert!((prof.wall_s - out.phases.total).abs() < 1e-12);
        assert!((prof.makespan() - out.phases.total).abs() < 1e-9 * out.phases.total);
        // the slowest rank's force span is exactly the reported force phase
        let force_max = prof
            .spans
            .iter()
            .filter(|s| s.phase == "force")
            .map(bhut_obs::Span::duration)
            .fold(0.0, f64::max);
        assert!(
            (force_max - out.phases.force).abs() < 1e-9 * out.phases.force,
            "force span {force_max} vs phase {}",
            out.phases.force
        );
        assert_eq!(prof.totals.interactions(), out.interactions);
        assert_eq!(prof.totals.mac_tests, out.mac_tests);
        assert_eq!(prof.totals.messages, out.messages);
        assert_eq!(prof.totals.words, out.words);
        // simulated path reports totals only
        assert!(prof.per_worker.is_empty());
        assert_eq!(prof.imbalance(), 1.0);
    }

    #[test]
    fn phase_shares_fold_the_table3_breakdown() {
        let set = uniform_cube(700, 100.0, 47);
        let mut s = sim(Scheme::Spda, 8, 8);
        let out = s.run_iteration(&set.particles);
        let shares = out.phase_shares();
        assert!(shares.is_normalized(), "{shares:?}");
        assert!(shares.force > shares.build, "force dominates the prediction");
        // Busy-time shares: each group is the sum over ranks of its phases'
        // spans, so the force group must match the profile's share directly.
        let prof = &out.profile;
        let total: f64 = prof.spans.iter().map(bhut_obs::Span::duration).sum();
        assert!((shares.force - prof.phase_total("force") / total).abs() < 1e-12);
    }

    #[test]
    fn spsa_has_zero_balance_time() {
        let set = uniform_cube(500, 100.0, 43);
        let mut s = sim(Scheme::Spsa, 8, 8);
        let out = s.run_iteration(&set.particles);
        assert_eq!(out.phases.load_balance, 0.0);
        assert_eq!(out.moved_particles, 0);
    }

    #[test]
    fn spda_improves_on_irregular_load_after_warmup() {
        // A clustered distribution: SPDA's second iteration (with measured
        // loads) should balance at least as well as its first.
        let set = multi_gaussian(GaussianSpec {
            n: 1500,
            clusters: 2,
            concentration_side: 10.0,
            seed: 9,
            ..Default::default()
        });
        let mut s = sim(Scheme::Spda, 8, 8);
        let first = s.run_iteration(&set.particles);
        let second = s.run_iteration(&set.particles);
        assert!(
            second.imbalance <= first.imbalance * 1.05,
            "imbalance {} -> {}",
            first.imbalance,
            second.imbalance
        );
        assert!(first.moved_particles > 0, "rebalancing should move clusters");
    }

    #[test]
    fn dpda_second_iteration_balances_better() {
        let set = multi_gaussian(GaussianSpec {
            n: 1500,
            clusters: 1,
            concentration_side: 6.0,
            seed: 10,
            ..Default::default()
        });
        let mut s = sim(Scheme::Dpda, 8, 8);
        let first = s.run_iteration(&set.particles);
        let second = s.run_iteration(&set.particles);
        assert!(
            second.imbalance <= first.imbalance * 1.05,
            "imbalance {} -> {}",
            first.imbalance,
            second.imbalance
        );
    }

    #[test]
    fn more_processors_reduce_parallel_time() {
        let set = uniform_cube(2000, 100.0, 44);
        let t4 = sim(Scheme::Spda, 4, 8).run_iteration(&set.particles).phases.total;
        let t16 = sim(Scheme::Spda, 16, 8).run_iteration(&set.particles).phases.total;
        assert!(t16 < t4, "p=4: {t4}, p=16: {t16}");
    }

    #[test]
    fn higher_degree_increases_time_and_efficiency() {
        let set = uniform_cube(1200, 100.0, 45);
        let run_at = |degree: u32| {
            let machine = Machine::new(Hypercube::new(16), CostModel::cm5());
            let mut s = ParallelSim::new(
                machine,
                SimConfig { scheme: Scheme::Dpda, degree, ..Default::default() },
            );
            let _ = s.run_iteration(&set.particles); // warm-up
            s.run_iteration(&set.particles)
        };
        let d0 = run_at(0);
        let d4 = run_at(4);
        assert!(d4.phases.total > d0.phases.total, "degree-4 must cost more");
        assert!(
            d4.efficiency > d0.efficiency * 0.98,
            "efficiency should not degrade with degree: {} -> {}",
            d0.efficiency,
            d4.efficiency
        );
    }
}
