//! The shared-memory force executor.
//!
//! One dispatch serves every degree. The walk units of
//! [`bhut_tree::group::leaf_schedule`] are split into costzones, one per
//! worker, and a worker that empties its zone takes units off the back of
//! the others'. The outputs are written in place in tree order: a unit's
//! members are a contiguous range of [`Tree::order`], so each unit owns one
//! disjoint slice of each output, taken once by whichever worker claims the
//! unit. Two workers share a cache line only where their units meet. After
//! the join, one in-place permutation ([`Tree::permute_from_order`]) puts
//! the outputs in id order; nothing is staged per worker.

use crate::pool::{fork_join, Claims, ZoneCursors};
use bhut_geom::{Particle, Vec3};
use bhut_multipole::MultipoleTree;
use bhut_obs::{phase, Counters, Span, StepProfile};
use bhut_timestep::ActiveSet;
use bhut_tree::build::{build, BuildParams};
use bhut_tree::group::{
    eval_gathered_monopole_masked, leaf_schedule, leaf_schedule_active, GroupSweep,
    InteractionBuffers,
};
use bhut_tree::traverse::TraversalStats;
use bhut_tree::{BarnesHutMac, KernelPrecision, NodeId, Tree};
use std::sync::Mutex;

/// How particles are distributed over threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Costzones over the Morton-ordered walk units (every degree), weighted
    /// by the previous step's measured per-particle interaction counts (by
    /// population before any are measured); a worker whose zone is empty
    /// takes units off the back of the others'. The only value; removed by
    /// ROADMAP direction 3(e).
    MortonZones,
}

/// How a unit's members are evaluated once the tree is built. Every degree
/// runs on the same unit schedule and writes its rows the same way; the
/// monopole takes the grouped walk below, degree > 0 walks each member
/// through [`MultipoleTree::eval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// One tree walk per unit of [`bhut_tree::group::leaf_schedule`] (a
    /// subtree of a few neighbouring leaves) feeding SoA batched kernels
    /// ([`bhut_tree::group`]). Interaction-for-interaction identical to the
    /// per-target walk ([`bhut_tree::traverse`]). The only value; removed
    /// by ROADMAP direction 3(e).
    #[default]
    Grouped,
}

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ThreadConfig {
    pub threads: usize,
    pub alpha: f64,
    /// Multipole degree (0 = monopole).
    pub degree: u32,
    pub eps: f64,
    pub leaf_capacity: usize,
    /// [`Partitioning::MortonZones`], the only value; removed by ROADMAP
    /// direction 3(e).
    pub partitioning: Partitioning,
    /// [`EvalMode::Grouped`], the only value; removed by ROADMAP direction
    /// 3(e). The degree picks the evaluation of a unit's members: the
    /// monopole takes the group sweep, degree > 0 walks per target.
    pub eval_mode: EvalMode,
    /// [`KernelPrecision::F64`], the only value; removed by ROADMAP
    /// direction 3(e).
    pub precision: KernelPrecision,
    /// Selects nothing: the group walk tests one node per
    /// [`BarnesHutMac::classify`] call, in its one forward pass over the
    /// preorder arena; there is no batched classifier left. The field stays
    /// only because the benchmark harness names it in a struct literal;
    /// ROADMAP direction 3(e) deletes it.
    pub mac_batch: bool,
    /// Selects nothing: every force evaluation walks a tree built from the
    /// particles it is given. The field stays only because the benchmark
    /// harness names it in a struct literal; ROADMAP direction 3(e) deletes
    /// it.
    pub list_reuse: bool,
}

impl Default for ThreadConfig {
    fn default() -> Self {
        ThreadConfig {
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            alpha: 0.67,
            degree: 0,
            eps: 1e-4,
            leaf_capacity: 8,
            partitioning: Partitioning::MortonZones,
            eval_mode: EvalMode::Grouped,
            precision: KernelPrecision::default(),
            mac_batch: true,
            list_reuse: false,
        }
    }
}

/// One force computation's output. `accels` and `potentials` are indexed
/// by particle id: the workers write them in tree order, and one in-place
/// permutation (the profile's `scatter` span) reorders them after the join.
#[derive(Debug, Clone, Default)]
pub struct ForceResult {
    pub accels: Vec<Vec3>,
    pub potentials: Vec<f64>,
    pub stats: TraversalStats,
    /// Interactions in each thread's costzone (load balance diagnostic):
    /// work is counted per zone, whichever worker ran it, so this is the
    /// same at every run of one state. Time is per worker, in the profile's
    /// spans; a worker that empties its zone first takes the others' tails.
    pub per_thread_interactions: Vec<u64>,
    /// Phase-level profile: per-worker build/walk/kernel spans (eval for
    /// degree > 0), the scatter span (the permutation into id order) and
    /// work counters. Always `Some` from every [`ThreadSim`] computation;
    /// an `Option` only because the benchmark harness takes it out with
    /// [`Option::take`] (ROADMAP direction 3(e) makes it a plain field).
    pub profile: Option<StepProfile>,
}

impl ForceResult {
    /// max/mean interactions across the threads' costzones (1.0 = perfect
    /// balance): how evenly the split cut the counted work, not how long
    /// each worker ran.
    pub fn imbalance(&self) -> f64 {
        if self.per_thread_interactions.is_empty() {
            return 1.0;
        }
        let max = *self.per_thread_interactions.iter().max().unwrap() as f64;
        let mean = self.per_thread_interactions.iter().sum::<u64>() as f64
            / self.per_thread_interactions.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// One schedule unit's rows of the three outputs, which the sweep fills in
/// tree order: the members of a unit are a contiguous range of
/// [`Tree::order`], so its rows are one disjoint slice of each output.
/// Whichever worker claims the unit takes them, once.
struct UnitRows<'a> {
    accels: &'a mut [Vec3],
    potentials: &'a mut [f64],
    work: &'a mut [u64],
}

impl UnitRows<'_> {
    fn write(&mut self, k: usize, phi: f64, acc: Vec3, interactions: u64) {
        (self.accels[k], self.potentials[k], self.work[k]) = (acc, phi, interactions);
    }
}

/// Split `all` into the rows of each unit, in schedule order; a masked
/// schedule skips the rows of the units it leaves out.
fn carve<'a, T>(mut all: &'a mut [T], tree: &Tree, units: &[NodeId]) -> Vec<&'a mut [T]> {
    let mut at = 0;
    units
        .iter()
        .map(|&u| {
            let n = tree.node(u);
            let (start, end) = (n.start as usize, n.end as usize);
            let (rows, rest) = std::mem::take(&mut all)[start - at..].split_at_mut(end - start);
            (all, at) = (rest, end);
            rows
        })
        .collect()
}

/// Per-worker clock readings from one force computation: the
/// wall-clock window, and on the monopole's group sweep the walk (the shared
/// gather) and kernel (the evaluation: per-target replay of the mixed
/// frontier plus the slab kernels) durations accumulated separately;
/// degree > 0's per-target walk fuses them.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerObs {
    start: f64,
    end: f64,
    walk_s: f64,
    kernel_s: f64,
}

/// The work of one costzone: the stats and counters of every item in it,
/// whichever worker ran the item.
#[derive(Debug, Clone, Copy, Default)]
struct ZoneWork {
    stats: TraversalStats,
    counters: Counters,
}

/// A reusable shared-memory simulator; carries per-particle work weights
/// across steps (the costzones weights) and per-thread evaluation scratch
/// across steps. Nothing is staged per target: the workers fill the outputs
/// in place.
pub struct ThreadSim {
    pub config: ThreadConfig,
    prev_work: Option<Vec<u64>>,
    /// The grouped walk's SoA slabs, one set per thread, so locks are
    /// uncontended.
    scratch: Vec<Mutex<InteractionBuffers>>,
}

impl ThreadSim {
    pub fn new(config: ThreadConfig) -> Self {
        assert!(config.threads > 0);
        let scratch =
            (0..config.threads).map(|_| Mutex::new(InteractionBuffers::default())).collect();
        ThreadSim { config, prev_work: None, scratch }
    }

    /// Per-particle interaction counts measured by the last force
    /// computation (the costzones weights), indexed by particle id. `None`
    /// before the first step. The multi-process backend reads these to
    /// derive SPDA cluster loads and DPDA particle weights from real
    /// measurements instead of modeled ones.
    pub fn work_weights(&self) -> Option<&[u64]> {
        self.prev_work.as_deref()
    }

    /// Build the tree (and expansions if degree > 0) and compute the force
    /// and potential on every particle, in parallel, with its phase-level
    /// [`StepProfile`] ([`ForceResult::profile`]).
    pub fn compute_forces(&mut self, particles: &[Particle]) -> ForceResult {
        self.compute(particles, None)
    }

    /// [`ThreadSim::compute_forces`] restricted to an active subset: the
    /// tree is built over **all** particles (every body still acts as a
    /// source), but forces and potentials are evaluated only for particles
    /// with `active.is_active(i)`. Inactive entries of the returned
    /// `accels`/`potentials` are zero — callers on the block-timestep path
    /// must only read the active ones. A full set takes the unmasked path,
    /// so results then match [`ThreadSim::compute_forces`] bit for bit; a
    /// partial set's active entries are bitwise equal to the full run's.
    pub fn compute_forces_active(
        &mut self,
        particles: &[Particle],
        active: &ActiveSet,
    ) -> ForceResult {
        self.compute(particles, Some(active))
    }

    /// One block-substep force computation: exactly
    /// [`ThreadSim::compute_forces_active`]. Neither flag selects anything:
    /// every computation records its profile, and every substep builds its
    /// tree from the particles it is given. The call and its flags stay only
    /// because the benchmark harness passes them; ROADMAP direction 3(e)
    /// deletes them.
    pub fn compute_forces_substep(
        &mut self,
        particles: &[Particle],
        active: &ActiveSet,
        _profiled: bool,
        _reuse: bool,
    ) -> ForceResult {
        self.compute(particles, Some(active))
    }

    /// [`ThreadSim::compute_forces_substep`] without the build: evaluate on
    /// `tree`, which the caller built from `particles` with
    /// [`ThreadSim::build_tree`] and may use again afterwards (the process
    /// mesh carves its costzones from it). The results are the rebuilding
    /// call's, bit for bit. The profile's build span covers only what the
    /// evaluation builds itself (the expansions when degree > 0).
    pub fn compute_forces_on(
        &mut self,
        tree: &Tree,
        particles: &[Particle],
        active: &ActiveSet,
    ) -> ForceResult {
        let t_origin = bhut_obs::now();
        self.evaluate(tree, particles, Some(active), t_origin)
    }

    fn compute(&mut self, particles: &[Particle], active: Option<&ActiveSet>) -> ForceResult {
        let t_origin = bhut_obs::now();
        let tree = self.build_tree(particles);
        self.evaluate(&tree, particles, active, t_origin)
    }

    fn evaluate(
        &mut self,
        tree: &Tree,
        particles: &[Particle],
        active: Option<&ActiveSet>,
        t_origin: f64,
    ) -> ForceResult {
        let cfg = self.config;
        let mac = BarnesHutMac::new(cfg.alpha);
        let mtree = (cfg.degree > 0).then(|| MultipoleTree::new(tree, particles, cfg.degree));
        let t_build_end = bhut_obs::now();
        let n = particles.len();
        // A full active set is indistinguishable from "no mask": route it
        // down the unmasked path so results stay bitwise identical to
        // `compute_forces` (and the mask bound checks vanish).
        let mask: Option<&[bool]> = active.filter(|a| !a.is_full()).map(|a| a.mask());

        // Threads may have been reconfigured since `new`; grow the scratch
        // pool to match (never shrink — capacity is cheap).
        while self.scratch.len() < cfg.threads {
            self.scratch.push(Mutex::new(InteractionBuffers::default()));
        }
        let scratch = &self.scratch;

        // A masked run schedules only units holding at least one active
        // member; the walks themselves still see every source.
        let units = match mask {
            Some(m) => leaf_schedule_active(tree, m),
            None => leaf_schedule(tree),
        };
        // Costzones: weight each unit by its members' measured work from the
        // previous step, or by its population before any. The weights are
        // only valid while the particle set has the same cardinality (ids
        // are positional).
        let prev_work = self.prev_work.take().filter(|w| w.len() == n);
        let weight = |&u: &NodeId| match &prev_work {
            Some(w) => tree.particles_under(u).iter().map(|&pi| w[pi as usize] + 1).sum(),
            None => tree.node(u).count() as u64,
        };
        let weights = units.iter().map(weight).collect();

        // The outputs, in tree order until the permutation after the join.
        // A full run writes every row, so it takes the previous weights'
        // buffer, read above; a masked run keeps them for its inactive rows.
        let (mut work, prev_work) = match (mask, prev_work) {
            (None, Some(w)) => (w, None),
            (_, prev) => (vec![0u64; n], prev),
        };
        let mut accels = vec![Vec3::ZERO; n];
        let mut potentials = vec![0.0f64; n];
        // One slot per unit: whichever worker claims the unit takes its rows.
        let slots: Vec<Mutex<Option<UnitRows>>> = carve(&mut accels, tree, &units)
            .into_iter()
            .zip(carve(&mut potentials, tree, &units))
            .zip(carve(&mut work, tree, &units))
            .map(|((accels, potentials), work)| {
                Mutex::new(Some(UnitRows { accels, potentials, work }))
            })
            .collect();

        // The one unit loop, for every degree: per unit, take its rows,
        // evaluate its targets into them, and credit its work to its zone.
        // The monopole gathers the unit once and evaluates every member
        // against the slabs, timing the gather (WALK) apart from the
        // evaluation (KERNEL: the mixed-frontier replay and the slab
        // kernels) and harvesting the classification counters. Degree > 0
        // walks each member through `MultipoleTree::eval`.
        let run_range =
            |t: usize, claims: Claims<'_>, zones: &mut [ZoneWork], w: &mut WorkerObs| {
                let mut buf = scratch[t].lock().expect("one worker per slab set");
                // The sweep holds the tree, the particles and this thread's slabs
                // for every unit the worker runs (its zone front to back, then any
                // it steals back to front), so each unit is gathered through the
                // ancestor levels it shares with the one before instead of from
                // the root; a gather is the same bits in any unit order.
                let mut sweep = GroupSweep::new(tree, particles, &mac, &mut buf);
                for (zone, i) in claims {
                    let unit = units[i];
                    let slot = slots[i].lock().expect("a slot's one claim does not panic").take();
                    let mut rows = slot.expect("a unit is claimed once");
                    let members = tree.particles_under(unit);
                    let is_target = |pi: u32| mask.is_none_or(|m| m[pi as usize]);
                    let mut written = 0;
                    let z = &mut zones[zone];
                    let st = match &mtree {
                        None => {
                            let t0 = bhut_obs::now();
                            sweep.gather(unit);
                            let buf = sweep.buffers();
                            let t1 = bhut_obs::now();
                            // Targets come in tree order, each once: a cursor
                            // over the members finds each one's row.
                            let mut k = 0;
                            let emit = |pi, phi, acc, it| {
                                debug_assert!(is_target(pi), "row {pi} written but not a target");
                                k += members[k..]
                                    .iter()
                                    .position(|&m| m == pi)
                                    .expect("targets come in tree order, each once");
                                rows.write(k, phi, acc, it);
                                (k, written) = (k + 1, written + 1);
                            };
                            let st = eval_gathered_monopole_masked(
                                tree,
                                particles,
                                unit,
                                &mac,
                                cfg.eps,
                                cfg.precision,
                                buf,
                                mask,
                                emit,
                            );
                            w.walk_s += t1 - t0;
                            w.kernel_s += bhut_obs::now() - t1;
                            let c = &mut z.counters;
                            c.nodes_opened += buf.nodes_opened;
                            c.group_accept += buf.node_ids.len() as u64;
                            c.group_reject += buf.class_reject;
                            c.group_mixed += buf.mixed.len() as u64;
                            let (lane_slots, lane_useful) = buf.take_lane_counters();
                            c.lane_slots += lane_slots;
                            c.lane_useful += lane_useful;
                            st
                        }
                        Some(mt) => {
                            let mut st = TraversalStats::default();
                            for (k, &pi) in
                                members.iter().enumerate().filter(|&(_, &pi)| is_target(pi))
                            {
                                let p = &particles[pi as usize];
                                let (phi, acc, s) =
                                    mt.eval(tree, particles, p.pos, Some(p.id), &mac, cfg.eps);
                                rows.write(k, phi, acc, s.interactions());
                                st.merge(s);
                                written += 1;
                            }
                            st
                        }
                    };
                    // Stealing is where a unit could run twice or never: every
                    // target of a claimed unit is written once.
                    debug_assert_eq!(
                        written,
                        members.iter().filter(|&&pi| is_target(pi)).count(),
                        "unit {unit}: rows written vs targets"
                    );
                    z.stats.merge(st);
                }
            };
        let (zones, obs) = dispatch(&cfg, weights, run_range);
        debug_assert!(
            slots.iter().all(|s| s.lock().is_ok_and(|s| s.is_none())),
            "every unit is claimed"
        );
        drop(slots);

        let mut total = TraversalStats::default();
        for z in &zones {
            total.merge(z.stats);
        }
        let per_thread_interactions = zones.iter().map(|z| z.stats.interactions()).collect();

        // Back to id order, in place: one pass over the three outputs.
        let t_scatter = bhut_obs::now();
        tree.permute_from_order(|a, b| {
            accels.swap(a, b);
            potentials.swap(a, b);
            work.swap(a, b);
        });
        // On a masked run only active particles report work; keep the
        // previous measurements for the inactive ones so the costzones
        // weights stay meaningful across substeps.
        if let (Some(m), Some(prev)) = (mask, prev_work) {
            for ((w, &is_active), prev) in work.iter_mut().zip(m).zip(prev) {
                if !is_active {
                    *w = prev;
                }
            }
        }
        self.prev_work = Some(work);
        // High-water-mark shrink between steps: a transient dense group must
        // not pin a worker's slab capacity forever.
        for buf in &self.scratch {
            buf.lock().expect("the workers are joined").maybe_shrink();
        }

        let mut prof = StepProfile::new(cfg.threads);
        let rel = |t: f64| (t - t_origin).max(0.0);
        prof.record(Span::new(0, 0, phase::BUILD, 0.0, rel(t_build_end)));
        // Counters are per zone, credited to the zone a unit belongs to
        // whoever ran it; spans are per worker, which is where stealing
        // shows. Workers that never ran still get (zero-width) spans and
        // zero counters, so the profile's shape depends only on `threads`.
        for z in &zones {
            let c = Counters {
                p2p: z.stats.p2p,
                m2p: z.stats.p2n,
                mac_tests: z.stats.mac_tests,
                ..z.counters
            };
            prof.totals.merge(&c);
            prof.per_worker.push(c);
        }
        for (t, w) in obs.iter().enumerate() {
            if mtree.is_none() {
                // Walk and kernel interleave per unit; their accumulated
                // durations are reported as contiguous sub-intervals of the
                // worker's evaluation window.
                let s = rel(w.start);
                prof.record(Span::new(t, 1, phase::WALK, s, s + w.walk_s));
                let kernel_end = s + w.walk_s + w.kernel_s;
                prof.record(Span::new(t, 1, phase::KERNEL, s + w.walk_s, kernel_end));
            } else {
                prof.record(Span::new(t, 1, phase::EVAL, rel(w.start), rel(w.end)));
            }
        }
        prof.record(Span::new(0, 2, phase::SCATTER, rel(t_scatter), rel(bhut_obs::now())));
        prof.wall_s = rel(bhut_obs::now());

        ForceResult {
            accels,
            potentials,
            stats: total,
            per_thread_interactions,
            profile: Some(prof),
        }
    }

    /// The exact tree the force path evaluates: the one sequential build in
    /// the particles' bounding cube, whatever the thread count, so the tree
    /// is the same bits at every `threads`. Exposed so tests and diagnostics
    /// inspect the same tree [`ThreadSim::compute_forces`] walks.
    pub fn build_tree(&self, particles: &[Particle]) -> Tree {
        build(particles, BuildParams::with_leaf_capacity(self.config.leaf_capacity))
    }
}

/// The one partition dispatch: split the walk units (in Morton order, one
/// `weights` entry each) into `cfg.threads` contiguous zones of ≈ equal
/// total weight — costzones — and run
/// `run_range(thread, claims, zones, obs)` on each zone's worker. The
/// claims hand a worker unit indices: its own zone front to back, then,
/// once that is empty, the other zones' tails back to front
/// ([`ZoneCursors`]), so the sweep ends when the work does, not when the
/// slower worker does. `run_range` credits each unit's work to
/// `zones[zone]`, the zone the unit belongs to, so the per-zone sums
/// returned (with each worker's clock window) do not depend on who ran
/// what.
fn dispatch(
    cfg: &ThreadConfig,
    weights: Vec<u64>,
    run_range: impl Fn(usize, Claims<'_>, &mut [ZoneWork], &mut WorkerObs) + Sync,
) -> (Vec<ZoneWork>, Vec<WorkerObs>) {
    let p = cfg.threads;
    let cursors = ZoneCursors::new(&split_by_weight(&weights, p));
    let per_worker = fork_join(p, |t| {
        let mut zones = vec![ZoneWork::default(); p];
        let mut w = WorkerObs { start: bhut_obs::now(), ..WorkerObs::default() };
        run_range(t, cursors.claims(t), &mut zones, &mut w);
        w.end = bhut_obs::now();
        (zones, w)
    });
    let mut zones = vec![ZoneWork::default(); p];
    let mut obs = Vec::with_capacity(p);
    for (ran, w) in per_worker {
        for (z, r) in zones.iter_mut().zip(&ran) {
            z.stats.merge(r.stats);
            z.counters.merge(&r.counters);
        }
        obs.push(w);
    }
    (zones, obs)
}

/// `parts + 1` boundaries over a weighted item sequence such that each part
/// carries ≈ equal total weight (the costzones split, at item granularity).
fn split_by_weight(weights: &[u64], parts: usize) -> Vec<usize> {
    let total: u64 = weights.iter().map(|&w| w + 1).sum();
    let per = total as f64 / parts as f64;
    let mut bounds = vec![0usize];
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        if acc as f64 >= per * bounds.len() as f64 && bounds.len() < parts {
            bounds.push(i);
        }
        acc += w + 1;
    }
    while bounds.len() < parts {
        bounds.push(weights.len());
    }
    bounds.push(weights.len());
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhut_geom::{plummer, uniform_cube, PlummerSpec};
    use bhut_tree::direct;

    fn config(threads: usize) -> ThreadConfig {
        ThreadConfig { threads, ..Default::default() }
    }

    #[test]
    fn matches_direct_summation_closely() {
        let set = uniform_cube(600, 1.0, 3);
        let mut sim = ThreadSim::new(ThreadConfig { alpha: 0.3, ..config(3) });
        let out = sim.compute_forces(&set.particles);
        let exact = direct::all_accels_direct(&set.particles, sim.config.eps);
        let err = direct::fractional_error_vec(&out.accels, &exact);
        assert!(err < 5e-3, "force error {err}");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let set = uniform_cube(400, 1.0, 5);
        let one = ThreadSim::new(config(1)).compute_forces(&set.particles);
        let four = ThreadSim::new(config(4)).compute_forces(&set.particles);
        for i in 0..set.len() {
            assert_eq!(one.potentials[i], four.potentials[i]);
            assert_eq!(one.accels[i], four.accels[i]);
        }
    }

    #[test]
    fn morton_zones_balance_clustered_load() {
        // A Plummer core concentrates work. The first evaluation has nothing
        // measured and weights units by population; the second splits by the
        // first's measured interaction counts and must be no worse.
        let set = plummer(PlummerSpec { n: 4000, seed: 7, ..Default::default() });
        let mut zones = ThreadSim::new(config(4));
        let by_population = zones.compute_forces(&set.particles);
        let measured = zones.compute_forces(&set.particles);
        assert!(
            measured.imbalance() <= by_population.imbalance() + 0.02,
            "measured {} vs population-weighted {}",
            measured.imbalance(),
            by_population.imbalance()
        );
        assert!(measured.imbalance() < 1.25, "zones imbalance {}", measured.imbalance());
    }

    #[test]
    fn multipole_degree_improves_accuracy() {
        let set = uniform_cube(500, 1.0, 9);
        let exact = direct::all_potentials_direct(&set.particles, 1e-4);
        let err_at = |degree: u32| {
            let mut sim = ThreadSim::new(ThreadConfig { degree, alpha: 0.9, ..config(2) });
            let out = sim.compute_forces(&set.particles);
            direct::fractional_error(&out.potentials, &exact)
        };
        assert!(err_at(4) < err_at(0));
    }

    /// M2P reads the Taylor tensors one degree above the moments, so
    /// `MAX_DEGREE` is the last degree that evaluates; it must run through
    /// the executor to finite values.
    #[test]
    fn the_largest_degree_evaluates_to_finite_values() {
        let set = uniform_cube(64, 1.0, 10);
        let degree = bhut_multipole::MAX_DEGREE;
        let cfg = ThreadConfig { degree, alpha: 1.0, ..config(2) };
        let out = ThreadSim::new(cfg).compute_forces(&set.particles);
        assert!(out.stats.p2n > 0, "no expansion was evaluated");
        assert!(out.accels.iter().all(|a| a.is_finite()));
        assert!(out.potentials.iter().all(|p| p.is_finite()));
    }

    /// Every row is the per-target walk of the tree the sweep built: the
    /// monopole's group sweep within 1e-12 of `accel_on` / `potential_at`,
    /// degree > 0 within 1e-12 of `MultipoleTree::eval`, with the walk's
    /// interaction counts exactly, per row and in total.
    #[test]
    fn sweeps_match_the_per_target_walk() {
        let set = plummer(PlummerSpec { n: 900, seed: 12, ..Default::default() });
        let ps = &set.particles;
        for (degree, threads) in [(0u32, 1), (0, 3), (2, 3)] {
            let mut sim = ThreadSim::new(ThreadConfig { degree, ..config(threads) });
            let (mac, eps) = (BarnesHutMac::new(sim.config.alpha), sim.config.eps);
            let tree = sim.build_tree(ps);
            let mtree = (degree > 0).then(|| MultipoleTree::new(&tree, ps, degree));
            let out = sim.compute_forces(ps);
            let work = sim.work_weights().expect("a computation records its work");
            let mut total = TraversalStats::default();
            for (i, p) in ps.iter().enumerate() {
                let (phi, acc, st) = match &mtree {
                    Some(mt) => mt.eval(&tree, ps, p.pos, Some(p.id), &mac, eps),
                    None => {
                        let (acc, st) =
                            bhut_tree::accel_on(&tree, ps, p.pos, Some(p.id), &mac, eps);
                        let (phi, st_phi) =
                            bhut_tree::potential_at(&tree, ps, p.pos, Some(p.id), &mac, eps);
                        assert_eq!(st, st_phi);
                        (phi, acc, st)
                    }
                };
                let ctx = format!("degree {degree}, {threads} thread(s), particle {i}");
                let tol = 1e-12;
                assert!((out.potentials[i] - phi).abs() <= tol * phi.abs().max(1.0), "{ctx}");
                assert!(out.accels[i].dist(acc) <= tol * acc.norm().max(1.0), "{ctx}");
                assert_eq!(work[i], st.interactions(), "{ctx}");
                total.merge(st);
            }
            assert_eq!(out.stats, total, "degree {degree}, {threads} thread(s)");
        }
    }

    #[test]
    fn grouped_is_the_default_mode() {
        assert_eq!(ThreadConfig::default().eval_mode, EvalMode::Grouped);
        assert_eq!(ThreadConfig::default().precision, KernelPrecision::F64);
    }

    #[test]
    fn profile_reports_lane_utilization() {
        let set = plummer(PlummerSpec { n: 800, seed: 15, ..Default::default() });
        let mut sim = ThreadSim::new(config(2));
        let prof = sim.compute_forces(&set.particles).profile.unwrap();
        assert!(prof.totals.lane_useful > 0);
        assert!(prof.totals.lane_slots >= prof.totals.lane_useful);
        let u = prof.totals.lane_utilization();
        assert!(u > 0.0 && u <= 1.0, "lane utilization {u}");
        // Degree > 0 walks per target and runs no slab kernels, so no lanes
        // are counted.
        let mut pp = ThreadSim::new(ThreadConfig { degree: 2, ..config(2) });
        let prof = pp.compute_forces(&set.particles).profile.unwrap();
        assert_eq!(prof.totals.lane_slots, 0);
        assert_eq!(prof.totals.lane_utilization(), 1.0);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let mut sim = ThreadSim::new(config(4));
        let out = sim.compute_forces(&[]);
        assert!(out.accels.is_empty());
        let one = uniform_cube(1, 1.0, 1);
        let out = sim.compute_forces(&one.particles);
        assert_eq!(out.accels.len(), 1);
        assert_eq!(out.accels[0], Vec3::ZERO);
    }

    /// Every computation carries its profile, and the profile's counters
    /// are the computation's own numbers: at 1, 2 and 4 threads, monopole
    /// and degree 2, full and masked, the totals are `stats` field by field
    /// and the per-worker counters are `per_thread_interactions`.
    #[test]
    fn profile_counters_agree_with_stats() {
        let set = plummer(PlummerSpec { n: 1200, seed: 4, ..Default::default() });
        let ps = &set.particles;
        let masked = ActiveSet::from_mask((0..ps.len()).map(|i| i % 3 == 0).collect());
        for (degree, threads) in [(0u32, 1), (0, 2), (0, 4), (2, 1), (2, 2)] {
            for active in [None, Some(&masked)] {
                let ctx =
                    format!("degree {degree}, {threads} thread(s), masked {}", active.is_some());
                let mut sim = ThreadSim::new(ThreadConfig { degree, ..config(threads) });
                let mut out = match active {
                    None => sim.compute_forces(ps),
                    Some(a) => sim.compute_forces_active(ps, a),
                };
                let profile = out.profile.take().expect("every computation has a profile");
                // Counter totals reproduce the traversal stats field by field.
                assert_eq!(profile.totals.p2p, out.stats.p2p, "{ctx}");
                assert_eq!(profile.totals.m2p, out.stats.p2n, "{ctx}");
                assert_eq!(profile.totals.mac_tests, out.stats.mac_tests, "{ctx}");
                assert_eq!(profile.totals.interactions(), out.stats.interactions(), "{ctx}");
                // Per-worker counters reproduce the per-thread interaction
                // split and hence the imbalance diagnostic.
                assert_eq!(profile.per_worker.len(), threads, "{ctx}");
                let per: Vec<u64> = profile.per_worker.iter().map(|c| c.interactions()).collect();
                assert_eq!(per, out.per_thread_interactions, "{ctx}");
                assert_eq!(profile.imbalance(), out.imbalance(), "{ctx}");
                // The monopole's grouped walk classified something in every
                // category on a thousand-body Plummer model; degree 2 walks
                // per target and classifies no group.
                let grouped = [
                    profile.totals.group_accept,
                    profile.totals.group_reject,
                    profile.totals.nodes_opened,
                ];
                if degree == 0 {
                    assert!(grouped.iter().all(|&c| c > 0), "{ctx}: {grouped:?}");
                } else {
                    assert_eq!(grouped, [0; 3], "{ctx}");
                }
            }
        }
    }

    #[test]
    fn profile_spans_cover_the_phases() {
        let set = plummer(PlummerSpec { n: 500, seed: 6, ..Default::default() });
        let mut sim = ThreadSim::new(config(2));
        let prof = sim.compute_forces(&set.particles).profile.unwrap();
        let phases = prof.phases();
        for want in ["build", "walk", "kernel", "scatter"] {
            assert!(phases.iter().any(|p| p == want), "missing phase {want}: {phases:?}");
        }
        assert!(prof.wall_s > 0.0);
        assert!(prof.phase_total("walk") + prof.phase_total("kernel") > 0.0);
        // Spans are well-formed intervals within the step window.
        for s in &prof.spans {
            assert!(s.end >= s.start && s.start >= 0.0);
            assert!(s.end <= prof.wall_s + 1e-9);
        }
        // Degree > 0 walks per target and reports a fused eval phase instead.
        let mut pp = ThreadSim::new(ThreadConfig { degree: 2, ..config(2) });
        let prof = pp.compute_forces(&set.particles).profile.unwrap();
        assert!(prof.phases().iter().any(|p| p == "eval"));
    }

    #[test]
    fn active_subset_is_bitwise_restriction_of_full_run() {
        // Masked evaluation must reproduce the full run's values exactly on
        // the active particles (same tree, same slabs, same kernels — the
        // mask only skips members) and leave inactive outputs zeroed.
        let set = plummer(PlummerSpec { n: 900, seed: 21, ..Default::default() });
        let m: Vec<bool> = (0..set.len()).map(|i| i % 3 == 0).collect();
        let active = ActiveSet::from_mask(m.clone());
        for degree in [0u32, 2] {
            let mk = || ThreadSim::new(ThreadConfig { degree, ..config(3) });
            let full = mk().compute_forces(&set.particles);
            let part = mk().compute_forces_active(&set.particles, &active);
            for (i, &is_active) in m.iter().enumerate() {
                if is_active {
                    assert_eq!(part.accels[i], full.accels[i], "degree {degree}");
                    assert_eq!(part.potentials[i], full.potentials[i]);
                } else {
                    assert_eq!(part.accels[i], Vec3::ZERO);
                    assert_eq!(part.potentials[i], 0.0);
                }
            }
            // Roughly a third of the particles → roughly a third of the work.
            assert!(part.stats.interactions() < full.stats.interactions());
        }
    }

    #[test]
    fn full_active_set_takes_the_unmasked_path() {
        let set = plummer(PlummerSpec { n: 600, seed: 22, ..Default::default() });
        let active = ActiveSet::all(set.len());
        let mut a = ThreadSim::new(config(3));
        let mut b = ThreadSim::new(config(3));
        let full = a.compute_forces(&set.particles);
        let via_active = b.compute_forces_active(&set.particles, &active);
        assert_eq!(full.stats, via_active.stats);
        for i in 0..set.len() {
            assert_eq!(full.accels[i], via_active.accels[i]);
            assert_eq!(full.potentials[i], via_active.potentials[i]);
        }
    }

    #[test]
    fn active_runs_preserve_costzones_work_history() {
        // After a masked run, inactive particles must keep their previous
        // work weights (a zeroed weight would wreck the next costzones
        // split); active particles get fresh measurements.
        let set = plummer(PlummerSpec { n: 800, seed: 23, ..Default::default() });
        let mut sim = ThreadSim::new(config(2));
        let _ = sim.compute_forces(&set.particles);
        let before = sim.prev_work.clone().unwrap();
        let m: Vec<bool> = (0..set.len()).map(|i| i % 4 == 0).collect();
        let _ = sim.compute_forces_active(&set.particles, &ActiveSet::from_mask(m.clone()));
        let after = sim.prev_work.clone().unwrap();
        for i in 0..set.len() {
            if m[i] {
                assert!(after[i] > 0, "active particle {i} reported no work");
            } else {
                assert_eq!(after[i], before[i], "inactive particle {i} lost its weight");
            }
        }
    }

    /// Deterministic position drift between substeps, up to 1.2e-2: enough
    /// to change which nodes a walk accepts and which cell a body lands in.
    fn drift(particles: &mut [Particle], k: u64) {
        for (i, p) in particles.iter_mut().enumerate() {
            let s = 1e-3 * ((i as u64 * 37 + k * 101) % 13) as f64;
            p.pos += Vec3::new(s, -0.5 * s, 0.25 * s);
        }
    }

    fn assert_results_bitwise(a: &ForceResult, b: &ForceResult, ctx: &str) {
        assert_eq!(a.stats, b.stats, "{ctx}: stats");
        assert_eq!(a.accels.len(), b.accels.len());
        for i in 0..a.accels.len() {
            assert_eq!(a.accels[i], b.accels[i], "{ctx}: accel {i}");
            assert_eq!(a.potentials[i], b.potentials[i], "{ctx}: potential {i}");
        }
    }

    /// Evaluating on a tree the caller built from the same particles is the
    /// rebuilding call bit for bit, full and masked, at 1 and 2 threads, and
    /// over two steps (the second partitioned by the first's weights).
    #[test]
    fn evaluating_on_the_callers_tree_is_the_rebuilding_call() {
        let set = plummer(PlummerSpec { n: 900, seed: 41, ..Default::default() });
        let ps = &set.particles;
        for threads in [1, 2] {
            for every in [1, 3] {
                let active = ActiveSet::from_mask((0..ps.len()).map(|i| i % every == 0).collect());
                let mut rebuilding = ThreadSim::new(config(threads));
                let mut on_tree = ThreadSim::new(config(threads));
                for step in 0..2 {
                    let ctx = format!("{threads} thread(s), every {every}, step {step}");
                    let want = rebuilding.compute_forces_substep(ps, &active, true, false);
                    let tree = on_tree.build_tree(ps);
                    let got = on_tree.compute_forces_on(&tree, ps, &active);
                    assert_results_bitwise(&got, &want, &ctx);
                    assert_eq!(got.per_thread_interactions, want.per_thread_interactions, "{ctx}");
                    assert_eq!(on_tree.work_weights(), rebuilding.work_weights(), "{ctx}");
                    assert!(got.profile.is_some(), "{ctx}");
                }
            }
        }
    }

    /// Tail stealing moves units between workers, never bits: at 1, 2, 3
    /// and 8 threads, full and masked, monopole and degree 2, every run is
    /// the one-thread run bit for bit (forces, potentials, stats, work
    /// weights), and the work credited to each zone — hence `imbalance()` —
    /// is the same in every repetition, over a population-weighted split
    /// and the measured one after it.
    #[test]
    fn stealing_changes_no_bit_and_no_zone_count() {
        let set = plummer(PlummerSpec { n: 600, seed: 43, ..Default::default() });
        let ps = &set.particles;
        let masks = [vec![true; ps.len()], (0..ps.len()).map(|i| i % 3 == 0).collect()];
        for degree in [0u32, 2] {
            for mask in &masks {
                let active = ActiveSet::from_mask(mask.clone());
                let run = |threads| {
                    let mut sim = ThreadSim::new(ThreadConfig { degree, ..config(threads) });
                    let first = sim.compute_forces_active(ps, &active);
                    let second = sim.compute_forces_substep(ps, &active, true, false);
                    let work = sim.work_weights().unwrap().to_vec();
                    (first, second, work)
                };
                let (want_first, want_second, want_work) = run(1);
                for threads in [1, 2, 3, 8] {
                    let mut zone_counts = None;
                    for rep in 0..5 {
                        let ctx = format!("degree {degree}, {threads} threads, rep {rep}");
                        let (first, second, work) = run(threads);
                        assert_results_bitwise(&first, &want_first, &ctx);
                        assert_results_bitwise(&second, &want_second, &ctx);
                        assert_eq!(work, want_work, "{ctx}: work weights");
                        let per_worker = second.profile.unwrap().per_worker;
                        let counts = (
                            first.per_thread_interactions,
                            second.per_thread_interactions,
                            per_worker,
                        );
                        assert_eq!(counts.0.len(), threads, "{ctx}");
                        let want = zone_counts.get_or_insert_with(|| counts.clone());
                        assert_eq!(&counts, want, "{ctx}: zone counts");
                    }
                }
            }
        }
    }

    /// Rows are written in place, in tree order, then permuted to id order:
    /// at 1, 3 and 8 threads, monopole and degree 2, full and a third
    /// masked, every target's row is written once (debug builds check it as
    /// they go) and is the full run's row with its work, inactive rows are
    /// zero, and inactive work weights keep the previous step's, taken here
    /// at other positions so that they differ.
    #[test]
    fn rows_are_written_in_place_once_per_target() {
        let set = plummer(PlummerSpec { n: 700, seed: 47, ..Default::default() });
        let ps = &set.particles;
        let mut drifted = ps.clone();
        drift(&mut drifted, 5);
        let third: Vec<bool> = (0..ps.len()).map(|i| i % 3 == 1).collect();
        for degree in [0u32, 2] {
            for threads in [1, 3, 8] {
                let ctx = format!("degree {degree}, {threads} threads");
                let mk = || ThreadSim::new(ThreadConfig { degree, ..config(threads) });
                let mut full_sim = mk();
                let full = full_sim.compute_forces(ps);
                let full_work = full_sim.work_weights().unwrap();
                assert!(full_work.iter().all(|&w| w > 0), "{ctx}: a row kept no work");

                let mut sim = mk();
                let _ = sim.compute_forces(&drifted);
                let before = sim.work_weights().unwrap().to_vec();
                let masked = ActiveSet::from_mask(third.clone());
                let part = sim.compute_forces_active(ps, &masked);
                let after = sim.work_weights().unwrap();
                assert_ne!(after, full_work, "{ctx}: the drift moved no work");
                for (i, &is_active) in third.iter().enumerate() {
                    let row = (part.accels[i], part.potentials[i]);
                    if is_active {
                        assert_eq!(row, (full.accels[i], full.potentials[i]), "{ctx}: row {i}");
                        assert_eq!(after[i], full_work[i], "{ctx}: work {i}");
                    } else {
                        assert_eq!(row, (Vec3::ZERO, 0.0), "{ctx}: row {i}");
                        assert_eq!(after[i], before[i], "{ctx}: work {i}");
                    }
                }
            }
        }
    }

    /// Run `ops` — 0 a full step, 1 drift then a masked substep, 2 mask
    /// change — on a 1-thread and a 2-thread sim and hold every computation
    /// against the per-particle walk of the tree [`ThreadSim::build_tree`]
    /// makes at the positions of now: bitwise across thread counts, values
    /// within 1e-12, interaction counts exact per row and in total, inactive
    /// rows zero.
    fn block_substeps_are_the_walk_of_the_current_tree(ops: &[u8], seed: u64) {
        let set = plummer(PlummerSpec { n: 250, seed, ..Default::default() });
        let mk = |threads| ThreadSim::new(config(threads));
        let (mut one, mut two) = (mk(1), mk(2));
        let mac = BarnesHutMac::new(one.config.alpha);
        let eps = one.config.eps;
        let mut ps = set.particles.clone();
        let mut mask: Vec<bool> = (0..ps.len()).map(|i| i % 2 == 0).collect();
        for (k, &op) in ops.iter().enumerate() {
            let ctx = format!("op {k} ({op})");
            let (a, b, active) = match op {
                0 => {
                    let all = vec![true; ps.len()];
                    (one.compute_forces(&ps), two.compute_forces(&ps), all)
                }
                1 => {
                    drift(&mut ps, k as u64);
                    let act = ActiveSet::from_mask(mask.clone());
                    let a = one.compute_forces_substep(&ps, &act, false, true);
                    let b = two.compute_forces_substep(&ps, &act, false, true);
                    (a, b, mask.clone())
                }
                _ => {
                    mask = (0..ps.len()).map(|i| (i + k) % 3 != 0).collect();
                    continue;
                }
            };
            assert_results_bitwise(&a, &b, &format!("{ctx}: 1 thread vs 2"));
            let tree = one.build_tree(&ps);
            let tol = 1e-12;
            let work = one.work_weights().expect("a computation ran");
            let mut walked = 0;
            for (i, p) in ps.iter().enumerate() {
                if !active[i] {
                    assert_eq!((a.accels[i], a.potentials[i]), (Vec3::ZERO, 0.0), "{ctx}: row {i}");
                    continue;
                }
                let (acc, st) = bhut_tree::accel_on(&tree, &ps, p.pos, Some(p.id), &mac, eps);
                let (phi, _) = bhut_tree::potential_at(&tree, &ps, p.pos, Some(p.id), &mac, eps);
                assert_eq!(work[i], st.interactions(), "{ctx}: interactions of {i}");
                assert!(a.accels[i].dist(acc) <= tol * acc.norm().max(1.0), "{ctx}: accel {i}");
                assert!((a.potentials[i] - phi).abs() <= tol * phi.abs().max(1.0), "{ctx}: {i}");
                walked += st.interactions();
            }
            assert_eq!(a.stats.interactions(), walked, "{ctx}: total interactions");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        #[test]
        fn any_block_sequence_is_the_walk_of_the_current_tree(
            ops in proptest::collection::vec(0u8..3, 1..10),
            seed in 0u64..1_000,
        ) {
            block_substeps_are_the_walk_of_the_current_tree(&ops, seed);
        }
    }

    #[test]
    fn build_tree_is_the_tree_the_executor_walks() {
        // The diagnostic tree is the sequential build in the bounding cube at
        // every thread count: the same nodes, bit for bit, and the same order.
        let set = plummer(PlummerSpec { n: 900, seed: 13, ..Default::default() });
        let want = build(&set.particles, BuildParams::with_leaf_capacity(8));
        for threads in [1, 4] {
            let sim = ThreadSim::new(config(threads));
            assert_eq!(sim.config.leaf_capacity, 8);
            let got = sim.build_tree(&set.particles);
            assert_eq!(got.order, want.order, "{threads} threads");
            assert_eq!(got.len(), want.len(), "{threads} threads");
            for (g, w) in got.nodes.iter().zip(&want.nodes) {
                let bits = |n: &bhut_tree::Node| {
                    let v = [n.mass, n.com.x, n.com.y, n.com.z, n.side];
                    (v.map(f64::to_bits), n.key, n.child_mask, n.start, n.end, n.next)
                };
                assert_eq!(bits(g), bits(w), "{threads} threads");
            }
        }
    }
}
