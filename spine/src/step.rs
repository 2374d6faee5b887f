//! The in-process step workloads: `Simulation::step` under a global
//! timestep at 1 and 2 threads, and under block timesteps with list reuse.
//!
//! The untraced run times `Simulation::step` and nothing else. The traced
//! run drives the same computation from outside, one public call per layer
//! (build → schedule → gather/resolve → kernel → integrate), with a span
//! around each, and checks that the forces it assembles are bitwise those of
//! `ThreadSim::compute_forces` on the same state.

use crate::accuracy::{self, same_bits};
use crate::catalog::SETUP_REPS;
use crate::gen::initial_conditions;
use crate::stats::{fastest, median};
use crate::trace::Tracer;
use crate::{sys, Args, Outcome};
use bhut_geom::{Particle, ParticleSet, Vec3};
use bhut_sim::{drift, kick, Simulation, SimulationConfig};
use bhut_threads::{EvalMode, Partitioning, ThreadConfig, ThreadSim};
use bhut_timestep::{ActiveSet, BlockConfig, BlockStepper, TimestepMode};
use bhut_tree::group::{
    eval_gathered_monopole_masked, gather_group, leaf_schedule, resolve_mixed_tails_lanes,
    InteractionBuffers,
};
use bhut_tree::traverse::TraversalStats;
use bhut_tree::{BarnesHutMac, NodeId, Tree};
use std::time::Instant;

/// Size and shape of one step workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub n: usize,
    pub threads: usize,
    pub block: bool,
}

/// The block hierarchy of `block20k_reuse`.
const BLOCK: BlockConfig = BlockConfig { dt_max: 1e-2, max_rung: 3, eta: 0.05, eps: 1e-3 };
/// Fewest timed operations in any timed region.
const MIN_OPS: usize = 3;

fn sim_config(spec: Spec) -> SimulationConfig {
    SimulationConfig {
        dt: 1e-3,
        alpha: 0.67,
        leaf_capacity: 8,
        threads: spec.threads,
        timestep: if spec.block { TimestepMode::Block(BLOCK) } else { TimestepMode::Global },
        // README and DESIGN call list reuse "default on"; the config structs
        // default it off, so the workload says what it means.
        list_reuse: spec.block,
        ..SimulationConfig::default()
    }
}

/// The executor configuration `Simulation::new` derives from `cfg`.
fn thread_config(cfg: &SimulationConfig, threads: usize) -> ThreadConfig {
    ThreadConfig {
        threads,
        alpha: cfg.alpha,
        degree: cfg.degree,
        eps: cfg.eps,
        leaf_capacity: cfg.leaf_capacity,
        partitioning: Partitioning::MortonZones,
        eval_mode: EvalMode::Grouped,
        precision: cfg.precision,
        mac_batch: true,
        list_reuse: cfg.list_reuse,
    }
}

/// Initial conditions and the simulation object over them; also returns the
/// seconds the generation took.
fn prepare(spec: Spec, seed: u64, rep: u64, tr: &mut Tracer) -> (Simulation, f64) {
    let (ic, generate_s) = tr.scope("geom.generate", rep, || initial_conditions(spec.n, seed));
    let (sim, _) =
        tr.scope("sim.new", rep, || Simulation::new(ParticleSet::new(ic), sim_config(spec)));
    (sim, generate_s)
}

/// The accuracy metric over seeded targets of `particles`, through the
/// masked force path — whose active rows are bitwise those of a full sweep.
fn force_frac_err(particles: &[Particle], cfg: ThreadConfig, seed: u64) -> f64 {
    let ids = accuracy::particle_targets(seed, particles.len());
    let mut mask = vec![false; particles.len()];
    for &i in &ids {
        mask[i] = true;
    }
    let mut exec = ThreadSim::new(ThreadConfig { threads: 1, list_reuse: false, ..cfg });
    let tree = exec.compute_forces_active(particles, &ActiveSet::from_mask(mask));
    let approx: Vec<Vec3> = ids.iter().map(|&i| tree.accels[i]).collect();
    let targets = ids.iter().map(|&i| (particles[i].pos, Some(particles[i].id)));
    accuracy::err_vs_direct(particles, targets, &approx, cfg.eps)
}

fn all_finite(particles: &[Particle]) -> bool {
    particles.iter().all(|p| {
        [p.pos.x, p.pos.y, p.pos.z, p.vel.x, p.vel.y, p.vel.z].iter().all(|c| c.is_finite())
    })
}

fn same_state(a: &[Particle], b: &[Particle]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.id == y.id && same_bits(&[x.pos, x.vel], &[y.pos, y.vel]))
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run(spec: Spec, args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cfg = sim_config(spec);
    out.note(format!(
        "Plummer n={} threads={} dt={} alpha={} leaf_capacity={} {}",
        spec.n,
        spec.threads,
        cfg.dt,
        cfg.alpha,
        cfg.leaf_capacity,
        if spec.block { "block timesteps, list_reuse on" } else { "global timestep" }
    ));
    if args.trace {
        let (sim, generate_s) = prepare(spec, args.seed, 0, tr);
        out.metric("geom.generate_ms", generate_s * 1e3);
        if spec.block {
            traced_block(spec, args, sim, tr, &mut out);
        } else {
            traced_global(spec, args, sim, tr, &mut out);
        }
        return out;
    }

    // Set-up is everything before the steady state: initial conditions, the
    // simulation object, and the first step — which builds the first tree
    // and primes the leapfrog (and the rung assignment under block
    // timesteps) with an extra force evaluation.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<Simulation> = None;
    for rep in 0..SETUP_REPS as u64 {
        // Drop the previous repetition first so peak memory is one set-up's.
        drop(last.take());
        let all = tr.open("spine.setup", rep);
        let (mut sim, _) = prepare(spec, args.seed, rep, tr);
        tr.scope("sim.first_step", rep, || sim.step());
        setups.push(tr.close(all));
        last = Some(sim);
    }
    let mut sim = last.expect("SETUP_REPS > 0");

    // The state the first step leaves is the seed's alone — not the timed
    // loop's, whose length the clock decides — so the accuracy check here
    // repeats exactly.
    let err = force_frac_err(&sim.particles.particles, thread_config(&cfg, 1), args.seed);
    out.check_force_err(err, "particles after the first step");

    let mut step_ms = Vec::new();
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    while step_ms.len() < MIN_OPS || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let report = sim.step();
        step_ms.push(ms(t));
        out.attempted += 1;
        if report.interactions == 0 || report.force_evals == 0 {
            out.failed += 1;
        }
        // Read at a fixed step count: at 2 threads the allocator's
        // per-thread arenas keep growing a little with every step, and how
        // many steps fit into `--seconds` is up to the clock.
        if step_ms.len() == MIN_OPS {
            peak_rss_mb = sys::peak_rss_mb();
        }
    }
    out.check(
        "state finite",
        all_finite(&sim.particles.particles),
        format!("after {} steps", sim.step_count),
    );
    out.metric("setup_s", fastest(&setups));
    let p10 = out.op_times("steps", &step_ms, step_ms.iter().sum::<f64>() / 1e3);
    // One step at a time: the rate of the best tenth is the p10 time inverted.
    out.metric("ops_per_s_p90", 1e3 / p10);
    out.metric("force_frac_err", err);
    out.metric("peak_rss_mb", peak_rss_mb);
    out
}

// ---------------------------------------------------------------------------
// The force evaluation, one layer at a time.
// ---------------------------------------------------------------------------

/// What one decomposed force evaluation cost and counted.
#[derive(Debug, Clone, Copy, Default)]
struct Layers {
    build_s: f64,
    schedule_s: f64,
    /// Busy seconds in `gather_group` + `resolve_mixed_tails_lanes`, summed
    /// over the harness's workers.
    walk_s: f64,
    /// Busy seconds in `eval_gathered_monopole_masked`, summed likewise.
    kernel_s: f64,
    force_s: f64,
    stats: TraversalStats,
    nodes: usize,
    lane_slots: u64,
    lane_useful: u64,
}

/// One worker's share of the leaf loop.
struct Part {
    staged: Vec<(u32, f64, Vec3, u64)>,
    start: Instant,
    walk_s: f64,
    kernel_s: f64,
    stats: TraversalStats,
    lane_slots: u64,
    lane_useful: u64,
}

/// `parts + 1` boundaries over `weights` so that each part carries about
/// equal weight (costzones at leaf granularity, as the executor splits).
fn split_by_weight(weights: &[u64], parts: usize) -> Vec<usize> {
    let total: u64 = weights.iter().sum();
    let mut bounds = vec![0];
    let mut acc = 0u64;
    for (i, w) in weights.iter().enumerate() {
        if bounds.len() < parts && acc * parts as u64 >= total * bounds.len() as u64 {
            bounds.push(i);
        }
        acc += w;
    }
    bounds.resize(parts, weights.len());
    bounds.push(weights.len());
    bounds
}

/// Drives the grouped force path from outside, through the public functions
/// the executor itself calls, on as many workers as the workload has threads.
struct Decomposer {
    exec: ThreadSim,
    bufs: Vec<InteractionBuffers>,
    /// Interactions per particle in the previous evaluation — the costzones
    /// weights.
    work: Vec<u64>,
    potentials: Vec<f64>,
}

impl Decomposer {
    fn new(cfg: ThreadConfig) -> Self {
        Decomposer {
            exec: ThreadSim::new(cfg),
            bufs: (0..cfg.threads).map(|_| InteractionBuffers::new()).collect(),
            work: Vec::new(),
            potentials: Vec::new(),
        }
    }

    fn forces(&mut self, particles: &[Particle], tr: &mut Tracer, op: u64) -> (Vec<Vec3>, Layers) {
        let cfg = self.exec.config;
        let n = particles.len();
        let force = tr.open("threads.force", op);
        let (tree, build_s) = tr.scope("tree.build", op, || self.exec.build_tree(particles));
        let (leaves, schedule_s) = tr.scope("tree.schedule", op, || leaf_schedule(&tree));

        let weights: Vec<u64> = leaves
            .iter()
            .map(|&l| {
                let members = tree.particles_under(l);
                if self.work.len() == n {
                    members.iter().map(|&pi| self.work[pi as usize] + 1).sum()
                } else {
                    members.len() as u64
                }
            })
            .collect();
        let bounds = split_by_weight(&weights, cfg.threads);

        let sweep = tr.open("tree.leaves", op);
        let tree_ref = &tree;
        let parts: Vec<Part> = if cfg.threads == 1 {
            vec![eval_leaves(tree_ref, particles, &leaves, cfg, &mut self.bufs[0])]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .bufs
                    .iter_mut()
                    .zip(bounds.windows(2))
                    .map(|(buf, w)| {
                        let ids = &leaves[w[0]..w[1]];
                        s.spawn(move || eval_leaves(tree_ref, particles, ids, cfg, buf))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("leaf worker panicked")).collect()
            })
        };
        // Walk and kernel interleave per leaf; like the executor's own
        // profile, lay their busy totals out as contiguous child intervals.
        for (lane, p) in parts.iter().enumerate() {
            let t0 = tr.at(p.start);
            tr.record("tree.walk", op, lane as u32, t0, t0 + p.walk_s);
            tr.record("tree.kernel", op, lane as u32, t0 + p.walk_s, t0 + p.walk_s + p.kernel_s);
        }
        tr.close(sweep);

        let mut accels = vec![Vec3::ZERO; n];
        self.potentials.clear();
        self.potentials.resize(n, 0.0);
        self.work.clear();
        self.work.resize(n, 0);
        let mut layers = Layers { build_s, schedule_s, nodes: tree.len(), ..Layers::default() };
        for p in parts {
            for (pi, phi, acc, interactions) in p.staged {
                accels[pi as usize] = acc;
                self.potentials[pi as usize] = phi;
                self.work[pi as usize] = interactions;
            }
            layers.walk_s += p.walk_s;
            layers.kernel_s += p.kernel_s;
            layers.stats.merge(p.stats);
            layers.lane_slots += p.lane_slots;
            layers.lane_useful += p.lane_useful;
        }
        layers.force_s = tr.close(force);
        (accels, layers)
    }
}

/// Gather, resolve and evaluate `leaves` one after another, timing the walk
/// and the kernel of each.
fn eval_leaves(
    tree: &Tree,
    particles: &[Particle],
    leaves: &[NodeId],
    cfg: ThreadConfig,
    buf: &mut InteractionBuffers,
) -> Part {
    let mac = BarnesHutMac::new(cfg.alpha);
    let mut part = Part {
        staged: Vec::new(),
        start: Instant::now(),
        walk_s: 0.0,
        kernel_s: 0.0,
        stats: TraversalStats::default(),
        lane_slots: 0,
        lane_useful: 0,
    };
    buf.take_lane_counters();
    for &leaf in leaves {
        let t0 = Instant::now();
        gather_group(tree, particles, leaf, &mac, buf);
        resolve_mixed_tails_lanes(tree, particles, leaf, &mac, buf, None);
        let t1 = Instant::now();
        let staged = &mut part.staged;
        let st = eval_gathered_monopole_masked(
            tree,
            particles,
            leaf,
            &mac,
            cfg.eps,
            cfg.precision,
            buf,
            None,
            |pi, phi, acc, it| staged.push((pi, phi, acc, it)),
        );
        let t2 = Instant::now();
        part.walk_s += (t1 - t0).as_secs_f64();
        part.kernel_s += (t2 - t1).as_secs_f64();
        part.stats.merge(st);
    }
    (part.lane_slots, part.lane_useful) = buf.take_lane_counters();
    buf.maybe_shrink();
    part
}

/// `compute_forces` at one and at two threads on the same state, alternated
/// until `budget_s` is spent.
struct Scaling {
    force_ms_1: f64,
    force_ms_2: f64,
    imbalance_2: f64,
    accels_1: Vec<Vec3>,
    potentials_1: Vec<f64>,
    accels_2: Vec<Vec3>,
}

fn thread_scaling(
    cfg: &SimulationConfig,
    particles: &[Particle],
    budget_s: f64,
    tr: &mut Tracer,
) -> Scaling {
    let no_reuse = SimulationConfig { list_reuse: false, ..*cfg };
    let mut one = ThreadSim::new(thread_config(&no_reuse, 1));
    let mut two = ThreadSim::new(thread_config(&no_reuse, 2));
    // The first call has no measured weights to balance by; do not time it.
    let first_1 = one.compute_forces(particles);
    let mut last_2 = two.compute_forces(particles);
    let (mut ms_1, mut ms_2) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut op = 0;
    while ms_1.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        op += 1;
        let (_, s) = tr.scope("threads.compute_forces_t1", op, || one.compute_forces(particles));
        ms_1.push(s * 1e3);
        let (r, s) = tr.scope("threads.compute_forces_t2", op, || two.compute_forces(particles));
        ms_2.push(s * 1e3);
        last_2 = r;
    }
    Scaling {
        force_ms_1: median(&ms_1),
        force_ms_2: median(&ms_2),
        imbalance_2: last_2.imbalance(),
        accels_1: first_1.accels,
        potentials_1: first_1.potentials,
        accels_2: last_2.accels,
    }
}

/// Emit the `tree.*` and `threads.*` metrics of a set of decomposed
/// evaluations; `counted` is the one on the seed-determined state, whose
/// counts repeat exactly.
fn layer_metrics(
    out: &mut Outcome,
    threads: usize,
    counted: &Layers,
    all: &[Layers],
    scaling: &Scaling,
) {
    let med = |f: fn(&Layers) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    let (build_s, schedule_s) = (med(|l| l.build_s), med(|l| l.schedule_s));
    let (walk_s, kernel_s) = (med(|l| l.walk_s), med(|l| l.kernel_s));
    let interactions = counted.stats.interactions() as f64;
    out.metric("tree.build_ms", build_s * 1e3);
    out.metric("tree.nodes", counted.nodes as f64);
    out.metric("tree.nodes_built_per_s", counted.nodes as f64 / build_s);
    out.metric("tree.schedule_ms", schedule_s * 1e3);
    out.metric("tree.walk_ms", walk_s * 1e3);
    out.metric("tree.mac_tests", counted.stats.mac_tests as f64);
    out.metric("tree.interactions", interactions);
    out.metric("tree.mac_tests_per_interaction", counted.stats.mac_tests as f64 / interactions);
    out.metric("tree.walk_interactions_per_s", interactions / counted.walk_s);
    out.metric("tree.walk_over_kernel", walk_s / kernel_s);
    out.metric("tree.kernel_ms", kernel_s * 1e3);
    out.metric("tree.kernel_interactions_per_s", interactions / counted.kernel_s);
    out.metric(
        "tree.kernel_lane_util",
        counted.lane_useful as f64 / counted.lane_slots.max(1) as f64,
    );
    // 4 f64 per gathered source (x, y, z, mass); computed, not measured.
    out.metric("tree.slab_bytes_computed", interactions * 32.0);
    let force_ms = if threads == 1 { scaling.force_ms_1 } else { scaling.force_ms_2 };
    out.metric("threads.force_ms", force_ms);
    out.metric(
        "threads.overhead_ms",
        scaling.force_ms_1 - (build_s + schedule_s + walk_s + kernel_s) * 1e3,
    );
    out.metric("threads.imbalance", scaling.imbalance_2);
    out.metric("threads.parallel_efficiency", scaling.force_ms_1 / (2.0 * scaling.force_ms_2));
}

/// The decomposition must have measured the same computation: its forces and
/// potentials are bitwise `compute_forces`'s on the same state, at the
/// workload's thread count — and the thread count does not change a bit.
fn check_decomposition(
    out: &mut Outcome,
    accels: &[Vec3],
    potentials: &[f64],
    scaling: &Scaling,
    spec: Spec,
) {
    let reference = if spec.threads == 1 { &scaling.accels_1 } else { &scaling.accels_2 };
    out.check(
        "layer-by-layer forces == compute_forces",
        same_bits(accels, reference)
            && potentials
                .iter()
                .zip(&scaling.potentials_1)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        format!(
            "accelerations and potentials bitwise equal on n={} at {} thread(s)",
            spec.n, spec.threads
        ),
    );
    out.check(
        "forces at 1 thread == forces at 2 threads",
        same_bits(&scaling.accels_1, &scaling.accels_2),
        "bitwise".into(),
    );
}

fn traced_global(spec: Spec, args: &Args, mut sim: Simulation, tr: &mut Tracer, out: &mut Outcome) {
    let cfg = sim_config(spec);
    let dt = cfg.dt;

    // 1. Traced steps from the initial conditions: a leapfrog assembled from
    //    the layers' public calls.
    let mut dec = Decomposer::new(thread_config(&cfg, spec.threads));
    let mut ps = sim.particles.particles.clone();
    let (mut accels, counted) = dec.forces(&ps, tr, 0);
    let mut layers = vec![counted];
    let (mut traced_ms, mut integrate_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced_ms.len() < MIN_OPS || start.elapsed().as_secs_f64() < 0.4 * args.seconds {
        let op = traced_ms.len() as u64 + 1;
        let step = tr.open("sim.step", op);
        let (_, a) = tr.scope("sim.integrate", op, || {
            kick(&mut ps, &accels, dt * 0.5);
            drift(&mut ps, dt);
        });
        let (new_accels, l) = dec.forces(&ps, tr, op);
        let (_, b) = tr.scope("sim.integrate", op, || kick(&mut ps, &new_accels, dt * 0.5));
        accels = new_accels;
        traced_ms.push(tr.close(step) * 1e3);
        integrate_ms.push((a + b) * 1e3);
        layers.push(l);
        out.attempted += 1;
    }

    // 2. The same number of `Simulation::step`s from the same initial
    //    conditions, untraced: the reference for the overhead, and the
    //    trajectory the traced leapfrog must have followed bit for bit.
    let t = Instant::now();
    sim.step();
    let warmup_ms = ms(t);
    let mut untraced_ms = vec![warmup_ms];
    while untraced_ms.len() < traced_ms.len() {
        let t = Instant::now();
        sim.step();
        untraced_ms.push(ms(t));
    }
    out.check(
        "traced trajectory == Simulation::step",
        same_state(&ps, &sim.particles.particles),
        format!("positions and velocities bitwise equal after {} steps", traced_ms.len()),
    );

    // 3. Thread scaling on the final state, whose decomposed forces are
    //    `accels`: the decomposition must have measured the same computation.
    let scaling = thread_scaling(&cfg, &ps, 0.25 * args.seconds, tr);
    check_decomposition(out, &accels, &dec.potentials, &scaling, spec);

    let traced_p50 = median(&traced_ms);
    // The first untraced step also pays the priming evaluation; leave it out.
    let untraced_p50 = median(&untraced_ms[1..]);
    out.note(format!(
        "{} traced and {} untraced steps; counts are from the evaluation on the initial conditions",
        traced_ms.len(),
        untraced_ms.len() - 1
    ));
    out.metric("sim.warmup_ms", warmup_ms);
    out.metric("sim.integrate_ms", median(&integrate_ms));
    layer_metrics(out, spec.threads, &counted, &layers, &scaling);
    out.metric(
        "tree.walk_share",
        median(&layers.iter().map(|l| l.walk_s).collect::<Vec<_>>()) * 1e3
            / (traced_p50 * spec.threads as f64),
    );
    out.trace_overhead(traced_p50, untraced_p50);
    out.metric("obs.spans", tr.len() as f64);
}

/// One force evaluation inside a traced big step.
struct Substep {
    full: bool,
    ms: f64,
    hits: u64,
    misses: u64,
    list_bytes: u64,
}

fn traced_block(spec: Spec, args: &Args, mut sim: Simulation, tr: &mut Tracer, out: &mut Outcome) {
    let cfg = sim_config(spec);
    let ic = sim.particles.particles.clone();
    let n = ic.len();

    // 1. The full sweep on the initial conditions, layer by layer.
    let mut dec = Decomposer::new(thread_config(
        &SimulationConfig { list_reuse: false, ..cfg },
        spec.threads,
    ));
    let mut layers = Vec::new();
    let mut accels = Vec::new();
    for op in 0..3 {
        let (a, l) = dec.forces(&ic, tr, op);
        accels = a;
        layers.push(l);
    }
    let scaling = thread_scaling(&cfg, &ic, 0.1 * args.seconds, tr);
    check_decomposition(out, &accels, &dec.potentials, &scaling, spec);

    // 2. Traced big steps from the initial conditions: the harness owns the
    //    stepper and times every force evaluation it asks for.
    let mut exec = ThreadSim::new(thread_config(&cfg, spec.threads));
    let mut stepper = BlockStepper::new(BLOCK);
    let mut ps = ic;
    let mut traced_ms = Vec::new();
    let mut integrate_ms = Vec::new();
    let mut per_step: Vec<(Vec<Substep>, u64, u64)> = Vec::new();
    let start = Instant::now();
    while traced_ms.len() < MIN_OPS || start.elapsed().as_secs_f64() < 0.4 * args.seconds {
        let op = traced_ms.len() as u64 + 1;
        let mut subs = Vec::new();
        let step = tr.open("sim.step", op);
        let stats = stepper.big_step(&mut ps, |p, active| {
            // As `Simulation::step_block`: synchronized substeps rebuild,
            // masked ones replay the frozen tree's lists.
            let full = active.is_full();
            let name = if full { "timestep.full_substep" } else { "timestep.masked_substep" };
            let (mut r, s) =
                tr.scope(name, op, || exec.compute_forces_substep(p, active, true, !full));
            let totals = r.profile.take().map(|p| p.totals).unwrap_or_default();
            subs.push(Substep {
                full,
                ms: s * 1e3,
                hits: totals.list_hits,
                misses: totals.list_misses,
                list_bytes: totals.list_bytes,
            });
            r.accels
        });
        let step_ms = tr.close(step) * 1e3;
        integrate_ms.push(step_ms - subs.iter().map(|s| s.ms).sum::<f64>());
        traced_ms.push(step_ms);
        per_step.push((subs, stats.substeps, stats.force_evals));
        out.attempted += 1;
    }

    // 3. The same number of `Simulation::step`s, untraced.
    let mut untraced_ms = Vec::new();
    while untraced_ms.len() < traced_ms.len() {
        let t = Instant::now();
        sim.step();
        untraced_ms.push(ms(t));
    }
    out.check(
        "traced trajectory == Simulation::step",
        same_state(&ps, &sim.particles.particles),
        format!("positions and velocities bitwise equal after {} big steps", traced_ms.len()),
    );

    // Counts come from the second big step (the first also primes), whose
    // state the seed alone determines; timings from every step but the first.
    let (counted, substeps, force_evals) = &per_step[1];
    let later = || per_step[1..].iter().flat_map(|(subs, _, _)| subs.iter());
    let full_ms: Vec<f64> = later().filter(|s| s.full).map(|s| s.ms).collect();
    let masked_ms: Vec<f64> = later().filter(|s| !s.full).map(|s| s.ms).collect();
    let hits: u64 = counted.iter().map(|s| s.hits).sum();
    let misses: u64 = counted.iter().map(|s| s.misses).sum();
    let traced_p50 = median(&traced_ms[1..]);
    let untraced_p50 = median(&untraced_ms[1..]);
    out.note(format!(
        "{} traced and untraced big steps; counts are from the second big step and the initial conditions",
        traced_ms.len()
    ));
    out.metric("sim.warmup_ms", untraced_ms[0]);
    out.metric("sim.integrate_ms", median(&integrate_ms[1..]));
    layer_metrics(out, spec.threads, &layers[0], &layers, &scaling);
    out.metric(
        "tree.walk_share",
        median(&layers.iter().map(|l| l.walk_s / l.force_s).collect::<Vec<_>>()),
    );
    out.metric("timestep.substeps", *substeps as f64);
    out.metric("timestep.force_evals", *force_evals as f64);
    out.metric(
        "timestep.active_fraction_mean",
        *force_evals as f64 / (*substeps as f64 * n as f64),
    );
    out.metric("timestep.full_substep_ms", median(&full_ms));
    out.metric("timestep.masked_substep_ms_p50", median(&masked_ms));
    out.metric("timestep.list_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    out.metric(
        "timestep.list_bytes",
        counted.iter().map(|s| s.list_bytes).max().unwrap_or(0) as f64,
    );
    out.trace_overhead(traced_p50, untraced_p50);
    out.metric("obs.spans", tr.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_split_covers_everything_in_order() {
        let w = [5, 1, 1, 1, 1, 1, 5, 5];
        let b = split_by_weight(&w, 2);
        assert_eq!((b[0], b[2]), (0, w.len()));
        assert!(b[1] > 0 && b[1] < w.len());
        let left: u64 = w[..b[1]].iter().sum();
        assert!((8..=12).contains(&left), "halves are about equal: {left} of 20");
        assert_eq!(split_by_weight(&w, 1), [0, w.len()]);
        assert_eq!(split_by_weight(&[], 2), [0, 0, 0]);
        assert_eq!(split_by_weight(&[3], 2), [0, 1, 1]);
    }

    #[test]
    fn decomposed_forces_match_the_executor_bitwise() {
        let ps = initial_conditions(600, 3);
        let cfg = sim_config(Spec { n: 600, threads: 2, block: false });
        let mut tr = Tracer::new();
        for threads in [1, 2] {
            let mut dec = Decomposer::new(thread_config(&cfg, threads));
            // twice: the second evaluation splits by measured weights
            dec.forces(&ps, &mut tr, 0);
            let (accels, layers) = dec.forces(&ps, &mut tr, 1);
            let reference = ThreadSim::new(thread_config(&cfg, threads)).compute_forces(&ps);
            assert!(same_bits(&accels, &reference.accels));
            assert_eq!(layers.stats.interactions(), reference.stats.interactions());
            assert_eq!(layers.stats.mac_tests, reference.stats.mac_tests);
            assert!(layers.lane_slots >= layers.lane_useful && layers.lane_useful > 0);
        }
        assert!(tr.self_seconds().contains_key("tree.walk"));
    }

    #[test]
    fn force_error_is_small_and_seeded() {
        let ps = initial_conditions(2000, 4);
        let cfg = thread_config(&sim_config(Spec { n: 2000, threads: 1, block: false }), 1);
        let a = force_frac_err(&ps, cfg, 1);
        assert!(a > 0.0 && a < crate::catalog::FORCE_ERR_CAP * 2.0, "{a}");
        assert_eq!(a, force_frac_err(&ps, cfg, 1));
        assert_ne!(a, force_frac_err(&ps, cfg, 2));
    }
}
