//! The per-rank step driver: one OS process (or loopback endpoint) running
//! one of the three Grama–Kumar–Sameh formulations for real.
//!
//! Every rank executes the same bulk-synchronous loop per time-step:
//!
//! 1. **exchange** — all-gather owned particles into the canonical
//!    id-indexed array, so every rank holds an identical global state.
//! 2. **build / walk / kernel** — build the (replicated) global tree and
//!    evaluate forces for *owned* particles only, by masking the
//!    shared-memory executor with an [`ActiveSet`]. The masked evaluation
//!    is bitwise identical to the corresponding rows of a full run, which
//!    is what makes the ≤1e-12 force-equivalence gate hold exactly: a
//!    `p`-rank run and the single-process reference produce the same bits.
//! 3. **update** — leapfrog kick-drift of the owned rows.
//! 4. **load_balance** — scheme-specific reassignment (SPSA re-bins to the
//!    static gray-code owners; SPDA all-reduces measured cluster loads and
//!    re-carves the Morton runs; DPDA all-gathers measured particle
//!    weights and recomputes costzones), then a pairwise bin exchange
//!    migrates particles to their new owners.
//!
//! Each step emits a rank-local [`StepProfile`] whose spans use the real
//! phase names (`exchange`/`build`/`walk`/`kernel`/`update`/
//! `load_balance`); rank 0 of a launched run folds them into one profile
//! per step with [`StepProfile::from_rank_profiles`], landing measured
//! shares in the same table as the simulator's predictions.

use crate::ckpt::CkptStore;
use crate::collectives::{all_gather, all_reduce_sum_f64, barrier, broadcast, exchange};
use crate::transport::{ProcError, Transport};
use crate::wire::{
    decode_particles, decode_weights, encode_particles, encode_weights, particle_records,
};
use bhut_core::balance::{spda_initial, spda_rebalance, spsa_assignment, Curve, Scheme};
use bhut_core::{ClusterGrid, Partition};
use bhut_geom::{plummer, Aabb, Particle, PlummerSpec, Vec3};
use bhut_obs::{now, phase, Span, StepProfile};
use bhut_sim::kick_drift_owned;
use bhut_threads::{ForceResult, ThreadConfig, ThreadSim};
use bhut_timestep::ActiveSet;
use bhut_tree::Tree;

/// Frame tags of the rank↔rank mesh protocol.
pub mod tags {
    /// Initial conditions, rank 0 → all.
    pub const IC: u16 = 1;
    /// Per-step owned-state all-gather.
    pub const STATE: u16 = 2;
    /// SPDA per-cluster load all-reduce.
    pub const LOADS: u16 = 3;
    /// DPDA per-particle weight all-gather.
    pub const WEIGHTS: u16 = 4;
    /// Post-rebalance particle migration.
    pub const MIGRATE: u16 = 5;
    /// The barrier after each rank writes its shard of a checkpoint epoch.
    pub const CKPT: u16 = 6;
}

/// One multi-process run's shared configuration. Every rank derives the
/// whole setup (IC, grid, initial ownership) deterministically from this,
/// so only the struct itself crosses the process boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcConfig {
    pub scheme: Scheme,
    pub n: usize,
    pub steps: usize,
    pub dt: f64,
    pub seed: u64,
    /// Barnes–Hut opening parameter α.
    pub alpha: f64,
    /// Softening length.
    pub eps: f64,
    /// Cluster-grid side `c` (r = c² clusters) for SPSA/SPDA.
    pub grid_c: u32,
    /// SPDA curve ordering.
    pub curve: Curve,
    /// Checkpoint root directory ([`crate::ckpt::CkptStore`] layout); `None`
    /// disables checkpointing and resume.
    pub ckpt_dir: Option<String>,
    /// Write one checkpoint epoch every this many completed steps
    /// (0 = never).
    pub ckpt_every: u64,
    /// Start from the latest complete epoch in `ckpt_dir` instead of the
    /// initial conditions (no-op when none exists).
    pub resume: bool,
}

impl Default for ProcConfig {
    fn default() -> Self {
        ProcConfig {
            scheme: Scheme::Spsa,
            n: 1000,
            steps: 2,
            dt: 1e-3,
            seed: 42,
            alpha: 0.67,
            eps: 1e-4,
            grid_c: 8,
            curve: Curve::Morton,
            ckpt_dir: None,
            ckpt_every: 0,
            resume: false,
        }
    }
}

impl ProcConfig {
    /// Exact textual encoding for the parent→child environment hop. Floats
    /// travel as hex bit patterns, so the child reconstructs the identical
    /// config — decimal formatting must never perturb the run.
    pub fn encode(&self) -> String {
        let scheme = match self.scheme {
            Scheme::Spsa => "spsa",
            Scheme::Spda => "spda",
            Scheme::Dpda => "dpda",
        };
        let curve = match self.curve {
            Curve::Morton => "morton",
            Curve::Hilbert => "hilbert",
        };
        let mut out = format!(
            "scheme={scheme};n={};steps={};dt={:016x};seed={};alpha={:016x};eps={:016x};grid_c={};curve={curve}",
            self.n,
            self.steps,
            self.dt.to_bits(),
            self.seed,
            self.alpha.to_bits(),
            self.eps.to_bits(),
            self.grid_c,
        );
        // Checkpoint fields ride at the tail so pre-fault-tolerance decoders
        // never see them on default configs; the directory travels as hex
        // bytes (paths may contain `;`/`=`/non-UTF-8-safe characters).
        out.push_str(&format!(";ckpt_every={};resume={}", self.ckpt_every, u8::from(self.resume)));
        if let Some(dir) = &self.ckpt_dir {
            out.push_str(";ckpt_dir=");
            for b in dir.as_bytes() {
                out.push_str(&format!("{b:02x}"));
            }
        }
        out
    }

    pub fn decode(s: &str) -> Result<ProcConfig, String> {
        let mut cfg = ProcConfig::default();
        for kv in s.split(';') {
            let (k, v) = kv.split_once('=').ok_or_else(|| format!("bad field {kv:?}"))?;
            let bits = || u64::from_str_radix(v, 16).map_err(|e| format!("{k}: {e}"));
            match k {
                "scheme" => {
                    cfg.scheme = match v {
                        "spsa" => Scheme::Spsa,
                        "spda" => Scheme::Spda,
                        "dpda" => Scheme::Dpda,
                        _ => return Err(format!("unknown scheme {v:?}")),
                    }
                }
                "curve" => {
                    cfg.curve = match v {
                        "morton" => Curve::Morton,
                        "hilbert" => Curve::Hilbert,
                        _ => return Err(format!("unknown curve {v:?}")),
                    }
                }
                "n" => cfg.n = v.parse().map_err(|e| format!("n: {e}"))?,
                "steps" => cfg.steps = v.parse().map_err(|e| format!("steps: {e}"))?,
                "seed" => cfg.seed = v.parse().map_err(|e| format!("seed: {e}"))?,
                "grid_c" => cfg.grid_c = v.parse().map_err(|e| format!("grid_c: {e}"))?,
                "dt" => cfg.dt = f64::from_bits(bits()?),
                "alpha" => cfg.alpha = f64::from_bits(bits()?),
                "eps" => cfg.eps = f64::from_bits(bits()?),
                "ckpt_every" => {
                    cfg.ckpt_every = v.parse().map_err(|e| format!("ckpt_every: {e}"))?
                }
                "resume" => {
                    cfg.resume = match v {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("resume must be 0/1, got {v:?}")),
                    }
                }
                "ckpt_dir" => {
                    if v.len() % 2 != 0 {
                        return Err("ckpt_dir: odd-length hex".into());
                    }
                    // Pair up *bytes*, not chars: the value comes from the
                    // environment and need not be ASCII.
                    let nibble = |b: u8| (b as char).to_digit(16).map(|d| d as u8);
                    let bytes: Vec<u8> = v
                        .as_bytes()
                        .chunks(2)
                        .map(|pair| Some(nibble(pair[0])? << 4 | nibble(pair[1])?))
                        .collect::<Option<_>>()
                        .ok_or_else(|| format!("ckpt_dir: not hex: {v:?}"))?;
                    cfg.ckpt_dir =
                        Some(String::from_utf8(bytes).map_err(|e| format!("ckpt_dir: {e}"))?);
                }
                _ => return Err(format!("unknown field {k:?}")),
            }
        }
        // What the child would otherwise assert on: the acceptance
        // criterion's α and the cluster grid's side.
        if !(cfg.alpha.is_finite() && cfg.alpha > 0.0) {
            return Err(format!("alpha {} is not finite and positive", cfg.alpha));
        }
        if !cfg.grid_c.is_power_of_two() {
            return Err(format!("grid_c {} is not a power of two", cfg.grid_c));
        }
        Ok(cfg)
    }
}

/// Everything one rank reports back from a run.
#[derive(Debug, Clone, Default)]
pub struct RankOutcome {
    /// Final owned particles (post-update, post-migration).
    pub owned: Vec<Particle>,
    /// Last step's `(id, accel, potential)` for the particles this rank
    /// owned at evaluation time — the force-equivalence evidence.
    pub forces: Vec<(u32, Vec3, f64)>,
    /// One rank-local profile per step (span ranks are all 0; the collector
    /// rewrites them with [`StepProfile::from_rank_profiles`]).
    pub profiles: Vec<StepProfile>,
}

fn protocol(err: String) -> ProcError {
    ProcError::Protocol(err)
}

/// Assemble the canonical id-indexed global array from per-rank slices;
/// every id must appear exactly once.
fn assemble(n: usize, views: Vec<Vec<u8>>) -> Result<Vec<Particle>, ProcError> {
    let mut all = vec![Particle::new(0, 0.0, Vec3::ZERO, Vec3::ZERO); n];
    let mut seen = vec![false; n];
    // Each view decodes straight into `all` and is freed once placed, so
    // none sits under the step's build.
    for bytes in views {
        for p in particle_records(&bytes).map_err(protocol)? {
            let id = p.id as usize;
            if id >= n || seen[id] {
                return Err(protocol(format!("particle id {id} out of range or duplicated")));
            }
            seen[id] = true;
            all[id] = p;
        }
    }
    if let Some(missing) = seen.iter().position(|s| !s) {
        return Err(protocol(format!("no rank owns particle {missing}")));
    }
    Ok(all)
}

/// Fold the all-gathered `(id, weight)` views into a dense id-indexed load
/// vector (ids no rank reported stay at zero load).
fn assemble_weights(n: usize, views: &[Vec<u8>]) -> Result<Vec<f64>, ProcError> {
    let mut w = vec![0.0f64; n];
    for bytes in views {
        for (id, wt) in decode_weights(bytes).map_err(protocol)? {
            let slot = w
                .get_mut(id as usize)
                .ok_or_else(|| protocol(format!("weight for particle id {id} out of range")))?;
            *slot = wt as f64;
        }
    }
    Ok(w)
}

/// The rows this rank evaluates: the particles it owns, out of `n` spread
/// over `p` ranks (all of them on a single rank, which takes the unmasked
/// path).
fn owned_set(n: usize, p: usize, owned: &[Particle]) -> ActiveSet {
    if p == 1 {
        return ActiveSet::all(n);
    }
    let mut mask = vec![false; n];
    for q in owned {
        mask[q.id as usize] = true;
    }
    ActiveSet::from_mask(mask)
}

/// This rank's share of `all`, the whole state in id order, under the
/// scheme's starting assignment: SPSA and SPDA look each particle's cluster
/// up in `cluster_owner`; DPDA has no loads measured yet, so costzones with
/// zero weights on a fresh tree degenerate to equal particle counts.
fn initial_share(
    sim: &mut ThreadSim,
    scheme: Scheme,
    grid: &ClusterGrid,
    cluster_owner: &[usize],
    all: &[Particle],
    (rank, p): (usize, usize),
) -> Vec<Particle> {
    let owner: Vec<usize> = match scheme {
        Scheme::Spsa | Scheme::Spda => {
            all.iter().map(|q| cluster_owner[grid.cluster_of(q.pos) as usize]).collect()
        }
        Scheme::Dpda => {
            let tree = sim.build_tree(all);
            Partition::costzones_weighted(&tree, &vec![0.0; all.len()], p).owner_of_particle
        }
    };
    all.iter().filter(|q| owner[q.id as usize] == rank).copied().collect()
}

/// One step's exchange and force evaluation: the replicated global state,
/// the tree built from it, and the forces on the rows this rank owns, with
/// the times the exchange and the build ended.
struct Evaluated {
    all: Vec<Particle>,
    tree: Tree,
    fr: ForceResult,
    t_ex: f64,
    traffic_ex: (u64, u64),
    t_built: f64,
}

impl Evaluated {
    /// All-gather the owned state into the canonical id-indexed array, build
    /// the global tree and evaluate the owned rows on it (`profiled` asks
    /// the executor for its sub-phase profile).
    fn run(
        t: &mut dyn Transport,
        sim: &mut ThreadSim,
        (n, p): (usize, usize),
        owned: &[Particle],
        profiled: bool,
    ) -> Result<Evaluated, ProcError> {
        let views = all_gather(t, tags::STATE, encode_particles(owned))?;
        let all = assemble(n, views)?;
        let (t_ex, traffic_ex) = (now(), t.traffic());
        let active = owned_set(n, p, owned);
        let tree = sim.build_tree(&all);
        let t_built = now();
        let fr = sim.compute_forces_on(&tree, &all, &active, profiled);
        Ok(Evaluated { all, tree, fr, t_ex, traffic_ex, t_built })
    }
}

/// The owned rows' `(id, accel, potential)` of `fr`: the run's force
/// evidence.
fn owned_forces(owned: &[Particle], fr: &ForceResult) -> Vec<(u32, Vec3, f64)> {
    owned.iter().map(|q| (q.id, fr.accels[q.id as usize], fr.potentials[q.id as usize])).collect()
}

/// Run the full step loop on this rank. Deterministic: the outcome is a
/// pure function of `cfg` and the transport's `(rank, size)`.
pub fn run_rank(t: &mut dyn Transport, cfg: &ProcConfig) -> Result<RankOutcome, ProcError> {
    let (rank, p) = (t.rank(), t.size());
    if cfg.scheme == Scheme::Spsa {
        assert!(p.is_power_of_two(), "SPSA requires power-of-two ranks");
    }

    // IC: rank 0 samples the Plummer sphere and broadcasts it, so the bits
    // every rank starts from are rank 0's by construction.
    let ic_bytes = (rank == 0).then(|| {
        let spec = PlummerSpec { n: cfg.n, seed: cfg.seed, ..Default::default() };
        encode_particles(&plummer(spec).particles)
    });
    let ic = decode_particles(&broadcast(t, 0, tags::IC, ic_bytes)?).map_err(protocol)?;
    let n = ic.len();

    // The cluster grid is fixed for the whole run and derived identically
    // on every rank: 4× the IC bounding cube, so drifting particles stay
    // inside (strays clamp to boundary clusters).
    let ic_cell = Aabb::bounding_cube(ic.iter().map(|q| q.pos), 1e-9)
        .ok_or_else(|| protocol("empty initial conditions".into()))?;
    let grid = ClusterGrid::new(cfg.grid_c, Aabb::cube(ic_cell.center(), ic_cell.side() * 4.0));

    let mut sim = ThreadSim::new(ThreadConfig {
        threads: 1,
        alpha: cfg.alpha,
        eps: cfg.eps,
        ..ThreadConfig::default()
    });

    // Initial ownership.
    let mut cluster_owner: Vec<usize> = match cfg.scheme {
        Scheme::Spsa => spsa_assignment(&grid, p),
        Scheme::Spda => spda_initial(&grid, p, cfg.curve),
        Scheme::Dpda => Vec::new(),
    };
    let mut owned = initial_share(&mut sim, cfg.scheme, &grid, &cluster_owner, &ic, (rank, p));
    // Ownership is carved: the full IC is not held under any step's build.
    drop(ic);

    // Resume: replace the IC-derived start with the latest complete
    // checkpoint epoch. Every rank scans before its first STATE all-gather
    // and the directory is quiescent until all ranks have done so (no epoch
    // can complete before every rank finishes a step), so all ranks agree
    // on the epoch without coordination.
    let store = cfg.ckpt_dir.as_deref().map(CkptStore::new);
    let mut start_step = 0usize;
    if cfg.resume {
        if let Some((epoch, of)) = store.as_ref().and_then(|s| s.latest_complete_epoch()) {
            let shards = store
                .as_ref()
                .expect("store exists")
                .load_epoch(epoch, of)
                .map_err(ProcError::Io)?;
            if of == p {
                // Same rank count: continue the recorded ownership exactly —
                // the resumed run is the uninterrupted run, bit for bit.
                owned = shards.into_iter().nth(rank).expect("rank < of");
            } else {
                // Rank count changed (degraded continuation): reassemble the
                // global state and re-derive ownership from the scheme's
                // initial assignment. The trajectory is ownership-independent
                // (masked force rows are bitwise equal to full-run rows and
                // every rebalance input is reduced over all particles), so
                // the state continues bit-for-bit under the new partition.
                let mut all: Vec<Particle> = shards.into_iter().flatten().collect();
                all.sort_unstable_by_key(|q| q.id);
                if all.len() != n {
                    return Err(protocol(format!(
                        "checkpoint epoch {epoch} holds {} particles, config says {n}",
                        all.len()
                    )));
                }
                owned = initial_share(&mut sim, cfg.scheme, &grid, &cluster_owner, &all, (rank, p));
            }
            start_step = epoch as usize;
        }
    }

    let mut profiles = Vec::with_capacity(cfg.steps.saturating_sub(start_step));
    let mut last_forces: Vec<(u32, Vec3, f64)> = Vec::new();

    for step in start_step..cfg.steps {
        t.on_step(step as u64)?;
        let t0 = now();
        let traffic0 = t.traffic();

        // ---- exchange + build + walk + kernel ---------------------------
        // Replicate the global state, then evaluate the owned rows on one
        // tree per step: DPDA carves its costzones from it below, and it is
        // freed before the migration.
        let Evaluated { all, tree, mut fr, t_ex, traffic_ex, t_built } =
            Evaluated::run(t, &mut sim, (n, p), &owned, true)?;
        let t_force = now();
        if step + 1 == cfg.steps {
            last_forces = owned_forces(&owned, &fr);
        }

        // ---- update: leapfrog the owned rows ----------------------------
        kick_drift_owned(&mut owned, &fr.accels, cfg.dt);
        let t_upd = now();
        // The replicated state and the n force rows are read: free them
        // before the load balance, keeping only the evaluation's profile.
        let sub = fr.profile.take();
        drop((all, fr));

        // ---- load_balance: scheme-specific reassignment + migration -----
        let weights = sim.work_weights().expect("weights exist after a force step");
        let new_owner: Vec<usize> = match cfg.scheme {
            Scheme::Spsa => {
                owned.iter().map(|q| cluster_owner[grid.cluster_of(q.pos) as usize]).collect()
            }
            Scheme::Spda => {
                // All ranks see the same reduced loads (folded in rank
                // order), so they carve identical Morton runs.
                let mut loads = vec![0.0f64; grid.r()];
                for q in &owned {
                    loads[grid.cluster_of(q.pos) as usize] += weights[q.id as usize] as f64;
                }
                let loads = all_reduce_sum_f64(t, tags::LOADS, &loads)?;
                cluster_owner = spda_rebalance(&grid, &loads, p, cfg.curve);
                owned.iter().map(|q| cluster_owner[grid.cluster_of(q.pos) as usize]).collect()
            }
            Scheme::Dpda => {
                // All-gather measured per-particle weights and recompute
                // costzones on the step's (identical) tree — every rank
                // derives the same partition from the same inputs.
                let mine: Vec<(u32, u64)> =
                    owned.iter().map(|q| (q.id, weights[q.id as usize])).collect();
                let views = all_gather(t, tags::WEIGHTS, encode_weights(&mine))?;
                let w = assemble_weights(n, &views)?;
                let part = Partition::costzones_weighted(&tree, &w, p);
                owned.iter().map(|q| part.owner_of_particle[q.id as usize]).collect()
            }
        };
        // The migration buffers must not sit on top of the tree in peak RSS.
        drop(tree);

        // Partition `owned` in place: the kept particles stay, in order.
        let mut bins: Vec<Vec<Particle>> = vec![Vec::new(); p];
        let mut dests = new_owner.iter();
        owned.retain(|q| match *dests.next().expect("one owner per owned particle") {
            dest if dest == rank => true,
            dest => {
                bins[dest].push(*q);
                false
            }
        });
        let outgoing: Vec<Vec<u8>> = bins.iter().map(|b| encode_particles(b)).collect();
        let incoming = exchange(t, tags::MIGRATE, &outgoing)?;
        for bytes in &incoming {
            owned.extend(particle_records(bytes).map_err(protocol)?);
        }
        let t_lb = now();
        let traffic_end = t.traffic();

        // ---- checkpoint: persist this rank's shard of epoch step+1 ------
        // The barrier keeps every rank out of the next step until every
        // shard of this epoch is on disk: a rank killed entering that step
        // cannot take a peer down before the peer's shard exists.
        let epoch = step as u64 + 1;
        let mut t_ck = t_lb;
        let wrote_ckpt = match &store {
            Some(s) if cfg.ckpt_every > 0 && epoch.is_multiple_of(cfg.ckpt_every) => {
                s.write_shard(epoch, rank, p, &owned).map_err(ProcError::Io)?;
                barrier(t, tags::CKPT)?;
                t_ck = now();
                true
            }
            _ => false,
        };

        // ---- profile: rank-local spans in real phase names --------------
        let mut prof = StepProfile::new(1);
        prof.step = step as u64;
        prof.wall_s = t_ck - t0;
        let mut rec = |ph: &str, s: f64, e: f64, sent: u64| {
            let mut span = Span::new(0, step as u64, ph, s - t0, e - t0);
            span.sent = sent;
            prof.record(span);
        };
        rec(phase::EXCHANGE, t0, t_ex, traffic_ex.0 - traffic0.0);
        // The tree build is timed here. Split the evaluation interval by the
        // executor's own sub-phase profile (expansion build / walk /
        // kernel); an evaluation that recorded no time there has zero
        // totals, and its whole interval lands under `force`.
        let sub = sub.as_ref();
        let b = sub.map_or(0.0, |pr| pr.phase_total(phase::BUILD));
        let wk = sub.map_or(0.0, |pr| pr.phase_total(phase::WALK) + pr.phase_total(phase::EVAL));
        let k = sub.map_or(0.0, |pr| pr.phase_total(phase::KERNEL));
        let total = b + wk + k;
        if total > 0.0 {
            let span_len = t_force - t_built;
            let t_b = t_built + span_len * b / total;
            let t_w = t_b + span_len * wk / total;
            rec(phase::BUILD, t_ex, t_b, 0);
            rec(phase::WALK, t_b, t_w, 0);
            rec(phase::KERNEL, t_w, t_force, 0);
        } else {
            rec(phase::BUILD, t_ex, t_built, 0);
            rec(phase::FORCE, t_built, t_force, 0);
        }
        rec(phase::UPDATE, t_force, t_upd, 0);
        rec(phase::LOAD_BALANCE, t_upd, t_lb, traffic_end.0 - traffic_ex.0);
        if wrote_ckpt {
            rec(phase::CHECKPOINT, t_lb, t_ck, 0);
        }
        if let Some(pr) = sub {
            prof.totals = pr.totals;
        }
        prof.totals.messages = traffic_end.0 - traffic0.0;
        prof.totals.words = (traffic_end.1 - traffic0.1) / 8;
        profiles.push(prof);
    }

    // A resume can land at (or past) the final epoch, skipping the loop
    // entirely; evaluate forces for the final state anyway so the report —
    // and the force-equivalence evidence — is complete.
    if start_step >= cfg.steps && cfg.steps > 0 {
        let ev = Evaluated::run(t, &mut sim, (n, p), &owned, false)?;
        last_forces = owned_forces(&owned, &ev.fr);
    }

    Ok(RankOutcome { owned, forces: last_forces, profiles })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::local_mesh;
    use std::collections::BTreeMap;

    fn run_scheme(scheme: Scheme, p: usize, cfg_base: ProcConfig) -> Vec<RankOutcome> {
        let cfg = ProcConfig { scheme, ..cfg_base };
        let handles: Vec<_> = local_mesh(p)
            .into_iter()
            .map(|mut t| {
                let cfg = cfg.clone();
                std::thread::spawn(move || run_rank(&mut t, &cfg).expect("rank run"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
    }

    fn by_id(outcomes: &[RankOutcome]) -> (BTreeMap<u32, Particle>, BTreeMap<u32, (Vec3, f64)>) {
        let mut parts = BTreeMap::new();
        let mut forces = BTreeMap::new();
        for o in outcomes {
            for q in &o.owned {
                assert!(parts.insert(q.id, *q).is_none(), "particle {} owned twice", q.id);
            }
            for &(id, a, phi) in &o.forces {
                assert!(forces.insert(id, (a, phi)).is_none());
            }
        }
        (parts, forces)
    }

    fn small() -> ProcConfig {
        ProcConfig { n: 192, steps: 3, dt: 1e-3, seed: 7, grid_c: 4, ..ProcConfig::default() }
    }

    #[test]
    fn config_roundtrips_exactly() {
        let cfg = ProcConfig {
            scheme: Scheme::Dpda,
            n: 5000,
            steps: 4,
            dt: 0.1 + 0.2,
            seed: 99,
            alpha: 1.0 / 3.0,
            eps: 1e-4,
            grid_c: 16,
            curve: Curve::Hilbert,
            // Paths with `;`, `=`, and spaces must survive the hex hop.
            ckpt_dir: Some("/tmp/ck pt;x=1/∂".to_string()),
            ckpt_every: 2,
            resume: true,
        };
        let back = ProcConfig::decode(&cfg.encode()).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(back.dt.to_bits(), cfg.dt.to_bits());
        assert!(ProcConfig::decode("bogus").is_err());
        // A hostile directory value is an error, never a panic: non-hex
        // ASCII, and a multi-byte character straddling a byte pair.
        assert!(ProcConfig::decode("ckpt_dir=zz").is_err());
        assert!(ProcConfig::decode("ckpt_dir=aéb").is_err());
        // Values the child would panic on are refused here instead.
        let nan = format!("alpha={:016x}", f64::NAN.to_bits());
        assert!(ProcConfig::decode(&format!("{nan};grid_c=8")).unwrap_err().contains("alpha"));
        assert!(ProcConfig::decode("grid_c=0").unwrap_err().contains("grid_c 0"));
        assert!(ProcConfig::decode("grid_c=3").unwrap_err().contains("grid_c 3"));
        // Configs encoded before the checkpoint fields existed still decode,
        // with those fields defaulted.
        let legacy = ProcConfig::default();
        let tail = legacy.encode();
        let tail = tail.split(";ckpt_every").next().unwrap().to_string();
        let back = ProcConfig::decode(&tail).unwrap();
        assert_eq!(back, legacy);
    }

    #[test]
    fn hostile_weight_views_fail_the_run_instead_of_panicking() {
        let good = encode_weights(&[(0, 5), (2, 7)]);
        assert_eq!(assemble_weights(3, std::slice::from_ref(&good)).unwrap(), [5.0, 0.0, 7.0]);
        // A peer naming an id past the particle count.
        let out_of_range = encode_weights(&[(1, 1), (3, 9)]);
        let err = assemble_weights(3, &[good.clone(), out_of_range]).unwrap_err();
        assert!(matches!(&err, ProcError::Protocol(m) if m.contains("out of range")), "{err:?}");
        // A view cut mid-pair.
        let truncated = good[..good.len() - 1].to_vec();
        assert!(matches!(assemble_weights(3, &[truncated]), Err(ProcError::Protocol(_))));
    }

    /// STATE views placed by id, bitwise; a view cut mid-record, an id past
    /// the particle count, an id two ranks claim and an id no rank owns each
    /// fail the run with their own message.
    #[test]
    fn hostile_state_views_fail_the_run_instead_of_panicking() {
        let p = |id: u32| Particle::new(id, 1.0 + id as f64, Vec3::splat(id as f64), Vec3::ZERO);
        let (a, b) = (encode_particles(&[p(2), p(0)]), encode_particles(&[p(1)]));
        assert_eq!(assemble(3, vec![a.clone(), b.clone()]).unwrap(), [p(0), p(1), p(2)]);
        let message = |views: Vec<Vec<u8>>| match assemble(3, views) {
            Err(ProcError::Protocol(m)) => m,
            other => panic!("expected a protocol error, got {other:?}"),
        };
        assert_eq!(
            message(vec![a.clone(), b[..b.len() - 1].to_vec()]),
            format!("particle payload of {} bytes is not a multiple", b.len() - 1)
        );
        assert_eq!(
            message(vec![a.clone(), encode_particles(&[p(3)])]),
            "particle id 3 out of range or duplicated"
        );
        assert_eq!(message(vec![a.clone(), a.clone()]), "particle id 2 out of range or duplicated");
        assert_eq!(message(vec![a]), "no rank owns particle 1");
    }

    /// Kill a rank mid-run (loopback fault injection), then resume from the
    /// last complete checkpoint epoch: the recovered run's final state and
    /// forces must be bitwise identical to the uninterrupted run — and a
    /// degraded resume at fewer ranks must match too, because the
    /// trajectory is ownership-independent.
    #[test]
    fn killed_run_resumes_from_checkpoint_bitwise() {
        use crate::fault::{FaultMode, FaultPlan, FaultyTransport};
        use std::time::Duration;

        for scheme in [Scheme::Spsa, Scheme::Spda, Scheme::Dpda] {
            let scratch = crate::scratch::ScratchDir::new(&format!("resume_test_{scheme:?}"));
            let dir = scratch.path();

            let reference = run_scheme(scheme, 4, small());
            let (ref_parts, ref_forces) = by_id(&reference);

            let cfg = ProcConfig {
                scheme,
                ckpt_dir: Some(dir.to_string_lossy().into_owned()),
                ckpt_every: 1,
                ..small()
            };

            // Attempt 0: rank 1 dies entering step 1. Every rank must
            // error out (never hang), leaving epoch 1 complete on disk.
            let plan = FaultPlan::kill_at_step(1, 1);
            let handles: Vec<_> = local_mesh(4)
                .into_iter()
                .map(|mut t| {
                    let cfg = cfg.clone();
                    let actions = plan.actions_for(t.rank(), 0);
                    std::thread::spawn(move || {
                        t.set_recv_timeout(Duration::from_secs(10));
                        let mut ft = FaultyTransport::new(t, FaultMode::Error, actions);
                        run_rank(&mut ft, &cfg)
                    })
                })
                .collect();
            for h in handles {
                assert!(h.join().expect("no panic").is_err(), "{scheme:?}: rank survived kill");
            }
            assert_eq!(
                crate::ckpt::CkptStore::new(dir).latest_complete_epoch(),
                Some((1, 4)),
                "{scheme:?}: epoch 1 must be complete after the step-1 kill"
            );

            // Attempt 1: full-width resume — bitwise identical throughout.
            let resumed = run_scheme(scheme, 4, ProcConfig { resume: true, ..cfg.clone() });
            let (parts, forces) = by_id(&resumed);
            assert_eq!(parts.len(), small().n);
            for (id, q) in &parts {
                let r = &ref_parts[id];
                assert_eq!(q.pos.x.to_bits(), r.pos.x.to_bits(), "{scheme:?} id {id} pos.x");
                assert_eq!(q.pos.y.to_bits(), r.pos.y.to_bits());
                assert_eq!(q.pos.z.to_bits(), r.pos.z.to_bits());
                assert_eq!(q.vel.x.to_bits(), r.vel.x.to_bits());
                assert_eq!(q.vel.y.to_bits(), r.vel.y.to_bits());
                assert_eq!(q.vel.z.to_bits(), r.vel.z.to_bits());
            }
            for (id, (a, phi)) in &forces {
                let (ra, rphi) = &ref_forces[id];
                assert_eq!(a.x.to_bits(), ra.x.to_bits(), "{scheme:?} id {id} accel.x");
                assert_eq!(phi.to_bits(), rphi.to_bits());
            }

            // Degraded resume: fewer ranks re-derive ownership from the
            // checkpointed global state; the state trajectory still matches.
            let shrunk = if scheme == Scheme::Spsa { 2 } else { 3 };
            let degraded = run_scheme(scheme, shrunk, ProcConfig { resume: true, ..cfg.clone() });
            let (parts, _) = by_id(&degraded);
            assert_eq!(parts.len(), small().n, "{scheme:?}: degraded run lost particles");
            for (id, q) in &parts {
                let r = &ref_parts[id];
                assert_eq!(q.pos.x.to_bits(), r.pos.x.to_bits(), "{scheme:?} id {id} degraded");
                assert_eq!(q.vel.z.to_bits(), r.vel.z.to_bits());
            }
        }
    }

    /// A resume that lands at the final epoch skips the loop but still
    /// reports complete owned state (and non-empty forces).
    #[test]
    fn resume_past_the_end_still_reports() {
        let dir = crate::scratch::ScratchDir::new("resume_past_end");
        let cfg = ProcConfig {
            ckpt_dir: Some(dir.path().to_string_lossy().into_owned()),
            ckpt_every: 1,
            ..small()
        };
        let finished = run_scheme(Scheme::Spda, 2, cfg.clone());
        let (ref_parts, _) = by_id(&finished);

        let resumed = run_scheme(Scheme::Spda, 2, ProcConfig { resume: true, ..cfg });
        let (parts, forces) = by_id(&resumed);
        assert_eq!(parts.len(), small().n);
        assert_eq!(forces.len(), small().n, "post-loop force fill must run");
        assert!(resumed.iter().all(|o| o.profiles.is_empty()), "no steps re-run");
        for (id, q) in &parts {
            assert_eq!(q.pos.x.to_bits(), ref_parts[id].pos.x.to_bits());
        }
    }

    #[test]
    fn all_three_schemes_match_single_process_bitwise() {
        for scheme in [Scheme::Spsa, Scheme::Spda, Scheme::Dpda] {
            let reference = run_scheme(scheme, 1, small());
            let (ref_parts, ref_forces) = by_id(&reference);
            assert_eq!(ref_parts.len(), small().n);

            let outcomes = run_scheme(scheme, 4, small());
            let (parts, forces) = by_id(&outcomes);
            assert_eq!(parts.len(), small().n, "{scheme:?}: every particle owned once");
            for (id, q) in &parts {
                let r = &ref_parts[id];
                assert_eq!(q.pos.x.to_bits(), r.pos.x.to_bits(), "{scheme:?} id {id} pos.x");
                assert_eq!(q.pos.y.to_bits(), r.pos.y.to_bits());
                assert_eq!(q.pos.z.to_bits(), r.pos.z.to_bits());
                assert_eq!(q.vel.x.to_bits(), r.vel.x.to_bits());
                assert_eq!(q.vel.y.to_bits(), r.vel.y.to_bits());
                assert_eq!(q.vel.z.to_bits(), r.vel.z.to_bits());
            }
            for (id, (a, phi)) in &forces {
                let (ra, rphi) = &ref_forces[id];
                assert_eq!(a.x.to_bits(), ra.x.to_bits(), "{scheme:?} id {id} accel.x");
                assert_eq!(a.y.to_bits(), ra.y.to_bits());
                assert_eq!(a.z.to_bits(), ra.z.to_bits());
                assert_eq!(phi.to_bits(), rphi.to_bits());
            }
        }
    }

    #[test]
    fn multi_rank_runs_actually_distribute_work() {
        for scheme in [Scheme::Spsa, Scheme::Spda, Scheme::Dpda] {
            let outcomes = run_scheme(scheme, 4, small());
            let nonempty = outcomes.iter().filter(|o| !o.owned.is_empty()).count();
            assert!(nonempty >= 2, "{scheme:?}: work stuck on {nonempty} rank(s)");
            for o in &outcomes {
                assert_eq!(o.profiles.len(), small().steps);
                for pr in &o.profiles {
                    assert!(pr.totals.messages > 0, "{scheme:?}: no traffic recorded");
                }
            }
        }
    }

    #[test]
    fn profiles_carry_the_real_phase_vocabulary() {
        let outcomes = run_scheme(Scheme::Spda, 2, small());
        let phases = outcomes[0].profiles[0].phases();
        for must in [phase::EXCHANGE, phase::UPDATE, phase::LOAD_BALANCE] {
            assert!(phases.iter().any(|p| p == must), "missing {must} in {phases:?}");
        }
        // Folding per-rank profiles yields a grouped, normalized share
        // vector — the object the proc_compare gate consumes.
        let merged = StepProfile::from_rank_profiles(
            outcomes.iter().map(|o| o.profiles[0].clone()).collect(),
        );
        let shares = bhut_machine::PhaseShares::from_profile(&merged);
        assert!(shares.is_normalized(), "{shares:?}");
    }
}
