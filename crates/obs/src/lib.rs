//! Phase-level observability for real and simulated runs (system **S11**).
//!
//! The paper's entire argument is phase accounting — tree construction vs.
//! force computation vs. communication per time-step (Tables 3–7) — so the
//! repo needs the same lens on its *real* execution path, not just the
//! virtual-clock `machine` simulator. This crate provides:
//!
//! * [`Span`] — the **one** span schema shared by the simulated machine's
//!   phases (which `bhut_core`'s driver records in virtual seconds) and
//!   wall-clock profiles, so both plot on a single Gantt chart,
//! * [`Counters`] — work counters (interactions, nodes opened, group
//!   accept/reject/mixed classifications, P2P vs. M2P work, message
//!   traffic), one per worker, merged after the join,
//! * [`StepProfile`] — a per-time-step bundle of spans + counters with
//!   utilization / imbalance / phase-total queries, serializable to JSON,
//! * [`now`] — a process-epoch wall clock. The executor reads it around
//!   every phase of every force computation: a profile is part of every
//!   result, not a mode.
//!
//! Spans carry `f64` seconds: wall-clock seconds since an arbitrary
//! per-profile origin on the real path, virtual machine seconds on the
//! simulated path. Only relative placement matters for plotting.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};

/// Canonical phase names used by the instrumented crates. Free-form strings
/// are allowed everywhere; these constants just keep the spelling consistent
/// between the executor, the driver, and the plotting side.
pub mod phase {
    /// Octree (and multipole) construction.
    pub const BUILD: &str = "build";
    /// Grouped tree walk: the shared gather of a walk unit (group-MAC
    /// classification and slab filling), nothing per target.
    pub const WALK: &str = "walk";
    /// Everything per target: the lane-parallel replay of the gather's
    /// mixed frontier (walk and arithmetic in one pass) plus the batched
    /// M2P/P2P slab kernels.
    pub const KERNEL: &str = "kernel";
    /// Fused walk+kernel evaluation: degree > 0's per-target walk.
    pub const EVAL: &str = "eval";
    /// Main-thread reordering of the results: the executor's in-place
    /// permutation of its outputs from tree order into id order.
    pub const SCATTER: &str = "scatter";
    /// Simulated: local tree construction (includes partitioning).
    pub const LOCAL_TREE: &str = "local_tree";
    /// Simulated: hierarchical branch exchange / tree merge.
    pub const TREE_MERGE: &str = "tree_merge";
    /// Simulated: all-to-all broadcast of the top of the tree.
    pub const BROADCAST: &str = "broadcast";
    /// Force computation (both paths).
    pub const FORCE: &str = "force";
    /// Simulated: load balancing (SPDA remap / DPDA costzones).
    pub const LOAD_BALANCE: &str = "load_balance";
    /// Multi-process: all-gather of owned particle state (the real-transport
    /// analog of tree merge + broadcast).
    pub const EXCHANGE: &str = "exchange";
    /// Multi-process: leapfrog kick+drift of the owned particles.
    pub const UPDATE: &str = "update";
    /// Multi-process: writing a per-rank checkpoint shard to disk.
    pub const CHECKPOINT: &str = "checkpoint";
    /// Supervisor: detecting a failure, tearing the mesh down and
    /// re-launching from the last complete checkpoint epoch.
    pub const RECOVERY: &str = "recovery";
    /// Query server: a worker blocked waiting for requests to coalesce.
    pub const SERVE_WAIT: &str = "serve_wait";
    /// Query server: evaluating a coalesced batch against a pinned epoch.
    pub const SERVE_EVAL: &str = "serve_eval";
    /// Query server: encoding and writing result frames back to clients.
    pub const SERVE_REPLY: &str = "serve_reply";
}

/// Query-service counters (S11 schema, S15 producer): request/batch flow,
/// backpressure, and epoch freshness for one serving window. The server
/// merges per-worker instances the same way force counters merge, and the
/// totals ride along in [`StepProfile::serve`] so one JSON row prices a
/// serving run next to its simulation phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeCounters {
    /// Query points evaluated (after coalescing; the work unit).
    pub queries: u64,
    /// Client requests accepted into the queue.
    pub accepted: u64,
    /// Client requests rejected with retry-after (queue at capacity).
    pub rejected: u64,
    /// Coalesced batches evaluated (each pins one epoch).
    pub batches: u64,
    /// High-water mark of queued requests.
    pub queue_depth_peak: u64,
    /// Tree epochs published by the simulation side.
    pub epochs_published: u64,
    /// Tree epochs fully retired (dropped after their last pin).
    pub epochs_retired: u64,
    /// Epoch lag (published generation minus pinned generation) of the most
    /// recent batch.
    pub epoch_lag_last: u64,
    /// Worst epoch lag observed by any batch.
    pub epoch_lag_max: u64,
}

impl ServeCounters {
    pub fn merge(&mut self, o: &ServeCounters) {
        self.queries += o.queries;
        self.accepted += o.accepted;
        self.rejected += o.rejected;
        self.batches += o.batches;
        self.queue_depth_peak = self.queue_depth_peak.max(o.queue_depth_peak);
        self.epochs_published = self.epochs_published.max(o.epochs_published);
        self.epochs_retired = self.epochs_retired.max(o.epochs_retired);
        self.epoch_lag_last = o.epoch_lag_last;
        self.epoch_lag_max = self.epoch_lag_max.max(o.epoch_lag_max);
    }
}

/// Fault-tolerance counters (S11 schema): injected faults on one side,
/// recovery actions on the other. Ranks count what they inject and the
/// checkpoints they write; the supervisor counts respawns, degraded ranks
/// and rolled-back steps, then merges the rank-side counters in so one
/// struct prices a whole recovered run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Injected rank kills (process exits or simulated transport deaths).
    pub kills: u64,
    /// Injected wedged reads (a rank stops draining a stream).
    pub wedges: u64,
    /// Injected message delays.
    pub delays: u64,
    /// Injected dropped sends.
    pub drops: u64,
    /// Checkpoint shards written.
    pub checkpoints: u64,
    /// Supervisor re-launch attempts after a failure.
    pub respawns: u64,
    /// Ranks removed by `--degrade` shrink-and-continue recoveries.
    pub degraded_ranks: u64,
    /// Steps re-executed because recovery rolled back to a checkpoint.
    pub rollback_steps: u64,
}

impl FaultCounters {
    pub fn merge(&mut self, o: &FaultCounters) {
        self.kills += o.kills;
        self.wedges += o.wedges;
        self.delays += o.delays;
        self.drops += o.drops;
        self.checkpoints += o.checkpoints;
        self.respawns += o.respawns;
        self.degraded_ranks += o.degraded_ranks;
        self.rollback_steps += o.rollback_steps;
    }
}

/// One busy interval of one worker (real thread or virtual processor).
///
/// This is the single span schema of the workspace: the simulated machine's
/// phases and the real executor's both record it into a [`StepProfile`], so
/// they serialize to the same JSON shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Thread index (real path) or processor rank (simulated path).
    pub rank: usize,
    /// BSP superstep (simulated) or phase sequence number (real).
    pub superstep: u64,
    /// Interval start, seconds (wall clock or virtual clock).
    pub start: f64,
    /// Interval end, seconds.
    pub end: f64,
    /// Messages sent during the interval (0 on the shared-memory path).
    pub sent: u64,
    /// Phase label; see [`phase`] for the canonical names. Empty means
    /// "unclassified" (e.g. a raw BSP superstep).
    pub phase: String,
}

impl Span {
    pub fn new(rank: usize, superstep: u64, phase: &str, start: f64, end: f64) -> Self {
        Span { rank, superstep, start, end, sent: 0, phase: phase.to_string() }
    }

    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Work counters for one step (or one worker's share of it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Counters {
    /// Particle–particle interactions (direct sums).
    pub p2p: u64,
    /// Particle–node interactions (MAC-accepted multipole evaluations).
    pub m2p: u64,
    /// Multipole acceptance tests charged, as the per-target-equivalent
    /// count: a test the shared walk made once for a whole unit is charged
    /// to every member, so this equals what per-particle walks would make
    /// and cannot show what grouping saves — `group_accept + group_reject +
    /// group_mixed` is the classification work actually done.
    pub mac_tests: u64,
    /// Internal nodes expanded during the shared walks, once per walk unit.
    pub nodes_opened: u64,
    /// Group-MAC classifications, one per node per walk unit, that accepted
    /// the node for every member.
    pub group_accept: u64,
    /// Group-MAC classifications that rejected the node for every member.
    pub group_reject: u64,
    /// Group-MAC classifications that straddled the acceptance boundary
    /// (the unit's members then walk on below that node one by one).
    pub group_mixed: u64,
    /// Particles shipped to remote processors (simulated path).
    pub requests: u64,
    /// Messages sent (bin traffic; simulated path).
    pub messages: u64,
    /// Words sent (bin traffic; simulated path).
    pub words: u64,
    /// SIMD lane slots the evaluation computed: padded slab length ×
    /// targets, plus every lane of every chunk the mixed-frontier replay ran
    /// its arithmetic on; equals `lane_useful` on the scalar kernel path.
    pub lane_slots: u64,
    /// Lane slots that carried a real interaction rather than a padding
    /// sentinel or an idle replay lane.
    pub lane_useful: u64,
    /// Replays of the interaction-list cache, which no longer exists: nothing
    /// writes this field, it stays because the benchmark harness reads it
    /// (ROADMAP direction 3(e) deletes it), and it loads from counter JSONs
    /// that carry it.
    pub list_hits: u64,
    /// Misses of the same cache; unwritten, kept like `list_hits`.
    pub list_misses: u64,
    /// Bytes the same cache held; unwritten, kept like `list_hits`.
    pub list_bytes: u64,
}

// Hand-written for the same reason as [`StepProfile`]: the vendored serde
// derive rejects missing fields, so a derived impl would invalidate every
// counter JSON committed before a field existed. Every field is optional and
// defaults to zero.
impl Deserialize for Counters {
    fn from_value(v: &Value) -> Result<Self, String> {
        fn opt(v: &Value, key: &str) -> Result<u64, String> {
            match v.get_field(key) {
                Some(x) => u64::from_value(x),
                None => Ok(0),
            }
        }
        Ok(Counters {
            p2p: opt(v, "p2p")?,
            m2p: opt(v, "m2p")?,
            mac_tests: opt(v, "mac_tests")?,
            nodes_opened: opt(v, "nodes_opened")?,
            group_accept: opt(v, "group_accept")?,
            group_reject: opt(v, "group_reject")?,
            group_mixed: opt(v, "group_mixed")?,
            requests: opt(v, "requests")?,
            messages: opt(v, "messages")?,
            words: opt(v, "words")?,
            lane_slots: opt(v, "lane_slots")?,
            lane_useful: opt(v, "lane_useful")?,
            list_hits: opt(v, "list_hits")?,
            list_misses: opt(v, "list_misses")?,
            list_bytes: opt(v, "list_bytes")?,
        })
    }
}

impl Counters {
    /// Total force computations in the paper's sense (the `F` of
    /// Tables 1/4): particle–particle plus particle–node.
    pub fn interactions(&self) -> u64 {
        self.p2p + self.m2p
    }

    /// Fraction of processed kernel lane slots carrying real sources
    /// (`lane_useful / lane_slots`); 1.0 when no lanes were counted.
    pub fn lane_utilization(&self) -> f64 {
        if self.lane_slots == 0 {
            1.0
        } else {
            self.lane_useful as f64 / self.lane_slots as f64
        }
    }

    pub fn merge(&mut self, o: &Counters) {
        self.p2p += o.p2p;
        self.m2p += o.m2p;
        self.mac_tests += o.mac_tests;
        self.nodes_opened += o.nodes_opened;
        self.group_accept += o.group_accept;
        self.group_reject += o.group_reject;
        self.group_mixed += o.group_mixed;
        self.requests += o.requests;
        self.messages += o.messages;
        self.words += o.words;
        self.lane_slots += o.lane_slots;
        self.lane_useful += o.lane_useful;
        self.list_hits += o.list_hits;
        self.list_misses += o.list_misses;
        self.list_bytes += o.list_bytes;
    }
}

/// Seconds since the process-wide epoch (the first call).
pub fn now() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// One time-step's phase profile: spans plus per-worker and total counters.
///
/// Real runs fill `spans` with wall-clock intervals relative to the step
/// start; simulated runs fill them with virtual-clock intervals. Both use
/// the same schema, so one plotting script draws either. On the threaded
/// executor's grouped path a worker's evaluation splits into a
/// [`phase::WALK`] span (the shared gathers) and a [`phase::KERNEL`] span
/// (the per-target evaluation, mixed-frontier replay included): the
/// boundary is shared work against per-target work, not tree traversal
/// against arithmetic.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StepProfile {
    /// Time-step number (0 when profiled outside a simulation).
    pub step: u64,
    /// Worker (thread or processor) count.
    pub threads: usize,
    /// Wall-clock seconds of the whole step (0 on purely virtual profiles).
    pub wall_s: f64,
    pub spans: Vec<Span>,
    /// Counters per worker, indexed by rank (may be empty on the simulated
    /// path, which only reports totals). On the threaded executor work is
    /// counted per costzone — entry `t` is the work of worker `t`'s zone,
    /// including units another worker stole from its tail — while time is
    /// per worker, in the spans.
    pub per_worker: Vec<Counters>,
    pub totals: Counters,
    /// Per-rung population and force-evaluation counters, filled by the
    /// block-timestep driver (empty on global-dt steps; index = rung).
    pub rungs: Vec<RungCounters>,
    /// Rung promotions plus demotions during the step (0 on global steps).
    pub rung_migrations: u64,
    /// Query-service counters, filled only by `bhut-serve` runs.
    pub serve: Option<ServeCounters>,
}

// Hand-written so fields added after a baseline was committed default
// instead of failing the parse — the vendored serde derive rejects missing
// fields, which would invalidate every pre-S15 profile JSON on disk.
impl Deserialize for StepProfile {
    fn from_value(v: &Value) -> Result<Self, String> {
        fn opt<T: Deserialize + Default>(v: &Value, key: &str) -> Result<T, String> {
            match v.get_field(key) {
                Some(x) => T::from_value(x),
                None => Ok(T::default()),
            }
        }
        let req = |key: &str| {
            v.get_field(key).ok_or_else(|| format!("missing field `{key}` in StepProfile"))
        };
        Ok(StepProfile {
            step: u64::from_value(req("step")?)?,
            threads: usize::from_value(req("threads")?)?,
            wall_s: f64::from_value(req("wall_s")?)?,
            spans: Vec::<Span>::from_value(req("spans")?)?,
            per_worker: Vec::<Counters>::from_value(req("per_worker")?)?,
            totals: Counters::from_value(req("totals")?)?,
            rungs: opt(v, "rungs")?,
            rung_migrations: opt(v, "rung_migrations")?,
            serve: opt(v, "serve")?,
        })
    }
}

/// One rung's share of a block time-step: how many particles sat on it at
/// the end of the step and how many force evaluations it received across
/// the step's substeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RungCounters {
    /// Rung index (0 = coarsest, steps at `dt_max`).
    pub rung: u32,
    /// Particles on this rung when the step completed.
    pub population: u64,
    /// Per-particle force evaluations charged to this rung over the step.
    pub force_evals: u64,
}

impl StepProfile {
    pub fn new(threads: usize) -> Self {
        StepProfile { threads, ..Default::default() }
    }

    /// Assemble one multi-rank profile from per-rank profiles, each recorded
    /// independently on its own worker (e.g. serialized over a control
    /// channel from real OS processes). Span ranks are rewritten to the
    /// profile's position, per-rank totals become `per_worker[rank]`, and
    /// `wall_s` is the slowest rank's wall clock — the makespan of the step.
    pub fn from_rank_profiles(ranks: Vec<StepProfile>) -> StepProfile {
        let mut out = StepProfile::new(ranks.len());
        for (rank, rp) in ranks.into_iter().enumerate() {
            out.step = out.step.max(rp.step);
            out.wall_s = out.wall_s.max(rp.wall_s);
            for mut span in rp.spans {
                span.rank = rank;
                out.spans.push(span);
            }
            out.totals.merge(&rp.totals);
            out.per_worker.push(rp.totals);
            out.rung_migrations += rp.rung_migrations;
        }
        out
    }

    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Total busy time of one worker across all phases.
    pub fn busy(&self, rank: usize) -> f64 {
        self.spans.iter().filter(|s| s.rank == rank).map(Span::duration).sum()
    }

    /// Idle time of `rank` relative to the profile makespan.
    pub fn idle(&self, rank: usize) -> f64 {
        self.makespan() - self.busy(rank)
    }

    /// Latest span end (0 for an empty profile).
    pub fn makespan(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Σ busy / (threads · makespan); 1.0 for an empty or zero-width
    /// profile (nothing measured means nothing wasted).
    pub fn utilization(&self) -> f64 {
        let total: f64 = self.spans.iter().map(Span::duration).sum();
        let denom = self.threads as f64 * self.makespan();
        if denom == 0.0 {
            1.0
        } else {
            total / denom
        }
    }

    /// Total busy time recorded under `phase`, across all workers.
    pub fn phase_total(&self, phase: &str) -> f64 {
        self.spans.iter().filter(|s| s.phase == phase).map(Span::duration).sum()
    }

    /// Distinct phase names in first-appearance order.
    pub fn phases(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.spans {
            if !out.contains(&s.phase) {
                out.push(s.phase.clone());
            }
        }
        out
    }

    /// max/mean interactions across `per_worker` (1.0 = perfect balance,
    /// also returned when no per-worker counters were recorded).
    pub fn imbalance(&self) -> f64 {
        if self.per_worker.is_empty() {
            return 1.0;
        }
        let max = self.per_worker.iter().map(Counters::interactions).max().unwrap_or(0) as f64;
        let mean = self.per_worker.iter().map(Counters::interactions).sum::<u64>() as f64
            / self.per_worker.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("profile serializes")
    }

    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> StepProfile {
        let mut p = StepProfile::new(2);
        p.record(Span::new(0, 0, phase::BUILD, 0.0, 1.0));
        p.record(Span::new(0, 1, phase::WALK, 1.0, 2.0));
        p.record(Span::new(1, 1, phase::WALK, 1.0, 1.5));
        p.record(Span::new(1, 1, phase::KERNEL, 1.5, 3.0));
        p.per_worker = vec![
            Counters { p2p: 30, m2p: 10, ..Default::default() },
            Counters { p2p: 10, m2p: 10, ..Default::default() },
        ];
        for w in p.per_worker.clone() {
            p.totals.merge(&w);
        }
        p.rungs = vec![
            RungCounters { rung: 0, population: 3, force_evals: 3 },
            RungCounters { rung: 1, population: 5, force_evals: 10 },
        ];
        p.rung_migrations = 2;
        p
    }

    #[test]
    fn busy_idle_makespan_utilization() {
        let p = demo();
        assert_eq!(p.makespan(), 3.0);
        assert_eq!(p.busy(0), 2.0);
        assert_eq!(p.busy(1), 2.0);
        assert_eq!(p.idle(0), 1.0);
        assert!((p.utilization() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn phase_queries() {
        let p = demo();
        assert_eq!(p.phase_total(phase::WALK), 1.5);
        assert_eq!(p.phases(), vec!["build", "walk", "kernel"]);
        assert_eq!(p.phase_total("nonexistent"), 0.0);
    }

    #[test]
    fn counter_imbalance() {
        let p = demo();
        // interactions: 40 and 20 → max/mean = 40/30.
        assert!((p.imbalance() - 40.0 / 30.0).abs() < 1e-12);
        assert_eq!(StepProfile::new(4).imbalance(), 1.0);
        assert_eq!(p.totals.interactions(), 60);
    }

    #[test]
    fn empty_profile_is_neutral() {
        let p = StepProfile::new(3);
        assert_eq!(p.makespan(), 0.0);
        assert_eq!(p.utilization(), 1.0);
        assert_eq!(p.phase_total(phase::FORCE), 0.0);
        assert!(p.phases().is_empty());
    }

    #[test]
    fn rank_profiles_merge_into_one_table() {
        let mut r0 = StepProfile::new(1);
        r0.record(Span::new(0, 0, phase::BUILD, 0.0, 1.0));
        r0.totals = Counters { p2p: 10, messages: 2, ..Default::default() };
        r0.wall_s = 1.0;
        let mut r1 = StepProfile::new(1);
        r1.record(Span::new(0, 0, phase::BUILD, 0.0, 2.0));
        r1.record(Span::new(0, 1, phase::FORCE, 2.0, 2.5));
        r1.totals = Counters { p2p: 30, messages: 4, ..Default::default() };
        r1.wall_s = 2.5;
        let merged = StepProfile::from_rank_profiles(vec![r0, r1]);
        assert_eq!(merged.threads, 2);
        assert_eq!(merged.spans.len(), 3);
        assert_eq!(merged.spans[1].rank, 1, "span ranks rewritten to position");
        assert_eq!(merged.totals.p2p, 40);
        assert_eq!(merged.totals.messages, 6);
        assert_eq!(merged.per_worker.len(), 2);
        assert_eq!(merged.per_worker[1].p2p, 30);
        assert_eq!(merged.wall_s, 2.5);
        assert!((merged.imbalance() - 30.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let mut p = demo();
        p.serve = Some(ServeCounters { queries: 9, rejected: 1, ..Default::default() });
        let back = StepProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
    }

    /// Profiles serialized before a field existed must still load, with the
    /// missing tail fields defaulting — this is what keeps committed
    /// baseline JSONs valid across schema growth.
    #[test]
    fn json_missing_tail_fields_default() {
        let zero = Counters::default();
        let old = format!(
            r#"{{"step":3,"threads":2,"wall_s":0.5,"spans":[],"per_worker":[],"totals":{}}}"#,
            serde_json::to_string(&zero).unwrap()
        );
        let p = StepProfile::from_json(&old).unwrap();
        assert_eq!(p.step, 3);
        assert!(p.rungs.is_empty());
        assert_eq!(p.rung_migrations, 0);
        assert_eq!(p.serve, None);
        assert!(StepProfile::from_json(r#"{"threads":1}"#).is_err(), "core fields stay required");
    }

    #[test]
    fn serve_counters_merge_semantics() {
        let mut a = ServeCounters {
            queries: 100,
            accepted: 10,
            rejected: 2,
            batches: 4,
            queue_depth_peak: 7,
            epochs_published: 5,
            epochs_retired: 3,
            epoch_lag_last: 1,
            epoch_lag_max: 2,
        };
        let b = ServeCounters {
            queries: 50,
            accepted: 5,
            rejected: 0,
            batches: 2,
            queue_depth_peak: 3,
            epochs_published: 6,
            epochs_retired: 4,
            epoch_lag_last: 0,
            epoch_lag_max: 1,
        };
        a.merge(&b);
        // Flow counters add; level counters (peaks, generation watermarks)
        // take the max; "last" follows the merged-in side.
        assert_eq!(a.queries, 150);
        assert_eq!(a.accepted, 15);
        assert_eq!(a.rejected, 2);
        assert_eq!(a.batches, 6);
        assert_eq!(a.queue_depth_peak, 7);
        assert_eq!(a.epochs_published, 6);
        assert_eq!(a.epochs_retired, 4);
        assert_eq!(a.epoch_lag_last, 0);
        assert_eq!(a.epoch_lag_max, 2);
    }

    #[test]
    fn counters_merge_all_fields() {
        let mut a = Counters {
            p2p: 1,
            m2p: 2,
            mac_tests: 3,
            nodes_opened: 4,
            group_accept: 5,
            group_reject: 6,
            group_mixed: 7,
            requests: 8,
            messages: 9,
            words: 10,
            lane_slots: 16,
            lane_useful: 12,
            list_hits: 6,
            list_misses: 2,
            list_bytes: 1024,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.p2p, 2);
        assert_eq!(a.words, 20);
        assert_eq!(a.interactions(), 6);
        assert_eq!(a.lane_slots, 32);
        assert_eq!(a.lane_useful, 24);
        assert_eq!(a.list_hits, 12);
        assert_eq!(a.list_misses, 4);
        assert_eq!(a.list_bytes, 2048);
    }

    /// Counter JSONs committed before the list-reuse fields existed (and any
    /// older schema) must still parse, with absent fields defaulting to zero.
    #[test]
    fn counters_parse_leniently() {
        let c: Counters = serde_json::from_str(r#"{"p2p":7,"m2p":3,"mac_tests":11}"#).unwrap();
        assert_eq!(c.p2p, 7);
        assert_eq!(c.m2p, 3);
        assert_eq!(c.mac_tests, 11);
        assert_eq!(c.list_hits, 0);
        assert_eq!(c.lane_slots, 0);
        // And the full round trip is lossless.
        let full =
            Counters { p2p: 1, list_hits: 2, list_misses: 3, list_bytes: 4, ..Default::default() };
        let back: Counters = serde_json::from_str(&serde_json::to_string(&full).unwrap()).unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn lane_utilization_ratio() {
        let c = Counters { lane_slots: 80, lane_useful: 60, ..Default::default() };
        assert!((c.lane_utilization() - 0.75).abs() < 1e-12);
        assert_eq!(Counters::default().lane_utilization(), 1.0);
    }

    #[test]
    fn span_duration_and_schema_fields() {
        let s = Span::new(2, 1, phase::FORCE, 0.5, 1.25);
        assert_eq!(s.duration(), 0.75);
        let j = serde_json::to_string(&s).unwrap();
        for key in ["rank", "superstep", "start", "end", "sent", "phase"] {
            assert!(j.contains(key), "span JSON missing {key}: {j}");
        }
    }
}
