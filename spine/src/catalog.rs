//! The names the harness emits: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repository root lists
//! the same names; a unit test keeps the two from drifting apart.

use crate::stats::Better::{self, Higher, Lower};
use crate::step::Spec;

/// Which entry point a workload drives, and at what size.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `Simulation::step` in this process.
    Step(Spec),
    /// Closed-loop clients against a `bhut-serve` server over `n` particles.
    Serve { n: usize },
    /// Two-rank DPDA run over the process mesh on `n` particles.
    Mesh { n: usize },
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

/// Set-up is repeated this often in an untraced run; `setup_s` is the fastest.
pub const SETUP_REPS: usize = 3;

/// Absolute ceiling on `force_frac_err` (paper §5.2.2 error at α = 0.67,
/// monopole); a run above it fails its correctness check.
pub const FORCE_ERR_CAP: f64 = 8e-3;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "plummer50k_t1",
        why: "Simulation::step, global dt, 1 thread: the plain single-thread baseline; the leaf-group walk is ~88% of it",
        kind: Kind::Step(Spec { n: 50_000, threads: 1, block: false }),
    },
    Workload {
        name: "plummer50k_t2",
        why: "same state and config at 2 threads: partitioning, scatter and imbalance count; serialising work to speed one thread shows here",
        kind: Kind::Step(Spec { n: 50_000, threads: 2, block: false }),
    },
    Workload {
        name: "block20k_reuse",
        why: "block timesteps with list_reuse: masked active sets, frozen tree, WalkCache replay; one build per synchronized substep is visible",
        kind: Kind::Step(Spec { n: 20_000, threads: 1, block: true }),
    },
    Workload {
        name: "serve50k_closed",
        why: "2 closed-loop clients query a live Unix-socket server: third entry into the walk plus wire, queue and epoch pinning",
        kind: Kind::Serve { n: 50_000 },
    },
    Workload {
        name: "mesh2_dpda50k",
        why: "2 real processes over the socket mesh (DPDA): the only run of exchange, balance and migration; source of message and word counts",
        kind: Kind::Mesh { n: 50_000 },
    },
];

/// What a user of the system sees. One operation is one `Simulation::step`
/// (a big step under block timesteps), one served query, or one mesh step.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_ms_p10", "ms", Lower, 0.25),
    e2e("ops_per_s_p90", "1/s", Higher, 0.25),
    e2e("force_frac_err", "ratio", Lower, 0.20),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Single layers, timed from outside in the `--trace 1` run. A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [Metric; 54] = [
    // geom / sim
    layer("geom.generate_ms", "ms", Lower),
    layer("sim.warmup_ms", "ms", Lower),
    layer("sim.integrate_ms", "ms", Lower),
    // tree: build and schedule
    layer("tree.build_ms", "ms", Lower),
    layer("tree.nodes", "count", Lower),
    layer("tree.nodes_built_per_s", "1/s", Higher),
    layer("tree.schedule_ms", "ms", Lower),
    // tree: group walk
    layer("tree.walk_ms", "ms", Lower),
    layer("tree.mac_tests", "count", Lower),
    layer("tree.interactions", "count", Lower),
    layer("tree.mac_tests_per_interaction", "ratio", Lower),
    layer("tree.walk_interactions_per_s", "1/s", Higher),
    layer("tree.walk_over_kernel", "ratio", Lower),
    layer("tree.walk_share", "ratio", Lower),
    // tree: slab kernel
    layer("tree.kernel_ms", "ms", Lower),
    layer("tree.kernel_interactions_per_s", "1/s", Higher),
    layer("tree.kernel_lane_util", "ratio", Higher),
    layer("tree.slab_bytes_computed", "B", Lower),
    // threads
    layer("threads.force_ms", "ms", Lower),
    layer("threads.overhead_ms", "ms", Lower),
    layer("threads.imbalance", "ratio", Lower),
    layer("threads.parallel_efficiency", "ratio", Higher),
    // timestep
    layer("timestep.substeps", "count", Lower),
    layer("timestep.force_evals", "count", Lower),
    layer("timestep.active_fraction_mean", "ratio", Lower),
    layer("timestep.full_substep_ms", "ms", Lower),
    layer("timestep.masked_substep_ms_p50", "ms", Lower),
    layer("timestep.list_hit_rate", "ratio", Higher),
    layer("timestep.list_bytes", "B", Lower),
    // serve
    layer("serve.engine_points_per_s", "1/s", Higher),
    layer("serve.wire_overhead_ms", "ms", Lower),
    layer("serve.codec_us", "us", Lower),
    layer("serve.publish_ms", "ms", Lower),
    layer("serve.query_ms_p90", "ms", Lower),
    layer("serve.query_ms_p99", "ms", Lower),
    layer("serve.batches", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.queue_depth_peak", "count", Lower),
    layer("serve.epoch_lag_max", "count", Lower),
    layer("serve.epochs_retired", "count", Higher),
    // proc / wire
    layer("proc.p1_run_s", "s", Lower),
    layer("proc.efficiency", "ratio", Higher),
    layer("proc.messages_per_step", "count", Lower),
    layer("proc.words_per_step", "count", Lower),
    layer("proc.build_share", "ratio", Lower),
    layer("proc.exchange_share", "ratio", Lower),
    layer("proc.force_share", "ratio", Higher),
    layer("proc.balance_share", "ratio", Lower),
    layer("wire.encode_mb_per_s", "MB/s", Higher),
    layer("wire.decode_mb_per_s", "MB/s", Higher),
    // the harness itself
    layer("obs.trace_overhead", "ratio", Lower),
    layer("obs.traced_op_ms_p50", "ms", Lower),
    layer("obs.untraced_op_ms_p50", "ms", Lower),
    layer("obs.spans", "count", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get_field(key) {
            Some(Value::Str(s)) => s,
            other => panic!("field `{key}` is not a string: {other:?}"),
        }
    }

    fn arr_field<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.get_field(key) {
            Some(Value::Arr(a)) => a,
            other => panic!("field `{key}` is not an array: {other:?}"),
        }
    }

    fn num(v: &Value) -> f64 {
        crate::number(v).unwrap_or_else(|| panic!("not a number: {v:?}"))
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {}", w.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_emits() {
        let doc = Value::from_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");

        let listed: Vec<(&str, &str)> = arr_field(&doc, "workloads")
            .iter()
            .map(|w| (str_field(w, "name"), str_field(w, "why")))
            .collect();
        let emitted: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, emitted, "workloads differ");

        for (key, metrics) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = arr_field(&doc, key);
            let names: Vec<&str> = listed.iter().map(|m| str_field(m, "name")).collect();
            let emitted: Vec<&str> = metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, emitted, "{key} names differ");
            for (json, m) in listed.iter().zip(metrics) {
                assert!(name_ok(str_field(json, "name")));
                assert_eq!(str_field(json, "unit"), m.unit, "unit of {}", m.name);
                assert_eq!(str_field(json, "better"), m.better.as_str(), "direction of {}", m.name);
                assert_eq!(json.get_field("bound").map(num), m.bound, "bound of {}", m.name);
            }
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn benchmark_json_command_stays_inside_its_paths() {
        let doc = Value::from_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let paths: Vec<&str> = arr_field(&doc, "paths")
            .iter()
            .map(|p| match p {
                Value::Str(s) => s.as_str(),
                other => panic!("path is not a string: {other:?}"),
            })
            .collect();
        assert_eq!(paths, ["spine"]);
        let seconds = num(doc.get_field("run_seconds").expect("run_seconds"));
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
