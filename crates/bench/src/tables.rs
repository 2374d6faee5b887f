//! Generators for every table and figure of §5, the §4 analyses, and the
//! ablations of the design choices the paper weighs.
//!
//! Each function mirrors one artifact of the paper's evaluation. `scale`
//! scales the particle counts of the large `g_*`/`p_*` instances (1.0 = the
//! paper's sizes); the Table-4 irregularity family is always run at its full
//! 25 130 particles (it is small by construction).

use crate::runner::{run_once, sim_config, warm_then_time, RunSpec, TargetMachine};
use crate::text::{pct, ratio, secs, Table};
use bhut_core::balance::{spsa_assignment, Curve, Scheme};
use bhut_core::dataship::compare_shipping;
use bhut_core::domain::ClusterGrid;
use bhut_core::evalcore::{eval_owned, EvalEnv};
use bhut_core::funcship::ForceConfig;
use bhut_core::kruskal;
use bhut_core::partition::Partition;
use bhut_core::{IterationOutcome, SimConfig};
use bhut_geom::{dataset_scaled, ParticleSet};
use bhut_machine::{Crossbar, FatTree, Hypercube, Mesh2D};
use bhut_multipole::series_words_3d;
use bhut_tree::build::{build_in_cell, BuildParams};
use bhut_tree::BarnesHutMac;

/// Table 1: SPSA vs SPDA runtimes (monopole, nCUBE2, p ∈ {16, 64, 256}).
pub fn table1(scale: f64) -> Table {
    let mut t = Table::new(
        "Table 1 — SPSA vs SPDA runtimes (s), monopole, nCUBE2",
        &["problem", "alpha", "scheme", "p=16", "p=64", "p=256", "F (interactions)"],
    );
    let cases: &[(&str, f64, &[usize])] = &[
        ("g_160535", 0.67, &[16, 64, 256]),
        ("g_326214", 1.0, &[16, 64, 256]),
        ("g_657499", 1.0, &[64, 256]),
        ("g_1192768", 1.0, &[64, 256]),
    ];
    for &(name, alpha, ps) in cases {
        for scheme in [Scheme::Spsa, Scheme::Spda] {
            let mut cells = vec![name.to_string(), format!("{alpha}"), scheme.name().into()];
            let mut interactions = 0;
            for &p in &[16usize, 64, 256] {
                if ps.contains(&p) {
                    let rec = run_once(RunSpec {
                        dataset: name,
                        scale,
                        scheme,
                        p,
                        // r = 64² = 4096 ≥ p·log p at p = 256 (§4.1's rule)
                        clusters_per_axis: 64,
                        alpha,
                        ..Default::default()
                    });
                    interactions = rec.outcome.interactions;
                    cells.push(secs(rec.time()));
                } else {
                    cells.push("-".into());
                }
            }
            cells.push(format!("{:.2e}", interactions as f64));
            t.row(cells);
        }
    }
    t.note(format!("scale = {scale} of the paper's particle counts; clusters 64x64"));
    t.note("paper (full scale): SPDA beats SPSA everywhere; both scale to p=256");
    t
}

/// Table 2: runtime vs number of clusters (16², 32², 64²).
pub fn table2(scale: f64) -> Table {
    let mut t = Table::new(
        "Table 2 — runtimes (s) vs number of clusters, nCUBE2",
        &["p", "problem", "scheme", "16x16", "32x32", "64x64"],
    );
    let cases: &[(usize, &str, f64)] = &[
        (16, "g_28131", 0.67),
        (16, "g_160535", 0.67),
        (64, "g_160535", 0.67),
        (64, "g_326214", 1.0),
        (256, "g_326214", 1.0),
        (256, "g_657499", 1.0),
    ];
    for &(p, name, alpha) in cases {
        for scheme in [Scheme::Spsa, Scheme::Spda] {
            let mut cells = vec![p.to_string(), name.into(), scheme.name().into()];
            for c in [16u32, 32, 64] {
                let rec = run_once(RunSpec {
                    dataset: name,
                    scale,
                    scheme,
                    p,
                    clusters_per_axis: c,
                    alpha,
                    ..Default::default()
                });
                cells.push(secs(rec.time()));
            }
            t.row(cells);
        }
    }
    t.note("paper: more clusters usually help (better balance) until communication overhead bites");
    t
}

/// Table 3: phase breakdown at p = 256.
pub fn table3(scale: f64) -> Table {
    let mut t = Table::new(
        "Table 3 — time (s) per phase, p = 256, nCUBE2",
        &[
            "problem",
            "scheme",
            "local tree",
            "tree merge",
            "bcast",
            "force+traversal",
            "load bal",
            "total",
        ],
    );
    for name in ["g_1192768", "g_326214"] {
        for scheme in [Scheme::Spsa, Scheme::Spda] {
            let rec = run_once(RunSpec {
                dataset: name,
                scale,
                scheme,
                p: 256,
                clusters_per_axis: 32,
                alpha: 1.0,
                ..Default::default()
            });
            let ph = rec.outcome.phases;
            t.row(vec![
                name.into(),
                scheme.name().into(),
                format!("{:.4}", ph.local_tree),
                format!("{:.4}", ph.tree_merge),
                format!("{:.4}", ph.broadcast),
                secs(ph.force),
                format!("{:.4}", ph.load_balance),
                secs(ph.total),
            ]);
        }
    }
    t.note("paper: SPDA pays more in merge + balance but wins force time through balance");
    t
}

/// Table 4: speedups vs irregularity (the `s_*` family, always full size).
pub fn table4(_scale: f64) -> Table {
    let mut t = Table::new(
        "Table 4 — speedups for varying irregularity (25130 particles, alpha=0.67, SPDA)",
        &["problem", "clusters", "p=4", "p=16", "p=64", "F"],
    );
    for name in ["s_1g_a", "s_1g_b", "s_10g_a", "s_10g_b"] {
        for c in [128u32, 256] {
            let mut cells = vec![name.to_string(), format!("{c}x{c}")];
            let mut interactions = 0;
            for p in [4usize, 16, 64] {
                let rec = run_once(RunSpec {
                    dataset: name,
                    scale: 1.0,
                    scheme: Scheme::Spda,
                    p,
                    clusters_per_axis: c,
                    alpha: 0.67,
                    warmup: 2,
                    ..Default::default()
                });
                interactions = rec.outcome.interactions;
                cells.push(ratio(rec.outcome.speedup));
            }
            cells.push(format!("{:.1e}", interactions as f64));
            t.row(cells);
        }
    }
    t.note("paper: concentrated single blobs (s_1g_a) saturate early; more blobs / lower variance / more clusters help");
    t
}

/// Table 5: DPDA runtimes and efficiencies on the CM5 (degree 4, α = 0.67).
pub fn table5(scale: f64) -> Table {
    let mut t = Table::new(
        "Table 5 — DPDA on CM5: runtime (s) and efficiency (degree 4, alpha 0.67)",
        &["problem", "n", "p=64 time", "p=64 eff", "p=256 time", "p=256 eff"],
    );
    for name in ["p_63192", "g_160535", "g_326214", "p_353992"] {
        let mut cells = vec![name.to_string()];
        let mut n = 0;
        for p in [64usize, 256] {
            let rec = run_once(RunSpec {
                dataset: name,
                scale,
                scheme: Scheme::Dpda,
                p,
                alpha: 0.67,
                degree: 4,
                machine: TargetMachine::Cm5,
                warmup: 2,
                ..Default::default()
            });
            n = rec.n;
            cells.push(secs(rec.time()));
            cells.push(ratio(rec.efficiency()));
        }
        cells.insert(1, n.to_string());
        t.row(cells);
    }
    t.note("paper (full scale): efficiencies 0.76-0.89 at p=64, 0.47-0.74 at p=256, rising with n");
    t
}

/// Table 6: effect of multipole degree (3, 4, 5) on time / efficiency /
/// fractional % error.
pub fn table6(scale: f64) -> Table {
    let mut t = Table::new(
        "Table 6 — degree 3/4/5: time (s), efficiency, fractional % error (alpha 0.67, CM5, DPDA)",
        &[
            "problem", "p", "k=3 time", "k=3 eff", "k=3 err%", "k=4 time", "k=4 eff", "k=4 err%",
            "k=5 time", "k=5 eff", "k=5 err%",
        ],
    );
    let cases: &[(&str, usize)] =
        &[("p_63192", 64), ("g_160535", 64), ("g_326214", 64), ("p_353992", 256)];
    for &(name, p) in cases {
        let mut cells = vec![name.to_string(), p.to_string()];
        for degree in [3u32, 4, 5] {
            let rec = run_once(RunSpec {
                dataset: name,
                scale,
                scheme: Scheme::Dpda,
                p,
                alpha: 0.67,
                degree,
                machine: TargetMachine::Cm5,
                warmup: 2,
                error_sample: 200,
                ..Default::default()
            });
            cells.push(secs(rec.time()));
            cells.push(ratio(rec.efficiency()));
            cells.push(pct(rec.error.unwrap()));
        }
        t.row(cells);
    }
    t.note("paper: time grows ~k^2, error drops ~2x per degree, efficiency RISES with k (function shipping)");
    t
}

/// Table 7: effect of the α parameter (0.67, 0.80, 1.0) at degree 4.
pub fn table7(scale: f64) -> Table {
    let mut t = Table::new(
        "Table 7 — alpha 0.67/0.80/1.0: time (s), efficiency, fractional % error (degree 4, CM5, DPDA)",
        &["problem", "p", "a=.67 time", "a=.67 eff", "a=.67 err%", "a=.80 time", "a=.80 eff", "a=.80 err%", "a=1.0 time", "a=1.0 eff", "a=1.0 err%"],
    );
    let cases: &[(&str, usize)] =
        &[("p_63192", 64), ("g_160535", 64), ("g_326214", 64), ("p_353992", 256)];
    for &(name, p) in cases {
        let mut cells = vec![name.to_string(), p.to_string()];
        for alpha in [0.67, 0.80, 1.0] {
            let rec = run_once(RunSpec {
                dataset: name,
                scale,
                scheme: Scheme::Dpda,
                p,
                alpha,
                degree: 4,
                machine: TargetMachine::Cm5,
                warmup: 2,
                error_sample: 200,
                ..Default::default()
            });
            cells.push(secs(rec.time()));
            cells.push(ratio(rec.efficiency()));
            cells.push(pct(rec.error.unwrap()));
        }
        t.row(cells);
    }
    t.note(
        "paper: larger alpha => faster, less accurate; efficiency often rises (less communication)",
    );
    t
}

/// Figure 8: a 5000-particle Plummer sample; returns a summary table plus
/// the `x,y,z` CSV to plot.
pub fn figure8() -> (Table, String) {
    let set = dataset_scaled("p_5000", 1.0);
    let mut csv = String::from("x,y,z\n");
    for p in set.iter() {
        csv.push_str(&format!("{},{},{}\n", p.pos.x, p.pos.y, p.pos.z));
    }
    let mut t = Table::new("Figure 8 — sample Plummer distribution", &["quantity", "value"]);
    t.row(vec!["particles".into(), set.len().to_string()]);
    let radii: Vec<f64> = set.iter().map(|p| p.pos.norm()).collect();
    let mut sorted = radii.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    t.row(vec!["half-mass radius".into(), format!("{:.3}", sorted[sorted.len() / 2])]);
    t.row(vec!["max radius".into(), format!("{:.3}", sorted[sorted.len() - 1])]);
    t.note("plot the CSV (x,y projection) to reproduce the figure");
    (t, csv)
}

/// Figure 9: fractional % error and runtime vs polynomial degree (the graph
/// form of Table 6, degrees 1..6 for one instance per panel).
pub fn figure9(scale: f64) -> Table {
    let mut t = Table::new(
        "Figure 9 — error and runtime vs multipole degree (alpha 0.67, CM5, DPDA, p=64)",
        &["problem", "degree", "time (s)", "fractional err %"],
    );
    for name in ["p_63192", "g_160535"] {
        for degree in 1..=6u32 {
            let rec = run_once(RunSpec {
                dataset: name,
                scale,
                scheme: Scheme::Dpda,
                p: 64,
                alpha: 0.67,
                degree,
                machine: TargetMachine::Cm5,
                warmup: 1,
                error_sample: 200,
                ..Default::default()
            });
            t.row(vec![name.into(), degree.to_string(), secs(rec.time()), pct(rec.error.unwrap())]);
        }
    }
    t.note("paper: error decays roughly geometrically in k while runtime grows ~k^2");
    t
}

/// Build a cluster partition for analysis experiments.
fn analysis_setup(
    name: &'static str,
    scale: f64,
    c: u32,
    p: usize,
) -> (ParticleSet, ClusterGrid, bhut_tree::Tree, Partition) {
    let set = dataset_scaled(name, scale);
    let cell = set.bounding_cube().expect("non-empty dataset");
    let grid = ClusterGrid::new(c, cell);
    let tree = build_in_cell(
        &set.particles,
        cell,
        BuildParams { leaf_capacity: 8, collapse: true, min_split_level: grid.level() },
    );
    let owners = spsa_assignment(&grid, p);
    let part = Partition::from_clusters(&tree, &grid, &owners, p);
    (set, grid, tree, part)
}

/// A1 (§4.1): measured cluster-load statistics vs the Kruskal–Weiss model.
pub fn analysis_kruskal(scale: f64) -> Table {
    let mut t = Table::new(
        "Analysis A1 — Kruskal-Weiss cluster model (g_160535, p=64, alpha 0.67)",
        &[
            "clusters r",
            "mean load (flops)",
            "std",
            "predicted eff",
            "measured force imbalance",
            "r >= p log p?",
        ],
    );
    let p = 64;
    for c in [8u32, 16, 32, 64] {
        let (set, grid, tree, part) = analysis_setup("g_160535", scale, c, p);
        // Sequential per-cluster flop loads.
        let mac = BarnesHutMac::new(0.67);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: 1e-4,
            degree: 0,
        };
        let mut loads = vec![0.0f64; grid.r()];
        let mut remote = Vec::new();
        for particle in set.iter() {
            remote.clear();
            let r = eval_owned(
                &env,
                particle.pos,
                Some(particle.id),
                0,
                &vec![0i32; tree.len()],
                None,
                &mut remote,
            );
            loads[grid.cluster_of(particle.pos) as usize] += r.flops as f64;
        }
        let (mu, sigma) = kruskal::mean_std(&loads);
        let eff = kruskal::predicted_efficiency(grid.r(), p, mu.max(1e-9), sigma);
        // Measured: force-phase imbalance of an actual SPSA run.
        let rec = run_once(RunSpec {
            dataset: "g_160535",
            scale,
            scheme: Scheme::Spsa,
            p,
            clusters_per_axis: c,
            alpha: 0.67,
            ..Default::default()
        });
        let _ = part;
        t.row(vec![
            format!("{c}x{c}"),
            format!("{mu:.0}"),
            format!("{sigma:.0}"),
            ratio(eff),
            ratio(rec.outcome.imbalance),
            (grid.r() >= kruskal::min_clusters_for_balance(p)).to_string(),
        ]);
    }
    t.note("§4.1: imbalance overhead shrinks as r grows; r >= p log p suffices");
    t
}

/// A2 (§4.2): function-shipping vs data-shipping communication volume vs
/// multipole degree.
pub fn analysis_shipping(scale: f64) -> Table {
    let mut t = Table::new(
        "Analysis A2 — communication volume (words): function vs data shipping (g_160535, p=64, 32x32, alpha 0.67)",
        &["degree k", "series words/node", "function-ship words", "data-ship words", "data/function ratio"],
    );
    let (set, _grid, tree, part) = analysis_setup("g_160535", scale, 32, 64);
    let mac = BarnesHutMac::new(0.67);
    for degree in [0u32, 2, 4, 6] {
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: 1e-4,
            degree,
        };
        let cmp = compare_shipping(&env, &part, degree);
        t.row(vec![
            degree.to_string(),
            series_words_3d(degree).to_string(),
            cmp.function_words.to_string(),
            cmp.data_words.to_string(),
            format!("{:.2}", cmp.data_words as f64 / cmp.function_words.max(1) as f64),
        ]);
    }
    t.note("§4.2.1: function-shipping volume is degree-independent; data shipping grows ~k^2");
    t
}

/// The design choices the paper weighs, in simulated seconds on the nCUBE2
/// (`g_160535`, SPDA, p = 16, 16×16 clusters, α 0.67, one warm-up
/// iteration, as [`RunSpec::default`]): the request-bin size of §3.2, then
/// SPDA's cluster order (Morton vs Hilbert) and the interconnect.
pub fn ablations(scale: f64) -> (Table, Table) {
    let spec = RunSpec { scale, ..Default::default() };
    let set = dataset_scaled(spec.dataset, scale);
    let base = sim_config(&spec);
    let (p, cost, warmup) = (spec.p, spec.machine.cost(), spec.warmup);
    let on_hypercube =
        |config: SimConfig| warm_then_time(Hypercube::new(p), cost, config, warmup, &set);

    let mut bins = Table::new(
        "Ablation — request-bin size (SPDA, p=16, nCUBE2 hypercube)",
        &["bin size", "force (s)", "messages", "words", "shipped particles"],
    );
    for bin_size in [10usize, 30, 100, 300, 1000] {
        let force = ForceConfig { bin_size, ..Default::default() };
        let out = on_hypercube(SimConfig { force, ..base });
        bins.row(vec![
            bin_size.to_string(),
            secs(out.phases.force),
            out.messages.to_string(),
            out.words.to_string(),
            out.requests.to_string(),
        ]);
    }
    bins.note(format!("scale = {scale} of g_160535 ({} particles)", set.len()));
    bins.note("messages and words count the whole iteration; its merge and balance traffic is the same in every row");
    bins.note("paper (§3.2): bins of ~100 particles; a bin changes how many messages carry the words, not the words");

    let mut variants = Table::new(
        "Ablation — SPDA cluster order and interconnect (p=16, nCUBE2 constants)",
        &["variant", "setting", "total (s)", "force (s)", "other phases (s)", "efficiency"],
    );
    let mut row = |variant: &str, setting: &str, out: IterationOutcome| {
        let ph = out.phases;
        variants.row(vec![
            variant.into(),
            setting.into(),
            format!("{:.4}", ph.total),
            format!("{:.4}", ph.force),
            format!("{:.4}", ph.total - ph.force),
            ratio(out.efficiency),
        ]);
    };
    for (name, curve) in [("morton", Curve::Morton), ("hilbert", Curve::Hilbert)] {
        row("curve", name, on_hypercube(SimConfig { curve, ..base }));
    }
    row("topology", "hypercube", on_hypercube(base));
    row(
        "topology",
        "mesh2d 4x4 torus",
        warm_then_time(Mesh2D::new(4, 4, true), cost, base, warmup, &set),
    );
    row("topology", "fat-tree (CM5)", warm_then_time(FatTree::cm5(p), cost, base, warmup, &set));
    row("topology", "crossbar", warm_then_time(Crossbar::new(p), cost, base, warmup, &set));
    variants.note("the topology rows run the default SPDA iteration (Morton order)");
    variants.note("nCUBE2 constants: a hop costs 1 us against a 160 us message start-up");
    (bins, variants)
}

/// Run a single named artifact. Returns rendered text (plus Figure 8's CSV).
pub fn run_artifact(which: &str, scale: f64) -> (String, Option<String>) {
    match which {
        "table1" => (table1(scale).render(), None),
        "table2" => (table2(scale).render(), None),
        "table3" => (table3(scale).render(), None),
        "table4" => (table4(scale).render(), None),
        "table5" => (table5(scale).render(), None),
        "table6" => (table6(scale).render(), None),
        "table7" => (table7(scale).render(), None),
        "figure8" => {
            let (t, csv) = figure8();
            (t.render(), Some(csv))
        }
        "figure9" => (figure9(scale).render(), None),
        "kruskal" => (analysis_kruskal(scale).render(), None),
        "shipping" => (analysis_shipping(scale).render(), None),
        "ablations" => {
            let (bins, variants) = ablations(scale);
            (format!("{}\n{}", bins.render(), variants.render()), None)
        }
        other => panic!("unknown artifact {other:?}"),
    }
}

/// All artifact names, in paper order.
pub const ARTIFACTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "figure8",
    "figure9",
    "kruskal",
    "shipping",
    "ablations",
];

#[cfg(test)]
mod tests {
    use super::*;

    // Full tables are exercised by the `tables` binary and integration
    // tests; here we smoke-test the cheap ones at tiny scale.

    #[test]
    fn figure8_summary() {
        let (t, csv) = figure8();
        assert_eq!(t.rows[0][1], "5000");
        assert_eq!(csv.lines().count(), 5001);
    }

    #[test]
    fn shipping_analysis_shape() {
        let t = analysis_shipping(0.01);
        assert_eq!(t.rows.len(), 4);
        // data/function ratio strictly grows with degree
        let ratios: Vec<f64> = t.rows.iter().map(|r| r.last().unwrap().parse().unwrap()).collect();
        assert!(ratios.windows(2).all(|w| w[0] < w[1]), "{ratios:?}");
    }

    #[test]
    fn artifact_dispatch() {
        let (text, csv) = run_artifact("figure8", 1.0);
        assert!(text.contains("Figure 8"));
        assert!(csv.is_some());
    }

    #[test]
    fn ablations_are_deterministic_and_complete() {
        let (text, _) = run_artifact("ablations", 0.01);
        assert_eq!(run_artifact("ablations", 0.01).0, text);
        let (bins, variants) = ablations(0.01);
        let column = |name: &str| -> Vec<u64> {
            let c = bins.header.iter().position(|h| h == name).unwrap();
            bins.rows.iter().map(|r| r[c].parse().unwrap()).collect()
        };
        // §3.2: binning changes how many messages carry the shipped
        // particles, never how many words they are.
        let words = column("words");
        assert!(words.iter().all(|&w| w == words[0]), "{words:?}");
        let messages = column("messages");
        assert!(messages.windows(2).all(|w| w[0] > w[1]), "{messages:?}");
        let settings: Vec<&str> = variants.rows.iter().map(|r| r[1].as_str()).collect();
        for want in
            ["morton", "hilbert", "hypercube", "mesh2d 4x4 torus", "fat-tree (CM5)", "crossbar"]
        {
            assert!(settings.contains(&want), "no {want} row in {settings:?}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown artifact")]
    fn unknown_artifact_panics() {
        let _ = run_artifact("table99", 1.0);
    }
}
