//! `spine` — one benchmark for the step, the served query and the mesh.
//!
//! ```text
//! cargo run --release --manifest-path spine/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--selfcheck]
//! ```
//!
//! With `--workload` it runs that workload in this process, prints every
//! metric by name with its unit, checks the outputs, and ends with one JSON
//! line (`correct`, `attempted`, `failed`, `metrics`). Without it, every
//! workload runs in a fresh process of its own; `--selfcheck` runs each one
//! twice and says whether the two runs agree within the metric's bound.
//! README.md in this directory is the catalogue.

mod accuracy;
mod catalog;
mod gen;
mod mesh;
mod serve;
mod stats;
mod step;
mod sys;
mod trace;

use accuracy::ERR_TARGETS;
use catalog::{Kind, Metric, END_TO_END, FORCE_ERR_CAP, PER_LAYER, WORKLOADS};
use serde::Value;
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;

const USAGE: &str =
    "usage: spine [--workload NAME] [--seed N] [--seconds T] [--trace 0|1] [--selfcheck]
  --workload NAME  one of the five workloads (default: all, each in a fresh process)
  --seed N         seed of the initial conditions and the query stream (default 1; 2 is held out)
  --seconds T      timed region of one run (default 10)
  --trace 0|1      0: end-to-end metrics, untraced; 1: per-layer metrics and a span file
  --selfcheck      run every workload twice and compare the end-to-end metrics";

/// One parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub selfcheck: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 10.0, trace: false, selfcheck: false };
    let mut it = argv.into_iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if catalog::workload(&name).is_none() {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                args.seconds = s;
            }
            // `--trace` alone means 1; the driver always passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// A named pass/fail check on the program's outputs.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (steps, queries, rank launches) and how many of
    /// them failed or were refused.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for the human reader (sample counts, sizes, caveats).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The bounded latency metric of an untraced run: the lower decile of the
    /// operation times `samples_ms`, collected over `wall_s` seconds. The
    /// median and the plain mean rate go to the notes. Returns the decile.
    pub fn op_times(&mut self, what: &str, samples_ms: &[f64], wall_s: f64) -> f64 {
        let p10 = stats::percentile(samples_ms, 0.10);
        self.note(format!(
            "{} timed {what} in {wall_s:.3} s: p10 {p10:.3} ms, median {:.3} ms, mean rate {:.4}/s",
            samples_ms.len(),
            stats::median(samples_ms),
            samples_ms.len() as f64 / wall_s,
        ));
        self.metric("op_ms_p10", p10);
        p10
    }

    /// The absolute ceiling on the accuracy metric, measured on `targets`.
    pub fn check_force_err(&mut self, err: f64, targets: &str) {
        self.check(
            "force_frac_err under cap",
            stats::under_cap(err, FORCE_ERR_CAP),
            format!("{err:.3e} vs direct sum on {ERR_TARGETS} {targets}, cap {FORCE_ERR_CAP:e}"),
        );
    }

    /// What the harness's own spans cost: traced against untraced median
    /// operation time.
    pub fn trace_overhead(&mut self, traced_p50: f64, untraced_p50: f64) {
        self.metric("obs.trace_overhead", traced_p50 / untraced_p50 - 1.0);
        self.metric("obs.traced_op_ms_p50", traced_p50);
        self.metric("obs.untraced_op_ms_p50", untraced_p50);
    }

    /// Operations count as one unit each; a failed output check makes the
    /// whole run incorrect but is not an operation.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// Print the run for a human, then the one JSON line the driver reads.
/// Returns whether the run was correct.
fn report(args: &Args, name: &str, out: &Outcome) -> Result<bool, String> {
    let wanted: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some((stray, _)) = out.metrics.iter().find(|(n, _)| wanted.iter().all(|m| m.name != *n))
    {
        return Err(format!(
            "workload {name} emitted {stray:?}, which the catalogue does not list"
        ));
    }
    let correct = out.correct();
    println!(
        "spine {name} seed={} seconds={} trace={} threads_available={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    for line in &out.notes {
        println!("  note   {line}");
    }
    for c in &out.checks {
        println!("  check  {:<42} {} — {}", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  ops    attempted {} failed {} (failed_share {failed_share})",
        out.attempted, out.failed
    );
    let mut metrics = Vec::with_capacity(wanted.len());
    for m in wanted {
        let measured = out.metrics.iter().find(|(n, _)| *n == m.name).map(|&(_, v)| v);
        // A per-layer metric the workload does not exercise reads 0; an
        // end-to-end metric may be missing only from a run that failed.
        let value = match measured {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {} of {name} is {v}", m.name)),
            None if args.trace => 0.0,
            None if !correct => continue,
            None => return Err(format!("workload {name} did not measure {}", m.name)),
        };
        println!(
            "  metric {:<34} {:>18.6} {:<6} ({} is better{}{})",
            m.name,
            value,
            m.unit,
            m.better.as_str(),
            m.bound.map_or(String::new(), |b| format!(", bound {b}")),
            if measured.is_none() { "; not exercised by this workload" } else { "" },
        );
        metrics.push((
            m.name.to_string(),
            Value::Obj(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]),
        ));
    }
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(out.attempted.max(1))),
        ("failed".into(), Value::UInt(out.failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", line.to_json());
    Ok(correct)
}

fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let dir = sys::RunDir::create().map_err(|e| format!("run directory: {e}"))?;
    // The rank launcher puts its rendezvous sockets under the temp dir;
    // point that inside the checkout too. No thread exists yet.
    std::env::set_var("TMPDIR", dir.path());
    let mut tracer = Tracer::new();
    let workload = catalog::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut out = match workload.kind {
        Kind::Step(spec) => step::run(spec, args, &mut tracer),
        Kind::Serve { n } => serve::run(n, args, dir.path(), &mut tracer),
        Kind::Mesh { n } => mesh::run(n, args, &mut tracer),
    };
    out.notes.insert(0, format!("why: {}", workload.why));
    if args.trace {
        let path = dir.trace_file(name);
        std::fs::write(&path, tracer.to_json(name, args.seed))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spine wrote {} spans to {}", tracer.len(), path.display());
    }
    report(args, name, &out)
}

/// Run one workload in a fresh process of this executable and parse the
/// JSON line it ends with.
fn run_child(args: &Args, name: &str) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    if !output.status.success() {
        return Err(format!("workload {name} exited with {}", output.status));
    }
    let last = text.lines().last().ok_or_else(|| format!("workload {name} printed nothing"))?;
    Value::from_json(last).map_err(|e| format!("result line of {name}: {e}"))
}

/// A JSON number, whichever way the parser typed it.
fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn metric_value(result: &Value, metric: &str) -> Option<f64> {
    number(result.get_field("metrics")?.get_field(metric)?.get_field("value")?)
}

/// Every workload, each in a fresh process; twice under `--selfcheck`.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut table = Vec::new();
    for w in &WORKLOADS {
        let first = run_child(args, w.name)?;
        ok &= first.get_field("correct") == Some(&Value::Bool(true));
        if !args.selfcheck {
            continue;
        }
        let second = run_child(args, w.name)?;
        ok &= second.get_field("correct") == Some(&Value::Bool(true));
        for m in &END_TO_END {
            let (a, b) = (metric_value(&first, m.name), metric_value(&second, m.name));
            let (Some(a), Some(b)) = (a, b) else {
                return Err(format!("{}: metric {} missing from a result line", w.name, m.name));
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let agrees = stats::agree(a, b, m.better, bound);
            ok &= agrees;
            table.push(format!(
                "  {:<16} {:<15} {:>14.6} {:>14.6} {:<5} worse by {:>6.2}%, bound {:>3.0}% — {}",
                w.name,
                m.name,
                a,
                b,
                m.unit,
                stats::worsening(a, b, m.better).max(stats::worsening(b, a, m.better)) * 100.0,
                bound * 100.0,
                if agrees { "agree" } else { "DISAGREE" }
            ));
        }
    }
    if args.selfcheck {
        println!("selfcheck: two runs of the same binary, seed {}", args.seed);
        for line in &table {
            println!("{line}");
        }
        println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // A spawned rank of the mesh workload runs the rank loop and exits here.
    bhut_proc::maybe_child();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("spine: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.workload, args.selfcheck) {
        (Some(name), false) => run_workload(&args, name),
        (Some(_), true) => Err("--selfcheck runs every workload; drop --workload".into()),
        (None, _) => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "plummer50k_t1",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("plummer50k_t1"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        assert!(parse(&["--workload", "serve50k_closed", "--trace", "1"]).unwrap().trace);
        // a bare --trace, as the issue writes it, means 1
        assert!(parse(&["--trace", "--seed", "2"]).unwrap().trace);
        assert_eq!(parse(&["--trace", "--seed", "2"]).unwrap().seed, 2);
        assert_eq!(parse(&[]).unwrap().seed, 1);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds", "600"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut out = Outcome { attempted: 10, ..Default::default() };
        assert!(out.correct());
        out.check("x", false, String::new());
        assert!(!out.correct());
        let out = Outcome { attempted: 10, failed: 1, ..Default::default() };
        assert!(!out.correct());
        assert!(!Outcome::default().correct(), "nothing attempted is not a correct run");
    }
}
