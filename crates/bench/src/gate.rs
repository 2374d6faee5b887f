//! Shared CI-gate plumbing for the bench binaries.
//!
//! Both gate bins (`proc_compare`, `chaos`) build one [`GateTable`]: a
//! named list of pass/fail checks with the measured value and the limit it
//! was held to. [`GateTable::finish`]
//! prints the table, mirrors it into `$GITHUB_STEP_SUMMARY` when running
//! under GitHub Actions (so the verdict is readable on the run page
//! without expanding logs), and exits nonzero if any check failed.
//!
//! [`require_baseline`] loads a committed baseline file and makes a
//! missing or unreadable baseline a **hard failure with an actionable
//! message** — a gate must never silently pass because the file it gates
//! against was not committed.

use std::path::Path;

/// One gate check: what was measured, what it was held to, verdict.
#[derive(Debug, Clone)]
pub struct GateRow {
    pub check: String,
    pub value: String,
    pub limit: String,
    pub pass: bool,
}

/// A named collection of gate checks with uniform reporting.
#[derive(Debug, Clone)]
pub struct GateTable {
    job: String,
    rows: Vec<GateRow>,
}

impl GateTable {
    pub fn new(job: &str) -> Self {
        GateTable { job: job.to_string(), rows: Vec::new() }
    }

    /// Record one check; returns `pass` so call sites can branch inline.
    pub fn check(&mut self, check: &str, value: String, limit: String, pass: bool) -> bool {
        self.rows.push(GateRow { check: check.to_string(), value, limit, pass });
        pass
    }

    /// An informational row that cannot fail (context for the summary).
    pub fn info(&mut self, check: &str, value: String) {
        self.rows.push(GateRow {
            check: check.to_string(),
            value,
            limit: "-".to_string(),
            pass: true,
        });
    }

    pub fn all_passed(&self) -> bool {
        self.rows.iter().all(|r| r.pass)
    }

    /// Print the table to stdout and append the markdown mirror to
    /// `$GITHUB_STEP_SUMMARY` if that file is writable (outside CI the
    /// variable is unset and this is stdout-only).
    pub fn publish(&self) {
        println!("gate table [{}]:", self.job);
        println!("  {:<44} {:>18} {:>18} {:>6}", "check", "value", "limit", "pass");
        for r in &self.rows {
            println!(
                "  {:<44} {:>18} {:>18} {:>6}",
                r.check,
                r.value,
                r.limit,
                if r.pass { "ok" } else { "FAIL" }
            );
        }
        if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
            let mut md = format!(
                "### {} gate: {}\n\n| check | value | limit | pass |\n|---|---|---|---|\n",
                self.job,
                if self.all_passed() { "pass" } else { "FAIL" }
            );
            for r in &self.rows {
                md.push_str(&format!(
                    "| {} | {} | {} | {} |\n",
                    r.check,
                    r.value,
                    r.limit,
                    if r.pass { "✅" } else { "❌" }
                ));
            }
            md.push('\n');
            if let Err(e) = append(&path, &md) {
                eprintln!("warning: cannot write step summary {path}: {e}");
            }
        }
    }

    /// Publish and exit nonzero when any check failed.
    pub fn finish(self) {
        self.publish();
        if !self.all_passed() {
            let failed: Vec<&str> =
                self.rows.iter().filter(|r| !r.pass).map(|r| r.check.as_str()).collect();
            eprintln!("GATE FAILED [{}]: {}", self.job, failed.join(", "));
            std::process::exit(1);
        }
    }
}

fn append(path: &str, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(text.as_bytes())
}

/// Read a committed baseline file for a `--baseline` gate. Missing or
/// unreadable is a hard failure: the message names the file, states that
/// the gate refuses to run without it, and gives the regeneration command.
pub fn require_baseline(path: &Path, regen_hint: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            let msg = format!(
                "BASELINE MISSING: cannot read {} ({e}).\n\
                 This gate requires the committed baseline file; refusing to pass without it.\n\
                 Regenerate with:\n    {regen_hint}\n\
                 then commit the updated file.",
                path.display()
            );
            eprintln!("GATE FAILED: {msg}");
            if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
                let _ = append(&summary, &format!("### gate: FAIL\n\n```\n{msg}\n```\n"));
            }
            std::process::exit(1);
        }
    }
}

/// Parse a baseline JSON payload; corrupt committed baselines fail the
/// gate with the same hard semantics as a missing file.
pub fn parse_baseline<T: serde::Deserialize>(path: &Path, text: &str) -> T {
    match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!(
                "GATE FAILED: baseline {} is unparsable ({e}); \
                 regenerate and commit it.",
                path.display()
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_tracks_verdicts_and_formats_markdown() {
        let mut g = GateTable::new("demo");
        assert!(g.check("throughput", "1.0e9".into(), ">= 5.0e8".into(), true));
        g.info("n", "20000".into());
        assert!(g.all_passed());
        assert!(!g.check("accuracy", "3e-4".into(), "<= 1e-6".into(), false));
        assert!(!g.all_passed());
        // publish() must not panic with GITHUB_STEP_SUMMARY unset.
        g.publish();
    }

    #[test]
    fn step_summary_is_appended_when_env_points_at_a_file() {
        let dir = std::env::temp_dir().join(format!("bhut-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("summary.md");
        // Not thread-safe in general, but test binaries in this crate run
        // this single test touching the variable.
        std::env::set_var("GITHUB_STEP_SUMMARY", &file);
        let mut g = GateTable::new("sumdemo");
        g.check("alpha", "1".into(), "<= 2".into(), true);
        g.publish();
        g.publish(); // appends, never truncates
        std::env::remove_var("GITHUB_STEP_SUMMARY");
        let text = std::fs::read_to_string(&file).unwrap();
        assert_eq!(text.matches("### sumdemo gate: pass").count(), 2);
        assert!(text.contains("| alpha | 1 | <= 2 | ✅ |"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
