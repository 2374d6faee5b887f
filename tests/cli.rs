//! `bhut` refuses a flag its subcommand does not read — a misspelled one
//! included — with its usage and exit status 2 before running anything,
//! accepts every flag its usage lists, and `--help` exits 0.

use std::process::{Command, Output};

#[path = "../crates/proc/src/scratch.rs"]
mod scratch;

const BHUT: &str = env!("CARGO_BIN_EXE_bhut");

fn run(args: &[&str]) -> Output {
    Command::new(BHUT).args(args).output().expect("spawn bhut")
}

/// Each refused command line with the argument its message names.
#[test]
fn unknown_flags_exit_2_with_usage() {
    let cases: [(&[&str], &str); 7] = [
        (&["simulate", "--dataset", "p_5000", "--scale", "0.2", "--stpes", "2"], "--stpes"),
        (&["simulate", "--dataset", "p_5000", "--check"], "--check"),
        (&["forces", "--dataset", "p_5000", "--steps", "2"], "--steps"),
        (&["forces", "--bogus"], "--bogus"),
        (&["schemes", "--dataset", "p_5000", "--threads", "2"], "--threads"),
        (&["datasets", "--scale", "0.5"], "--scale"),
        (&["simulate", "--dataset", "p_5000", "--steps", "2", "stray"], "stray"),
    ];
    for (args, named) in cases {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
    }
}

#[test]
fn help_exits_0() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["simulate", "--help"],
        &["forces", "-h"],
        &["schemes", "--dataset", "p_5000", "--help"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"), "{args:?}");
    }
}

/// Every flag the usage lists for a subcommand is one it accepts: each runs
/// to exit 0 with all of its flags given, on a tiny slice of a dataset.
#[test]
fn every_listed_flag_is_accepted() {
    let dir = scratch::ScratchDir::new("cli_flags");
    std::fs::create_dir_all(dir.path()).unwrap();
    let snap = dir.path().join("s.json");
    let snap = snap.to_str().expect("a UTF-8 scratch path");
    let runs: [&[&str]; 4] = [
        &[
            "simulate",
            "--dataset",
            "p_5000",
            "--scale",
            "0.02",
            "--steps",
            "2",
            "--dt",
            "1e-3",
            "--alpha",
            "0.7",
            "--degree",
            "0",
            "--eps",
            "0.01",
            "--threads",
            "2",
            "--diag-every",
            "1",
            "--snapshot",
            snap,
        ],
        &[
            "forces",
            "--dataset",
            "p_5000",
            "--scale",
            "0.02",
            "--alpha",
            "0.7",
            "--degree",
            "1",
            "--eps",
            "1e-4",
            "--threads",
            "2",
            "--check",
        ],
        &[
            "schemes",
            "--dataset",
            "p_5000",
            "--scale",
            "0.02",
            "--p",
            "4",
            "--clusters",
            "4",
            "--alpha",
            "0.7",
        ],
        &["datasets"],
    ];
    for args in runs {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
    assert!(std::path::Path::new(snap).exists(), "--snapshot wrote nothing");
}
