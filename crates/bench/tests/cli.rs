//! Every bench binary refuses a bad command line with its usage and exit
//! status 2 before running anything, and `--help` exits 0.

use std::process::{Command, Output};

const BINS: [&str; 3] =
    [env!("CARGO_BIN_EXE_tables"), env!("CARGO_BIN_EXE_proc_compare"), env!("CARGO_BIN_EXE_chaos")];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn the binary")
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    for bin in BINS {
        for args in [&["--bogus"][..], &["--out"], &["--ranks", "many"]] {
            let out = run(bin, args);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{bin} {args:?}");
        }
    }
}

#[test]
fn help_exits_0() {
    for bin in BINS {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"), "{bin}");
    }
}

#[test]
fn an_unknown_artifact_names_the_valid_ones() {
    let out = run(BINS[0], &["--artifact", "table99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("table99") && stderr.contains("ablations"), "{stderr}");
    assert!(out.stdout.is_empty(), "ran before refusing: {}", String::from_utf8_lossy(&out.stdout));
}
