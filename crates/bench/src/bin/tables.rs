//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p bhut-bench --bin tables -- [--artifact table1,figure9,...]
//!     [--scale 0.02] [--full] [--out results/]
//! ```
//!
//! With no `--artifact`, every table, figure and analysis runs in paper
//! order. `--scale` shrinks the large instances (default 0.02 ≈ tens of
//! thousands of particles, minutes of wall-clock); `--full` runs the paper's
//! exact particle counts. Output goes to stdout and, with `--out`, to one
//! text file per artifact (plus `figure8.csv`). An unknown flag or artifact
//! name prints the usage and exits 2 before anything runs.

use bhut_bench::cli::Cli;
use bhut_bench::tables::{run_artifact, ARTIFACTS};
use std::fs;
use std::path::PathBuf;

struct Args {
    artifacts: Vec<String>,
    scale: f64,
    out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut cli = Cli::from_env(format!(
        "usage: tables [--artifact names] [--table N] [--figure N] [--scale F | --full] \
         [--out DIR]\nartifacts: {}",
        ARTIFACTS.join(", ")
    ));
    let mut args = Args { artifacts: Vec::new(), scale: 0.02, out: None };
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--artifact" | "--table" | "--figure" | "--analysis" => {
                for a in cli.value(&flag).split(',') {
                    // allow bare numbers after --table / --figure
                    let name = match (flag.as_str(), a.parse::<u32>()) {
                        ("--table", Ok(n)) => format!("table{n}"),
                        ("--figure", Ok(n)) => format!("figure{n}"),
                        _ => a.to_string(),
                    };
                    if !ARTIFACTS.contains(&name.as_str()) {
                        cli.fail(format!("unknown artifact {name:?}"));
                    }
                    args.artifacts.push(name);
                }
            }
            "--scale" => {
                args.scale = cli.parse("--scale");
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    cli.fail(format!(
                        "--scale {} is out of range: it must be in (0, 1]",
                        args.scale
                    ));
                }
            }
            "--full" => args.scale = 1.0,
            "--out" => args.out = Some(PathBuf::from(cli.value("--out"))),
            other => cli.fail(format!("unknown argument {other:?}")),
        }
    }
    if args.artifacts.is_empty() {
        args.artifacts = ARTIFACTS.iter().map(|s| s.to_string()).collect();
    }
    args
}

fn main() {
    let args = parse_args();
    if let Some(dir) = &args.out {
        fs::create_dir_all(dir).expect("create output dir");
    }
    println!(
        "# Barnes-Hut parallel formulations - experiment regeneration (scale = {})\n",
        args.scale
    );
    for name in &args.artifacts {
        let start = std::time::Instant::now();
        let (text, csv) = run_artifact(name, args.scale);
        println!("{text}");
        println!("[{name} regenerated in {:.1}s wall-clock]\n", start.elapsed().as_secs_f64());
        if let Some(dir) = &args.out {
            bhut_sim::write_text_atomically(&dir.join(format!("{name}.txt")), &text)
                .expect("write artifact");
            if let Some(csv) = csv {
                bhut_sim::write_text_atomically(&dir.join(format!("{name}.csv")), &csv)
                    .expect("write csv");
            }
        }
    }
}
