//! The experiment harness (system **S9**): regenerates every table and
//! figure of the paper's evaluation (§5).
//!
//! Each `table*`/`figure*` function runs the same protocol the paper
//! describes — generate the named dataset, warm the scheme up for a couple
//! of time-steps so assignments settle, then time one iteration including
//! one load-balance cycle — and returns a [`text::Table`] with the same rows
//! the paper prints. `cargo run -p bhut-bench --bin tables` drives them,
//! and its `ablations` artifact weighs bin size, SPDA's cluster curve and
//! the interconnect in the same simulated seconds. Two gate bins share
//! [`gate`]: `proc_compare` (simulator prediction vs a real multi-process
//! run) and `chaos` (fault injection and recovery); all three parse flags
//! through [`cli`]. Wall-clock speed of the step, the served query and the
//! mesh is measured by the `spine/` package, not here; the one bench,
//! `benches/overhead.rs`, times only the phase instrumentation.
//!
//! Absolute numbers come from the simulated machine's cost model
//! (nCUBE2/CM5 presets); the reproduction target is the *shape*: which
//! scheme wins, how times scale with `p`, `k`, α and cluster count, where
//! efficiency rises and falls.

#![forbid(unsafe_code)]

pub mod cli;
pub mod gate;
pub mod runner;
pub mod tables;
pub mod text;

pub use runner::{run_once, RunRecord, RunSpec, TargetMachine};
pub use text::Table;
