//! A simulated message-passing multicomputer (substrate **S5**).
//!
//! The paper's experiments ran on a 256-processor nCUBE2 (hypercube) and a
//! 256-processor CM5 (fat tree). This crate substitutes a deterministic
//! machine simulator so the parallel formulations can be executed, validated
//! and *timed* on a single host:
//!
//! * [`topology`] — interconnects with per-pair hop counts: [`Hypercube`],
//!   [`Mesh2D`], [`FatTree`] (CM5-like), [`Crossbar`].
//! * [`cost`] — the classic `t_s` / `t_h` / `t_w` / `t_flop` linear model
//!   with presets for the nCUBE2 and CM5 eras.
//! * [`bsp`] — a superstep (BSP) execution engine: virtual processors run
//!   [`Program`]s, exchange typed messages, and accumulate *virtual clocks*;
//!   messages sent in superstep `t` are delivered at superstep `t+1` with a
//!   latency of `t_s + hops·t_h + words·t_w`. Execution is sequential and
//!   fully deterministic, so every experiment is replayable.
//! * [`collectives`] — the two collective operations the formulations lean
//!   on (§3: "coupled with two collective communication operations"):
//!   all-to-all broadcast and all-to-all personalized exchange, plus
//!   reductions/scans, with the cost formulas of Kumar, Grama, Gupta &
//!   Karypis \[20\] applied per topology.
//! * [`stats`] — run reports: per-processor clocks, flops, message and word
//!   counts, parallel time, efficiency, load imbalance.
//! * [`phases`] — the canonical phase grouping that folds a simulated
//!   profile and a real multi-process profile onto one comparable
//!   [`PhaseShares`] table (the simulator-vs-reality CI gate's metric).
//!
//! The substitution preserves the paper's observable behaviour: *who wins
//! and by how much* is a function of work distribution and communication
//! volume, both of which are computed exactly; only the constants come from
//! the cost model instead of silicon.

#![forbid(unsafe_code)]

pub mod bsp;
pub mod collectives;
pub mod cost;
pub mod phases;
pub mod stats;
pub mod topology;

pub use bsp::{Ctx, Envelope, Machine, Program, Status};
pub use collectives::Collectives;
pub use cost::CostModel;
pub use phases::PhaseShares;
pub use stats::RunReport;
pub use topology::{Crossbar, FatTree, Hypercube, Mesh2D, Topology};
