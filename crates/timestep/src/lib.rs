//! Hierarchical block timesteps with active-set force evaluation (system
//! **S12**).
//!
//! The paper's drivers (and `bhut-threads`'s real executor) recompute the
//! force on **every** particle at one global `dt`, but clustered n-body
//! workloads are dominated by a small set of fast-moving particles in dense
//! cores. This crate supplies the standard remedy — a power-of-two **rung
//! hierarchy** `dt_r = dt_max / 2^r` with per-particle rung assignment from
//! the acceleration criterion `dt = η·√(ε/|a|)` — and the synchronized
//! kick-drift-kick scheduler that drives it:
//!
//! * [`ActiveSet`] — the per-substep set of particles whose forces must be
//!   recomputed; everything else is drifted but acts only as a *source*,
//! * [`BlockConfig`] / [`TimestepMode`] — the rung hierarchy parameters and
//!   the driver-facing global-vs-block switch,
//! * [`BlockStepper`] — the tick-based scheduler: one *big step* spans
//!   `dt_max`, subdivided into `2^max_rung` ticks; a rung-`r` particle is
//!   kicked at its own `dt_r` boundaries while all particles drift together
//!   between consecutive step-completion events. Rung changes happen only at
//!   a particle's own step boundary, and coarsening is restricted to rungs
//!   whose next boundary aligns with the current tick, so every particle's
//!   kicks stay centered on its drifts (the block-timestep sync rule).
//!
//! With every particle pinned to rung 0 the scheduler collapses to exactly
//! one kick-drift-kick of `dt_max` per big step, with the same floating-point
//! expressions as the global-dt leapfrog — the equivalence is bit-exact and
//! tested in `tests/equivalence.rs` at the workspace root — so it is the one
//! integrator: the simulation driver runs a global timestep as
//! `max_rung = 0`.

#![forbid(unsafe_code)]

pub mod active;
pub mod config;
pub mod stepper;

pub use active::ActiveSet;
pub use config::{BlockConfig, TimestepMode, MAX_RUNG};
pub use stepper::{BlockStepStats, BlockStepper};
