//! Time integration and simulation diagnostics (system **S8**).
//!
//! §2: "one must discretize the system over time intervals and compute the
//! forces between bodies at each snapshot." This crate supplies the
//! discretization: [`Simulation`] advances time with one integrator, the
//! block scheduler [`bhut_timestep::BlockStepper`], whose one-rung case is
//! the global kick-drift-kick **leapfrog** (symplectic, hence suitable for
//! long gravitational runs); energy and momentum diagnostics against the
//! direct-summation reference; and JSON snapshot I/O so long experiments are
//! resumable and the figure data regenerable.

#![forbid(unsafe_code)]

pub mod diagnostics;
pub mod leapfrog;
pub mod simulation;
pub mod snapshot;

// The process mesh's scratch directories for tests, shared by path.
#[cfg(test)]
#[path = "../../proc/src/scratch.rs"]
mod scratch;

pub use diagnostics::{Diagnostics, EnergyReport};
pub use leapfrog::{drift, kick, kick_drift_owned};
pub use simulation::{Simulation, SimulationConfig, StepReport};
pub use snapshot::{
    load_snapshot, save_snapshot, save_snapshot_state, write_atomically, write_positions_csv,
    write_text_atomically, Snapshot,
};
