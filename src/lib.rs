//! # barnes-hut — scalable parallel formulations of the Barnes–Hut method
//!
//! Facade crate for the reproduction of Grama, Kumar & Sameh (SC'94 /
//! Parallel Computing 24, 1998). Re-exports the whole public API of the
//! workspace so examples and downstream users need a single dependency:
//!
//! * [`geom`] — vectors, boxes, particles, and the paper's workloads (S1)
//! * [`morton`] — Morton/Hilbert orderings and gray-code maps (S2)
//! * [`tree`] — the sequential Barnes–Hut treecode and direct baseline (S3)
//! * [`multipole`] — degree-k Cartesian multipole expansions (S4)
//! * [`machine`] — the simulated message-passing multicomputer (S5)
//! * [`core`] — SPSA / SPDA / DPDA parallel formulations (S6, the paper's
//!   contribution)
//! * [`threads`] — a real shared-memory parallel executor (S7)
//! * [`sim`] — time integration and diagnostics (S8)
//! * [`obs`] — phase-level spans, work counters and step profiles shared by
//!   the real and simulated paths (S11)
//! * [`timestep`] — hierarchical block timesteps with active-set force
//!   evaluation (S12)
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the experiment map.

#![forbid(unsafe_code)]

pub use bhut_core as core;
pub use bhut_geom as geom;
pub use bhut_machine as machine;
pub use bhut_morton as morton;
pub use bhut_multipole as multipole;
pub use bhut_obs as obs;
pub use bhut_sim as sim;
pub use bhut_threads as threads;
pub use bhut_timestep as timestep;
pub use bhut_tree as tree;

/// Workspace version, for embedding in experiment records.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
