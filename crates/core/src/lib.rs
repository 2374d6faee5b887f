//! Parallel formulations of the Barnes–Hut method — the paper's primary
//! contribution (system **S6** in `DESIGN.md`).
//!
//! Three formulations, all built on the *function-shipping* paradigm (§3.2):
//! particle coordinates travel to the processor that owns a subtree, the
//! accumulated potential/force travels back, and tree data never moves.
//!
//! * **SPSA** (§3.3.1) — static `c×c` domain clusters, gray-code modular
//!   assignment to a hypercube; load balance by oversubscription.
//! * **SPDA** (§3.3.2) — the same static clusters, reassigned each time-step
//!   as contiguous runs of the Morton ordering with ≈`W/p` measured load
//!   each.
//! * **DPDA** (§3.3.3) — costzones on message passing: per-node interaction
//!   counts summed up the tree, load boundaries `iW/p` located by in-order
//!   traversal, particles exchanged with one all-to-all personalized
//!   communication.
//!
//! Module map:
//!
//! * [`domain`] — the static `c×c` cluster grid and particle↦cluster binning.
//! * [`partition`] — the unified [`partition::Partition`] (branch nodes,
//!   node/particle ownership) that the force engine consumes; builders for
//!   cluster-based schemes and for costzones.
//! * [`branch`] — branch-node key lookup by binary search of a sorted table
//!   (§4.2.3's second scheme).
//! * [`evalcore`] — ownership-aware local traversal + remote-subtree service
//!   evaluation, with the paper's flop accounting.
//! * [`funcship`] — the function-shipping force computation as a BSP
//!   [`bhut_machine::Program`]: request bins (default 100 particles), one
//!   outstanding bin per destination pair, reply accumulation.
//! * [`dataship`] — the data-shipping comparator: communication-volume and
//!   time model for the owner-computes paradigm (§4.2).
//! * [`merge`] — distributed tree construction accounting: hierarchical
//!   (non-replicated) merge and the all-to-all broadcast of top levels
//!   (§3.1).
//! * [`balance`] — the three assignment strategies and their per-iteration
//!   rebalancing costs.
//! * [`driver`] — one simulated time-step end-to-end, with the Table-3 phase
//!   breakdown.
//! * [`kruskal`] — the Kruskal–Weiss completion-time model of §4.1.

#![forbid(unsafe_code)]

pub mod balance;
pub mod branch;
pub mod dataship;
pub mod domain;
pub mod driver;
pub mod evalcore;
pub mod funcship;
pub mod kruskal;
pub mod merge;
pub mod partition;

pub use balance::Scheme;
pub use domain::ClusterGrid;
pub use driver::{IterationOutcome, ParallelSim, PhaseTimes, SimConfig};
pub use partition::Partition;
