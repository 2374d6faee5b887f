//! The sequential Barnes–Hut treecode (substrate **S3**).
//!
//! §2 of the paper: the method "works in two phases: the tree construction
//! phase and the force computation phase". This crate implements both for a
//! single address space, plus the `O(n²)` direct-summation baseline that
//! defines the accuracy reference for the fractional-error experiments
//! (Tables 6 and 7).
//!
//! * [`build`] — oct-tree construction: a cache-friendly bulk build over
//!   Morton-sorted particles (with *box collapsing*, which restores the
//!   `O(n log n)` bound for adversarial inputs) and an incremental
//!   insertion build (the "particle injection" formulation of §3.1 used by
//!   the distributed construction).
//! * [`mac`] — the multipole acceptance criterion: the Barnes–Hut
//!   α-criterion, per target, bracketed over a bucket of targets, and for a
//!   batch of sibling nodes at once.
//! * [`traverse`] — force/potential evaluation with per-node interaction
//!   counting (the unit of load for the paper's balancing schemes, §3.3).
//! * [`direct`] — exact `O(n²)` summation.

pub mod build;
pub mod direct;
pub mod group;
pub mod kernel;
pub mod mac;
pub mod node;
pub mod replay;
pub mod traverse;

pub use bhut_simd::KernelPrecision;
pub use build::BuildParams;
pub use group::{
    eval_gathered_targets, gather_group, gather_group_targets, leaf_schedule, InteractionBuffers,
    QueryTarget,
};
pub use mac::{BarnesHutMac, GroupClass, NodeBatch, MAC_BATCH};
pub use node::{Node, NodeId, Tree, NIL};
pub use traverse::{accel_on, potential_at, Interaction, TraversalStats};
