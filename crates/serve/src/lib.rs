//! Tree-as-a-service (substrate **S15**): an epoch-pinned batched
//! field-query engine and a concurrent query server over the Barnes–Hut
//! octree.
//!
//! The simulation loop owns tree construction; everything downstream of a
//! finished build is a *read-only* consumer. This crate turns that
//! observation into a service boundary with three layers:
//!
//! * [`epoch`] — immutable [`TreeEpoch`] snapshots (tree + the particle
//!   array it indexes, in tree order + the MAC/softening parameters it was
//!   built under) published through an [`EpochStore`]. The simulation
//!   publishes a new epoch per step; in-flight query batches keep
//!   evaluating against the epoch they pinned, and an epoch is retired
//!   only when the last pin drops.
//! * [`engine`] — [`FieldQuery`], a batched evaluator for force, potential
//!   and density at *arbitrary* points (not just particle positions). Query
//!   points are Morton-sorted into pseudo-leaf buckets (one replay chunk of
//!   32 points by default) so each bucket walks the tree once through the
//!   grouped gather/eval machinery
//!   ([`bhut_tree::gather_group_targets`] /
//!   [`bhut_tree::eval_gathered_targets`]), in the simulation sweep's
//!   arithmetic ([`KernelPrecision::F64`], the only value).
//! * [`server`]/[`client`] — a std-only threaded front end speaking the
//!   length-prefixed [`bhut_wire`] framing over TCP or Unix sockets. A
//!   bounded queue with reject-with-retry-after backpressure feeds
//!   evaluator workers that coalesce small requests into slab-sized
//!   batches; per-request spans and [`bhut_obs::ServeCounters`] surface
//!   through the S11 [`bhut_obs::StepProfile`] schema.

#![forbid(unsafe_code)]

pub mod client;
pub mod engine;
pub mod epoch;
pub mod proto;
pub mod server;

pub use bhut_tree::{KernelPrecision, QueryTarget};
pub use client::ServeClient;
pub use engine::{FieldQuery, FieldSample};
pub use epoch::{EpochStore, TreeEpoch};
pub use proto::{QueryKind, QueryReply, QueryRequest};
pub use server::{ServeConfig, ServeStats, Server};
