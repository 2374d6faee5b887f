//! S14 — the real multi-process backend.
//!
//! Everything before this crate *models* the distributed machine: the
//! virtual-clock simulator charges collective costs against a topology and
//! predicts per-phase time shares. This crate runs the same three
//! formulations — SPSA, SPDA, DPDA — over actual OS processes joined by
//! Unix-domain sockets, emits the same [`bhut_obs::StepProfile`] schema
//! from each rank, and so puts *measured* phase shares in the same table
//! as the simulator's predictions (`proc_compare` in `bhut-bench` writes
//! the comparison the CI gate consumes).
//!
//! Layering:
//!
//! * [`wire`] — length-prefixed frames and bit-exact binary encodings.
//! * [`transport`] — the [`transport::Transport`] trait with two
//!   implementations: in-process loopback ([`transport::local_mesh`]) and
//!   the socket mesh ([`transport::SocketMesh`]). All higher layers are
//!   generic over it, so tests drive the full stack from threads and the
//!   launcher drives the identical stack from processes.
//! * [`collectives`] — broadcast / all-gather / reduce / bin exchange /
//!   barrier, deadlock-free and rank-order deterministic.
//! * [`rank`] — the per-rank bulk-synchronous step loop
//!   ([`rank::run_rank`]).
//! * [`launch`] — parent-side process orchestration
//!   ([`launch::Launcher`]) and the child hook ([`launch::maybe_child`]).

#![forbid(unsafe_code)]

pub mod ckpt;
pub mod collectives;
pub mod fault;
pub mod launch;
pub mod rank;
#[cfg(test)]
mod scratch;
pub mod transport;
pub mod wire;

pub use fault::{FaultAction, FaultKind, FaultMode, FaultPlan, FaultyTransport, Trigger};
pub use launch::{
    degraded_size, maybe_child, Launcher, RecoveryEvent, RecoveryPolicy, RunResult,
    SupervisedResult,
};
pub use rank::{run_rank, ProcConfig, RankOutcome};
pub use transport::{local_mesh, Backoff, ProcError, SocketMesh, Transport};
