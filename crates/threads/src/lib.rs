//! A real shared-memory parallel Barnes–Hut executor (system **S7**).
//!
//! The paper targets message-passing machines; its intellectual sibling for
//! shared address spaces is the Costzones scheme of Singh et al. \[13\], which
//! SPDA/DPDA adapt to message passing. This crate closes the loop: the same
//! tree, MAC, and multipole machinery executed by *actual* OS threads
//! (crossbeam scoped threads — no unsafe, no data races by construction),
//! with the partitioning strategies the paper discusses:
//!
//! * [`Partitioning::StaticBlocks`] — fixed equal particle counts (the naive
//!   baseline whose imbalance motivates §3.3),
//! * [`Partitioning::MortonZones`] — costzones over the Morton-ordered
//!   particle sequence using measured per-particle work from the previous
//!   step (the shared-memory analogue of DPDA),
//! * [`Partitioning::SelfScheduling`] — dynamic block self-scheduling off a
//!   shared atomic counter (what a work-stealing runtime would do).
//!
//! The degree picks how forces are evaluated, and nothing else does: the
//! monopole takes the group sweep ([`bhut_tree::group::GroupSweep`] per
//! worker, then the lane replay and the f64 slab kernels), degree > 0 walks
//! per target through `MultipoleTree::eval`. The per-target walk
//! ([`bhut_tree::traverse`]) is the oracle the tests hold both to;
//! [`ThreadConfig::eval_mode`] and [`ThreadConfig::precision`] each have
//! one value left.
//!
//! On a many-core host this delivers real speedups; the test-suite checks
//! correctness and work accounting rather than wall-clock (CI machines may
//! have a single core).

pub mod executor;
pub mod pool;

pub use bhut_tree::KernelPrecision;
pub use executor::{EvalMode, ForceResult, Partitioning, ThreadConfig, ThreadSim};
