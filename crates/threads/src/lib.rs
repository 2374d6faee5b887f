//! A real shared-memory parallel Barnes–Hut executor (system **S7**).
//!
//! The paper targets message-passing machines; its intellectual sibling for
//! shared address spaces is the Costzones scheme of Singh et al. \[13\], which
//! SPDA/DPDA adapt to message passing. This crate closes the loop: the same
//! tree, MAC, and multipole machinery executed by *actual* OS threads
//! (`std::thread::scope` workers — no unsafe, no data races by
//! construction), with one thread split, costzones: each sweep cuts the
//! Morton-ordered walk units into one contiguous range per thread of about
//! equal measured per-particle work from the previous evaluation (the
//! shared-memory analogue of DPDA; by population before anything is
//! measured). A worker that empties its range takes the others' units off
//! the back (tail stealing, `pool::ZoneCursors`), so a sweep ends when the
//! work does, not when the slower core does; work is still counted per
//! range. [`ThreadConfig::partitioning`] has that one value left,
//! [`Partitioning::MortonZones`].
//!
//! The degree picks how a unit's members are evaluated, and nothing else
//! does: the monopole takes the group sweep
//! ([`bhut_tree::group::GroupSweep`] per worker, then the lane replay and
//! the f64 slab kernels), degree > 0 walks per member through
//! `MultipoleTree::eval`. Every degree runs the same unit schedule and
//! writes its rows in place, in tree order, into the outputs; one in-place
//! permutation after the join puts them in id order. The per-target walk
//! ([`bhut_tree::traverse`]) is the oracle the tests hold both to;
//! [`ThreadConfig::eval_mode`] and [`ThreadConfig::precision`] each have
//! one value left.
//!
//! On a many-core host this delivers real speedups; the test-suite checks
//! correctness and work accounting rather than wall-clock (CI machines may
//! have a single core).

#![forbid(unsafe_code)]

pub mod executor;
pub mod pool;

pub use bhut_tree::KernelPrecision;
pub use executor::{EvalMode, ForceResult, Partitioning, ThreadConfig, ThreadSim};
