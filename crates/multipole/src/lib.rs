//! Degree-k multipole expansions for treecodes (substrate **S4**).
//!
//! §5.2 of the paper raises the accuracy of the simulation by replacing the
//! center-of-mass (monopole) approximation with a degree-k series for the
//! gravitational *potential* ("the potential is a scalar quantity and can be
//! conveniently expressed as a series using Legendre's polynomials"; vector
//! forces follow by differentiation). We implement the equivalent Cartesian
//! Taylor form, which offers the identical accuracy/degree trade-off with a
//! simpler translation operator:
//!
//! * **P2M** — moments `M_a = Σ_j m_j (y_j − c)^a` for multi-indices
//!   `|a| ≤ k` ([`Expansion::from_particles`]),
//! * **M2M** — binomial shift of moments to a new center
//!   ([`Expansion::translate`]), used by the upward pass,
//! * **M2P** — evaluation of potential *and* acceleration at a target via
//!   the Taylor tensors of `1/r` ([`Expansion::eval`]).
//!
//! [`flops`] carries the paper's machine model (§5.2.1): 14 flops per MAC,
//! `13 + 16k²` flops per particle–cluster interaction — the numbers the
//! simulated-machine experiments charge per event.

#![forbid(unsafe_code)]

pub mod expansion;
pub mod flops;
pub mod multiindex;
pub mod taylor;
pub mod tree_ext;

pub use expansion::{Expansion, MAX_DEGREE};
pub use flops::{interaction_flops, series_words_3d, MAC_FLOPS};
pub use multiindex::MultiIndexSet;
pub use tree_ext::MultipoleTree;
