//! Spatial orderings for parallel treecodes (substrate **S2**).
//!
//! Three ingredients of the paper's load-balancing machinery live here:
//!
//! * [`morton`] — Morton (Z-curve) keys in 2-D and 3-D. SPDA (§3.3.2) orders
//!   the static clusters along the Morton curve built from *cluster*
//!   coordinates (unlike Warren & Salmon, who sort per-particle keys).
//! * [`gray`] — gray-code tables and the modular subdomain→processor mapping
//!   of SPSA (§3.3.1): subdomain `(i, j)` goes to processor
//!   `(gray(i, d/2), gray(j, d/2))` on a `d`-dimensional hypercube.
//! * [`hilbert`] — the Peano–Hilbert ordering used by the Costzones scheme of
//!   Singh et al., SPDA's alternative cluster order (`Curve::Hilbert`; the
//!   `ablations` artifact of `tables` compares the two curves).
//! * [`keys`] — Warren–Salmon style *node path keys* (level-prefixed Morton
//!   paths); the function-shipping protocol stamps each branch node with one
//!   so remote processors can name it in O(1).

#![forbid(unsafe_code)]

pub mod gray;
pub mod hilbert;
pub mod keys;
pub mod morton;

pub use gray::{gray_code, gray_code_inverse, subdomain_to_processor_2d};
pub use hilbert::{hilbert_index_2d, hilbert_xy_from_index_2d};
pub use keys::NodeKey;
pub use morton::{decode_2d, decode_3d, encode_2d, encode_3d};
