//! Geometric primitives and particle workloads for Barnes–Hut n-body
//! simulation.
//!
//! This crate is substrate **S1** of the reproduction (see `DESIGN.md`): it
//! provides the 3-D vector/box math the treecode is built on, the particle
//! representation, and seeded samplers for the particle distributions used in
//! the paper's evaluation — Plummer models and (multi-)Gaussian clusters of
//! varying irregularity — plus a registry of the paper's named problem
//! instances (`g_160535`, `p_353992`, `s_10g_a`, ...).

#![forbid(unsafe_code)]

pub mod aabb;
pub mod datasets;
pub mod distributions;
pub mod particle;
pub mod vec3;

pub use aabb::Aabb;
pub use datasets::{dataset, dataset_domain, dataset_scaled, DatasetSpec, PAPER_DATASETS};
pub use distributions::{
    multi_gaussian, plummer, single_gaussian, uniform_cube, GaussianSpec, PlummerSpec,
};
pub use particle::{Particle, ParticleSet};
pub use vec3::Vec3;
