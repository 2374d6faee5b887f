//! The service's headline correctness contract: a field query at a
//! particle's position (with that particle's skip id) returns *the
//! simulation's own force* for the step the epoch snapshots — ≤ 1e-12
//! relative — including when the simulation itself is running masked
//! (active-set) force sweeps.

use std::sync::Arc;

use bhut_geom::{Particle, Vec3};
use bhut_serve::{EpochStore, FieldQuery, KernelPrecision, QueryTarget};
use bhut_threads::{Partitioning, ThreadConfig, ThreadSim};
use bhut_timestep::ActiveSet;

fn cloud(n: usize, seed: u64) -> Vec<Particle> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            // Two off-center clumps plus a diffuse halo: deep tree, plenty
            // of mixed-MAC frontier.
            let c = if i % 3 == 0 { Vec3::new(0.6, 0.1, -0.4) } else { Vec3::new(-0.5, -0.2, 0.3) };
            let r = if i % 7 == 0 { 1.0 } else { 0.15 };
            Particle::new(
                i as u32,
                0.2 + next(),
                c + Vec3::new(
                    (next() * 2.0 - 1.0) * r,
                    (next() * 2.0 - 1.0) * r,
                    (next() * 2.0 - 1.0) * r,
                ),
                Vec3::ZERO,
            )
        })
        .collect()
}

fn config(threads: usize) -> ThreadConfig {
    ThreadConfig {
        threads,
        alpha: 0.6,
        degree: 0,
        eps: 1e-4,
        leaf_capacity: 16,
        partitioning: Partitioning::MortonZones,
        ..ThreadConfig::default()
    }
}

/// Run the simulation force sweep and the query engine over the same
/// epoch; return (sweep accels, sweep potentials, query samples).
fn sweep_and_query(
    n: usize,
    threads: usize,
    group_size: usize,
) -> (Vec<Vec3>, Vec<f64>, Vec<bhut_serve::FieldSample>) {
    let particles = cloud(n, 42);
    let mut sim = ThreadSim::new(config(threads));
    let result = sim.compute_forces(&particles);

    let store = EpochStore::new();
    let tree = sim.build_tree(&particles);
    store.publish(tree, particles.clone(), 0.6, 1e-4);
    let epoch = store.pin().expect("published");

    let targets: Vec<QueryTarget> = particles.iter().map(|p| (p.pos, p.id)).collect();
    let mut engine = FieldQuery::new(group_size);
    let mut out = Vec::new();
    engine.eval(&epoch, &targets, KernelPrecision::F64, &mut out);
    (result.accels, result.potentials, out)
}

#[test]
fn query_at_particle_positions_matches_force_sweep_f64() {
    for &(threads, group) in &[(1usize, 16usize), (2, 16), (2, 7)] {
        let (accels, potentials, out) = sweep_and_query(1500, threads, group);
        for k in 0..accels.len() {
            let scale = accels[k].norm().max(1.0);
            assert!(
                (out[k].acc - accels[k]).norm() <= 1e-12 * scale,
                "threads={threads} group={group} particle {k}: query {:?} vs sweep {:?}",
                out[k].acc,
                accels[k]
            );
            assert!(
                (out[k].phi - potentials[k]).abs() <= 1e-12 * potentials[k].abs().max(1.0),
                "threads={threads} group={group} particle {k} potential"
            );
        }
    }
}

#[test]
fn active_set_sweeps_agree_with_queries_for_the_active_particles() {
    let particles = cloud(900, 42);
    let mut sim = ThreadSim::new(config(2));
    // Activate a third of the particles; the tree still contains all of
    // them as sources, exactly like a block-timestep substep.
    let mask: Vec<bool> = (0..particles.len()).map(|i| i % 3 == 0).collect();
    let active = ActiveSet::from_mask(mask.clone());
    let result = sim.compute_forces_active(&particles, &active);

    let store = EpochStore::new();
    store.publish(sim.build_tree(&particles), particles.clone(), 0.6, 1e-4);
    let epoch = store.pin().unwrap();
    let targets: Vec<QueryTarget> = particles
        .iter()
        .enumerate()
        .filter(|(i, _)| mask[*i])
        .map(|(_, p)| (p.pos, p.id))
        .collect();
    let mut engine = FieldQuery::new(16);
    let mut out = Vec::new();
    engine.eval(&epoch, &targets, KernelPrecision::F64, &mut out);
    let active_indices: Vec<usize> = (0..particles.len()).filter(|&i| mask[i]).collect();
    for (k, &i) in active_indices.iter().enumerate() {
        let scale = result.accels[i].norm().max(1.0);
        assert!(
            (out[k].acc - result.accels[i]).norm() <= 1e-12 * scale,
            "active particle {i}: query matches masked sweep"
        );
    }
}

#[test]
fn epoch_snapshot_is_immune_to_later_particle_mutation() {
    // The service contract: an epoch pins *state*, not references into the
    // simulation's mutable arrays. Mutating the source particles after
    // publish must not change query results.
    let mut particles = cloud(400, 42);
    let mut sim = ThreadSim::new(config(1));
    let reference = sim.compute_forces(&particles);

    let store = Arc::new(EpochStore::new());
    store.publish(sim.build_tree(&particles), particles.clone(), 0.6, 1e-4);
    let epoch = store.pin().unwrap();
    let targets: Vec<QueryTarget> = particles.iter().map(|p| (p.pos, p.id)).collect();

    // Scramble the live array (what the next simulation step would do).
    for p in &mut particles {
        p.pos += Vec3::new(10.0, -3.0, 7.0);
        p.mass *= 2.0;
    }

    let mut engine = FieldQuery::new(16);
    let mut out = Vec::new();
    engine.eval(&epoch, &targets, KernelPrecision::F64, &mut out);
    for (k, sample) in out.iter().enumerate() {
        assert!(
            (sample.acc - reference.accels[k]).norm()
                <= 1e-12 * reference.accels[k].norm().max(1.0),
            "epoch {k} unaffected by post-publish mutation"
        );
    }
}
