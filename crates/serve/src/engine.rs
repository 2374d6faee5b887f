//! The batched field-query engine: force/potential/density at arbitrary
//! points, evaluated against a frozen [`TreeEpoch`].
//!
//! Query points arrive in whatever order the client sent them. The engine
//! Morton-sorts the batch inside the epoch's root cell and cuts it into
//! `group_size` pseudo-leaf buckets, so spatially coherent points share one
//! grouped tree walk each — the same amortization the simulation's force
//! sweep gets from real leaves, but for points the tree has never seen.
//! Each bucket goes through [`gather_group_targets`] →
//! [`eval_gathered_targets`], which the
//! tree crate guarantees (and tests) to be per-point identical to the
//! individual walk for *any* bucketing, so results do not depend on batch
//! composition or on how the scheduler coalesced requests. The epoch holds
//! its particles in tree order, so both read a node's particles from one
//! contiguous slice.

use bhut_geom::{Aabb, Vec3};
use bhut_tree::build::morton_code;
use bhut_tree::{
    eval_gathered_targets, gather_group_targets, BarnesHutMac, InteractionBuffers, KernelPrecision,
    QueryTarget, TraversalStats,
};

use crate::epoch::TreeEpoch;

/// Field value at one query point: gravitational acceleration and
/// potential. For density queries only `phi` is populated (with the local
/// mass density estimate) and `acc` is zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FieldSample {
    pub acc: Vec3,
    pub phi: f64,
}

/// A reusable batched evaluator. Owns the gather slabs and scratch
/// permutation, so a long-lived worker allocates only on high-water-mark
/// growth (and [`InteractionBuffers::maybe_shrink`] caps that).
pub struct FieldQuery {
    group_size: usize,
    buf: InteractionBuffers,
    order: Vec<u32>,
    bucket: Vec<QueryTarget>,
}

impl FieldQuery {
    /// `group_size` is the pseudo-leaf bucket size — the number of query
    /// points sharing one gather. Every bucket is gathered from the root, so
    /// small buckets pay that walk again and again; a bucket of
    /// [`bhut_tree::replay::REPLAY_LANES`] (32) points replays its Mixed
    /// frontier as one lane chunk, and bigger ones as several. One batch of
    /// uniform points in the core of a 50k Plummer sphere (leaf capacity 8,
    /// α = 0.67), gather + eval in ms, range of the medians of two rounds of
    /// 10 × 64 batches, one thread on a 2-vCPU AVX-512 Xeon:
    ///
    /// | bucket | 1 | 4 | 8 | 16 | 32 | 64 |
    /// |---|---|---|---|---|---|---|
    /// | 512 points, tree-ordered epoch | 8.42–8.68 | 3.33–3.41 | 2.36–2.55 | 1.89–1.93 | 1.74–1.81 | 1.60–1.63 |
    /// | 512 points, caller-ordered epoch | 9.28–9.35 | 4.06–4.19 | 2.77–2.88 | 2.31–2.37 | 2.03–2.10 | 1.97–2.03 |
    ///
    /// On the 256-point batches the served workload sends (three rounds,
    /// tree-ordered) 16 / 32 / 48 / 64 / 128 read 1.11–1.26 / 1.01–1.08 /
    /// 1.06–1.13 / 1.01–1.04 / 0.99–1.09 ms: past 32 the buckets tie, so
    /// [`crate::ServeConfig`] defaults to one replay chunk per gather.
    /// Measured and not worth keeping, on tree-ordered epochs with 512-point
    /// batches where 32-point Morton buckets took 1.69 ms: Hilbert-ordered
    /// buckets (1.66 ms, ×0.98, not worth a second curve), and buckets cut
    /// at Morton-prefix boundaries (2.39 ms with at most 32 points, 1.99 ms
    /// with at most 64).
    pub fn new(group_size: usize) -> Self {
        FieldQuery {
            group_size: group_size.max(1),
            buf: InteractionBuffers::default(),
            order: Vec::new(),
            bucket: Vec::new(),
        }
    }

    /// Evaluate acceleration and potential at every target, writing
    /// `out[k]` for `points[k]` (original order; the internal Morton sort
    /// is invisible to callers). A target's skip id (`u32::MAX` = none)
    /// masks that particle out of the near field, exactly as the
    /// simulation's own sweep excludes self-interaction — querying at a
    /// particle's position with its id reproduces the member force.
    ///
    /// Returns the traversal stats summed over the batch. `_precision` is
    /// [`KernelPrecision::F64`], its only value; the parameter is removed by
    /// ROADMAP direction 3(e).
    pub fn eval(
        &mut self,
        epoch: &TreeEpoch,
        points: &[QueryTarget],
        _precision: KernelPrecision,
        out: &mut Vec<FieldSample>,
    ) -> TraversalStats {
        out.clear();
        out.resize(points.len(), FieldSample::default());
        let mut stats = TraversalStats::default();
        if points.is_empty() || epoch.tree.is_empty() {
            return stats;
        }
        let mac = BarnesHutMac::new(epoch.alpha);
        let cell = epoch.tree.root_cell;
        self.order.clear();
        self.order.extend(0..points.len() as u32);
        self.order.sort_by_key(|&i| morton_code(&cell, points[i as usize].0));
        let order = std::mem::take(&mut self.order);
        for run in order.chunks(self.group_size) {
            self.bucket.clear();
            self.bucket.extend(run.iter().map(|&i| points[i as usize]));
            let Some(bb) = Aabb::bounding(self.bucket.iter().map(|t| t.0)) else {
                continue;
            };
            gather_group_targets(&epoch.tree, &epoch.particles, &bb, &mac, &mut self.buf);
            let st = eval_gathered_targets(
                &epoch.tree,
                &epoch.particles,
                &self.bucket,
                &mac,
                epoch.eps,
                &self.buf,
                |k, phi, acc, _| {
                    out[run[k] as usize] = FieldSample { acc, phi };
                },
            );
            stats.merge(st);
        }
        self.order = order;
        self.buf.maybe_shrink();
        stats
    }

    /// Local mass-density estimate at each point: the mass of the deepest
    /// tree cell containing the point divided by that cell's volume (the
    /// classic octree density proxy — resolution adapts to the leaf
    /// capacity). Points outside every cell (outside the root node's), or
    /// in an empty tree, read zero. Skip ids are ignored.
    pub fn density(&self, epoch: &TreeEpoch, points: &[QueryTarget], out: &mut Vec<FieldSample>) {
        out.clear();
        out.reserve(points.len());
        for &(p, _) in points {
            let rho = epoch
                .tree
                .locate(p)
                .map(|id| {
                    let n = epoch.tree.node(id);
                    let v = n.cell.volume();
                    if v > 0.0 {
                        n.mass / v
                    } else {
                        0.0
                    }
                })
                .unwrap_or(0.0);
            out.push(FieldSample { acc: Vec3::ZERO, phi: rho });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhut_geom::Particle;
    use bhut_tree::build::{build, build_in_cell};
    use bhut_tree::replay::REPLAY_LANES;
    use bhut_tree::{accel_on, potential_at, BuildParams};

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
                Particle::new(
                    i as u32,
                    0.25 + next(),
                    Vec3::new(next() * 2.0 - 1.0, next() * 2.0 - 1.0, next() * 2.0 - 1.0),
                    Vec3::ZERO,
                )
            })
            .collect()
    }

    fn test_epoch(n: usize, seed: u64) -> TreeEpoch {
        let p = cloud(n, seed);
        let tree = build(&p, BuildParams { leaf_capacity: 8, ..Default::default() });
        TreeEpoch::standalone(1, tree, p, 0.6, 1e-4)
    }

    /// The epoch stores the particles in tree order; every served sample is
    /// still the per-point walk of the caller's tree over the caller's
    /// array, at every bucket size around one replay chunk.
    #[test]
    fn batched_eval_matches_individual_walks_on_the_callers_layout() {
        let particles = cloud(600, 3);
        let tree = build(&particles, BuildParams { leaf_capacity: 8, ..Default::default() });
        let epoch = TreeEpoch::standalone(1, tree.clone(), particles.clone(), 0.6, 1e-4);
        assert_ne!(epoch.particles, particles, "publishing reorders the array");
        let mac = BarnesHutMac::new(epoch.alpha);
        // Off-particle probes plus probes at particle positions (with skip),
        // deliberately interleaved and far from Morton order.
        let mut points: Vec<QueryTarget> = Vec::new();
        for k in 0..200usize {
            let p = particles[(k * 3) % particles.len()];
            if k % 2 == 0 {
                points.push((p.pos + Vec3::new(3e-3, -2e-3, 1e-3), u32::MAX));
            } else {
                points.push((p.pos, p.id));
            }
        }
        let mut ref_stats = TraversalStats::default();
        let reference: Vec<(Vec3, f64)> = points
            .iter()
            .map(|&(pos, skip)| {
                let skip = (skip != u32::MAX).then_some(skip);
                let (acc, st) = accel_on(&tree, &particles, pos, skip, &mac, epoch.eps);
                let (phi, st_phi) = potential_at(&tree, &particles, pos, skip, &mac, epoch.eps);
                assert_eq!(st, st_phi);
                ref_stats.merge(st);
                (acc, phi)
            })
            .collect();
        for group in [1, 7, REPLAY_LANES, REPLAY_LANES + 1, 2 * REPLAY_LANES] {
            let mut out = Vec::new();
            let stats =
                FieldQuery::new(group).eval(&epoch, &points, KernelPrecision::F64, &mut out);
            assert_eq!(out.len(), points.len());
            for (k, &(acc, phi)) in reference.iter().enumerate() {
                assert!(
                    (out[k].acc - acc).norm() <= 1e-12 * acc.norm().max(1.0),
                    "bucket {group}, point {k}: batched {:?} vs individual {acc:?}",
                    out[k].acc,
                );
                assert!((out[k].phi - phi).abs() <= 1e-12 * phi.abs().max(1.0));
            }
            assert_eq!(stats, ref_stats, "bucket {group}: traversal stats");
        }
    }

    #[test]
    fn results_do_not_depend_on_batch_composition() {
        let epoch = test_epoch(400, 7);
        let points: Vec<QueryTarget> = (0..120)
            .map(|k| {
                let p = epoch.particles[(k * 7) % epoch.particles.len()].pos;
                (p + Vec3::new(0.01, 0.02, -0.01), u32::MAX)
            })
            .collect();
        let mut engine = FieldQuery::new(16);
        let mut whole = Vec::new();
        engine.eval(&epoch, &points, KernelPrecision::F64, &mut whole);
        // Same points split across many small batches (what the server's
        // coalescer would produce under different load) must agree exactly.
        let mut pieces = Vec::new();
        for chunk in points.chunks(17) {
            let mut part = Vec::new();
            engine.eval(&epoch, chunk, KernelPrecision::F64, &mut part);
            pieces.extend(part);
        }
        for (k, (a, b)) in whole.iter().zip(&pieces).enumerate() {
            assert!(
                (a.acc - b.acc).norm() <= 1e-12 * a.acc.norm().max(1.0)
                    && (a.phi - b.phi).abs() <= 1e-12 * a.phi.abs().max(1.0),
                "point {k} differs across batchings"
            );
        }
    }

    #[test]
    fn density_is_cell_mass_over_volume_and_zero_outside() {
        let epoch = test_epoch(300, 11);
        let engine = FieldQuery::new(16);
        let inside = epoch.particles[42].pos;
        let outside = Vec3::new(1e6, 1e6, 1e6);
        let mut out = Vec::new();
        engine.density(&epoch, &[(inside, u32::MAX), (outside, u32::MAX)], &mut out);
        let id = epoch.tree.locate(inside).expect("inside point locates");
        let n = epoch.tree.node(id);
        assert!((out[0].phi - n.mass / n.cell.volume()).abs() < 1e-12);
        assert_eq!(out[0].acc, Vec3::ZERO);
        assert_eq!(out[1].phi, 0.0, "outside the root cell density reads zero");
    }

    /// Box collapsing shrinks a tight run's cell to side 1/64 inside the
    /// root's low octant. A point in that octant but outside the run's cell
    /// reads the cell that holds it — the root's 21 unit masses over its unit
    /// volume — not the run's mass over the collapsed cell's volume.
    #[test]
    fn density_beside_a_collapsed_cell_is_the_containing_cells() {
        let run = (0..20).map(|i| {
            let f = i as f64 * 1e-4;
            Vec3::new(0.1 + f, 0.1 + f / 2.0, 0.1 + f / 4.0)
        });
        let particles: Vec<Particle> = run
            .chain([Vec3::splat(0.9)])
            .enumerate()
            .map(|(i, p)| Particle::new(i as u32, 1.0, p, Vec3::ZERO))
            .collect();
        let cube = Aabb::origin_cube(1.0);
        let tree = build_in_cell(&particles, cube, BuildParams::with_leaf_capacity(4));
        let epoch = TreeEpoch::standalone(1, tree, particles, 0.6, 1e-4);
        let mut out = Vec::new();
        FieldQuery::new(16).density(&epoch, &[(Vec3::new(0.4, 0.4, 0.05), u32::MAX)], &mut out);
        assert_eq!(out[0].phi, 21.0);
    }

    #[test]
    fn empty_tree_reads_zero_everywhere() {
        let epoch =
            TreeEpoch::standalone(1, build(&[], BuildParams::default()), Vec::new(), 0.6, 1e-4);
        let mut engine = FieldQuery::new(8);
        let mut out = Vec::new();
        engine.eval(
            &epoch,
            &[(Vec3::ZERO, u32::MAX), (Vec3::new(1.0, 2.0, 3.0), 5)],
            KernelPrecision::F64,
            &mut out,
        );
        assert!(out.iter().all(|s| s.acc == Vec3::ZERO && s.phi == 0.0));
    }
}
