//! Seeded input generation: everything a workload feeds the program comes
//! from `--seed` through here or through `PlummerSpec.seed`.

use bhut_geom::{plummer, Particle, PlummerSpec, Vec3};
use bhut_serve::QueryTarget;

/// splitmix64 — the query-point and target-sampling stream.
pub struct SplitMix(u64);

impl SplitMix {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03),
        )
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// The Plummer sphere every workload starts from.
pub fn initial_conditions(n: usize, seed: u64) -> Vec<Particle> {
    plummer(PlummerSpec { n, seed, ..Default::default() }).particles
}

/// `count` query points inside the cloud's core cube `[-1, 1]³`, none of
/// them a particle (no skip id).
pub fn query_points(rng: &mut SplitMix, count: usize) -> Vec<QueryTarget> {
    (0..count)
        .map(|_| {
            let mut c = || rng.unit() * 2.0 - 1.0;
            (Vec3::new(c(), c(), c()), u32::MAX)
        })
        .collect()
}

/// `count` distinct particle indices below `n` (all of them when `n` is
/// smaller), in draw order.
pub fn sample_indices(rng: &mut SplitMix, n: usize, count: usize) -> Vec<usize> {
    let mut taken = vec![false; n];
    let mut out = Vec::with_capacity(count.min(n));
    while out.len() < count.min(n) {
        let i = rng.below(n);
        if !taken[i] {
            taken[i] = true;
            out.push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = query_points(&mut SplitMix::new(1, 0), 16);
        let b = query_points(&mut SplitMix::new(1, 0), 16);
        let c = query_points(&mut SplitMix::new(2, 0), 16);
        let d = query_points(&mut SplitMix::new(1, 1), 16);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(a
            .iter()
            .all(|(p, skip)| p.x.abs() <= 1.0 && p.y.abs() <= 1.0 && *skip == u32::MAX));
        assert_eq!(initial_conditions(64, 5), initial_conditions(64, 5));
        assert_ne!(initial_conditions(64, 5), initial_conditions(64, 6));
    }

    #[test]
    fn sampled_indices_are_distinct_and_in_range() {
        let ids = sample_indices(&mut SplitMix::new(3, 9), 100, 40);
        assert_eq!(ids.len(), 40);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40);
        assert!(ids.iter().all(|&i| i < 100));
        assert_eq!(sample_indices(&mut SplitMix::new(3, 9), 5, 40).len(), 5);
    }
}
