//! The accuracy metric shared by every workload.

use crate::gen::{sample_indices, SplitMix};
use crate::stats::median;
use bhut_geom::{Particle, Vec3};
use bhut_tree::direct::{accel_direct, fractional_error_vec};

/// Targets (particles or query points) each run compares with the direct sum.
pub const ERR_TARGETS: usize = 4096;
/// They are judged in groups of this size.
const GROUP: usize = 256;

/// The paper's fractional error `‖a_tree − a‖ / ‖a‖` (§5.2.2), taken over
/// each group of 256 targets, and the median of the groups.
///
/// Over all targets at once the norm is at the mercy of the seed: one target
/// in a tight pair has an acceleration that swamps the denominator (seed 4
/// at n = 50 000 reads 3e-4 instead of 4e-3). The median group repeats
/// within 5 % from seed to seed.
pub fn force_frac_err(approx: &[Vec3], exact: &[Vec3]) -> f64 {
    assert_eq!(approx.len(), exact.len());
    let groups: Vec<f64> = approx
        .chunks(GROUP)
        .zip(exact.chunks(GROUP))
        .map(|(a, e)| fractional_error_vec(a, e))
        .collect();
    median(&groups)
}

/// The seeded particle indices a run checks (the same stream for every
/// workload, so equal states give equal errors).
pub fn particle_targets(seed: u64, n: usize) -> Vec<usize> {
    sample_indices(&mut SplitMix::new(seed, 0xE44), n, ERR_TARGETS)
}

/// [`force_frac_err`] of `approx` against the direct sum over `particles` at
/// `targets`: a position and, for a target that is itself a particle, the id
/// to leave out of the sum.
pub fn err_vs_direct(
    particles: &[Particle],
    targets: impl Iterator<Item = (Vec3, Option<u32>)>,
    approx: &[Vec3],
    eps: f64,
) -> f64 {
    let exact: Vec<Vec3> =
        targets.map(|(pos, skip)| accel_direct(particles, pos, skip, eps)).collect();
    force_frac_err(approx, &exact)
}

/// The bit patterns of a vector, for bitwise-equality checks (`==` on floats
/// would call `-0.0` and `0.0` equal and NaN unequal to itself).
pub fn bits(v: Vec3) -> [u64; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

pub fn same_bits(a: &[Vec3], b: &[Vec3]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(*x) == bits(*y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_wild_group_does_not_move_the_median() {
        let exact: Vec<Vec3> =
            (0..3 * GROUP).map(|i| Vec3::new(1.0 + i as f64, 0.0, 0.0)).collect();
        let mut approx: Vec<Vec3> = exact.iter().map(|e| *e * 1.001).collect();
        let calm = force_frac_err(&approx, &exact);
        assert!((calm - 1e-3).abs() < 1e-9, "{calm}");
        approx[0] = Vec3::new(1e9, 0.0, 0.0);
        assert_eq!(force_frac_err(&approx, &exact), calm);
    }
}
