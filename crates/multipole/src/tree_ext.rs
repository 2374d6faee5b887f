//! Multipole-augmented trees.
//!
//! [`MultipoleTree`] attaches a degree-k [`Expansion`] to every node of a
//! `bhut_tree::Tree` by the standard upward pass — **P2M** at leaves, **M2M**
//! translation and accumulation at internal nodes — and evaluates potentials
//! and forces through the same MAC-driven traversal as the monopole code.
//! Expansions are centered on each node's center of mass, which zeroes the
//! dipole moment and buys one extra order of accuracy for free.
//!
//! [`MultipoleTree::eval`] is the only degree-k evaluation: one per-target
//! walk, every accepted node through [`Expansion::eval`]. There is no grouped
//! degree-k path — sharing the walk between targets saves only the
//! traversal, and the expansion evaluations, not the traversal, are where a
//! degree-k sweep spends its time.

use crate::expansion::Expansion;
use crate::MAX_DEGREE;
use bhut_geom::{Particle, Vec3};
use bhut_tree::traverse::{
    accel_kernel, for_each_interaction, potential_kernel, Interaction, TraversalStats,
};
use bhut_tree::{BarnesHutMac, Tree};

/// A tree plus per-node multipole expansions of a fixed degree.
#[derive(Debug, Clone)]
pub struct MultipoleTree {
    pub degree: u32,
    /// `expansions[id]` corresponds to `tree.node(id)`; centered at the
    /// node's center of mass.
    pub expansions: Vec<Expansion>,
}

impl MultipoleTree {
    /// Run the upward pass over `tree`. The arena layout guarantees children
    /// have larger indices than their parent, so one reverse sweep suffices.
    ///
    /// # Panics
    /// If `degree` exceeds [`MAX_DEGREE`].
    pub fn new(tree: &Tree, particles: &[Particle], degree: u32) -> Self {
        assert!(degree <= MAX_DEGREE, "degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}");
        let mut expansions: Vec<Option<Expansion>> = vec![None; tree.len()];
        for id in (0..tree.len()).rev() {
            let node = tree.node(id as u32);
            let exp = if node.is_leaf() {
                Expansion::from_particles(
                    node.com,
                    degree,
                    tree.particles_under(id as u32)
                        .iter()
                        .map(|&pi| (particles[pi as usize].pos, particles[pi as usize].mass)),
                )
            } else {
                let mut acc = Expansion::zero(node.com, degree);
                for c in tree.children_of(id as u32) {
                    let child =
                        expansions[c as usize].as_ref().expect("children processed before parent");
                    acc.add_assign(&child.translate(node.com));
                }
                acc
            };
            expansions[id] = Some(exp);
        }
        MultipoleTree { degree, expansions: expansions.into_iter().map(Option::unwrap).collect() }
    }

    /// Potential and acceleration at `point` using degree-k expansions for
    /// MAC-accepted nodes and exact (softened) kernels for leaf particles.
    pub fn eval(
        &self,
        tree: &Tree,
        particles: &[Particle],
        point: Vec3,
        skip_id: Option<u32>,
        mac: &BarnesHutMac,
        eps: f64,
    ) -> (f64, Vec3, TraversalStats) {
        let mut phi = 0.0;
        let mut acc = Vec3::ZERO;
        let stats = for_each_interaction(tree, particles, point, skip_id, mac, |i| match i {
            Interaction::Node(id) => {
                let (p, a) = self.expansions[id as usize].eval(point);
                phi += p;
                acc += a;
            }
            Interaction::Particle(pi) => {
                let p = &particles[pi as usize];
                phi += potential_kernel(point, p.pos, p.mass, eps);
                acc += accel_kernel(point, p.pos, p.mass, eps);
            }
        });
        (phi, acc, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhut_geom::{plummer, uniform_cube, PlummerSpec};
    use bhut_tree::direct;
    use bhut_tree::{build, BarnesHutMac, BuildParams};

    const EPS: f64 = 0.0;

    #[test]
    fn upward_pass_root_mass() {
        let set = uniform_cube(200, 1.0, 1);
        let t = build::build(&set.particles, BuildParams::default());
        let mt = MultipoleTree::new(&t, &set.particles, 3);
        assert!((mt.expansions[0].mass() - set.total_mass()).abs() < 1e-12);
        // First moments about the COM vanish (dipole-free centering).
        let e = &mt.expansions[0];
        let set_idx = crate::multiindex::MultiIndexSet::new(3);
        for (x, y, z) in [(1, 0, 0), (0, 1, 0), (0, 0, 1)] {
            let m1 = e.moments[set_idx.pos(x, y, z)];
            assert!(m1.abs() < 1e-9, "dipole {m1}");
        }
    }

    #[test]
    fn higher_degree_reduces_fractional_error() {
        let set = plummer(PlummerSpec { n: 1200, seed: 11, ..Default::default() });
        let t = build::build(&set.particles, BuildParams::default());
        let mac = BarnesHutMac::new(0.8);
        let exact = direct::all_potentials_direct(&set.particles, EPS);
        let mut prev = f64::INFINITY;
        for k in [0u32, 2, 4] {
            let mt = MultipoleTree::new(&t, &set.particles, k);
            let ps = &set.particles;
            let phis: Vec<f64> =
                ps.iter().map(|p| mt.eval(&t, ps, p.pos, Some(p.id), &mac, EPS).0).collect();
            let err = direct::fractional_error(&phis, &exact);
            assert!(err < prev, "degree {k}: {err} !< {prev}");
            prev = err;
        }
        assert!(prev < 2e-3, "degree-4 error too high: {prev}");
    }

    /// The tree's moment rule is degree-0 M2M: every node's mass is its
    /// expansion's zeroth moment bit for bit, on a collapsed build and on one
    /// forced down to level 3, at every degree.
    #[test]
    fn node_masses_are_the_upward_pass_masses_bit_for_bit() {
        let set = plummer(PlummerSpec { n: 3000, ..Default::default() });
        let ps = &set.particles;
        let forced = BuildParams { min_split_level: 3, ..Default::default() };
        for params in [BuildParams::default(), forced] {
            let tree = build::build(ps, params);
            for k in [0, 2, 4] {
                let mt = MultipoleTree::new(&tree, ps, k);
                let off = (0..tree.len())
                    .filter(|&id| {
                        tree.node(id as u32).mass.to_bits() != mt.expansions[id].mass().to_bits()
                    })
                    .count();
                assert_eq!(off, 0, "{params:?}, degree {k}: {off} of {} masses", tree.len());
            }
        }
    }

    #[test]
    fn monopole_degree_zero_matches_com_traversal() {
        let set = uniform_cube(300, 1.0, 2);
        let t = build::build(&set.particles, BuildParams::default());
        let mac = BarnesHutMac::new(0.7);
        let mt = MultipoleTree::new(&t, &set.particles, 0);
        for p in set.iter().take(20) {
            let (phi, _, _) = mt.eval(&t, &set.particles, p.pos, Some(p.id), &mac, EPS);
            let (phi_mono, _) =
                bhut_tree::potential_at(&t, &set.particles, p.pos, Some(p.id), &mac, EPS);
            assert!((phi - phi_mono).abs() < 1e-12 * phi_mono.abs());
        }
    }

    #[test]
    fn forces_follow_potential_gradient() {
        let set = uniform_cube(150, 1.0, 3);
        let t = build::build(&set.particles, BuildParams::default());
        let mac = BarnesHutMac::new(0.6);
        let mt = MultipoleTree::new(&t, &set.particles, 4);
        let exact = direct::all_accels_direct(&set.particles, EPS);
        let approx: Vec<_> = set
            .particles
            .iter()
            .map(|p| mt.eval(&t, &set.particles, p.pos, Some(p.id), &mac, EPS).2)
            .collect();
        let _ = approx; // stats not needed; recompute accels below
        let accels: Vec<_> = set
            .particles
            .iter()
            .map(|p| mt.eval(&t, &set.particles, p.pos, Some(p.id), &mac, EPS).1)
            .collect();
        let err = direct::fractional_error_vec(&accels, &exact);
        assert!(err < 5e-3, "force error {err}");
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_DEGREE")]
    fn a_degree_past_the_bound_is_refused_before_the_upward_pass() {
        let set = uniform_cube(16, 1.0, 5);
        let t = build::build(&set.particles, BuildParams::default());
        MultipoleTree::new(&t, &set.particles, MAX_DEGREE + 1);
    }

    #[test]
    fn stats_independent_of_degree() {
        // The traversal shape depends only on the MAC, not on k — that is
        // why function-shipping communication stays constant as k grows
        // (§4.2.2).
        let set = uniform_cube(400, 1.0, 4);
        let t = build::build(&set.particles, BuildParams::default());
        let mac = BarnesHutMac::new(0.7);
        let counts: Vec<u64> = [1u32, 3, 5]
            .iter()
            .map(|&k| {
                let mt = MultipoleTree::new(&t, &set.particles, k);
                let ps = &set.particles;
                ps.iter()
                    .map(|p| mt.eval(&t, ps, p.pos, Some(p.id), &mac, EPS).2.interactions())
                    .sum()
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
    }
}
