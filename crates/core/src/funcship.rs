//! The function-shipping force computation as a BSP program (§3.2).
//!
//! Each virtual processor traverses the tree for its own particles. When a
//! traversal fails the MAC at a *remote* branch node, the particle's
//! coordinates (3 words) and the branch key are dropped into a **bin** for
//! the owning processor; a bin is transmitted when it reaches
//! [`ForceConfig::bin_size`] entries ("In our implementations, we typically
//! collect 100 particles before communicating them"). At most **one** bin
//! may be outstanding per source–destination pair ("we do not allow two bins
//! to be outstanding between the same source–destination pair"): if a bin
//! fills while its predecessor is unanswered, the processor stalls local
//! work and serves incoming requests instead — which is exactly what a step
//! of this program does anyway.
//!
//! The serving processor resolves the key through its branch-lookup table
//! (§4.2.3), computes the contribution of the whole subtree, and returns the
//! accumulated potential and force (one reply message per request bin).

use crate::branch::SortedLookup;
use crate::evalcore::{eval_from, eval_owned, EvalEnv, EvalResult};
use crate::partition::Partition;
use bhut_geom::Vec3;
use bhut_machine::{Ctx, Machine, Program, RunReport, Status, Topology};
use bhut_multipole::flops::{FUNCTION_SHIP_WORDS, RESULT_WORDS};
use bhut_tree::NodeId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Tunables of the shipping protocol.
#[derive(Debug, Clone, Copy)]
pub struct ForceConfig {
    /// Particles per request bin (the paper uses 100).
    pub bin_size: usize,
    /// Hard cap on own particles traversed per superstep.
    pub batch: usize,
    /// Work quantum per superstep, in model flops: the batch loop stops once
    /// this much local work is charged, so message handling interleaves at
    /// a period of a few message latencies regardless of multipole degree
    /// (the paper's machines service remote requests via interrupts —
    /// "processors must periodically process remote work requests").
    pub quantum_flops: u64,
}

impl Default for ForceConfig {
    fn default() -> Self {
        ForceConfig { bin_size: 100, batch: 16, quantum_flops: 4096 }
    }
}

/// One shipped particle.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Raw branch key (resolved by the owner's lookup table).
    pub key_raw: u64,
    pub point: Vec3,
    /// Particle id to exclude from direct sums (self-interaction guard).
    pub skip: u32,
    /// Requester-local result slot, echoed back in the reply.
    pub slot: u32,
}

/// One returned contribution.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub slot: u32,
    pub phi: f64,
    pub acc: Vec3,
}

/// Protocol messages.
pub enum ShipMsg {
    Requests(Vec<Request>),
    Replies(Vec<Reply>),
}

/// Aggregate counters harvested from one processor after the run.
#[derive(Debug, Clone, Default)]
pub struct ProcOutcome {
    /// `(particle index, potential, acceleration)` for owned particles.
    pub results: Vec<(u32, f64, Vec3)>,
    pub own_flops: u64,
    pub service_flops: u64,
    pub requests_sent: u64,
    pub requests_served: u64,
    pub p2n: u64,
    pub p2p: u64,
    pub mac_tests: u64,
    /// Flops attributed per cluster (empty when the scheme is clusterless).
    pub cluster_flops: Vec<u64>,
}

/// The per-processor program.
pub struct ForceProgram<'a> {
    me: usize,
    env: &'a EvalEnv<'a>,
    owner_of_node: &'a [i32],
    lookup: SortedLookup,
    my_particles: Vec<u32>,
    cluster_of_particle: Option<&'a [u32]>,
    cluster_of_branch: Option<&'a HashMap<NodeId, u32>>,
    node_loads: Option<Rc<RefCell<Vec<u64>>>>,
    cfg: ForceConfig,
    // protocol state
    cursor: usize,
    acc: Vec<(f64, Vec3)>,
    pending_replies: u64,
    bins: Vec<Vec<Request>>,
    outstanding: Vec<u32>,
    scratch_remote: Vec<(usize, NodeId)>,
    pub out: ProcOutcome,
}

impl<'a> ForceProgram<'a> {
    fn serve(&mut self, reqs: &[Request], ctx: &mut Ctx<'_, ShipMsg>, src: usize) {
        let mut replies = Vec::with_capacity(reqs.len());
        for req in reqs {
            let root = self
                .lookup
                .find(req.key_raw)
                .expect("request for a branch this processor does not own");
            let mut loads_guard = self.node_loads.as_ref().map(|l| l.borrow_mut());
            let r = eval_from(
                self.env,
                root,
                req.point,
                Some(req.skip),
                loads_guard.as_deref_mut().map(|v| &mut v[..]),
            );
            drop(loads_guard);
            ctx.charge_flops(r.flops);
            self.tally(&r, true, self.cluster_of_branch.and_then(|m| m.get(&root).copied()));
            replies.push(Reply { slot: req.slot, phi: r.phi, acc: r.acc });
        }
        self.out.requests_served += reqs.len() as u64;
        ctx.send(src, replies.len() as u64 * RESULT_WORDS, ShipMsg::Replies(replies));
    }

    fn tally(&mut self, r: &EvalResult, service: bool, cluster: Option<u32>) {
        if service {
            self.out.service_flops += r.flops;
        } else {
            self.out.own_flops += r.flops;
        }
        self.out.p2n += r.p2n;
        self.out.p2p += r.p2p;
        self.out.mac_tests += r.mac_tests;
        if let Some(cl) = cluster {
            if let Some(v) = self.out.cluster_flops.get_mut(cl as usize) {
                *v += r.flops;
            }
        }
    }

    fn flush(&mut self, dst: usize, ctx: &mut Ctx<'_, ShipMsg>) {
        let bin = std::mem::take(&mut self.bins[dst]);
        debug_assert!(!bin.is_empty());
        self.out.requests_sent += bin.len() as u64;
        self.outstanding[dst] += 1;
        ctx.send(dst, bin.len() as u64 * FUNCTION_SHIP_WORDS, ShipMsg::Requests(bin));
    }

    /// True if some bin is full but cannot be sent (flow-control stall).
    fn stalled(&self) -> bool {
        self.bins.iter().zip(&self.outstanding).any(|(b, &o)| b.len() >= self.cfg.bin_size && o > 0)
    }

    fn locally_complete(&self) -> bool {
        self.cursor == self.my_particles.len()
            && self.pending_replies == 0
            && self.bins.iter().all(Vec::is_empty)
    }

    /// Harvest results once the run is over.
    fn finalize(&mut self) {
        if self.out.results.is_empty() && !self.my_particles.is_empty() {
            self.out.results = self
                .my_particles
                .iter()
                .zip(&self.acc)
                .map(|(&pi, &(phi, acc))| (pi, phi, acc))
                .collect();
        }
    }
}

impl Program for ForceProgram<'_> {
    type Msg = ShipMsg;

    fn step(&mut self, ctx: &mut Ctx<'_, ShipMsg>) -> Status {
        // 1. Handle incoming traffic.
        for env in ctx.inbox() {
            match env.payload {
                ShipMsg::Requests(reqs) => self.serve(&reqs, ctx, env.src),
                ShipMsg::Replies(reps) => {
                    self.outstanding[env.src] = self.outstanding[env.src].saturating_sub(1);
                    for rep in reps {
                        let slot = rep.slot as usize;
                        self.acc[slot].0 += rep.phi;
                        self.acc[slot].1 += rep.acc;
                        self.pending_replies -= 1;
                    }
                }
            }
        }

        // 2. Traverse own particles (bounded work quantum, stall on flow
        //    control).
        let mut processed = 0;
        let mut step_flops = 0u64;
        while self.cursor < self.my_particles.len()
            && processed < self.cfg.batch
            && step_flops < self.cfg.quantum_flops
            && !self.stalled()
        {
            let slot = self.cursor;
            let pi = self.my_particles[slot];
            let particle = &self.env.particles[pi as usize];
            self.scratch_remote.clear();
            let mut remote = std::mem::take(&mut self.scratch_remote);
            let mut loads_guard = self.node_loads.as_ref().map(|l| l.borrow_mut());
            let r = eval_owned(
                self.env,
                particle.pos,
                Some(particle.id),
                self.me,
                self.owner_of_node,
                loads_guard.as_deref_mut().map(|v| &mut v[..]),
                &mut remote,
            );
            drop(loads_guard);
            ctx.charge_flops(r.flops);
            step_flops += r.flops;
            let cl = self.cluster_of_particle.map(|c| c[pi as usize]);
            self.tally(&r, false, cl);
            self.acc[slot].0 += r.phi;
            self.acc[slot].1 += r.acc;
            for &(owner, branch) in &remote {
                let key_raw = self.env.tree.node(branch).key.raw();
                self.bins[owner].push(Request {
                    key_raw,
                    point: particle.pos,
                    skip: particle.id,
                    slot: slot as u32,
                });
                self.pending_replies += 1;
            }
            self.scratch_remote = remote;
            self.cursor += 1;
            processed += 1;
            // Transmit any bin that just filled (flow control permitting).
            for dst in 0..self.bins.len() {
                if self.bins[dst].len() >= self.cfg.bin_size && self.outstanding[dst] == 0 {
                    self.flush(dst, ctx);
                }
            }
        }

        // 3. Out of local work: drain partial bins.
        if self.cursor == self.my_particles.len() {
            for dst in 0..self.bins.len() {
                if !self.bins[dst].is_empty() && self.outstanding[dst] == 0 {
                    self.flush(dst, ctx);
                }
            }
        }

        if self.locally_complete() {
            self.finalize();
            // Stay alive (Blocked) to serve remote requests; global
            // quiescence terminates the run.
            Status::Blocked
        } else if self.cursor < self.my_particles.len() && !self.stalled() {
            Status::Ready
        } else {
            Status::Blocked
        }
    }
}

/// Everything [`run_force_phase`] returns.
#[derive(Debug, Clone, Default)]
pub struct ForceRun {
    pub report: RunReport,
    /// Potential per particle (indexed by particle index).
    pub potentials: Vec<f64>,
    /// Acceleration per particle.
    pub accels: Vec<Vec3>,
    pub p2n: u64,
    pub p2p: u64,
    pub mac_tests: u64,
    pub requests: u64,
    pub own_flops: u64,
    pub service_flops: u64,
    /// Per-cluster flops (for the SPDA balancer), if clusters were given.
    pub cluster_flops: Vec<u64>,
    /// Per-node interaction loads (for the DPDA balancer), if requested.
    pub node_loads: Option<Vec<u64>>,
}

/// Execute the force-computation phase for one partition on one machine.
#[allow(clippy::too_many_arguments)]
pub fn run_force_phase<T: Topology>(
    machine: &Machine<T>,
    env: &EvalEnv<'_>,
    partition: &Partition,
    cluster_of_particle: Option<&[u32]>,
    num_clusters: usize,
    track_node_loads: bool,
    cfg: ForceConfig,
) -> ForceRun {
    let p = machine.p();
    assert_eq!(partition.p, p, "partition built for a different machine size");
    let node_loads = track_node_loads.then(|| Rc::new(RefCell::new(vec![0u64; env.tree.len()])));
    let cluster_of_branch: HashMap<NodeId, u32> = partition
        .branches
        .iter()
        .filter(|b| b.cluster != u32::MAX)
        .map(|b| (b.node, b.cluster))
        .collect();
    let by_owner = partition.particles_by_owner();

    let programs: Vec<ForceProgram<'_>> = (0..p)
        .map(|me| {
            let mine = by_owner[me].clone();
            let lookup = SortedLookup::new(
                partition.branches.iter().filter(|b| b.owner == me).map(|b| (b.key.raw(), b.node)),
            );
            ForceProgram {
                me,
                env,
                owner_of_node: &partition.owner_of_node,
                lookup,
                acc: vec![(0.0, Vec3::ZERO); mine.len()],
                my_particles: mine,
                cluster_of_particle,
                cluster_of_branch: cluster_of_particle.map(|_| &cluster_of_branch),
                node_loads: node_loads.clone(),
                cfg,
                cursor: 0,
                pending_replies: 0,
                bins: vec![Vec::new(); p],
                outstanding: vec![0; p],
                scratch_remote: Vec::new(),
                out: ProcOutcome {
                    cluster_flops: vec![
                        0;
                        if cluster_of_particle.is_some() { num_clusters } else { 0 }
                    ],
                    ..Default::default()
                },
            }
        })
        .collect();

    let (report, programs) = machine.run_programs(programs);

    let n = env.particles.len();
    let mut run = ForceRun {
        report,
        potentials: vec![0.0; n],
        accels: vec![Vec3::ZERO; n],
        cluster_flops: vec![0; if cluster_of_particle.is_some() { num_clusters } else { 0 }],
        ..Default::default()
    };
    for mut prog in programs {
        prog.finalize();
        for (pi, phi, acc) in &prog.out.results {
            run.potentials[*pi as usize] = *phi;
            run.accels[*pi as usize] = *acc;
        }
        run.p2n += prog.out.p2n;
        run.p2p += prog.out.p2p;
        run.mac_tests += prog.out.mac_tests;
        run.requests += prog.out.requests_sent;
        run.own_flops += prog.out.own_flops;
        run.service_flops += prog.out.service_flops;
        for (a, b) in run.cluster_flops.iter_mut().zip(&prog.out.cluster_flops) {
            *a += b;
        }
    }
    run.node_loads = node_loads.map(|l| Rc::try_unwrap(l).expect("sole owner").into_inner());
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{spda_initial, spsa_assignment, Curve};
    use crate::domain::ClusterGrid;
    use bhut_geom::{uniform_cube, Aabb, ParticleSet};
    use bhut_machine::{CostModel, Hypercube};
    use bhut_tree::build::{build_in_cell, BuildParams};
    use bhut_tree::{BarnesHutMac, Tree};

    const EPS: f64 = 1e-6;

    fn setup(p: usize, n: usize) -> (Tree, ClusterGrid, ParticleSet, Vec<usize>) {
        let set = uniform_cube(n, 100.0, 21);
        let cell = Aabb::origin_cube(100.0);
        let grid = ClusterGrid::new(8, cell);
        let params =
            BuildParams { leaf_capacity: 8, collapse: true, min_split_level: grid.level() };
        let tree = build_in_cell(&set.particles, cell, params);
        let owners = spsa_assignment(&grid, p);
        (tree, grid, set, owners)
    }

    fn sequential_reference(
        tree: &Tree,
        set: &ParticleSet,
        mac: &BarnesHutMac,
    ) -> (Vec<f64>, Vec<Vec3>) {
        set.particles
            .iter()
            .map(|p| {
                let (phi, _) =
                    bhut_tree::potential_at(tree, &set.particles, p.pos, Some(p.id), mac, EPS);
                let (acc, _) =
                    bhut_tree::accel_on(tree, &set.particles, p.pos, Some(p.id), mac, EPS);
                (phi, acc)
            })
            .unzip()
    }

    #[test]
    fn parallel_results_match_sequential() {
        let p = 16;
        let (tree, grid, set, owners) = setup(p, 1500);
        let part = crate::partition::Partition::from_clusters(&tree, &grid, &owners, p);
        let mac = BarnesHutMac::new(0.7);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: EPS,
            degree: 0,
        };
        let machine = Machine::new(Hypercube::new(p), CostModel::ncube2());
        let run = run_force_phase(
            &machine,
            &env,
            &part,
            None,
            0,
            false,
            ForceConfig { bin_size: 20, batch: 16, ..Default::default() },
        );
        let (want_phi, want_acc) = sequential_reference(&tree, &set, &mac);
        for i in 0..set.len() {
            assert!(
                (run.potentials[i] - want_phi[i]).abs() < 1e-9 * want_phi[i].abs().max(1.0),
                "particle {i}: {} vs {}",
                run.potentials[i],
                want_phi[i]
            );
            assert!(run.accels[i].dist(want_acc[i]) < 1e-9 * want_acc[i].norm().max(1.0));
        }
        assert!(run.requests > 0, "16 processors must ship something");
        assert!(run.report.messages > 0);
    }

    #[test]
    fn single_processor_sends_nothing() {
        let (tree, grid, set, _) = setup(1, 400);
        let part = crate::partition::Partition::from_clusters(&tree, &grid, &vec![0; 64], 1);
        let mac = BarnesHutMac::new(0.7);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: EPS,
            degree: 0,
        };
        let machine = Machine::new(Hypercube::new(1), CostModel::ncube2());
        let run = run_force_phase(&machine, &env, &part, None, 0, false, ForceConfig::default());
        assert_eq!(run.requests, 0);
        assert_eq!(run.report.messages, 0);
        assert_eq!(run.service_flops, 0);
    }

    #[test]
    fn smaller_bins_mean_more_messages_same_words() {
        let p = 8;
        let (tree, grid, set, _) = setup(p, 1200);
        let owners = spda_initial(&grid, p, Curve::Morton);
        let part = crate::partition::Partition::from_clusters(&tree, &grid, &owners, p);
        let mac = BarnesHutMac::new(0.6);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: EPS,
            degree: 0,
        };
        let machine = Machine::new(Hypercube::new(p), CostModel::ncube2());
        let run_with = |bin_size: usize| {
            run_force_phase(
                &machine,
                &env,
                &part,
                None,
                0,
                false,
                ForceConfig { bin_size, batch: 32, ..Default::default() },
            )
        };
        let small = run_with(5);
        let large = run_with(200);
        assert_eq!(small.requests, large.requests, "work must not depend on bin size");
        assert!(small.report.messages > large.report.messages);
        // identical physics
        for i in 0..set.len() {
            assert!((small.potentials[i] - large.potentials[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn node_loads_cover_all_interactions() {
        let p = 4;
        let (tree, grid, set, owners) = setup(p, 800);
        let part = crate::partition::Partition::from_clusters(&tree, &grid, &owners, p);
        let mac = BarnesHutMac::new(0.8);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: EPS,
            degree: 0,
        };
        let machine = Machine::new(Hypercube::new(p), CostModel::ncube2());
        let run = run_force_phase(&machine, &env, &part, None, 0, true, ForceConfig::default());
        let loads = run.node_loads.unwrap();
        assert_eq!(loads.iter().sum::<u64>(), run.p2n + run.p2p);
    }

    #[test]
    fn cluster_flops_sum_to_total() {
        let p = 4;
        let (tree, grid, set, owners) = setup(p, 600);
        let part = crate::partition::Partition::from_clusters(&tree, &grid, &owners, p);
        let (cluster_of, _) = grid.bin_particles(&set.particles);
        let mac = BarnesHutMac::new(0.7);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: None,
            mac: &mac,
            eps: EPS,
            degree: 0,
        };
        let machine = Machine::new(Hypercube::new(p), CostModel::ncube2());
        let run = run_force_phase(
            &machine,
            &env,
            &part,
            Some(&cluster_of),
            grid.r(),
            false,
            ForceConfig::default(),
        );
        let by_cluster: u64 = run.cluster_flops.iter().sum();
        assert_eq!(by_cluster, run.own_flops + run.service_flops);
    }
}

#[cfg(test)]
mod multipole_tests {
    use super::*;
    use crate::balance::spsa_assignment;
    use crate::domain::ClusterGrid;
    use crate::partition::Partition;
    use bhut_geom::{uniform_cube, Aabb};
    use bhut_machine::{CostModel, Hypercube};
    use bhut_multipole::MultipoleTree;
    use bhut_tree::build::{build_in_cell, BuildParams};
    use bhut_tree::BarnesHutMac;

    /// Degree-4 function shipping equals the sequential degree-4 evaluation:
    /// the serving processor's expansion evaluations are identical to the
    /// ones the owner of the particle would have performed.
    #[test]
    fn parallel_multipole_matches_sequential() {
        let p = 8;
        let set = uniform_cube(900, 100.0, 57);
        let cell = Aabb::origin_cube(100.0);
        let grid = ClusterGrid::new(8, cell);
        let params =
            BuildParams { leaf_capacity: 8, collapse: true, min_split_level: grid.level() };
        let tree = build_in_cell(&set.particles, cell, params);
        let mt = MultipoleTree::new(&tree, &set.particles, 4);
        let part = Partition::from_clusters(&tree, &grid, &spsa_assignment(&grid, p), p);
        let mac = BarnesHutMac::new(0.7);
        let env = EvalEnv {
            tree: &tree,
            particles: &set.particles,
            mtree: Some(&mt),
            mac: &mac,
            eps: 1e-4,
            degree: 4,
        };
        let machine = Machine::new(Hypercube::new(p), CostModel::cm5());
        let run = run_force_phase(&machine, &env, &part, None, 0, false, ForceConfig::default());
        for particle in set.iter() {
            let (phi, acc, _) =
                mt.eval(&tree, &set.particles, particle.pos, Some(particle.id), &mac, 1e-4);
            let got_phi = run.potentials[particle.id as usize];
            let got_acc = run.accels[particle.id as usize];
            assert!(
                (got_phi - phi).abs() < 1e-9 * phi.abs().max(1.0),
                "particle {}: {got_phi} vs {phi}",
                particle.id
            );
            assert!(got_acc.dist(acc) < 1e-9 * acc.norm().max(1.0));
        }
        // degree-4 interactions cost 13+16·16 in the model
        assert!(run.own_flops > run.p2n * 200, "flop accounting looks monopole-priced");
    }
}
