//! Collective operations over per-processor state.
//!
//! §3 of the paper: the SPSA formulation is "coupled with two collective
//! communication operations" — an **all-to-all broadcast** that replicates
//! branch nodes / top-of-tree levels, and (for DPDA) an **all-to-all
//! personalized communication** that redistributes particles to their new
//! owners (the driver prices that one with
//! [`Collective::AllToAllPersonalized`] directly). These helpers move real
//! data between the per-processor state vectors of a phase-structured
//! simulation and charge every processor's clock with the topology's
//! closed-form collective cost.
//!
//! They operate on a `&mut [f64]` of processor clocks: collectives are
//! bulk-synchronous, so all clocks first synchronize to the maximum (the
//! barrier the paper's loosely synchronous phases imply), then advance by
//! the collective's cost.

use crate::cost::CostModel;
use crate::topology::{Collective, Topology};

/// Collective executor bound to a machine.
#[derive(Debug, Clone, Copy)]
pub struct Collectives<'a, T: Topology> {
    pub topo: &'a T,
    pub cost: CostModel,
}

impl<'a, T: Topology> Collectives<'a, T> {
    pub fn new(topo: &'a T, cost: CostModel) -> Self {
        Collectives { topo, cost }
    }

    fn sync(&self, clocks: &mut [f64]) -> f64 {
        let max = clocks.iter().copied().fold(0.0, f64::max);
        for c in clocks.iter_mut() {
            *c = max;
        }
        max
    }

    fn charge(&self, clocks: &mut [f64], op: Collective, m: u64) {
        let t = self.topo.collective_time(op, m, &self.cost);
        for c in clocks.iter_mut() {
            *c += t;
        }
    }

    /// All-to-all broadcast (allgather): every processor contributes its
    /// `contrib[i]`; everyone receives the concatenation (in rank order).
    /// `words_per_item` prices one item of `C`.
    pub fn all_to_all_broadcast<C: Clone>(
        &self,
        clocks: &mut [f64],
        contrib: &[Vec<C>],
        words_per_item: u64,
    ) -> Vec<C> {
        assert_eq!(contrib.len(), self.topo.p());
        self.sync(clocks);
        // Non-uniform contributions: every processor ends up receiving the
        // whole concatenation, so the bandwidth term is the *total* word
        // count (for uniform m this equals the textbook m·(p−1) up to one
        // share).
        let total = contrib.iter().map(|c| c.len() as u64 * words_per_item).sum();
        self.charge(clocks, Collective::AllToAllBroadcast, total);
        contrib.iter().flat_map(|c| c.iter().cloned()).collect()
    }

    /// All-reduce of per-processor `f64` values with `op`; everyone gets the
    /// reduction.
    pub fn all_reduce_f64(
        &self,
        clocks: &mut [f64],
        values: &[f64],
        op: impl Fn(f64, f64) -> f64,
    ) -> f64 {
        assert_eq!(values.len(), self.topo.p());
        self.sync(clocks);
        self.charge(clocks, Collective::Reduce, 1);
        values.iter().copied().reduce(op).unwrap_or(0.0)
    }

    /// One-to-all broadcast of `m_words` from `root` (data handled by
    /// caller; this just accounts the time).
    pub fn broadcast_time(&self, clocks: &mut [f64], m_words: u64) {
        self.sync(clocks);
        self.charge(clocks, Collective::Broadcast, m_words);
    }

    /// Barrier: clocks synchronize to the maximum (plus a reduce of one
    /// word, the canonical implementation).
    pub fn barrier(&self, clocks: &mut [f64]) {
        self.sync(clocks);
        self.charge(clocks, Collective::Reduce, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Hypercube;

    fn setup() -> (Hypercube, CostModel) {
        (Hypercube::new(8), CostModel::unit())
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let (topo, cost) = setup();
        let coll = Collectives::new(&topo, cost);
        let mut clocks = vec![0.0; 8];
        let contrib: Vec<Vec<u32>> = (0..8).map(|r| vec![r as u32; r % 3]).collect();
        let all = coll.all_to_all_broadcast(&mut clocks, &contrib, 1);
        let want: Vec<u32> = contrib.concat();
        assert_eq!(all, want);
        // everyone advanced equally
        assert!(clocks.iter().all(|&c| (c - clocks[0]).abs() < 1e-12 && c > 0.0));
    }

    #[test]
    fn allgather_cost_formula() {
        let (topo, cost) = setup();
        let coll = Collectives::new(&topo, cost);
        let mut clocks = vec![0.0; 8];
        let contrib: Vec<Vec<u32>> = (0..8).map(|_| vec![0; 4]).collect();
        coll.all_to_all_broadcast(&mut clocks, &contrib, 1);
        // hypercube allgather: t_s·log p + t_w·total = 3 + 32 = 35.
        assert!((clocks[0] - 35.0).abs() < 1e-9, "{}", clocks[0]);
    }

    #[test]
    fn allgather_synchronizes_clocks_first() {
        let (topo, cost) = setup();
        let coll = Collectives::new(&topo, cost);
        let mut clocks: Vec<f64> = (0..8).map(|i| i as f64).collect();
        coll.all_to_all_broadcast(&mut clocks, &vec![Vec::<u32>::new(); 8], 1);
        // barrier to 7.0, plus cost with m=0: t_s·log p = 3.
        for &c in &clocks {
            assert!((c - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn reduce() {
        let (topo, cost) = setup();
        let coll = Collectives::new(&topo, cost);
        let mut clocks = vec![0.0; 8];
        let vals: Vec<f64> = (0..8).map(|i| i as f64).collect();
        assert_eq!(coll.all_reduce_f64(&mut clocks, &vals, f64::max), 7.0);
        assert_eq!(coll.all_reduce_f64(&mut clocks, &vals, |a, b| a + b), 28.0);
    }

    #[test]
    fn barrier_equalizes() {
        let (topo, cost) = setup();
        let coll = Collectives::new(&topo, cost);
        let mut clocks: Vec<f64> = (0..8).map(|i| 2.0 * i as f64).collect();
        coll.barrier(&mut clocks);
        assert!(clocks.iter().all(|&c| (c - clocks[0]).abs() < 1e-12));
        assert!(clocks[0] >= 14.0);
    }
}
