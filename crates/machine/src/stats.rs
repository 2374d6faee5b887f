//! Run reports and derived performance metrics.

use serde::{Deserialize, Serialize};

/// The outcome of a simulated run (or one accounted phase).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Final virtual clock of each processor, in seconds.
    pub clocks: Vec<f64>,
    /// Flops charged by each processor.
    pub flops: Vec<u64>,
    /// Total messages sent.
    pub messages: u64,
    /// Total payload words sent.
    pub words: u64,
    /// Supersteps executed.
    pub supersteps: u64,
}

impl RunReport {
    /// Parallel time: the slowest processor's clock.
    pub fn parallel_time(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }

    /// Mean processor clock.
    pub fn mean_time(&self) -> f64 {
        if self.clocks.is_empty() {
            return 0.0;
        }
        self.clocks.iter().sum::<f64>() / self.clocks.len() as f64
    }

    /// Load imbalance: max/mean clock (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_time();
        if mean == 0.0 {
            1.0
        } else {
            self.parallel_time() / mean
        }
    }

    /// Efficiency against a given sequential time:
    /// `E = T_serial / (p · T_parallel)`.
    pub fn efficiency(&self, serial_time: f64) -> f64 {
        let tp = self.parallel_time();
        if tp == 0.0 || self.clocks.is_empty() {
            return 1.0;
        }
        serial_time / (self.clocks.len() as f64 * tp)
    }

    /// Speed-up against a given sequential time.
    pub fn speedup(&self, serial_time: f64) -> f64 {
        let tp = self.parallel_time();
        if tp == 0.0 {
            return self.clocks.len() as f64;
        }
        serial_time / tp
    }

    /// Merge another phase's report into this one (clocks add pairwise,
    /// counters add).
    pub fn absorb(&mut self, other: &RunReport) {
        if self.clocks.is_empty() {
            self.clocks = vec![0.0; other.clocks.len()];
            self.flops = vec![0; other.flops.len()];
        }
        assert_eq!(self.clocks.len(), other.clocks.len());
        for (a, b) in self.clocks.iter_mut().zip(&other.clocks) {
            *a += b;
        }
        for (a, b) in self.flops.iter_mut().zip(&other.flops) {
            *a += b;
        }
        self.messages += other.messages;
        self.words += other.words;
        self.supersteps += other.supersteps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(clocks: &[f64]) -> RunReport {
        RunReport { clocks: clocks.to_vec(), flops: vec![0; clocks.len()], ..Default::default() }
    }

    #[test]
    fn parallel_time_is_max() {
        assert_eq!(report(&[1.0, 5.0, 3.0]).parallel_time(), 5.0);
        assert_eq!(report(&[]).parallel_time(), 0.0);
    }

    #[test]
    fn imbalance() {
        assert!((report(&[1.0, 1.0, 1.0]).imbalance() - 1.0).abs() < 1e-12);
        assert!((report(&[0.0, 2.0]).imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_and_speedup() {
        let r = report(&[2.0, 2.0, 2.0, 2.0]);
        // serial = 8 ⇒ speedup 4 on 4 procs ⇒ efficiency 1.
        assert!((r.speedup(8.0) - 4.0).abs() < 1e-12);
        assert!((r.efficiency(8.0) - 1.0).abs() < 1e-12);
        assert!((r.efficiency(4.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = report(&[1.0, 2.0]);
        let mut b = report(&[3.0, 1.0]);
        b.messages = 7;
        b.words = 70;
        a.absorb(&b);
        assert_eq!(a.clocks, vec![4.0, 3.0]);
        assert_eq!(a.messages, 7);
        assert_eq!(a.words, 70);
        // absorbing into empty adopts the shape
        let mut e = RunReport::default();
        e.absorb(&a);
        assert_eq!(e.clocks, a.clocks);
    }
}
