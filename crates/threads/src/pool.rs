//! Minimal fork-join helpers over std scoped threads.
//!
//! We deliberately avoid a global thread pool: each parallel region spawns
//! scoped workers, which keeps lifetimes simple (borrows of the particle
//! arrays flow straight in) and matches the bulk-synchronous structure of a
//! treecode time-step. Thread counts are small (≤ cores), so spawn cost is
//! negligible next to a force phase.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f(thread_index)` on `threads` scoped workers and collect results in
/// thread order.
pub fn fork_join<R: Send>(threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    assert!(threads > 0);
    if threads == 1 {
        return vec![f(0)];
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|t| s.spawn(move || f(t))).collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
}

/// A shared work counter for block self-scheduling: each call hands out the
/// next block of `block` indices below `total`.
pub struct BlockScheduler {
    next: AtomicUsize,
    total: usize,
    block: usize,
}

impl BlockScheduler {
    pub fn new(total: usize, block: usize) -> Self {
        BlockScheduler { next: AtomicUsize::new(0), total, block: block.max(1) }
    }

    /// The next `[start, end)` block, or `None` when exhausted.
    pub fn grab(&self) -> Option<(usize, usize)> {
        let start = self.next.fetch_add(self.block, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some((start, (start + self.block).min(self.total)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn fork_join_collects_in_order() {
        let out = fork_join(4, |t| t * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn fork_join_single_thread_runs_inline() {
        let out = fork_join(1, |t| t + 7);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn scheduler_hands_out_every_index_once() {
        let sched = BlockScheduler::new(1000, 7);
        let seen = AtomicU64::new(0);
        fork_join(4, |_| {
            let mut local = 0u64;
            while let Some((a, b)) = sched.grab() {
                local += (a..b).map(|i| i as u64).sum::<u64>();
            }
            seen.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), (0..1000u64).sum());
    }

    #[test]
    fn scheduler_empty() {
        let sched = BlockScheduler::new(0, 8);
        assert_eq!(sched.grab(), None);
    }
}
