//! Minimal fork-join helpers over std scoped threads.
//!
//! We deliberately avoid a global thread pool: each parallel region spawns
//! scoped workers, which keeps lifetimes simple (borrows of the particle
//! arrays flow straight in) and matches the bulk-synchronous structure of a
//! treecode time-step. Thread counts are small (≤ cores), so spawn cost is
//! negligible next to a force phase.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
