//! Minimal fork-join helpers over std scoped threads.
//!
//! We deliberately avoid a global thread pool: each parallel region spawns
//! scoped workers, which keeps lifetimes simple (borrows of the particle
//! arrays flow straight in) and matches the bulk-synchronous structure of a
//! treecode time-step. Thread counts are small (≤ cores), so spawn cost is
//! negligible next to a force phase.

use std::sync::atomic::{AtomicU64, Ordering};

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

/// One zone's unclaimed range `[front, back)`, packed `front << 32 | back`
/// so that either end moves with one compare-and-swap. Padded to a cache
/// line: each owner claims from its own zone's front once per item.
#[repr(align(64))]
struct Cursor(AtomicU64);

/// Costzones with tail stealing: one front/back cursor per zone of a split
/// (`bounds`, as `zones + 1` boundaries over the items). Worker `t` owns zone
/// `t` and takes it front to back; once it is empty the worker takes items
/// from the *back* of the other zones, so a zone's owner and its thieves
/// meet in the middle and every index is handed out exactly once.
pub(crate) struct ZoneCursors {
    zones: Vec<Cursor>,
}

impl ZoneCursors {
    pub(crate) fn new(bounds: &[usize]) -> Self {
        assert!(bounds.len() >= 2, "a split has at least one zone");
        let zones = bounds
            .windows(2)
            .map(|w| {
                let (front, back) = (w[0] as u64, w[1] as u64);
                assert!(front <= back && back <= u32::MAX as u64, "zone {w:?} does not pack");
                Cursor(AtomicU64::new(front << 32 | back))
            })
            .collect();
        ZoneCursors { zones }
    }

    fn zones(&self) -> usize {
        self.zones.len()
    }

    /// Take one index off zone `z`: its front when `owner`, its back
    /// otherwise. `None` once the zone is empty.
    fn take(&self, z: usize, owner: bool) -> Option<usize> {
        let cursor = &self.zones[z].0;
        // Relaxed suffices: the word is the only shared state, and its
        // modification order alone makes each claim unique.
        let mut cur = cursor.load(Ordering::Relaxed);
        loop {
            let (front, back) = (cur >> 32, cur & u32::MAX as u64);
            if front >= back {
                return None;
            }
            let (next, taken) = if owner { (cur + (1 << 32), front) } else { (cur - 1, back - 1) };
            match cursor.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Some(taken as usize),
                Err(seen) => cur = seen,
            }
        }
    }

    /// The claims of worker `t`: `(zone, index)` pairs, its own zone first.
    pub(crate) fn claims(&self, t: usize) -> Claims<'_> {
        assert!(t < self.zones(), "worker {t} owns no zone");
        Claims { cursors: self, worker: t, zone: t }
    }
}

/// The items one worker runs, as `(zone, index)`: the front of its own zone
/// until that is empty, then the back of the next non-empty zone in ring
/// order. A thief stays on one victim until it is empty, so the items it
/// takes are neighbours (in reverse).
pub(crate) struct Claims<'a> {
    cursors: &'a ZoneCursors,
    worker: usize,
    zone: usize,
}

impl Iterator for Claims<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let p = self.cursors.zones();
        // Zones only ever shrink, so one pass past the empty ones suffices:
        // a zone skipped here never refills.
        while self.zone != self.worker + p {
            let z = self.zone % p;
            if let Some(i) = self.cursors.take(z, z == self.worker) {
                return Some((z, i));
            }
            self.zone += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

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

    /// Owners claim their zones from the front while thieves claim the
    /// others' from the back, concurrently: every index is handed out
    /// exactly once, under the zone it lies in, and an owner's own claims
    /// come in increasing order.
    #[test]
    fn zone_cursors_hand_out_every_index_exactly_once() {
        // Zone sizes per round, empty zones included (a zone per worker).
        let splits: &[&[usize]] = &[
            &[0],
            &[37],
            &[0, 0],
            &[1, 0],
            &[0, 500],
            &[250, 250],
            &[3, 0, 400],
            &[0, 0, 0],
            &[100, 1, 100],
            &[0, 0, 0, 0, 0, 0],
            &[7, 0, 900, 0, 3, 50],
            &[200, 200, 200, 200, 200, 200],
        ];
        for round in 0..200 {
            for sizes in splits {
                let p = sizes.len();
                let mut bounds = vec![0];
                for s in *sizes {
                    bounds.push(bounds.last().unwrap() + s);
                }
                let total = *bounds.last().unwrap();
                let cursors = ZoneCursors::new(&bounds);
                let start = Barrier::new(p);
                let taken = fork_join(p, |t| {
                    start.wait();
                    cursors.claims(t).collect::<Vec<_>>()
                });
                let mut seen = vec![0u32; total];
                for (t, claims) in taken.iter().enumerate() {
                    let mut last_own = None;
                    for &(z, i) in claims {
                        assert!(bounds[z] <= i && i < bounds[z + 1], "round {round}: {i} in {z}");
                        seen[i] += 1;
                        if z == t {
                            assert!(last_own < Some(i), "round {round}: owner {t} out of order");
                            last_own = Some(i);
                        }
                    }
                }
                assert!(seen.iter().all(|&k| k == 1), "round {round}, zones {sizes:?}: {seen:?}");
            }
        }
    }

    #[test]
    fn a_lone_worker_takes_its_zone_front_to_back() {
        let cursors = ZoneCursors::new(&[0, 5]);
        let got: Vec<_> = cursors.claims(0).collect();
        assert_eq!(got, (0..5).map(|i| (0, i)).collect::<Vec<_>>());
        // A thief on a two-zone split takes the other zone back to front.
        let cursors = ZoneCursors::new(&[0, 0, 4]);
        let got: Vec<_> = cursors.claims(0).collect();
        assert_eq!(got, vec![(1, 3), (1, 2), (1, 1), (1, 0)]);
        assert_eq!(cursors.claims(1).next(), None);
    }
}
