//! Epoch-pinned tree snapshots: the publish/pin protocol between the
//! simulation loop (single writer) and concurrent query batches (many
//! readers).
//!
//! ## Protocol
//!
//! An epoch is immutable once published, so the only shared state is which
//! epoch is current: one [`Mutex`] around the generation counter and an
//! `Option<Arc<TreeEpoch>>`. A pin locks, clones the `Arc` out and unlocks;
//! the clone is the pin. A publish permutes the particles into tree order
//! (and, in debug builds, validates the tree) before it takes the lock,
//! then numbers the epoch, swaps it in and unlocks; the `Arc` it displaced
//! is dropped after the unlock, so a superseded tree is freed off the lock.
//! Every critical section is a counter bump and an `Arc` clone or swap, so
//! a pin waits at most for one such section of the publisher, never for a
//! build, a permutation or a free.
//!
//! Retirement is reference counting: once `publish` returns the store holds
//! exactly one epoch, and a superseded one lives exactly as long as the
//! batches that pinned it. Whichever party drops the *last* reference (the
//! publisher, or a query worker finishing a batch against an old epoch)
//! runs `TreeEpoch::drop`, which bumps the shared retired counter surfaced
//! through [`bhut_obs::ServeCounters`].

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};

use bhut_geom::Particle;
use bhut_tree::Tree;

/// An immutable snapshot of the simulation state a query evaluates against:
/// the octree, the particle array its leaves index, and the parameters the
/// force sweep would use (so query results are bit-comparable to the
/// simulation's own forces for that step).
pub struct TreeEpoch {
    /// Monotone publish counter; generation `g` corresponds to the tree
    /// built for simulation step `g - 1` (the first publish is 1).
    pub generation: u64,
    /// The tree as built, except that `order` is the identity.
    pub tree: Tree,
    /// The particles in tree order ([`Tree::permute_to_order`]): a node's
    /// particles are `particles[start..end]`, so the gather and the replay
    /// read them from contiguous memory. Position `k` is no longer the
    /// caller's particle `k`; a particle is named by its id.
    pub particles: Vec<Particle>,
    /// Barnes–Hut opening parameter the epoch was built under.
    pub alpha: f64,
    /// Plummer softening for the force/potential kernels.
    pub eps: f64,
    /// Bumped when the last reference drops; see [`EpochStore::retired`].
    retired: Option<Arc<AtomicU64>>,
}

impl TreeEpoch {
    /// A standalone epoch (no store); useful for tests and for driving
    /// [`crate::FieldQuery`] directly against a one-off tree. `particles`
    /// is the array `tree` was built over, in the caller's order; the epoch
    /// stores it in tree order.
    pub fn standalone(
        generation: u64,
        mut tree: Tree,
        mut particles: Vec<Particle>,
        alpha: f64,
        eps: f64,
    ) -> Self {
        tree.permute_to_order(&mut particles);
        TreeEpoch { generation, tree, particles, alpha, eps, retired: None }
    }
}

impl Drop for TreeEpoch {
    fn drop(&mut self) {
        if let Some(c) = &self.retired {
            c.fetch_add(1, SeqCst);
        }
    }
}

/// What the store's lock guards.
#[derive(Default)]
struct Current {
    /// Highest generation published (0 = none).
    generation: u64,
    /// The epoch readers pin; `None` until the first publish.
    epoch: Option<Arc<TreeEpoch>>,
}

/// Single-publisher / many-reader epoch exchange. See the module docs for
/// the protocol.
pub struct EpochStore {
    current: Mutex<Current>,
    /// Epochs fully released (shared with every [`TreeEpoch`] it vends).
    retired: Arc<AtomicU64>,
}

impl Default for EpochStore {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochStore {
    pub fn new() -> Self {
        EpochStore { current: Mutex::default(), retired: Arc::new(AtomicU64::new(0)) }
    }

    fn lock(&self) -> MutexGuard<'_, Current> {
        // No critical section can panic (a counter bump and an `Arc` clone
        // or swap; the displaced epoch drops after the unlock), so the lock
        // is never poisoned.
        self.current.lock().expect("no epoch-store critical section panics")
    }

    /// Publish a new epoch and return its generation. `particles` is the
    /// array `tree` was built over, in the caller's order; it is stored in
    /// tree order ([`Tree::permute_to_order`], in place) before the epoch
    /// becomes visible. In-flight readers of older epochs are unaffected;
    /// new [`pin`](Self::pin) calls see this epoch immediately. On return
    /// the store references this epoch only: an older one stays alive
    /// while, and only while, a reader still holds it.
    pub fn publish(
        &self,
        mut tree: Tree,
        mut particles: Vec<Particle>,
        alpha: f64,
        eps: f64,
    ) -> u64 {
        tree.permute_to_order(&mut particles);
        // The store does not know the build's leaf capacity, so occupancy
        // is not checked here: only that the tree still describes the
        // permuted particles (moments, cells, links).
        debug_assert_eq!(tree.validate(&particles, usize::MAX), Ok(()), "publishing a broken tree");
        let retired = Some(Arc::clone(&self.retired));
        let mut current = self.lock();
        current.generation += 1;
        let generation = current.generation;
        let epoch = TreeEpoch { generation, tree, particles, alpha, eps, retired };
        let displaced = current.epoch.replace(Arc::new(epoch));
        drop(current);
        // Freed here, off the lock, unless a reader still holds it.
        drop(displaced);
        generation
    }

    /// Pin the current epoch: returns a reference that keeps the epoch
    /// alive until dropped. `None` until the first
    /// [`publish`](Self::publish).
    pub fn pin(&self) -> Option<Arc<TreeEpoch>> {
        self.lock().epoch.clone()
    }

    /// Highest generation published so far (0 = none). The *epoch lag* of a
    /// batch is `store.generation() - pinned.generation`.
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Epochs whose last reference has dropped.
    pub fn retired(&self) -> u64 {
        self.retired.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhut_geom::Vec3;
    use bhut_tree::{build::build, BuildParams};

    fn particles(n: usize, seed: u64) -> Vec<Particle> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                Particle::new(i as u32, 0.5 + next(), Vec3::new(next(), next(), next()), Vec3::ZERO)
            })
            .collect()
    }

    fn epoch_for(n: usize, seed: u64) -> (Tree, Vec<Particle>) {
        let p = particles(n, seed);
        let tree = build(&p, BuildParams { leaf_capacity: 8, ..Default::default() });
        (tree, p)
    }

    /// Debug builds hold every published tree to the particles it is
    /// published with, after the permutation into tree order: a body that
    /// moved out of its cell since the build is refused before any reader
    /// can pin the epoch.
    #[cfg(debug_assertions)]
    #[test]
    fn publish_validates_the_permuted_tree_in_debug_builds() {
        let store = EpochStore::new();
        let (tree, p) = epoch_for(64, 5);
        assert_eq!(store.publish(tree, p, 0.5, 1e-4), 1);
        let (tree, mut p) = epoch_for(64, 6);
        p[tree.order[17] as usize].pos.x += 3.0;
        let publish = std::panic::AssertUnwindSafe(|| store.publish(tree, p, 0.5, 1e-4));
        let err = std::panic::catch_unwind(publish).expect_err("a broken tree was published");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(
            msg.contains("publishing a broken tree") && msg.contains("outside its cell"),
            "{msg}"
        );
        assert_eq!(store.generation(), 1);
        assert_eq!(store.pin().expect("the first epoch").generation, 1);
    }

    #[test]
    fn pin_before_first_publish_is_none() {
        let store = EpochStore::new();
        assert!(store.pin().is_none());
        assert_eq!(store.generation(), 0);
    }

    #[test]
    fn publish_pin_and_retire() {
        let store = EpochStore::new();
        let (t1, p1) = epoch_for(64, 1);
        assert_eq!(store.publish(t1, p1, 0.5, 1e-4), 1);
        let pinned = store.pin().expect("epoch available");
        assert_eq!(pinned.generation, 1);
        assert_eq!(store.generation(), 1);

        // Publishing two more epochs releases the store's reference to
        // generation 1; it survives because we hold one.
        for s in 2..4u64 {
            let (t, p) = epoch_for(64, s);
            assert_eq!(store.publish(t, p, 0.5, 1e-4), s);
        }
        assert_eq!(pinned.generation, 1, "pinned epoch immutable across publishes");
        assert_eq!(store.pin().unwrap().generation, 3);

        // Dropping our pin retires generation 1 at once.
        let before = store.retired();
        drop(pinned);
        assert_eq!(store.retired(), before + 1, "old epochs retire once unpinned");
    }

    /// Between publishes the store references the current epoch only: a
    /// superseded epoch retires at the publish that displaces it, or, if a
    /// reader holds it, when that reader lets go.
    #[test]
    fn publish_leaves_one_epoch_resident_beside_held_pins() {
        let store = EpochStore::new();
        let publish = |seed: u64| {
            let (t, p) = epoch_for(32, seed);
            store.publish(t, p, 0.5, 1e-4);
        };
        let resident = || store.generation() - store.retired();
        for s in 0..6 {
            publish(s);
            assert_eq!(resident(), 1, "publish {} with no pin held", s + 1);
        }
        let held = store.pin().unwrap();
        for s in 0..6 {
            publish(100 + s);
            assert_eq!(resident(), 2, "the held epoch and the current one");
        }
        drop(held);
        assert_eq!(resident(), 1, "the held epoch retires with its last pin");
    }

    /// Both ways into an epoch store its particles in tree order: `order`
    /// is the identity and position `k` holds the particle the built tree's
    /// `order[k]` named.
    #[test]
    fn epochs_hold_their_particles_in_tree_order() {
        let (tree, p) = epoch_for(300, 5);
        let store = EpochStore::new();
        store.publish(tree.clone(), p.clone(), 0.5, 1e-4);
        let standalone = TreeEpoch::standalone(1, tree.clone(), p.clone(), 0.5, 1e-4);
        for epoch in [&*store.pin().unwrap(), &standalone] {
            epoch.tree.check_invariants(p.len()).unwrap();
            assert!(epoch.tree.order.iter().enumerate().all(|(k, &i)| i as usize == k));
            let named: Vec<Particle> = tree.order.iter().map(|&i| p[i as usize]).collect();
            assert_eq!(epoch.particles, named);
        }
    }

    #[test]
    fn retirement_counts_only_after_last_reference() {
        let store = EpochStore::new();
        let (t, p) = epoch_for(32, 9);
        store.publish(t, p, 0.5, 1e-4);
        let held = store.pin().unwrap();
        // Publish well past generation 1.
        for s in 0..6 {
            let (t, p) = epoch_for(32, 10 + s);
            store.publish(t, p, 0.5, 1e-4);
        }
        let retired_while_held = store.retired();
        drop(held);
        assert_eq!(
            store.retired(),
            retired_while_held + 1,
            "dropping the last pin retires exactly the held epoch"
        );
    }
}
