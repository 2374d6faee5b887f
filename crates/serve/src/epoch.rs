//! Epoch-pinned tree snapshots: the publish/pin protocol between the
//! simulation loop (single writer) and concurrent query batches (many
//! readers).
//!
//! The design goal is a *lock-free read path*: pinning the current epoch is
//! two atomic RMWs and an `Arc` clone — no mutex, no allocation, no
//! coordination with the publisher. The publisher takes a private mutex
//! (publishes are already serialized by the simulation loop; the lock just
//! makes the store misuse-proof) and never blocks readers.
//!
//! ## Protocol
//!
//! The store keeps a small ring of slots. Each slot holds an
//! `Option<Arc<TreeEpoch>>` plus a pin count; `current` names the slot
//! readers should pin.
//!
//! * **Pin** (reader): load `current`, `fetch_add` the slot's pin count,
//!   then re-load `current`. If it still names the slot, clone the `Arc`
//!   out and unpin; otherwise unpin and retry. The re-check means a reader
//!   only ever dereferences a slot the publisher is *not* mutating: the
//!   publisher writes only slots that are not `current` and have zero pins,
//!   and it flips `current` (release) strictly after the slot's contents
//!   are in place, so a verify that passes happens-after the write.
//! * **Publish** (writer): pick any slot that is neither `current` nor
//!   pinned (spinning across the ring until one frees — with `SLOTS` ≥ 3
//!   this only waits for the nanoseconds a lagging reader needs between its
//!   failed verify and its unpin), write the new epoch into it, then flip
//!   `current`. Then empty the previous `current` slot as soon as its pin
//!   count reads zero (the victim's `slot != current && pins == 0`
//!   condition, and the same short wait); every other slot is already
//!   empty, so the store holds one epoch between publishes. All atomics
//!   are `SeqCst`; the total order makes the pin-then-verify /
//!   check-pins-then-write handshake airtight (a reader whose verify
//!   passed holds its pin *visibly* before any publisher pin-check that
//!   could target the slot).
//!
//! Retirement is reference counting: emptying a slot drops the store's
//! `Arc`, so once `publish` returns the store holds exactly one epoch, and
//! a superseded one lives exactly as long as the batches that pinned it.
//! Whichever party drops the *last* reference (the publisher, or a query
//! worker finishing a batch against an old epoch) runs `TreeEpoch::drop`,
//! which bumps the shared retired counter surfaced through
//! [`bhut_obs::ServeCounters`].

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

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

/// Ring size. Only the current slot holds an epoch between publishes; the
/// others are empty and may carry a straggler's transient pin (a reader
/// between its failed verify and its unpin). Three is the minimum for the
/// publisher to always find a free victim (one current, one pinned by a
/// straggler, one free); four gives slack for a reader preempted mid-pin.
const SLOTS: usize = 4;

/// `current` value before the first publish.
const NONE: usize = usize::MAX;

struct Slot {
    pins: AtomicUsize,
    epoch: UnsafeCell<Option<Arc<TreeEpoch>>>,
}

/// Single-publisher / many-reader epoch exchange. See the module docs for
/// the protocol and its safety argument.
pub struct EpochStore {
    slots: [Slot; SLOTS],
    /// Index of the slot readers should pin; [`NONE`] until first publish.
    current: AtomicUsize,
    /// Serializes publishers and owns the generation counter.
    publish: Mutex<u64>,
    /// Highest generation published (readable without the lock).
    published: AtomicU64,
    /// Epochs fully released (shared with every [`TreeEpoch`] it vends).
    retired: Arc<AtomicU64>,
}

// SAFETY: the `UnsafeCell`s are only written by the publisher while it can
// prove (pins == 0, slot != current, publish mutex held) that no reader is
// or can start dereferencing the slot, and only read by readers whose
// pin+verify handshake proves the publisher cannot pick the slot as a
// victim. See the module docs.
unsafe impl Sync for EpochStore {}
unsafe impl Send for EpochStore {}

impl Default for EpochStore {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochStore {
    pub fn new() -> Self {
        EpochStore {
            slots: std::array::from_fn(|_| Slot {
                pins: AtomicUsize::new(0),
                epoch: UnsafeCell::new(None),
            }),
            current: AtomicUsize::new(NONE),
            publish: Mutex::new(0),
            published: AtomicU64::new(0),
            retired: Arc::new(AtomicU64::new(0)),
        }
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
        let mut gen_guard = self.publish.lock().unwrap();
        *gen_guard += 1;
        let generation = *gen_guard;
        let epoch = Arc::new(TreeEpoch {
            generation,
            tree,
            particles,
            alpha,
            eps,
            retired: Some(Arc::clone(&self.retired)),
        });
        // `current` only changes under the publish lock, so it is stable
        // for the duration of this call.
        let cur = self.current.load(SeqCst);
        let victim = loop {
            let free = (0..SLOTS).find(|&i| i != cur && self.slots[i].pins.load(SeqCst) == 0);
            match free {
                Some(i) => break i,
                // Every non-current slot is momentarily pinned by readers
                // between a failed verify and their unpin; yield and retry.
                None => std::thread::yield_now(),
            }
        };
        // SAFETY: victim != current and pins == 0 under the publish lock;
        // no reader can begin a dereference of this slot until `current`
        // names it again (below), which happens-after this write.
        unsafe {
            *self.slots[victim].epoch.get() = Some(epoch);
        }
        self.current.store(victim, SeqCst);
        self.published.store(generation, SeqCst);

        // Between publishes only the current slot is occupied, so the one
        // superseded epoch the store still references sits in the slot
        // `current` named before the flip. A reader pinning it now loaded
        // `current` before the flip: its verify fails and it unpins, or it
        // passed and is cloning the `Arc` out; either way the pin drains.
        if cur != NONE {
            while self.slots[cur].pins.load(SeqCst) != 0 {
                std::thread::yield_now();
            }
            // SAFETY: cur != current and pins == 0 under the publish lock,
            // the victim's argument: no reader can dereference this slot
            // until a later publish names it `current` again.
            unsafe {
                *self.slots[cur].epoch.get() = None;
            }
        }
        generation
    }

    /// Pin the current epoch: returns a reference that keeps the epoch
    /// alive (and un-reusable by the publisher) until dropped. `None` until
    /// the first [`publish`](Self::publish). Lock-free; never blocks the
    /// publisher or other readers.
    pub fn pin(&self) -> Option<Arc<TreeEpoch>> {
        loop {
            let cur = self.current.load(SeqCst);
            if cur == NONE {
                return None;
            }
            let slot = &self.slots[cur];
            slot.pins.fetch_add(1, SeqCst);
            if self.current.load(SeqCst) == cur {
                // Verified: the publisher cannot write this slot while our
                // pin is visible, and the epoch it holds is fully
                // published. Clone out and release the slot pin; the Arc
                // itself is the long-lived pin.
                // SAFETY: see module docs — verify-after-pin passed.
                let arc = unsafe { (*slot.epoch.get()).clone() };
                slot.pins.fetch_sub(1, SeqCst);
                if let Some(a) = arc {
                    return Some(a);
                }
                // Unreachable in practice (a current slot is never empty),
                // but loop rather than panic if it ever is.
            } else {
                // Publisher moved on between our load and our pin; retry.
                slot.pins.fetch_sub(1, SeqCst);
            }
        }
    }

    /// Highest generation published so far (0 = none). The *epoch lag* of a
    /// batch is `store.generation() - pinned.generation`.
    pub fn generation(&self) -> u64 {
        self.published.load(SeqCst)
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
        for s in 0..SLOTS as u64 + 2 {
            publish(s);
            assert_eq!(resident(), 1, "publish {} with no pin held", s + 1);
        }
        let held = store.pin().unwrap();
        for s in 0..SLOTS as u64 + 2 {
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
        // Cycle the ring well past the slot that holds generation 1.
        for s in 0..SLOTS as u64 + 2 {
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
