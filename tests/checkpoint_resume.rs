//! The process mesh and its checkpoints, end to end over the loopback
//! transport: a 2-rank DPDA run writes one epoch per step, stops as rank 1
//! enters step 1, and resumes from the epoch it left.
//!
//! The stop is timed against the checkpoint on purpose. Rank 0 dawdles after
//! its migration receive, before it writes its shard of epoch 1; rank 1,
//! done with step 0 by then, checks on entering step 1 that epoch 1 is
//! complete on disk. That holds only if no rank starts a step before every
//! shard of the previous epoch is written — otherwise a rank killed there
//! can take its peer down before that peer's shard exists, and the resume
//! falls back an epoch (or to the initial conditions).

use barnes_hut::core::Scheme;
use bhut_proc::ckpt::CkptStore;
use bhut_proc::rank::tags;
use bhut_proc::transport::LocalTransport;
use bhut_proc::{local_mesh, run_rank, ProcConfig, ProcError, RankOutcome, Transport};
use std::collections::BTreeMap;
use std::time::Duration;

/// A loopback endpoint with the timing and the check described above.
struct Probe {
    inner: LocalTransport,
    store: CkptStore,
}

impl Transport for Probe {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, to: usize, tag: u16, payload: &[u8]) -> Result<(), ProcError> {
        self.inner.send(to, tag, payload)
    }

    fn recv(&mut self, from: usize, tag: u16) -> Result<Vec<u8>, ProcError> {
        let got = self.inner.recv(from, tag);
        if self.rank() == 0 && tag == tags::MIGRATE {
            std::thread::sleep(Duration::from_millis(100));
        }
        got
    }

    fn traffic(&self) -> (u64, u64) {
        self.inner.traffic()
    }

    fn on_step(&mut self, step: u64) -> Result<(), ProcError> {
        if self.rank() == 1 && step == 1 {
            assert_eq!(
                self.store.latest_complete_epoch(),
                Some((1, 2)),
                "rank 1 entered step 1 before epoch 1 was complete"
            );
            return Err(ProcError::Injected("rank 1 stops entering step 1".into()));
        }
        Ok(())
    }
}

/// Run `cfg` on a 2-rank loopback mesh, each endpoint wrapped by `wrap`.
fn run<T: Transport + 'static>(
    cfg: &ProcConfig,
    wrap: impl Fn(LocalTransport) -> T,
) -> Vec<Result<RankOutcome, ProcError>> {
    let handles: Vec<_> = local_mesh(2)
        .into_iter()
        .map(|t| {
            let (mut t, cfg) = (wrap(t), cfg.clone());
            std::thread::spawn(move || run_rank(&mut t, &cfg))
        })
        .collect();
    handles.into_iter().map(|h| h.join().expect("a rank panicked")).collect()
}

/// Every particle's final position and velocity, and its last-step
/// acceleration and potential, as bits, by id.
fn by_id(outcomes: Vec<Result<RankOutcome, ProcError>>) -> BTreeMap<u32, [u64; 10]> {
    let (mut state, mut forces) = (BTreeMap::new(), BTreeMap::new());
    for o in outcomes.into_iter().map(|o| o.expect("rank run")) {
        for q in &o.owned {
            let bits = [q.pos.x, q.pos.y, q.pos.z, q.vel.x, q.vel.y, q.vel.z].map(f64::to_bits);
            assert!(state.insert(q.id, bits).is_none(), "particle {} owned twice", q.id);
        }
        for &(id, a, phi) in &o.forces {
            assert!(forces.insert(id, [a.x, a.y, a.z, phi].map(f64::to_bits)).is_none());
        }
    }
    assert_eq!(state.len(), forces.len());
    state
        .into_iter()
        .map(|(id, s)| {
            let f = forces[&id];
            (id, [s[0], s[1], s[2], s[3], s[4], s[5], f[0], f[1], f[2], f[3]])
        })
        .collect()
}

#[test]
fn a_run_stopped_entering_a_step_resumes_from_the_epoch_before_it_bitwise() {
    let dir = std::env::temp_dir().join(format!("bhut_checkpoint_resume_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let base =
        ProcConfig { scheme: Scheme::Dpda, n: 192, steps: 3, seed: 7, ..ProcConfig::default() };
    let reference = by_id(run(&base, |t| t));
    assert_eq!(reference.len(), base.n);

    let cfg = ProcConfig {
        ckpt_dir: Some(dir.to_string_lossy().into_owned()),
        ckpt_every: 1,
        ..base.clone()
    };
    let store = CkptStore::new(&dir);
    let stopped = run(&cfg, |inner| Probe { inner, store: store.clone() });
    assert!(
        matches!(stopped[1], Err(ProcError::Injected(_))),
        "rank 1 must stop at step 1: {:?}",
        stopped[1].as_ref().err()
    );
    assert!(stopped[0].is_err(), "rank 0 cannot finish without rank 1");
    assert_eq!(store.latest_complete_epoch(), Some((1, 2)));

    let resumed = by_id(run(&ProcConfig { resume: true, ..cfg }, |t| t));
    assert_eq!(resumed, reference, "the resumed run is the uninterrupted one");
    std::fs::remove_dir_all(&dir).ok();
}
