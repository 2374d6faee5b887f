//! Per-rank step checkpoints: the restartable unit behind crash recovery.
//!
//! Layout: one directory per **epoch** under the checkpoint root, one shard
//! per rank inside it:
//!
//! ```text
//! <ckpt_dir>/epoch00000004/rank2of4.ckpt
//! ```
//!
//! Epoch `e` means "`e` steps completed": shard `r` holds exactly the
//! particles rank `r` owned after step `e-1`'s migration, serialized on the
//! Snapshot v2 schema with [`bhut_sim::snapshot::save_checkpoint`] — atomic
//! (temp file + rename) and self-validating (trailing marker). An epoch is
//! **complete** iff all of its shards load cleanly; torn or missing shards
//! make the whole epoch invisible to [`CkptStore::latest_complete_epoch`],
//! so a crash mid-checkpoint can only ever cost one cadence interval, never
//! correctness.
//!
//! Because the replicated-tree step loop makes the global trajectory a pure
//! function of the global state (masked force rows are bitwise equal to
//! full-run rows, and the rebalance inputs are all-reduced over every
//! particle), a resume may either continue the recorded ownership exactly
//! (same rank count: each rank takes its own shard) or re-derive ownership
//! from the assembled global state (changed rank count, i.e. `--degrade`) —
//! both continue the *state* trajectory bit-for-bit.

use bhut_geom::{Particle, ParticleSet};
use bhut_sim::snapshot::{load_checkpoint, save_checkpoint, Snapshot};
use std::io;
use std::path::{Path, PathBuf};

/// Epoch/shard naming and validation over one checkpoint directory.
#[derive(Debug, Clone)]
pub struct CkptStore {
    dir: PathBuf,
}

impl CkptStore {
    pub fn new(dir: impl Into<PathBuf>) -> CkptStore {
        CkptStore { dir: dir.into() }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn epoch_dir(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch{epoch:08}"))
    }

    pub fn shard_path(&self, epoch: u64, rank: usize, of: usize) -> PathBuf {
        self.epoch_dir(epoch).join(format!("rank{rank}of{of}.ckpt"))
    }

    /// Write rank `rank`'s shard of epoch `epoch` atomically.
    pub fn write_shard(
        &self,
        epoch: u64,
        rank: usize,
        of: usize,
        owned: &[Particle],
    ) -> io::Result<()> {
        std::fs::create_dir_all(self.epoch_dir(epoch))?;
        let snap = Snapshot {
            time: epoch as f64,
            particles: ParticleSet::new(owned.to_vec()),
            rungs: None,
            config: None,
        };
        save_checkpoint(&self.shard_path(epoch, rank, of), &snap)
    }

    /// The newest epoch all of whose shards validate, with its rank count:
    /// `(epoch, of)`. Deterministic over a quiescent directory, so every
    /// resuming rank picks the same epoch without coordination (no new
    /// epoch can complete before all ranks have passed their startup scan —
    /// completing one requires every rank to finish a step first).
    pub fn latest_complete_epoch(&self) -> Option<(u64, usize)> {
        let mut epochs = self.epochs();
        epochs.sort_unstable();
        epochs.into_iter().rev().find_map(|epoch| Some((epoch, self.complete_width(epoch)?)))
    }

    /// Number of complete epochs currently on disk (supervisor accounting).
    pub fn complete_epochs(&self) -> u64 {
        self.epochs().into_iter().filter(|&epoch| self.complete_width(epoch).is_some()).count()
            as u64
    }

    /// The epochs that have a directory, in directory order.
    fn epochs(&self) -> Vec<u64> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return Vec::new() };
        entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str()?.strip_prefix("epoch")?.parse().ok())
            .collect()
    }

    /// The rank count `p` at which epoch `epoch` is complete: the widest of
    /// the `p ≥ 1` its shard names (`rank{r}of{p}.ckpt`) claim whose `p`
    /// shards all load. Every width present is tried, widest first, never in
    /// directory order: a `--degrade` restart can complete an epoch at width
    /// p−1 beside a stale shard of width p, and a name claiming zero ranks
    /// would make an empty epoch complete.
    fn complete_width(&self, epoch: u64) -> Option<usize> {
        let mut widths: Vec<usize> = std::fs::read_dir(self.epoch_dir(epoch))
            .ok()?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name();
                let rest = name.to_str()?.strip_prefix("rank")?.strip_suffix(".ckpt")?;
                let (_, of) = rest.split_once("of")?;
                of.parse().ok().filter(|&of| of > 0)
            })
            .collect();
        widths.sort_unstable();
        widths.dedup();
        widths.into_iter().rev().find(|&of| {
            (0..of).all(|rank| load_checkpoint(&self.shard_path(epoch, rank, of)).is_ok())
        })
    }

    /// Load every shard of epoch `epoch`; `shards[r]` is rank `r`'s owned
    /// set as checkpointed.
    pub fn load_epoch(&self, epoch: u64, of: usize) -> io::Result<Vec<Vec<Particle>>> {
        (0..of)
            .map(|rank| {
                let snap = load_checkpoint(&self.shard_path(epoch, rank, of))?;
                Ok(snap.particles.particles)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use bhut_geom::Vec3;

    fn particle(id: u32) -> Particle {
        Particle::new(id, 1.0 + id as f64, Vec3::new(id as f64, 0.5, -1.0), Vec3::ZERO)
    }

    /// A store in a fresh directory, removed when the guard drops.
    fn tmp_store(name: &str) -> (ScratchDir, CkptStore) {
        let dir = ScratchDir::new(&format!("ckpt_store_{name}"));
        let store = CkptStore::new(dir.path());
        (dir, store)
    }

    #[test]
    fn empty_or_missing_dir_has_no_epoch() {
        let (_dir, store) = tmp_store("empty");
        assert_eq!(store.latest_complete_epoch(), None);
        std::fs::create_dir_all(store.dir()).unwrap();
        assert_eq!(store.latest_complete_epoch(), None);
    }

    #[test]
    fn complete_epochs_win_over_newer_incomplete_ones() {
        let (_dir, store) = tmp_store("incomplete");
        for rank in 0..3 {
            store.write_shard(2, rank, 3, &[particle(rank as u32)]).unwrap();
        }
        // Epoch 5 exists but is missing rank 2's shard — invisible.
        store.write_shard(5, 0, 3, &[particle(0)]).unwrap();
        store.write_shard(5, 1, 3, &[particle(1)]).unwrap();
        assert_eq!(store.latest_complete_epoch(), Some((2, 3)));

        // Completing epoch 5 promotes it.
        store.write_shard(5, 2, 3, &[particle(2)]).unwrap();
        assert_eq!(store.latest_complete_epoch(), Some((5, 3)));

        // A torn shard (marker chopped off) demotes it again.
        let path = store.shard_path(5, 1, 3);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 10]).unwrap();
        assert_eq!(store.latest_complete_epoch(), Some((2, 3)));

        // A degraded restart completes epoch 6 at width 2 beside a stale
        // shard of width 3: complete at 2, whichever name the directory
        // lists first.
        store.write_shard(6, 2, 3, &[particle(2)]).unwrap();
        store.write_shard(6, 0, 2, &[particle(0), particle(2)]).unwrap();
        assert_eq!(store.latest_complete_epoch(), Some((2, 3)));
        store.write_shard(6, 1, 2, &[particle(1)]).unwrap();
        assert_eq!(store.latest_complete_epoch(), Some((6, 2)));

        // A shard name claiming zero ranks does not make epoch 8 complete.
        store.write_shard(8, 0, 0, &[]).unwrap();
        assert_eq!(store.latest_complete_epoch(), Some((6, 2)));
        assert_eq!(store.complete_epochs(), 2);
    }

    #[test]
    fn load_epoch_roundtrips_shards_bitwise() {
        let (_dir, store) = tmp_store("roundtrip");
        let owned: Vec<Vec<Particle>> =
            vec![vec![particle(0), particle(2)], vec![], vec![particle(1)]];
        for (rank, shard) in owned.iter().enumerate() {
            store.write_shard(7, rank, 3, shard).unwrap();
        }
        assert_eq!(store.latest_complete_epoch(), Some((7, 3)));
        let back = store.load_epoch(7, 3).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in back.iter().flatten().zip(owned.iter().flatten()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.pos.x.to_bits(), b.pos.x.to_bits());
            assert_eq!(a.mass.to_bits(), b.mass.to_bits());
        }
    }
}
