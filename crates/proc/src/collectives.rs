//! The collective operations of the Grama–Kumar–Sameh formulations,
//! expressed over any [`Transport`].
//!
//! These are the same five communication patterns the virtual-clock
//! machine model charges for — broadcast (SPSA tree exchange), all-gather
//! (replicated-tree state assembly), reduce/all-reduce (SPDA load
//! vectors), pairwise bin exchange (particle migration) and barrier — now
//! executed for real. Each is deadlock-free over blocking point-to-point
//! sends because every symmetric pair is ordered by rank parity: the
//! lower rank sends first, the higher rank receives first.
//!
//! Determinism contract: any combining operation folds contributions in
//! **fixed rank index order** (0, 1, …, p−1), never arrival order, so the
//! result is a pure function of the inputs — the property pinned by the
//! rank-order-independence proptest in this crate.

use crate::transport::{ProcError, Transport};
use std::borrow::Cow;

/// Root's payload is delivered to every rank; returns the payload.
pub fn broadcast(
    t: &mut dyn Transport,
    root: usize,
    tag: u16,
    payload: Option<Vec<u8>>,
) -> Result<Vec<u8>, ProcError> {
    t.on_collective("broadcast")?;
    let (rank, p) = (t.rank(), t.size());
    if rank == root {
        let payload = payload.expect("root must supply the broadcast payload");
        for to in 0..p {
            if to != root {
                t.send(to, tag, &payload)?;
            }
        }
        Ok(payload)
    } else {
        t.recv(root, tag)
    }
}

/// Every rank contributes `mine`; every rank receives all contributions,
/// indexed by rank. An owned contribution (a `Vec<u8>`) moves into its own
/// slot once sent, so the rank holds one copy of it; a borrowed one is
/// copied there.
pub fn all_gather<'a>(
    t: &mut dyn Transport,
    tag: u16,
    mine: impl Into<Cow<'a, [u8]>>,
) -> Result<Vec<Vec<u8>>, ProcError> {
    t.on_collective("all_gather")?;
    let (rank, p, mine) = (t.rank(), t.size(), mine.into());
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); p];
    for (peer, slot) in out.iter_mut().enumerate() {
        if peer == rank {
            continue;
        }
        if rank < peer {
            t.send(peer, tag, &mine)?;
            *slot = t.recv(peer, tag)?;
        } else {
            *slot = t.recv(peer, tag)?;
            t.send(peer, tag, &mine)?;
        }
    }
    out[rank] = mine.into_owned();
    Ok(out)
}

/// Element-wise sum of every rank's `vals` on every rank. Contributions
/// are folded in rank index order so floating-point rounding is identical
/// no matter which rank computes it or when messages arrive.
pub fn all_reduce_sum_f64(
    t: &mut dyn Transport,
    tag: u16,
    vals: &[f64],
) -> Result<Vec<f64>, ProcError> {
    t.on_collective("all_reduce")?;
    let contributions = all_gather(t, tag, crate::wire::encode_f64s(vals))?;
    let mut acc = vec![0.0f64; vals.len()];
    for (rank, bytes) in contributions.iter().enumerate() {
        let part = crate::wire::decode_f64s(bytes)
            .map_err(|e| ProcError::Protocol(format!("rank {rank} reduce payload: {e}")))?;
        if part.len() != acc.len() {
            return Err(ProcError::Protocol(format!(
                "rank {rank} contributed {} values to a {}-wide reduction",
                part.len(),
                acc.len()
            )));
        }
        for (a, v) in acc.iter_mut().zip(&part) {
            *a += *v;
        }
    }
    Ok(acc)
}

/// Element-wise sum of every rank's `vals`, in rank index order, delivered
/// to `root` only (other ranks get their own contribution back untouched).
pub fn reduce_sum_f64(
    t: &mut dyn Transport,
    root: usize,
    tag: u16,
    vals: &[f64],
) -> Result<Vec<f64>, ProcError> {
    t.on_collective("reduce")?;
    let (rank, p) = (t.rank(), t.size());
    if rank == root {
        let mut parts: Vec<Option<Vec<f64>>> = vec![None; p];
        parts[rank] = Some(vals.to_vec());
        for (peer, slot) in parts.iter_mut().enumerate() {
            if peer == rank {
                continue;
            }
            let bytes = t.recv(peer, tag)?;
            let part = crate::wire::decode_f64s(&bytes)
                .map_err(|e| ProcError::Protocol(format!("rank {peer} reduce payload: {e}")))?;
            *slot = Some(part);
        }
        let mut acc = vec![0.0f64; vals.len()];
        for part in parts.into_iter().flatten() {
            if part.len() != acc.len() {
                return Err(ProcError::Protocol("ragged reduction".into()));
            }
            for (a, v) in acc.iter_mut().zip(&part) {
                *a += *v;
            }
        }
        Ok(acc)
    } else {
        t.send(root, tag, &crate::wire::encode_f64s(vals))?;
        Ok(vals.to_vec())
    }
}

/// Pairwise bin exchange: `outgoing[peer]` is shipped to `peer`; returns
/// the payload received from each peer (empty for self). This is the
/// particle-migration pattern after a repartition.
pub fn exchange(
    t: &mut dyn Transport,
    tag: u16,
    outgoing: &[Vec<u8>],
) -> Result<Vec<Vec<u8>>, ProcError> {
    t.on_collective("exchange")?;
    let (rank, p) = (t.rank(), t.size());
    assert_eq!(outgoing.len(), p, "one outgoing bin per rank");
    let mut incoming: Vec<Vec<u8>> = vec![Vec::new(); p];
    for peer in 0..p {
        if peer == rank {
            continue;
        }
        if rank < peer {
            t.send(peer, tag, &outgoing[peer])?;
            incoming[peer] = t.recv(peer, tag)?;
        } else {
            incoming[peer] = t.recv(peer, tag)?;
            t.send(peer, tag, &outgoing[peer])?;
        }
    }
    Ok(incoming)
}

/// Every rank blocks until all ranks have arrived.
pub fn barrier(t: &mut dyn Transport, tag: u16) -> Result<(), ProcError> {
    t.on_collective("barrier")?;
    all_gather(t, tag, Vec::new()).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::local_mesh;
    use std::time::Duration;

    /// Run `f(rank transport)` on every endpoint concurrently; panics in
    /// any closure propagate.
    pub(crate) fn run_ranks<R: Send + 'static>(
        p: usize,
        f: impl Fn(crate::transport::LocalTransport) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let f = std::sync::Arc::new(f);
        let handles: Vec<_> = local_mesh(p)
            .into_iter()
            .map(|t| {
                let f = std::sync::Arc::clone(&f);
                std::thread::spawn(move || f(t))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    }

    #[test]
    fn broadcast_reaches_every_rank() {
        let got = run_ranks(4, |mut t| {
            let payload = (t.rank() == 2).then(|| b"state".to_vec());
            broadcast(&mut t, 2, 1, payload).unwrap()
        });
        assert!(got.iter().all(|g| g == b"state"));
    }

    #[test]
    fn all_gather_is_rank_indexed_everywhere() {
        let got = run_ranks(5, |mut t| {
            let mine = vec![t.rank() as u8; t.rank() + 1];
            all_gather(&mut t, 2, &mine).unwrap()
        });
        for view in got {
            for (rank, contribution) in view.iter().enumerate() {
                assert_eq!(contribution, &vec![rank as u8; rank + 1]);
            }
        }
    }

    #[test]
    fn all_reduce_sums_in_rank_order_on_every_rank() {
        let got = run_ranks(4, |mut t| {
            let mine = vec![t.rank() as f64, 1.0];
            all_reduce_sum_f64(&mut t, 3, &mine).unwrap()
        });
        for view in &got {
            assert_eq!(view, &vec![6.0, 4.0]);
        }
        let root_view = run_ranks(3, |mut t| {
            let mine = vec![(t.rank() + 1) as f64];
            reduce_sum_f64(&mut t, 1, 4, &mine).unwrap()
        });
        assert_eq!(root_view[1], vec![6.0]);
    }

    #[test]
    fn exchange_routes_each_bin_to_its_peer() {
        let got = run_ranks(4, |mut t| {
            let outgoing: Vec<Vec<u8>> =
                (0..4).map(|to| vec![(10 * t.rank() + to) as u8]).collect();
            exchange(&mut t, 5, &outgoing).unwrap()
        });
        for (rank, incoming) in got.iter().enumerate() {
            for (from, payload) in incoming.iter().enumerate() {
                if from == rank {
                    assert!(payload.is_empty());
                } else {
                    assert_eq!(payload, &vec![(10 * from + rank) as u8]);
                }
            }
        }
    }

    #[test]
    fn barrier_completes_and_peer_death_unblocks_waiters() {
        run_ranks(3, |mut t| barrier(&mut t, 6).unwrap());

        // Rank 2 dies before participating; ranks 0 and 1 must get a
        // PeerClosed (or timeout) error instead of hanging forever.
        let errs = run_ranks(3, |mut t| {
            t.set_recv_timeout(Duration::from_secs(5));
            if t.rank() == 2 {
                drop(t); // simulated crash
                return None;
            }
            Some(matches!(barrier(&mut t, 7).unwrap_err(), ProcError::PeerClosed { rank: 2 }))
        });
        assert_eq!(errs[0], Some(true));
        assert_eq!(errs[1], Some(true));
        assert_eq!(errs[2], None);
    }
}
