//! The superstep (BSP) execution engine.
//!
//! Virtual processors implement [`Program`]; the [`Machine`] drives them
//! through supersteps. In each superstep every live processor receives the
//! messages whose arrival time has passed its own clock, does some local
//! work (charging its virtual clock through [`Ctx`]), and queues outgoing
//! messages stamped with their send times. Messages from the future stay
//! queued — a busy processor is never synchronized to its senders — and a
//! *blocked* processor idle-advances to the earliest pending arrival, so
//! the final per-processor clocks reflect the true critical path of the
//! simulated execution, including genuine idle waits but no artificial
//! barrier waits.
//!
//! Execution is single-threaded and deterministic: processors step in rank
//! order and inboxes are sorted by (arrival time, source, sequence number).

use crate::cost::CostModel;
use crate::stats::RunReport;
use crate::topology::Topology;

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    pub src: usize,
    pub dst: usize,
    /// Size in words (f64 units) for cost accounting.
    pub words: u64,
    pub payload: M,
}

/// What a processor reports at the end of a superstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Has more local work; step again even with an empty inbox.
    Ready,
    /// Out of local work; only progresses when messages arrive.
    Blocked,
    /// Finished. A `Done` processor still receives messages (they are
    /// dropped) but is not stepped again.
    Done,
}

/// Per-superstep execution context handed to a [`Program`].
pub struct Ctx<'a, M> {
    rank: usize,
    p: usize,
    clock: f64,
    flops: u64,
    inbox: Vec<Envelope<M>>,
    outbox: &'a mut Vec<Envelope<M>>,
    send_times: Vec<f64>,
    sent_words: u64,
    sent_msgs: u64,
    cost: CostModel,
}

impl<M> Ctx<'_, M> {
    /// This processor's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processors.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Messages delivered for this superstep, ordered by arrival.
    pub fn inbox(&mut self) -> Vec<Envelope<M>> {
        std::mem::take(&mut self.inbox)
    }

    /// Charge `flops` floating-point operations of local work.
    pub fn charge_flops(&mut self, flops: u64) {
        self.flops += flops;
        self.clock += self.cost.compute_time(flops);
    }

    /// Queue a message of `words` payload words to `dst`; it is delivered
    /// next superstep. The sender is busy for `t_s + words·t_w`; the message
    /// is stamped with the sender's clock *at the send*, so work done later
    /// in the same superstep does not delay it.
    pub fn send(&mut self, dst: usize, words: u64, payload: M) {
        assert!(dst < self.p, "rank {dst} out of range");
        self.clock += self.cost.t_s + self.cost.t_w * words as f64;
        self.sent_words += words;
        self.sent_msgs += 1;
        self.send_times.push(self.clock);
        self.outbox.push(Envelope { src: self.rank, dst, words, payload });
    }

    /// Current virtual time of this processor.
    pub fn now(&self) -> f64 {
        self.clock
    }
}

/// A virtual processor: stepped once per superstep until it reports
/// [`Status::Done`].
pub trait Program {
    type Msg;

    /// Perform one superstep of work. Implementations should bound the work
    /// done per call (e.g. one bin of particles) so message interleaving is
    /// faithful to a real asynchronous run.
    fn step(&mut self, ctx: &mut Ctx<'_, Self::Msg>) -> Status;
}

/// The machine: a topology plus a cost model.
#[derive(Debug, Clone, Copy)]
pub struct Machine<T: Topology> {
    pub topo: T,
    pub cost: CostModel,
}

impl<T: Topology> Machine<T> {
    pub fn new(topo: T, cost: CostModel) -> Self {
        Machine { topo, cost }
    }

    pub fn p(&self) -> usize {
        self.topo.p()
    }

    /// Run one program instance per processor until every processor is
    /// `Done`, or the system quiesces (every processor `Done`/`Blocked` with
    /// no messages in flight — distributed termination for request/reply
    /// protocols).
    pub fn run<P: Program>(&self, programs: Vec<P>) -> RunReport {
        self.run_programs(programs).0
    }

    /// [`Machine::run`], but hands the (mutated) programs back so callers
    /// can harvest per-processor results.
    pub fn run_programs<P: Program>(&self, mut programs: Vec<P>) -> (RunReport, Vec<P>) {
        let p = self.topo.p();
        assert_eq!(programs.len(), p, "need one program per processor");

        let mut clocks = vec![0.0f64; p];
        let mut flops = vec![0u64; p];
        let mut status = vec![Status::Ready; p];
        // (arrival, src, seq, envelope) queued per destination.
        type Queued<M> = (f64, usize, u64, Envelope<M>);
        let mut pending: Vec<Vec<Queued<P::Msg>>> = (0..p).map(|_| Vec::new()).collect();
        let mut seq = 0u64;
        let mut outbox: Vec<Envelope<P::Msg>> = Vec::new();
        let mut total_msgs = 0u64;
        let mut total_words = 0u64;
        let mut supersteps = 0u64;

        loop {
            supersteps += 1;
            let mut progressed = false;
            for rank in 0..p {
                let has_mail = !pending[rank].is_empty();
                match status[rank] {
                    Status::Done => {
                        pending[rank].clear(); // drop late mail
                        continue;
                    }
                    Status::Blocked if !has_mail => continue,
                    _ => {}
                }
                // Deliver only messages that have *arrived* (arrival ≤ own
                // clock): a busy processor keeps computing rather than
                // synchronizing to its senders. A blocked processor with
                // only-future mail idle-advances to the earliest arrival —
                // that wait is real.
                if status[rank] == Status::Blocked
                    && pending[rank].iter().all(|m| m.0 > clocks[rank])
                {
                    let earliest = pending[rank].iter().map(|m| m.0).fold(f64::INFINITY, f64::min);
                    clocks[rank] = clocks[rank].max(earliest);
                }
                let now = clocks[rank];
                let queue = std::mem::take(&mut pending[rank]);
                let (mut inbox_raw, defer): (Vec<_>, Vec<_>) =
                    queue.into_iter().partition(|m| m.0 <= now);
                pending[rank] = defer;
                inbox_raw.sort_by(|a, b| {
                    a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
                });
                let inbox: Vec<Envelope<P::Msg>> =
                    inbox_raw.into_iter().map(|(_, _, _, e)| e).collect();

                let mut ctx = Ctx {
                    rank,
                    p,
                    clock: clocks[rank],
                    flops: 0,
                    inbox,
                    outbox: &mut outbox,
                    send_times: Vec::new(),
                    sent_words: 0,
                    sent_msgs: 0,
                    cost: self.cost,
                };
                let st = programs[rank].step(&mut ctx);
                clocks[rank] = ctx.clock;
                flops[rank] += ctx.flops;
                total_words += ctx.sent_words;
                total_msgs += ctx.sent_msgs;
                let send_times = std::mem::take(&mut ctx.send_times);
                status[rank] = st;
                progressed = true;

                // Route queued messages, stamped at their send times.
                for (env, sent_at) in outbox.drain(..).zip(send_times) {
                    let hops = self.topo.hops(rank, env.dst);
                    let arrival = sent_at + self.cost.t_h * hops as f64;
                    pending[env.dst].push((arrival, rank, seq, env));
                    seq += 1;
                }
            }

            let in_flight: usize = pending.iter().map(Vec::len).sum();
            let all_done = status.iter().all(|s| *s == Status::Done);
            // Quiescence: every processor is Done or Blocked and no message
            // is in flight. For request/reply protocols (function shipping)
            // this *is* distributed termination — a processor that finished
            // its own work stays Blocked to serve remote requests, and the
            // run ends when no one can generate further traffic.
            let quiesced = in_flight == 0
                && status.iter().all(|s| matches!(s, Status::Done | Status::Blocked));
            if (all_done && in_flight == 0) || quiesced || (!progressed && in_flight == 0) {
                break;
            }
        }

        let report =
            RunReport { clocks, flops, messages: total_msgs, words: total_words, supersteps };
        (report, programs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Crossbar, Hypercube};

    /// Each processor does `work` flops and finishes.
    struct Compute {
        work: u64,
        done: bool,
    }

    impl Program for Compute {
        type Msg = ();
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Status {
            if !self.done {
                ctx.charge_flops(self.work);
                self.done = true;
            }
            Status::Done
        }
    }

    #[test]
    fn pure_compute_clocks() {
        let m = Machine::new(Crossbar::new(4), CostModel::unit());
        let report = m.run(vec![
            Compute { work: 5, done: false },
            Compute { work: 9, done: false },
            Compute { work: 1, done: false },
            Compute { work: 0, done: false },
        ]);
        assert_eq!(report.clocks, vec![5.0, 9.0, 1.0, 0.0]);
        assert_eq!(report.parallel_time(), 9.0);
        assert_eq!(report.total_flops(), 15);
        assert_eq!(report.messages, 0);
    }

    /// Rank 0 sends a token around the ring; each hop increments it.
    struct RingToken {
        expected: u64,
        sent_initial: bool,
        finished: bool,
    }

    impl Program for RingToken {
        type Msg = u64;
        fn step(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            let rank = ctx.rank();
            let p = ctx.p();
            if rank == 0 && !self.sent_initial {
                self.sent_initial = true;
                ctx.send(1 % p, 1, 0);
                return Status::Blocked;
            }
            let inbox = ctx.inbox();
            if let Some(env) = inbox.into_iter().next() {
                let v = env.payload + 1;
                if rank == 0 {
                    assert_eq!(v, self.expected);
                    self.finished = true;
                    return Status::Done;
                }
                ctx.send((rank + 1) % p, 1, v);
                self.finished = true;
                return Status::Done;
            }
            if self.finished {
                Status::Done
            } else {
                Status::Blocked
            }
        }
    }

    #[test]
    fn ring_token_passes_and_clocks_accumulate() {
        let p = 8;
        let m = Machine::new(Hypercube::new(p), CostModel::unit());
        let programs = (0..p)
            .map(|_| RingToken { expected: p as u64, sent_initial: false, finished: false })
            .collect();
        let report = m.run(programs);
        assert_eq!(report.messages, p as u64);
        assert_eq!(report.words, p as u64);
        // The token chain serializes: total time ≥ p messages × (t_s + t_w).
        assert!(report.parallel_time() >= p as f64 * 2.0);
    }

    /// Quiescence: everyone blocked with nothing in flight ends the run.
    struct Waiter;
    impl Program for Waiter {
        type Msg = ();
        fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Status {
            Status::Blocked
        }
    }

    #[test]
    fn quiescence_terminates() {
        let m = Machine::new(Crossbar::new(2), CostModel::unit());
        let report = m.run(vec![Waiter, Waiter]);
        assert_eq!(report.messages, 0);
        assert_eq!(report.parallel_time(), 0.0);
    }

    /// Receiver clock respects arrival time (idle wait is visible).
    struct SlowSender {
        sent: bool,
    }
    impl Program for SlowSender {
        type Msg = ();
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Status {
            if ctx.rank() == 0 {
                if !self.sent {
                    self.sent = true;
                    ctx.charge_flops(100); // long local work first
                    ctx.send(1, 10, ());
                }
                Status::Done
            } else {
                if self.sent {
                    return Status::Done;
                }
                if ctx.inbox().is_empty() {
                    Status::Blocked
                } else {
                    self.sent = true;
                    ctx.charge_flops(1);
                    Status::Done
                }
            }
        }
    }

    #[test]
    fn receiver_waits_for_arrival() {
        let m = Machine::new(Crossbar::new(2), CostModel::unit());
        let report = m.run(vec![SlowSender { sent: false }, SlowSender { sent: false }]);
        // Sender: 100 flops + t_s + 10·t_w = 111; arrival = 111 + 1 hop.
        // Receiver: max(0, 112) + 1 flop = 113.
        assert!((report.clocks[0] - 111.0).abs() < 1e-9, "{:?}", report.clocks);
        assert!((report.clocks[1] - 113.0).abs() < 1e-9, "{:?}", report.clocks);
    }

    /// Done processors drop late mail without stalling termination.
    struct FireAndForget {
        fired: bool,
    }
    impl Program for FireAndForget {
        type Msg = ();
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Status {
            if !self.fired {
                self.fired = true;
                let dst = (ctx.rank() + 1) % ctx.p();
                ctx.send(dst, 1, ());
            }
            Status::Done
        }
    }

    #[test]
    fn late_mail_to_done_processors_is_dropped() {
        let m = Machine::new(Crossbar::new(3), CostModel::unit());
        let report = m.run(vec![
            FireAndForget { fired: false },
            FireAndForget { fired: false },
            FireAndForget { fired: false },
        ]);
        assert_eq!(report.messages, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_invalid_rank_panics() {
        struct Bad;
        impl Program for Bad {
            type Msg = ();
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Status {
                ctx.send(99, 1, ());
                Status::Done
            }
        }
        let m = Machine::new(Crossbar::new(2), CostModel::unit());
        let _ = m.run(vec![Bad, Bad]);
    }

    #[test]
    fn determinism() {
        let run = || {
            let p = 8;
            let m = Machine::new(Hypercube::new(p), CostModel::ncube2());
            let programs = (0..p)
                .map(|_| RingToken { expected: p as u64, sent_initial: false, finished: false })
                .collect();
            m.run(programs)
        };
        let a = run();
        let b = run();
        assert_eq!(a.clocks, b.clocks);
        assert_eq!(a.supersteps, b.supersteps);
    }
}
