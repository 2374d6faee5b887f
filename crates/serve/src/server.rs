//! The concurrent query server: a std-only threaded front end that speaks
//! the [`crate::proto`] framing over TCP or Unix sockets.
//!
//! ## Architecture
//!
//! ```text
//! acceptor ──▶ per-connection reader threads
//!                   │  decode, admission-check
//!                   ▼
//!            bounded FIFO queue ──▶ evaluator workers (N)
//!             (reject ⇒ TAG_RETRY)     │  coalesce ≤ batch_points,
//!                                      │  pin epoch, FieldQuery::eval
//!                                      ▼
//!                            per-connection writer (mutexed half)
//! ```
//!
//! Backpressure is *reject-with-retry-after*: when the queue is at
//! capacity the reader answers [`crate::proto::TAG_RETRY`] immediately
//! instead of blocking the connection, so a slow evaluator can never wedge
//! the accept path, and clients (see [`crate::ServeClient`]) resend after a
//! jittered backoff. Once a request is *accepted* it is never dropped: on
//! shutdown the workers drain the queue before exiting, and a request that
//! races the shutdown admission check is rejected (told to retry), not
//! silently discarded.
//!
//! Workers coalesce adjacent requests of the same kind into
//! slab-sized batches (≤ `batch_points` points) so many small queries share
//! the Morton sort and grouped walks of one [`FieldQuery::eval`] call. Each
//! batch pins the current [`TreeEpoch`](crate::TreeEpoch) for exactly its own duration; the
//! *epoch lag* (publishes that happened while the batch ran) is surfaced
//! through [`ServeCounters`].

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use bhut_obs::{now, phase, Counters, ServeCounters, Span, StepProfile};
use bhut_tree::replay::REPLAY_LANES;
use bhut_tree::{KernelPrecision, QueryTarget};
use bhut_wire::{get_u64, write_frame, MAX_FRAME};
use serde::{Deserialize, Serialize};

use crate::engine::{FieldQuery, FieldSample};
use crate::epoch::EpochStore;
use crate::proto::{
    decode_query, encode_error, encode_reply, encode_retry, QueryKind, TAG_ERROR, TAG_QUERY,
    TAG_RESULT, TAG_RETRY, TAG_STATS, TAG_STATS_REPLY,
};

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Evaluator worker threads.
    pub workers: usize,
    /// Max requests admitted but not yet evaluated; beyond this the server
    /// answers `TAG_RETRY`.
    pub queue_cap: usize,
    /// Coalescing target: a worker keeps merging queued same-shape requests
    /// into one evaluation batch until it holds this many points.
    pub batch_points: usize,
    /// Pseudo-leaf bucket size for [`FieldQuery`]: query points per gather.
    /// The default, [`REPLAY_LANES`] (32), makes each bucket one chunk of
    /// the lane replay; [`FieldQuery::new`] has the measured table.
    pub group_size: usize,
    /// Base retry hint (milliseconds) sent with `TAG_RETRY`. The wire hint
    /// scales with current queue depth and is jittered per reject so a
    /// burst of turned-away clients does not come back in lockstep.
    pub retry_after_ms: u32,
    /// Socket read timeout; bounds how fast readers notice a shutdown.
    pub read_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_cap: 64,
            batch_points: 4096,
            group_size: REPLAY_LANES,
            retry_after_ms: 5,
            read_timeout_ms: 50,
        }
    }
}

/// A point-in-time view of the service, also served over the wire as JSON
/// in reply to `TAG_STATS`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeStats {
    pub counters: ServeCounters,
    /// Requests currently queued.
    pub queue_depth: u64,
    /// Latest published epoch generation.
    pub generation: u64,
}

/// One admitted request, parked until a worker picks it up.
struct Job {
    id: u64,
    kind: QueryKind,
    points: Vec<QueryTarget>,
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
}

/// Cap on retained spans so a long-lived server's profile stays bounded.
const SPAN_CAP: usize = 4096;

/// Lock `m`, recovering the inner value if a panicking holder poisoned it.
///
/// Every critical section in this module leaves its guarded state
/// consistent before any operation that could panic (counters are plain
/// integer updates, the queue is push/pop only), so continuing with the
/// inner value is sound — and the stats/stop paths must keep answering
/// even after a worker thread has died mid-update.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Compute the backpressure retry hint for one reject.
///
/// The configured base is stretched by up to 2× base per full queue of
/// depth (so a deeply backed-up server asks clients to stay away longer),
/// and a per-reject salt adds up to one base of jitter so concurrent
/// rejects fan out over time instead of retrying in lockstep. Always ≥ 1 ms.
fn retry_hint_ms(base: u32, depth: usize, cap: usize, salt: u64) -> u32 {
    let base = u64::from(base.max(1));
    let load =
        if cap == 0 { 0 } else { base.saturating_mul(2).saturating_mul(depth as u64) / cap as u64 };
    // splitmix64-style spread of the monotone salt into jitter bits.
    let mut z = salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let jitter = (z ^ (z >> 31)) % (base + 1);
    base.saturating_add(load).saturating_add(jitter).min(u64::from(u32::MAX)) as u32
}

struct Shared {
    cfg: ServeConfig,
    store: Arc<EpochStore>,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    counters: Mutex<ServeCounters>,
    per_worker: Mutex<Vec<Counters>>,
    spans: Mutex<Vec<Span>>,
    batch_seq: AtomicU64,
    /// Monotone per-reject counter; salts the retry-hint jitter.
    reject_seq: AtomicU64,
    started: f64,
}

impl Shared {
    /// Scaled, de-synchronized retry hint for one reject at `depth`.
    fn retry_hint(&self, depth: usize) -> u32 {
        let salt = self.reject_seq.fetch_add(1, SeqCst);
        retry_hint_ms(self.cfg.retry_after_ms, depth, self.cfg.queue_cap, salt)
    }

    fn record_span(&self, worker: usize, seq: u64, name: &str, start: f64, end: f64) {
        let mut spans = lock(&self.spans);
        if spans.len() < SPAN_CAP {
            spans.push(Span::new(worker, seq, name, start - self.started, end - self.started));
        }
    }

    fn stats(&self) -> ServeStats {
        let mut counters = *lock(&self.counters);
        counters.epochs_published = self.store.generation();
        counters.epochs_retired = self.store.retired();
        ServeStats {
            counters,
            queue_depth: lock(&self.queue).len() as u64,
            generation: self.store.generation(),
        }
    }
}

/// The running service. Dropping without [`stop`](Server::stop) leaks the
/// listener thread until process exit; call `stop` for an orderly drain.
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
}

enum AnyListener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

type Halves = (Box<dyn Read + Send>, Box<dyn Write + Send>);

impl AnyListener {
    fn accept_halves(&self, timeout: Duration) -> io::Result<Option<Halves>> {
        match self {
            AnyListener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    s.set_read_timeout(Some(timeout))?;
                    let r = s.try_clone()?;
                    Ok(Some((Box::new(r), Box::new(s))))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            AnyListener::Unix(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    s.set_read_timeout(Some(timeout))?;
                    let r = s.try_clone()?;
                    Ok(Some((Box::new(r), Box::new(s))))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

impl Server {
    /// Serve on a TCP listener. Bind to port 0 to let the OS pick; the
    /// resolved address is available via [`local_addr`](Server::local_addr).
    pub fn bind_tcp(
        addr: impl ToSocketAddrs,
        store: Arc<EpochStore>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut s = Self::start(AnyListener::Tcp(listener), store, cfg)?;
        s.local_addr = Some(local);
        Ok(s)
    }

    /// Serve on a Unix-domain socket, replacing any stale socket file.
    pub fn bind_unix(
        path: impl AsRef<Path>,
        store: Arc<EpochStore>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let _ = std::fs::remove_file(path.as_ref());
        let listener = UnixListener::bind(path)?;
        Self::start(AnyListener::Unix(listener), store, cfg)
    }

    fn start(
        listener: AnyListener,
        store: Arc<EpochStore>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cfg,
            store,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Mutex::new(ServeCounters::default()),
            per_worker: Mutex::new(vec![Counters::default(); workers]),
            spans: Mutex::new(Vec::new()),
            batch_seq: AtomicU64::new(0),
            reject_seq: AtomicU64::new(0),
            started: now(),
        });
        match &listener {
            AnyListener::Tcp(l) => l.set_nonblocking(true)?,
            AnyListener::Unix(l) => l.set_nonblocking(true)?,
        }
        let mut threads = Vec::with_capacity(workers + 1);
        for w in 0..workers {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(w, sh))?,
            );
        }
        let sh = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, sh))?,
        );
        Ok(Server { shared, threads, local_addr: None })
    }

    /// The bound TCP address (`None` for Unix-socket servers).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Snapshot the live counters and queue depth.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Render the service's activity in the S11 [`StepProfile`] schema:
    /// serve-phase spans, per-worker kernel counters, and the
    /// [`ServeCounters`] block under `serve`.
    pub fn profile(&self) -> StepProfile {
        let sh = &self.shared;
        let stats = sh.stats();
        let mut p = StepProfile::new(sh.cfg.workers.max(1));
        p.step = stats.counters.batches;
        p.wall_s = now() - sh.started;
        p.spans = lock(&sh.spans).clone();
        p.per_worker = lock(&sh.per_worker).clone();
        p.totals = Counters::default();
        for w in &p.per_worker {
            p.totals.merge(w);
        }
        p.serve = Some(stats.counters);
        p
    }

    /// Orderly shutdown: stop admitting, drain every accepted request,
    /// join all threads, and return the final stats. No accepted request
    /// goes unanswered.
    pub fn stop(self) -> ServeStats {
        self.shared.shutdown.store(true, SeqCst);
        self.shared.cv.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
        self.shared.stats()
    }
}

fn accept_loop(listener: AnyListener, shared: Arc<Shared>) {
    let timeout = Duration::from_millis(shared.cfg.read_timeout_ms.max(1));
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(SeqCst) {
        match listener.accept_halves(timeout) {
            Ok(Some((reader, writer))) => {
                let sh = Arc::clone(&shared);
                let writer = Arc::new(Mutex::new(writer));
                if let Ok(h) = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || conn_loop(sh, reader, writer))
                {
                    conns.push(h);
                }
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => break,
        }
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
}

/// `read_exact` that tolerates read-timeout wakeups. Returns `Ok(false)` on
/// clean EOF / shutdown-while-idle (only possible when `idle_ok` and no
/// bytes of the current frame have arrived yet).
fn read_full(
    r: &mut (impl Read + ?Sized),
    buf: &mut [u8],
    shared: &Shared,
    idle_ok: bool,
) -> io::Result<bool> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 && idle_ok {
                    Ok(false)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                }
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if got == 0 && idle_ok && shared.shutdown.load(SeqCst) {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn send(writer: &Arc<Mutex<Box<dyn Write + Send>>>, tag: u16, payload: &[u8]) {
    let mut w = lock(writer);
    let _ = write_frame(&mut *w, tag, payload).and_then(|_| w.flush());
}

fn conn_loop(
    shared: Arc<Shared>,
    mut reader: Box<dyn Read + Send>,
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
) {
    let mut header = [0u8; 6];
    loop {
        match read_full(&mut *reader, &mut header, &shared, true) {
            Ok(true) => {}
            _ => return,
        }
        let tag = u16::from_le_bytes([header[0], header[1]]);
        let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
        if len > MAX_FRAME {
            send(&writer, TAG_ERROR, &encode_error(0, &format!("frame too large: {len}")));
            return;
        }
        let mut payload = vec![0u8; len as usize];
        match read_full(&mut *reader, &mut payload, &shared, false) {
            Ok(true) => {}
            _ => return,
        }
        match tag {
            TAG_QUERY => match decode_query(&payload) {
                Ok(req) => {
                    let mut q = lock(&shared.queue);
                    if q.len() >= shared.cfg.queue_cap || shared.shutdown.load(SeqCst) {
                        let depth = q.len();
                        drop(q);
                        let mut c = lock(&shared.counters);
                        c.rejected += 1;
                        drop(c);
                        send(&writer, TAG_RETRY, &encode_retry(req.id, shared.retry_hint(depth)));
                    } else {
                        q.push_back(Job {
                            id: req.id,
                            kind: req.kind,
                            points: req.points,
                            writer: Arc::clone(&writer),
                        });
                        let depth = q.len() as u64;
                        drop(q);
                        let mut c = lock(&shared.counters);
                        c.accepted += 1;
                        c.queue_depth_peak = c.queue_depth_peak.max(depth);
                        drop(c);
                        shared.cv.notify_one();
                    }
                }
                Err(e) => {
                    // The error frame carries the request's id whenever the
                    // payload is long enough to hold one.
                    let id = if payload.len() >= 8 { get_u64(&payload, 0) } else { 0 };
                    send(&writer, TAG_ERROR, &encode_error(id, &e))
                }
            },
            TAG_STATS => {
                let json = serde_json::to_string(&shared.stats()).unwrap_or_default();
                send(&writer, TAG_STATS_REPLY, json.as_bytes());
            }
            other => {
                send(&writer, TAG_ERROR, &encode_error(0, &format!("unknown tag {other:#x}")));
            }
        }
    }
}

fn worker_loop(worker: usize, shared: Arc<Shared>) {
    let mut engine = FieldQuery::new(shared.cfg.group_size);
    let mut samples: Vec<FieldSample> = Vec::new();
    loop {
        let wait_t0 = now();
        // Pop one job, then coalesce same-shape neighbours up to the batch
        // point budget. On shutdown keep popping until the queue is empty —
        // accepted requests are never dropped.
        let mut batch: Vec<Job> = Vec::new();
        {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(first) = q.pop_front() {
                    let mut points = first.points.len();
                    let kind = first.kind;
                    batch.push(first);
                    while points < shared.cfg.batch_points {
                        match q.front() {
                            Some(j) if j.kind == kind => {
                                points += j.points.len();
                                batch.push(q.pop_front().unwrap());
                            }
                            _ => break,
                        }
                    }
                    break;
                }
                if shared.shutdown.load(SeqCst) {
                    return;
                }
                let (guard, _) = shared
                    .cv
                    .wait_timeout(q, Duration::from_millis(20))
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        }
        let seq = shared.batch_seq.fetch_add(1, SeqCst);
        let eval_t0 = now();
        shared.record_span(worker, seq, phase::SERVE_WAIT, wait_t0, eval_t0);

        let Some(epoch) = shared.store.pin() else {
            // Nothing published yet: tell every caller to come back rather
            // than hold their connections hostage.
            for job in &batch {
                send(&job.writer, TAG_RETRY, &encode_retry(job.id, shared.retry_hint(0)));
            }
            let mut c = lock(&shared.counters);
            c.rejected += batch.len() as u64;
            continue;
        };

        // One evaluation over the concatenated batch; per-job slices of the
        // output are scattered back below. Batch composition cannot change
        // results (see engine docs), so coalescing is invisible to clients.
        let all: Vec<QueryTarget> = batch.iter().flat_map(|j| j.points.iter().copied()).collect();
        let stats = match batch[0].kind {
            QueryKind::Field => engine.eval(&epoch, &all, KernelPrecision::F64, &mut samples),
            QueryKind::Density => {
                engine.density(&epoch, &all, &mut samples);
                Default::default()
            }
        };
        let reply_t0 = now();
        shared.record_span(worker, seq, phase::SERVE_EVAL, eval_t0, reply_t0);

        let mut at = 0;
        for job in &batch {
            let slice = &samples[at..at + job.points.len()];
            at += job.points.len();
            send(&job.writer, TAG_RESULT, &encode_reply(job.id, epoch.generation, slice));
        }
        let done = now();
        shared.record_span(worker, seq, phase::SERVE_REPLY, reply_t0, done);

        let lag = shared.store.generation().saturating_sub(epoch.generation);
        drop(epoch); // release the pin before bookkeeping
        {
            let mut c = lock(&shared.counters);
            c.queries += all.len() as u64;
            c.batches += 1;
            c.epoch_lag_last = lag;
            c.epoch_lag_max = c.epoch_lag_max.max(lag);
        }
        {
            let mut pw = lock(&shared.per_worker);
            pw[worker].p2p += stats.p2p;
            pw[worker].m2p += stats.p2n;
            pw[worker].mac_tests += stats.mac_tests;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use crate::proto::{decode_reply, decode_retry, encode_query, QueryRequest};
    use bhut_geom::{Particle, Vec3};
    use bhut_tree::build::build;
    use bhut_tree::{accel_on, BarnesHutMac, BuildParams};
    use bhut_wire::read_frame;
    use std::net::TcpStream;

    fn cloud(n: usize, seed: u64) -> Vec<Particle> {
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

    fn published_store(n: usize) -> (Arc<EpochStore>, Vec<Particle>) {
        let store = Arc::new(EpochStore::new());
        let p = cloud(n, 5);
        let tree = build(&p, BuildParams { leaf_capacity: 8, ..Default::default() });
        store.publish(tree, p.clone(), 0.6, 1e-4);
        (store, p)
    }

    #[test]
    fn tcp_end_to_end_field_density_and_stats() {
        let (store, particles) = published_store(500);
        let server =
            Server::bind_tcp("127.0.0.1:0", Arc::clone(&store), ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = ServeClient::connect_tcp(addr).unwrap();

        // Force queries at particle positions with skip ids reproduce the
        // per-particle walk.
        let targets: Vec<QueryTarget> = particles.iter().take(40).map(|p| (p.pos, p.id)).collect();
        let reply = client.query(QueryKind::Field, KernelPrecision::F64, &targets).unwrap();
        assert_eq!(reply.generation, 1);
        let mac = BarnesHutMac::new(0.6);
        let tree = build(&particles, BuildParams { leaf_capacity: 8, ..Default::default() });
        for (k, &(pos, skip)) in targets.iter().enumerate() {
            let (acc, _) = accel_on(&tree, &particles, pos, Some(skip), &mac, 1e-4);
            assert!(
                (reply.samples[k].acc - acc).norm() <= 1e-12 * acc.norm().max(1.0),
                "served force {k} matches local walk"
            );
        }

        let dens = client.query(QueryKind::Density, KernelPrecision::F64, &targets[..4]).unwrap();
        assert!(dens.samples.iter().all(|s| s.phi > 0.0), "density positive at particles");

        let stats: ServeStats = serde_json::from_str(&client.stats_json().unwrap()).unwrap();
        assert!(stats.counters.queries >= 44);
        assert_eq!(stats.counters.rejected, 0);
        assert_eq!(stats.generation, 1);

        let profile = server.profile();
        assert_eq!(profile.serve.unwrap().queries, stats.counters.queries);
        assert!(profile.phase_total(phase::SERVE_EVAL) >= 0.0);

        let fin = server.stop();
        assert!(fin.counters.accepted >= 2);
        assert_eq!(fin.counters.rejected, 0);
        assert_eq!(fin.queue_depth, 0, "queue drained at shutdown");
    }

    #[test]
    fn queries_before_first_publish_are_told_to_retry() {
        let store = Arc::new(EpochStore::new());
        let server =
            Server::bind_tcp("127.0.0.1:0", Arc::clone(&store), ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let mut s = TcpStream::connect(addr).unwrap();
        let req = QueryRequest {
            id: 77,
            kind: QueryKind::Field,
            precision: KernelPrecision::F64,
            points: vec![(Vec3::ZERO, u32::MAX)],
        };
        write_frame(&mut s, TAG_QUERY, &encode_query(&req)).unwrap();
        let (tag, body) = read_frame(&mut s).unwrap();
        assert_eq!(tag, TAG_RETRY, "no epoch yet ⇒ retry, not an error or a hang");
        let (id, ms) = decode_retry(&body).unwrap();
        assert_eq!(id, 77);
        assert!(ms > 0);

        // After a publish the same request succeeds.
        let p = cloud(64, 2);
        let tree = build(&p, BuildParams { leaf_capacity: 8, ..Default::default() });
        store.publish(tree, p, 0.6, 1e-4);
        write_frame(&mut s, TAG_QUERY, &encode_query(&req)).unwrap();
        let (tag, body) = read_frame(&mut s).unwrap();
        assert_eq!(tag, TAG_RESULT);
        let rep = decode_reply(&body).unwrap();
        assert_eq!((rep.id, rep.generation), (77, 1));
        let stats = server.stop();
        assert!(stats.counters.rejected >= 1);
    }

    #[test]
    fn malformed_and_unknown_frames_get_errors() {
        let (store, _) = published_store(32);
        let server = Server::bind_tcp("127.0.0.1:0", store, ServeConfig::default()).unwrap();
        let mut s = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        write_frame(&mut s, TAG_QUERY, &[1, 2, 3]).unwrap();
        let (tag, _) = read_frame(&mut s).unwrap();
        assert_eq!(tag, TAG_ERROR);
        write_frame(&mut s, 0x7777, &[]).unwrap();
        let (tag, _) = read_frame(&mut s).unwrap();
        assert_eq!(tag, TAG_ERROR);
        server.stop();
    }

    #[test]
    fn retry_hint_scales_with_depth_and_desynchronizes() {
        // Monotone in depth for a fixed salt: a fuller queue asks clients
        // to stay away longer.
        let h_empty = retry_hint_ms(5, 0, 64, 9);
        let h_full = retry_hint_ms(5, 64, 64, 9);
        let h_over = retry_hint_ms(5, 192, 64, 9);
        assert!(h_empty >= 5);
        assert!(h_full > h_empty, "{h_full} vs {h_empty}");
        assert!(h_over > h_full, "{h_over} vs {h_full}");
        // Successive rejects at the same depth get spread-out hints, so a
        // burst of turned-away clients does not retry in lockstep.
        let hints: std::collections::HashSet<u32> =
            (0..32).map(|salt| retry_hint_ms(5, 64, 64, salt)).collect();
        assert!(hints.len() > 3, "jitter must vary across rejects: {hints:?}");
        // Degenerate configs still yield a positive, finite hint.
        assert!(retry_hint_ms(0, 0, 0, 0) >= 1);
        assert!(retry_hint_ms(u32::MAX, usize::MAX, 1, u64::MAX) >= 1);
    }

    #[test]
    fn stats_still_answer_after_an_induced_worker_panic() {
        let (store, particles) = published_store(64);
        let server =
            Server::bind_tcp("127.0.0.1:0", Arc::clone(&store), ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = ServeClient::connect_tcp(addr).unwrap();
        let targets: Vec<QueryTarget> = vec![(particles[0].pos, particles[0].id)];
        client.query(QueryKind::Field, KernelPrecision::F64, &targets).unwrap();

        // Poison the hot mutexes the way a dying worker would: panic while
        // holding each lock. A default `.lock().unwrap()` server would now
        // fail every stats call and wedge `stop()`.
        for pick in 0..3 {
            let sh = Arc::clone(&server.shared);
            let h = std::thread::spawn(move || match pick {
                0 => {
                    let _g = sh.counters.lock().unwrap();
                    panic!("induced panic holding the counters lock");
                }
                1 => {
                    let _g = sh.queue.lock().unwrap();
                    panic!("induced panic holding the queue lock");
                }
                _ => {
                    let _g = sh.spans.lock().unwrap();
                    panic!("induced panic holding the spans lock");
                }
            });
            assert!(h.join().is_err(), "the panic must fire to poison the lock");
        }
        assert!(server.shared.counters.is_poisoned(), "counters lock is poisoned");

        // In-process and over-the-wire stats still answer…
        let stats = server.stats();
        assert!(stats.counters.accepted >= 1);
        let wire: ServeStats = serde_json::from_str(&client.stats_json().unwrap()).unwrap();
        assert_eq!(wire.counters.accepted, stats.counters.accepted);
        // …queries still flow through the poisoned queue…
        let reply = client.query(QueryKind::Field, KernelPrecision::F64, &targets).unwrap();
        assert_eq!(reply.samples.len(), 1);
        // …and shutdown still drains and reports.
        let fin = server.stop();
        assert_eq!(fin.queue_depth, 0, "drained despite poisoned locks");
        assert!(fin.counters.accepted >= 2);
    }

    #[test]
    fn unix_socket_smoke() {
        let (store, particles) = published_store(128);
        let dir = std::env::temp_dir().join(format!("bhut-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.sock");
        let server = Server::bind_unix(&path, store, ServeConfig::default()).unwrap();
        let mut client = ServeClient::connect_unix(&path).unwrap();
        let targets: Vec<QueryTarget> = vec![(particles[3].pos, particles[3].id)];
        let reply = client.query(QueryKind::Field, KernelPrecision::F64, &targets).unwrap();
        assert_eq!(reply.samples.len(), 1);
        server.stop();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
