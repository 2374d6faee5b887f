//! A synchronous client for the query service, with transparent
//! backpressure handling: `TAG_RETRY` responses are retried after the
//! larger of the server's hint and a jittered exponential backoff (the
//! shared [`bhut_wire::Backoff`] schedule), up to a deadline.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use bhut_tree::{KernelPrecision, QueryTarget};
use bhut_wire::{read_frame, write_frame, Backoff};

use crate::proto::{
    decode_error, decode_reply, decode_retry, encode_query, QueryKind, QueryReply, QueryRequest,
    TAG_ERROR, TAG_QUERY, TAG_RESULT, TAG_RETRY, TAG_STATS, TAG_STATS_REPLY,
};

/// How long [`ServeClient::query`] keeps retrying a backpressured request
/// before giving up.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

pub struct ServeClient {
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    next_id: u64,
    backoff: Backoff,
    deadline: Duration,
    /// Total `TAG_RETRY` responses absorbed over the connection's lifetime
    /// — the client-visible face of server backpressure.
    pub retries: u64,
}

impl ServeClient {
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let s = TcpStream::connect(addr)?;
        let r = s.try_clone()?;
        Ok(Self::from_halves(Box::new(r), Box::new(s)))
    }

    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Self> {
        let s = UnixStream::connect(path)?;
        let r = s.try_clone()?;
        Ok(Self::from_halves(Box::new(r), Box::new(s)))
    }

    fn from_halves(reader: Box<dyn Read + Send>, writer: Box<dyn Write + Send>) -> Self {
        // Seed the jitter from the socket's address-of-self so concurrent
        // clients desynchronize their retry storms.
        let seed = &reader as *const _ as u64 | 1;
        ServeClient {
            reader,
            writer,
            next_id: 1,
            backoff: Backoff::new(seed),
            deadline: DEFAULT_DEADLINE,
            retries: 0,
        }
    }

    /// Cap the total time spent retrying one backpressured query.
    pub fn set_deadline(&mut self, d: Duration) {
        self.deadline = d;
    }

    /// Evaluate `points` on the server, blocking until the reply arrives.
    /// Backpressure (`TAG_RETRY`) is absorbed internally; an error frame or
    /// an exhausted deadline surfaces as `Err`.
    /// `precision` is [`KernelPrecision::F64`], the only value; removed by
    /// ROADMAP direction 3(e).
    pub fn query(
        &mut self,
        kind: QueryKind,
        precision: KernelPrecision,
        points: &[QueryTarget],
    ) -> io::Result<QueryReply> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = encode_query(&QueryRequest { id, kind, precision, points: points.to_vec() });
        self.backoff.reset();
        let deadline = Instant::now() + self.deadline;
        loop {
            write_frame(&mut self.writer, TAG_QUERY, &payload)?;
            self.writer.flush()?;
            let (tag, body) = read_frame(&mut self.reader)?;
            match tag {
                TAG_RESULT => {
                    let reply = decode_reply(&body)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                    if reply.id == id {
                        return Ok(reply);
                    }
                    // A reply for an older id (should not happen on a
                    // synchronous connection); keep reading.
                }
                TAG_RETRY => {
                    let (_, hint_ms) = decode_retry(&body)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                    self.retries += 1;
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "server backpressure outlasted the client deadline",
                        ));
                    }
                    let wait = self
                        .backoff
                        .next_delay(remaining)
                        .max(Duration::from_millis(hint_ms as u64).min(remaining));
                    std::thread::sleep(wait);
                }
                TAG_ERROR => {
                    let (_, msg) = decode_error(&body)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                    return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected reply tag {other:#x}"),
                    ));
                }
            }
        }
    }

    /// Fetch the server's [`crate::ServeStats`] snapshot as JSON.
    pub fn stats_json(&mut self) -> io::Result<String> {
        write_frame(&mut self.writer, TAG_STATS, &[])?;
        self.writer.flush()?;
        let (tag, body) = read_frame(&mut self.reader)?;
        if tag != TAG_STATS_REPLY {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected stats reply, got tag {tag:#x}"),
            ));
        }
        String::from_utf8(body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}
