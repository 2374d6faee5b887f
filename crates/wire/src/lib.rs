//! Length-prefixed framing, binary wire encodings, and retry backoff —
//! the transport vocabulary shared by the multi-process mesh
//! (`bhut-proc`) and the query server (`bhut-serve`).
//!
//! Every message on every channel — rank↔rank mesh streams, the
//! child→parent control channel, and client↔server query traffic — is one
//! *frame*: a 6-byte little-endian header (`tag: u16`, `len: u32`)
//! followed by `len` payload bytes. [`write_frame`] and [`read_frame`]
//! loop over `write_all`/`read_exact`, so short reads and short writes
//! (partial socket buffers, signal interruptions) are invisible to
//! callers; the round-trip is pinned by a test that delivers one byte at
//! a time.
//!
//! Particle and acceleration payloads are fixed-width little-endian f64
//! bit patterns — **not** JSON — so state migrating between ranks and
//! results returning to clients survive bit-for-bit. That is what lets
//! the force-equivalence gates demand ≤1e-12 (in practice: bitwise)
//! against the single-process path.

#![forbid(unsafe_code)]

use bhut_geom::{Particle, Vec3};
use std::io::{Read, Write};
use std::time::Duration;

/// Hard ceiling on one frame's payload (64 MiB) — a corrupted length
/// prefix must not trigger an unbounded allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// The first slice of a payload [`read_payload`] reserves before any of
/// its bytes have arrived (64 KiB).
const FIRST_CHUNK: usize = 64 << 10;

/// Encoded size of one [`Particle`]: id + mass + pos + vel.
pub const PARTICLE_BYTES: usize = 4 + 8 * 7;

/// Encoded size of one force record: id + accel + potential.
pub const FORCE_BYTES: usize = 4 + 8 * 4;

/// Write one `(tag, payload)` frame. `write_all` absorbs short writes.
pub fn write_frame(w: &mut impl Write, tag: u16, payload: &[u8]) -> std::io::Result<()> {
    assert!(payload.len() as u64 <= MAX_FRAME as u64, "frame too large");
    let mut header = [0u8; 6];
    header[..2].copy_from_slice(&tag.to_le_bytes());
    header[2..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. `read_exact` absorbs short reads; a length prefix over
/// [`MAX_FRAME`] is rejected as corruption instead of allocated, and one
/// under it allocates only as its bytes arrive ([`read_payload`]).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<(u16, Vec<u8>)> {
    let mut header = [0u8; 6];
    r.read_exact(&mut header)?;
    let tag = u16::from_le_bytes([header[0], header[1]]);
    let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    let payload = read_payload(len, |chunk| r.read_exact(chunk))?;
    Ok((tag, payload))
}

/// Read a `len`-byte payload through `fill`, which must fill the slice it
/// is given or fail. The buffer grows as the bytes arrive: each step
/// reserves as much again as has been received (the first, 64 KiB), never
/// past `len`. So a peer that sends a length prefix and then stalls or
/// hangs up pins at most one chunk, not `len`.
pub fn read_payload(
    len: u32,
    mut fill: impl FnMut(&mut [u8]) -> std::io::Result<()>,
) -> std::io::Result<Vec<u8>> {
    let len = len as usize;
    let mut payload = Vec::new();
    while payload.len() < len {
        let got = payload.len();
        let grow = got.max(FIRST_CHUNK).min(len - got);
        payload.reserve_exact(grow);
        payload.resize(got + grow, 0);
        fill(&mut payload[got..])?;
    }
    Ok(payload)
}

/// Append an f64's little-endian bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a u32, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a u64, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read the f64 at byte offset `at`. Panics on a short buffer — callers
/// length-check the payload before walking it.
pub fn get_f64(b: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

/// Read the u32 at byte offset `at`.
pub fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

/// Read the u64 at byte offset `at`.
pub fn get_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

/// Bit-exact particle encoding (id, mass, pos, vel — little-endian).
pub fn encode_particles(particles: &[Particle]) -> Vec<u8> {
    let mut out = Vec::with_capacity(particles.len() * PARTICLE_BYTES);
    for p in particles {
        out.extend_from_slice(&p.id.to_le_bytes());
        put_f64(&mut out, p.mass);
        for v in [p.pos.x, p.pos.y, p.pos.z, p.vel.x, p.vel.y, p.vel.z] {
            put_f64(&mut out, v);
        }
    }
    out
}

/// The particles of a payload, decoded one record at a time once the
/// length is checked — for callers that place each particle as it comes (a
/// rank assembling the global array) instead of collecting them.
pub fn particle_records(bytes: &[u8]) -> Result<impl Iterator<Item = Particle> + '_, String> {
    if !bytes.len().is_multiple_of(PARTICLE_BYTES) {
        return Err(format!("particle payload of {} bytes is not a multiple", bytes.len()));
    }
    Ok(bytes.chunks_exact(PARTICLE_BYTES).map(|chunk| {
        Particle::new(
            get_u32(chunk, 0),
            get_f64(chunk, 4),
            Vec3::new(get_f64(chunk, 12), get_f64(chunk, 20), get_f64(chunk, 28)),
            Vec3::new(get_f64(chunk, 36), get_f64(chunk, 44), get_f64(chunk, 52)),
        )
    }))
}

/// [`particle_records`], collected.
pub fn decode_particles(bytes: &[u8]) -> Result<Vec<Particle>, String> {
    Ok(particle_records(bytes)?.collect())
}

/// Bit-exact (id, acceleration, potential) records.
pub fn encode_forces(records: &[(u32, Vec3, f64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * FORCE_BYTES);
    for (id, a, phi) in records {
        out.extend_from_slice(&id.to_le_bytes());
        for v in [a.x, a.y, a.z, *phi] {
            put_f64(&mut out, v);
        }
    }
    out
}

pub fn decode_forces(bytes: &[u8]) -> Result<Vec<(u32, Vec3, f64)>, String> {
    if !bytes.len().is_multiple_of(FORCE_BYTES) {
        return Err(format!("force payload of {} bytes is not a multiple", bytes.len()));
    }
    Ok(bytes
        .chunks_exact(FORCE_BYTES)
        .map(|c| {
            (
                get_u32(c, 0),
                Vec3::new(get_f64(c, 4), get_f64(c, 12), get_f64(c, 20)),
                get_f64(c, 28),
            )
        })
        .collect())
}

/// `(id, weight)` pairs — DPDA's measured per-particle loads.
pub fn encode_weights(pairs: &[(u32, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pairs.len() * 12);
    for (id, w) in pairs {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

pub fn decode_weights(bytes: &[u8]) -> Result<Vec<(u32, u64)>, String> {
    if !bytes.len().is_multiple_of(12) {
        return Err(format!("weight payload of {} bytes is not a multiple", bytes.len()));
    }
    Ok(bytes
        .chunks_exact(12)
        .map(|c| (get_u32(c, 0), u64::from_le_bytes(c[4..12].try_into().expect("8 bytes"))))
        .collect())
}

/// f64 vectors for reductions (bit patterns, not decimal text).
pub fn encode_f64s(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for &v in vals {
        put_f64(&mut out, v);
    }
    out
}

pub fn decode_f64s(bytes: &[u8]) -> Result<Vec<f64>, String> {
    if !bytes.len().is_multiple_of(8) {
        return Err(format!("f64 payload of {} bytes is not a multiple", bytes.len()));
    }
    Ok(bytes.chunks_exact(8).map(|c| get_f64(c, 0)).collect())
}

/// Jittered exponential backoff for connect/accept/retry loops.
///
/// Delays double from `base` up to `cap`, each drawn uniformly from
/// `[exp/2, exp]` ("equal jitter") by a deterministic per-instance
/// generator, so `p` peers retrying against the same listener spread out
/// instead of polling in lockstep. Every delay is additionally clamped to
/// the remaining budget before a deadline, so backoff never overshoots it.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    state: u64,
}

impl Backoff {
    /// Production schedule: 1 ms doubling to a 50 ms ceiling.
    pub fn new(seed: u64) -> Self {
        Backoff::with_limits(seed, Duration::from_millis(1), Duration::from_millis(50))
    }

    pub fn with_limits(seed: u64, base: Duration, cap: Duration) -> Self {
        // splitmix64 seeding keeps adjacent seeds (rank indices) decorrelated.
        Backoff { base, cap, attempt: 0, state: seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xD1B5 }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// The next delay to sleep, capped by `remaining` (time to deadline).
    pub fn next_delay(&mut self, remaining: Duration) -> Duration {
        let exp =
            self.base.saturating_mul(1u32 << self.attempt.min(20)).min(self.cap).as_secs_f64();
        self.attempt = self.attempt.saturating_add(1);
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_secs_f64(exp * (0.5 + 0.5 * unit)).min(remaining)
    }

    /// Restart the schedule (e.g. after a successful accept, for the next
    /// pending peer).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A writer that accepts at most `chunk` bytes per call and a reader
    /// that returns at most `chunk` bytes per call — the pathological
    /// short-read/short-write stream.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let take = buf.len().min(self.chunk);
            self.data.extend_from_slice(&buf[..take]);
            Ok(take)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let take = buf.len().min(self.chunk).min(self.data.len() - self.pos);
            buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
            self.pos += take;
            Ok(take)
        }
    }

    #[test]
    fn framing_survives_short_reads_and_writes() {
        let payload: Vec<u8> = (0..1031u32).map(|i| (i % 251) as u8).collect();
        for chunk in [1, 2, 3, 7, 1024] {
            let mut stream = Trickle { data: Vec::new(), pos: 0, chunk };
            write_frame(&mut stream, 42, &payload).unwrap();
            write_frame(&mut stream, 7, b"").unwrap();
            let (tag, got) = read_frame(&mut stream).unwrap();
            assert_eq!(tag, 42);
            assert_eq!(got, payload, "chunk {chunk}");
            let (tag, got) = read_frame(&mut stream).unwrap();
            assert_eq!(tag, 7);
            assert!(got.is_empty());
        }
    }

    /// Payloads that span one, two and several growth steps come back
    /// whole through one-page reads, and cut anywhere they fail as EOF.
    #[test]
    fn payloads_grow_across_chunks() {
        for len in [FIRST_CHUNK - 1, FIRST_CHUNK, FIRST_CHUNK + 1, 3 * FIRST_CHUNK + 5] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
            let mut stream = Trickle { data: Vec::new(), pos: 0, chunk: 4096 };
            write_frame(&mut stream, 3, &payload).unwrap();
            let whole = stream.data.clone();
            let (tag, got) = read_frame(&mut stream).unwrap();
            assert_eq!((tag, got.len()), (3, len));
            assert!(got == payload, "payload of {len} bytes differs");
            for cut in [7, FIRST_CHUNK, len] {
                let data = whole[..whole.len().min(cut)].to_vec();
                let err = read_frame(&mut Trickle { data, pos: 0, chunk: 4096 }).unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{len} cut at {cut}");
            }
        }
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut stream = Trickle { data: Vec::new(), pos: 0, chunk: usize::MAX >> 1 };
        write_frame(&mut stream, 1, &[1, 2, 3, 4]).unwrap();
        stream.data.truncate(stream.data.len() - 2);
        let err = read_frame(&mut stream).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut stream = Trickle { data: bytes, pos: 0, chunk: 64 };
        let err = read_frame(&mut stream).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn particle_roundtrip_is_bitwise() {
        let particles = vec![
            Particle::new(0, 0.1 + 0.2, Vec3::new(1.0 / 3.0, -2e-301, f64::MIN_POSITIVE), {
                Vec3::new(0.1, 0.2, 0.3)
            }),
            Particle::new(u32::MAX - 1, 5e300, Vec3::ZERO, Vec3::new(-0.0, 1e-17, 2.5)),
        ];
        let back = decode_particles(&encode_particles(&particles)).unwrap();
        assert_eq!(back.len(), particles.len());
        for (a, b) in particles.iter().zip(&back) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.mass.to_bits(), b.mass.to_bits());
            for (x, y) in [(a.pos, b.pos), (a.vel, b.vel)] {
                assert_eq!(x.x.to_bits(), y.x.to_bits());
                assert_eq!(x.y.to_bits(), y.y.to_bits());
                assert_eq!(x.z.to_bits(), y.z.to_bits());
            }
        }
        assert!(decode_particles(&[0u8; PARTICLE_BYTES - 1]).is_err());
    }

    #[test]
    fn force_weight_and_f64_roundtrips() {
        let forces = vec![(3u32, Vec3::new(0.1, -0.2, 1.0 / 7.0), -1.5e-13)];
        let back = decode_forces(&encode_forces(&forces)).unwrap();
        assert_eq!(back[0].0, 3);
        assert_eq!(back[0].1.x.to_bits(), forces[0].1.x.to_bits());
        assert_eq!(back[0].2.to_bits(), forces[0].2.to_bits());

        let weights = vec![(9u32, u64::MAX), (0, 0)];
        assert_eq!(decode_weights(&encode_weights(&weights)).unwrap(), weights);

        let vals = vec![0.1, f64::NEG_INFINITY, -0.0];
        let back = decode_f64s(&encode_f64s(&vals)).unwrap();
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_forces(&[0u8; 5]).is_err());
        assert!(decode_weights(&[0u8; 5]).is_err());
        assert!(decode_f64s(&[0u8; 5]).is_err());
    }

    #[test]
    fn scalar_helpers_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 5);
        put_f64(&mut buf, -0.0);
        assert_eq!(get_u32(&buf, 0), 0xDEAD_BEEF);
        assert_eq!(get_u64(&buf, 4), u64::MAX - 5);
        assert_eq!(get_f64(&buf, 12).to_bits(), (-0.0f64).to_bits());
    }

    /// The backoff schedule: delays live in the equal-jitter envelope
    /// `[exp/2, exp]` of a doubling-to-cap exponential, never exceed the
    /// remaining deadline budget, and replay exactly for a fixed seed.
    #[test]
    fn backoff_schedule_is_jittered_capped_and_deterministic() {
        let base = Duration::from_millis(1);
        let cap = Duration::from_millis(50);
        let far = Duration::from_secs(60);
        let mut b = Backoff::with_limits(7, base, cap);
        let delays: Vec<Duration> = (0..12).map(|_| b.next_delay(far)).collect();
        for (i, d) in delays.iter().enumerate() {
            let exp = base.saturating_mul(1u32 << i.min(20)).min(cap);
            assert!(*d <= exp, "attempt {i}: {d:?} above envelope {exp:?}");
            assert!(*d * 2 >= exp, "attempt {i}: {d:?} below half-envelope {exp:?}");
        }
        // Deep attempts sit at the cap's envelope, not past it.
        assert!(delays[11] <= cap && delays[11] * 2 >= cap);

        // Same seed, same schedule; different seed, different jitter.
        let mut b2 = Backoff::with_limits(7, base, cap);
        let replay: Vec<Duration> = (0..12).map(|_| b2.next_delay(far)).collect();
        assert_eq!(delays, replay);
        let mut b3 = Backoff::with_limits(8, base, cap);
        let other: Vec<Duration> = (0..12).map(|_| b3.next_delay(far)).collect();
        assert_ne!(delays, other);

        // The deadline budget clamps every delay.
        let mut b4 = Backoff::with_limits(7, base, cap);
        for _ in 0..6 {
            let _ = b4.next_delay(far);
        }
        let tight = Duration::from_micros(300);
        assert!(b4.next_delay(tight) <= tight);

        // reset() restarts the exponential ramp.
        b4.reset();
        let d = b4.next_delay(far);
        assert!(d <= base, "post-reset delay {d:?} above base {base:?}");
    }

    /// A decoder answers `bytes` without panicking: `Ok` exactly when the
    /// length is a whole number of `record`s, and an `Ok` re-encodes to the
    /// same bytes (the encodings are bit patterns, NaNs included).
    fn check_decoder<T>(
        bytes: &[u8],
        record: usize,
        decode: fn(&[u8]) -> Result<Vec<T>, String>,
        encode: fn(&[T]) -> Vec<u8>,
    ) -> Result<(), TestCaseError> {
        let decoded = decode(bytes);
        prop_assert_eq!(decoded.is_ok(), bytes.len().is_multiple_of(record));
        if let Ok(v) = decoded {
            prop_assert_eq!(encode(&v), bytes.to_vec());
        }
        Ok(())
    }

    fn check_decoders(bytes: &[u8]) -> Result<(), TestCaseError> {
        check_decoder(bytes, PARTICLE_BYTES, decode_particles, encode_particles)?;
        check_decoder(bytes, FORCE_BYTES, decode_forces, encode_forces)?;
        check_decoder(bytes, 12, decode_weights, encode_weights)?;
        check_decoder(bytes, 8, decode_f64s, encode_f64s)
    }

    /// One step of a 64-bit LCG: the bit patterns of the valid encodings.
    fn lcg(s: &mut u64) -> u64 {
        *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *s
    }

    /// A valid encoding of each payload kind, `count` records drawn from
    /// `seed` over the whole bit space (NaNs and infinities included).
    fn valid_encodings(seed: u64, count: usize) -> [Vec<u8>; 4] {
        let mut s = seed;
        let x: Vec<f64> = (0..7 * count).map(|_| f64::from_bits(lcg(&mut s))).collect();
        let v = |c: &[f64]| Vec3::new(c[0], c[1], c[2]);
        let records = || x.chunks_exact(7).zip(0u32..);
        let particles: Vec<Particle> =
            records().map(|(c, i)| Particle::new(i, c[0], v(&c[1..]), v(&c[4..]))).collect();
        let forces: Vec<(u32, Vec3, f64)> = records().map(|(c, i)| (!i, v(c), c[3])).collect();
        let weights: Vec<(u32, u64)> = records().map(|(c, i)| (i, c[6].to_bits())).collect();
        [
            encode_particles(&particles),
            encode_forces(&forces),
            encode_weights(&weights),
            encode_f64s(&x[..count]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn decoders_answer_arbitrary_bytes(bytes in prop::collection::vec(0u8..=255, 0..256)) {
            check_decoders(&bytes)?;
        }

        /// A valid encoding with one byte overwritten still decodes (every
        /// bit pattern is a value) and re-encodes to itself; with one byte
        /// removed it is no longer whole records, and is refused.
        #[test]
        fn single_byte_mutations_of_valid_encodings_are_answered(
            seed: u64,
            count in 1usize..5,
            at: usize,
            byte: u8,
        ) {
            for good in valid_encodings(seed, count) {
                check_decoders(&good)?;
                let at = at % good.len();
                let mut bad = good.clone();
                bad[at] = byte;
                check_decoders(&bad)?;
                bad.remove(at);
                check_decoders(&bad)?;
            }
        }

        /// A frame read over arbitrary bytes is `Ok` or `Err`, never a
        /// panic, and `Ok` exactly when the header and all the payload it
        /// announces are there. `short` shrinks the length prefix so that
        /// whole frames occur.
        #[test]
        fn read_frame_answers_arbitrary_bytes(
            bytes in prop::collection::vec(0u8..=255, 0..80),
            short: bool,
        ) {
            let mut bytes = bytes;
            if short && bytes.len() >= 6 {
                let len = u32::from(bytes[2] % 80);
                bytes[2..6].copy_from_slice(&len.to_le_bytes());
            }
            let whole = bytes.len() >= 6 && bytes.len() - 6 >= get_u32(&bytes, 2) as usize;
            let frame = read_frame(&mut std::io::Cursor::new(&bytes));
            prop_assert_eq!(frame.is_ok(), whole);
            if let Ok((tag, payload)) = frame {
                prop_assert_eq!(tag, u16::from_le_bytes([bytes[0], bytes[1]]));
                prop_assert_eq!(&payload[..], &bytes[6..6 + payload.len()]);
                prop_assert_eq!(payload.len(), get_u32(&bytes, 2) as usize);
            }
        }

        /// A length prefix over [`MAX_FRAME`] is refused as corruption
        /// before anything is allocated for it, whatever follows.
        #[test]
        fn read_frame_refuses_any_length_over_the_cap(
            tag: u16,
            len in MAX_FRAME + 1..=u32::MAX,
            tail in prop::collection::vec(0u8..=255, 0..32),
        ) {
            let mut bytes = tag.to_le_bytes().to_vec();
            bytes.extend(len.to_le_bytes());
            bytes.extend(tail);
            let err = read_frame(&mut std::io::Cursor::new(&bytes)).unwrap_err();
            prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }
}
