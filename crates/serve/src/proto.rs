//! Wire protocol for the query service, layered on the shared
//! length-prefixed framing in [`bhut_wire`].
//!
//! All integers and floats are little-endian, matching the S14 exchange
//! format. One request/reply pair per query id; a connection may have at
//! most one request in flight per id, but ids from one connection need not
//! be consecutive (the client allocates them).
//!
//! | tag | payload |
//! |-----|---------|
//! | [`TAG_QUERY`] | `id:u64, kind:u8, precision:u8, count:u32, count × (x,y,z: f64, skip: u32)` |
//! | [`TAG_RESULT`] | `id:u64, generation:u64, count:u32, count × (ax,ay,az,phi: f64)` |
//! | [`TAG_RETRY`] | `id:u64, retry_after_ms:u32` — queue full; resend after the hint |
//! | [`TAG_STATS`] | empty — request a [`crate::ServeStats`] snapshot |
//! | [`TAG_STATS_REPLY`] | UTF-8 JSON of [`crate::ServeStats`] |
//! | [`TAG_ERROR`] | `id:u64`, UTF-8 message — malformed or unsupported request |
//!
//! The `precision` byte of a query:
//!
//! | byte | meaning |
//! |------|---------|
//! | 0 | the retired `scalar_f64` mode — refused |
//! | 1 | [`KernelPrecision::F64`], the only precision |
//! | 2 | the retired `mixed_f32` mode — refused |
//!
//! A query carrying a refused byte, or any byte past 2, is answered with
//! [`TAG_ERROR`]. So is a query with a NaN or infinite coordinate anywhere
//! in it: no point of it is evaluated.

use bhut_geom::Vec3;
use bhut_tree::{KernelPrecision, QueryTarget};
use bhut_wire::{get_f64, get_u32, get_u64, put_f64, put_u32, put_u64};

use crate::engine::FieldSample;

pub const TAG_QUERY: u16 = 0x5351;
pub const TAG_RESULT: u16 = 0x5352;
pub const TAG_RETRY: u16 = 0x5353;
pub const TAG_STATS: u16 = 0x5354;
pub const TAG_STATS_REPLY: u16 = 0x5355;
pub const TAG_ERROR: u16 = 0x5356;

/// Bytes per encoded query point: position (3 × f64) + skip id.
pub const POINT_BYTES: usize = 3 * 8 + 4;
/// Bytes per encoded sample: acceleration (3 × f64) + potential.
pub const SAMPLE_BYTES: usize = 4 * 8;

/// What field the client wants at each point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Gravitational acceleration and potential (a full force-sweep walk).
    Field,
    /// Local mass-density estimate (deepest-cell mass over volume).
    Density,
}

fn kind_to_u8(k: QueryKind) -> u8 {
    match k {
        QueryKind::Field => 0,
        QueryKind::Density => 1,
    }
}

fn kind_from_u8(b: u8) -> Result<QueryKind, String> {
    match b {
        0 => Ok(QueryKind::Field),
        1 => Ok(QueryKind::Density),
        other => Err(format!("unknown query kind {other}")),
    }
}

fn precision_to_u8(p: KernelPrecision) -> u8 {
    match p {
        KernelPrecision::F64 => 1,
    }
}

fn precision_from_u8(b: u8) -> Result<KernelPrecision, String> {
    match b {
        1 => Ok(KernelPrecision::F64),
        0 => Err("kernel precision 0 (scalar_f64) was removed; send 1 (f64)".into()),
        2 => Err("kernel precision 2 (mixed_f32) was removed; send 1 (f64)".into()),
        other => Err(format!("unknown kernel precision {other}")),
    }
}

/// A batch of query points sharing one kind. `precision` is
/// [`KernelPrecision::F64`], the only value; removed by ROADMAP direction
/// 3(e).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    pub id: u64,
    pub kind: QueryKind,
    pub precision: KernelPrecision,
    pub points: Vec<QueryTarget>,
}

/// The evaluated batch, tagged with the epoch generation it ran against.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    pub id: u64,
    pub generation: u64,
    pub samples: Vec<FieldSample>,
}

pub fn encode_query(req: &QueryRequest) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 1 + 1 + 4 + req.points.len() * POINT_BYTES);
    put_u64(&mut out, req.id);
    out.push(kind_to_u8(req.kind));
    out.push(precision_to_u8(req.precision));
    put_u32(&mut out, req.points.len() as u32);
    for &(p, skip) in &req.points {
        put_f64(&mut out, p.x);
        put_f64(&mut out, p.y);
        put_f64(&mut out, p.z);
        put_u32(&mut out, skip);
    }
    out
}

pub fn decode_query(bytes: &[u8]) -> Result<QueryRequest, String> {
    const HEAD: usize = 8 + 1 + 1 + 4;
    if bytes.len() < HEAD {
        return Err(format!("query header truncated: {} bytes", bytes.len()));
    }
    let id = get_u64(bytes, 0);
    let kind = kind_from_u8(bytes[8])?;
    let precision = precision_from_u8(bytes[9])?;
    let count = get_u32(bytes, 10) as usize;
    if bytes.len() != HEAD + count * POINT_BYTES {
        return Err(format!(
            "query payload {} bytes, expected {} for {count} points",
            bytes.len(),
            HEAD + count * POINT_BYTES
        ));
    }
    let mut points = Vec::with_capacity(count);
    let mut at = HEAD;
    for k in 0..count {
        let p = Vec3::new(get_f64(bytes, at), get_f64(bytes, at + 8), get_f64(bytes, at + 16));
        if !p.is_finite() {
            return Err(format!("query point {k} has a non-finite coordinate: {p:?}"));
        }
        let skip = get_u32(bytes, at + 24);
        points.push((p, skip));
        at += POINT_BYTES;
    }
    Ok(QueryRequest { id, kind, precision, points })
}

pub fn encode_reply(id: u64, generation: u64, samples: &[FieldSample]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 + 4 + samples.len() * SAMPLE_BYTES);
    put_u64(&mut out, id);
    put_u64(&mut out, generation);
    put_u32(&mut out, samples.len() as u32);
    for s in samples {
        put_f64(&mut out, s.acc.x);
        put_f64(&mut out, s.acc.y);
        put_f64(&mut out, s.acc.z);
        put_f64(&mut out, s.phi);
    }
    out
}

pub fn decode_reply(bytes: &[u8]) -> Result<QueryReply, String> {
    const HEAD: usize = 8 + 8 + 4;
    if bytes.len() < HEAD {
        return Err(format!("reply header truncated: {} bytes", bytes.len()));
    }
    let id = get_u64(bytes, 0);
    let generation = get_u64(bytes, 8);
    let count = get_u32(bytes, 16) as usize;
    if bytes.len() != HEAD + count * SAMPLE_BYTES {
        return Err(format!(
            "reply payload {} bytes, expected {} for {count} samples",
            bytes.len(),
            HEAD + count * SAMPLE_BYTES
        ));
    }
    let mut samples = Vec::with_capacity(count);
    let mut at = HEAD;
    for _ in 0..count {
        samples.push(FieldSample {
            acc: Vec3::new(get_f64(bytes, at), get_f64(bytes, at + 8), get_f64(bytes, at + 16)),
            phi: get_f64(bytes, at + 24),
        });
        at += SAMPLE_BYTES;
    }
    Ok(QueryReply { id, generation, samples })
}

pub fn encode_retry(id: u64, retry_after_ms: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    put_u64(&mut out, id);
    put_u32(&mut out, retry_after_ms);
    out
}

pub fn decode_retry(bytes: &[u8]) -> Result<(u64, u32), String> {
    if bytes.len() != 12 {
        return Err(format!("retry payload {} bytes, expected 12", bytes.len()));
    }
    Ok((get_u64(bytes, 0), get_u32(bytes, 8)))
}

pub fn encode_error(id: u64, msg: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + msg.len());
    put_u64(&mut out, id);
    out.extend_from_slice(msg.as_bytes());
    out
}

pub fn decode_error(bytes: &[u8]) -> Result<(u64, String), String> {
    if bytes.len() < 8 {
        return Err(format!("error payload {} bytes, expected ≥ 8", bytes.len()));
    }
    Ok((get_u64(bytes, 0), String::from_utf8_lossy(&bytes[8..]).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn query_roundtrip_is_bitwise() {
        let req = QueryRequest {
            id: 0xdead_beef_cafe,
            kind: QueryKind::Field,
            precision: KernelPrecision::F64,
            points: vec![
                (Vec3::new(1.5, -2.25, 1e-300), 7),
                (Vec3::new(f64::MIN_POSITIVE, 0.0, -0.0), u32::MAX),
            ],
        };
        let back = decode_query(&encode_query(&req)).unwrap();
        assert_eq!(back.id, req.id);
        assert_eq!(back.kind, req.kind);
        assert_eq!(back.precision, req.precision);
        assert_eq!(back.points.len(), 2);
        for (a, b) in req.points.iter().zip(&back.points) {
            assert_eq!(a.0.x.to_bits(), b.0.x.to_bits());
            assert_eq!(a.0.y.to_bits(), b.0.y.to_bits());
            assert_eq!(a.0.z.to_bits(), b.0.z.to_bits());
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn reply_roundtrip_is_bitwise() {
        let samples = vec![
            FieldSample { acc: Vec3::new(0.1, -0.2, 0.3), phi: -1.75 },
            FieldSample { acc: Vec3::ZERO, phi: 0.0 },
        ];
        let rep = decode_reply(&encode_reply(42, 9, &samples)).unwrap();
        assert_eq!(rep.id, 42);
        assert_eq!(rep.generation, 9);
        for (a, b) in samples.iter().zip(&rep.samples) {
            assert_eq!(a.acc.x.to_bits(), b.acc.x.to_bits());
            assert_eq!(a.phi.to_bits(), b.phi.to_bits());
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(decode_query(&[0u8; 5]).is_err());
        let mut good = encode_query(&QueryRequest {
            id: 1,
            kind: QueryKind::Density,
            precision: KernelPrecision::F64,
            points: vec![(Vec3::ZERO, u32::MAX)],
        });
        good.truncate(good.len() - 1);
        assert!(decode_query(&good).is_err(), "short point array rejected");
        let mut bad_kind = encode_query(&QueryRequest {
            id: 1,
            kind: QueryKind::Field,
            precision: KernelPrecision::F64,
            points: vec![],
        });
        bad_kind[8] = 99;
        assert!(decode_query(&bad_kind).is_err(), "unknown kind rejected");
        // Precision byte 1 keeps its meaning; the retired 0 and 2 are
        // refused by name, like any byte past them.
        let mut at_precision = |b: u8| {
            bad_kind[8] = 0;
            bad_kind[9] = b;
            decode_query(&bad_kind).map(|q| q.precision)
        };
        assert_eq!(at_precision(1), Ok(KernelPrecision::F64));
        for (b, name) in [(0, "scalar_f64"), (2, "mixed_f32")] {
            let retired = at_precision(b).unwrap_err();
            assert!(retired.contains(name) && retired.contains("removed"), "{retired}");
        }
        assert!(at_precision(3).is_err(), "unknown precision rejected");
        // A NaN or infinite coordinate, on any axis of any point, refuses
        // the whole query; finite extremes still decode.
        let with_point = |bad: Vec3| QueryRequest {
            id: 4,
            kind: QueryKind::Field,
            precision: KernelPrecision::F64,
            points: vec![(Vec3::ZERO, u32::MAX), (bad, 3)],
        };
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for bad in [Vec3::new(v, 0.0, 0.0), Vec3::new(0.0, v, 0.0), Vec3::new(0.0, 0.0, v)] {
                let err = decode_query(&encode_query(&with_point(bad))).unwrap_err();
                assert!(err.contains("point 1") && err.contains("non-finite"), "{err}");
            }
        }
        let extreme = with_point(Vec3::new(f64::MAX, f64::MIN, -f64::MIN_POSITIVE));
        assert_eq!(decode_query(&encode_query(&extreme)), Ok(extreme));
        assert!(decode_retry(&[0u8; 11]).is_err());
        let (id, ms) = decode_retry(&encode_retry(3, 25)).unwrap();
        assert_eq!((id, ms), (3, 25));
        let (id, msg) = decode_error(&encode_error(8, "bad precision")).unwrap();
        assert_eq!(id, 8);
        assert_eq!(msg, "bad precision");
    }

    /// What every decoder owes bytes from a socket: an answer, never a
    /// panic. A query or reply that decodes re-encodes to the bytes it came
    /// from, and a query whose precision byte is not 1 does not decode.
    fn check_decoders(bytes: &[u8]) -> Result<(), TestCaseError> {
        let query = decode_query(bytes);
        if let Ok(q) = &query {
            prop_assert_eq!(encode_query(q), bytes.to_vec());
        }
        if bytes.len() > 9 && bytes[9] != 1 {
            prop_assert!(query.is_err(), "precision byte {} decoded", bytes[9]);
        }
        if let Ok(r) = decode_reply(bytes) {
            prop_assert_eq!(encode_reply(r.id, r.generation, &r.samples), bytes.to_vec());
        }
        if let Ok((id, ms)) = decode_retry(bytes) {
            prop_assert_eq!(encode_retry(id, ms), bytes.to_vec());
        }
        if let Ok((id, msg)) = decode_error(bytes) {
            prop_assert_eq!(id, get_u64(bytes, 0));
            if std::str::from_utf8(&bytes[8..]).is_ok() {
                prop_assert_eq!(encode_error(id, &msg), bytes.to_vec());
            }
        }
        Ok(())
    }

    /// One step of a 64-bit LCG: the byte and value source of the tests
    /// below.
    fn lcg(s: &mut u64) -> u64 {
        *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *s
    }

    /// A valid query encoding: `count` points drawn from `seed`, some of
    /// their coordinates at the finite extremes.
    fn valid_query(id: u64, kind: u8, count: usize, seed: u64) -> Vec<u8> {
        const EXTREMES: [f64; 6] = [0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, f64::MIN, 1e-310];
        let mut s = seed;
        let coord = |s: &mut u64| match lcg(s) % 8 {
            k @ 0..=5 => EXTREMES[k as usize],
            _ => (lcg(s) >> 11) as f64 / (1u64 << 53) as f64 * 2e3 - 1e3,
        };
        let points = (0..count)
            .map(|_| (Vec3::new(coord(&mut s), coord(&mut s), coord(&mut s)), lcg(&mut s) as u32))
            .collect();
        let kind = if kind == 0 { QueryKind::Field } else { QueryKind::Density };
        encode_query(&QueryRequest { id, kind, precision: KernelPrecision::F64, points })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn decoders_answer_arbitrary_bytes(
            bytes in prop::collection::vec(0u8..=255, 0..96),
        ) {
            check_decoders(&bytes)?;
        }

        /// Headers that look like a query's — small counts, kinds and
        /// precision bytes around the valid ones — over bodies of about the
        /// right length, so the length and value checks are reached.
        #[test]
        fn decoders_answer_query_shaped_bytes(
            id: u64,
            kind in 0u8..3,
            precision in 0u8..4,
            count in 0u32..4,
            slack in 0usize..3,
            body_seed: u64,
        ) {
            let mut bytes = id.to_le_bytes().to_vec();
            bytes.extend([kind, precision]);
            bytes.extend(count.to_le_bytes());
            let mut s = body_seed;
            let len = (count as usize * POINT_BYTES + slack).saturating_sub(1);
            bytes.extend((0..len).map(|_| (lcg(&mut s) >> 56) as u8));
            check_decoders(&bytes)?;
        }

        #[test]
        fn single_byte_mutations_of_valid_queries_are_answered(
            id: u64,
            kind in 0u8..2,
            count in 0usize..5,
            seed: u64,
            at: usize,
            byte: u8,
        ) {
            let good = valid_query(id, kind, count, seed);
            prop_assert_eq!(decode_query(&good).map(|q| encode_query(&q)), Ok(good.clone()));
            let mut bad = good.clone();
            let at = at % bad.len();
            bad[at] = byte;
            check_decoders(&bad)?;
        }
    }
}
