//! Bench-side spans: recorded around calls into the layers' public
//! functions, kept in memory, written as one JSON file when the run ends.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Step or query number; spans of one operation share it.
    pub op: u64,
    /// Worker thread or client connection the interval belongs to.
    pub lane: u32,
}

/// Handle of an open span; close it with [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Seconds on this tracer's clock of an instant taken elsewhere.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Start a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) -> SpanId {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
            lane: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// End `id`, which must be the innermost open span; returns its seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let end = self.now();
        let span = &mut self.spans[id.0];
        span.end = end;
        end - span.start
    }

    /// Time `f` as one span.
    pub fn scope<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, op);
        let out = f();
        (out, self.close(id))
    }

    /// Record an interval measured elsewhere (a worker thread, a client
    /// connection) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, lane: u32, start: f64, end: f64) {
        self.spans.push(Span { name, start, end, parent: self.open.last().copied(), op, lane });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total self time per span name: each span's duration minus the part
    /// of its interval that its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - covered(kids);
        }
        out
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start".into(), Value::Float(s.start)),
                    ("end".into(), Value::Float(s.end)),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                    ("op".into(), Value::UInt(s.op)),
                    ("lane".into(), Value::UInt(u64::from(s.lane))),
                ])
            })
            .collect();
        let self_ms = self
            .self_seconds()
            .into_iter()
            .map(|(name, s)| (name.to_string(), Value::Float(s * 1e3)))
            .collect();
        Value::Obj(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("seed".into(), Value::UInt(seed)),
            ("clock".into(), Value::Str("seconds since the tracer was created".into())),
            ("self_ms".into(), Value::Obj(self_ms)),
            ("spans".into(), Value::Arr(spans)),
        ])
        .to_json()
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for &(a, b) in intervals.iter() {
        if b > reach {
            total += b - a.max(reach);
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(covered(&mut []), 0.0);
        assert_eq!(covered(&mut [(0.0, 1.0), (2.0, 3.0)]), 2.0);
        assert_eq!(covered(&mut [(2.0, 3.0), (0.0, 2.5)]), 3.0);
        assert_eq!(covered(&mut [(0.0, 4.0), (1.0, 2.0)]), 4.0);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let root = t.open("root", 1);
        let (root_start, _) = (t.spans[0].start, ());
        // two overlapping children on different lanes cover [1, 4] of [0, 10]
        t.record("child", 1, 0, root_start + 1.0, root_start + 3.0);
        t.record("child", 1, 1, root_start + 2.0, root_start + 4.0);
        t.close(root);
        t.spans[0].end = root_start + 10.0;
        let own = t.self_seconds();
        assert!((own["root"] - 7.0).abs() < 1e-9, "{own:?}");
        assert!((own["child"] - 4.0).abs() < 1e-9, "{own:?}");
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new();
        let a = t.open("a", 7);
        let (_, inner) = t.scope("b", 7, || std::hint::black_box(1 + 1));
        let outer = t.close(a);
        assert!(outer >= inner);
        assert_eq!(t.spans[1].parent, Some(0));
        let doc = Value::from_json(&t.to_json("w", 3)).expect("trace is JSON");
        let Some(Value::Arr(spans)) = doc.get_field("spans") else { panic!("spans") };
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get_field("parent"), Some(&Value::UInt(0)));
        assert_eq!(spans[0].get_field("parent"), Some(&Value::Null));
    }
}
