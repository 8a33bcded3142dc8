//! In-memory spans for the traced run.
//!
//! A span is one call the adapter (`layers.rs`) makes into a crate's public
//! API: name, start, end, the span that caused it, and the operation (one
//! repetition of the workload) it belongs to. Durations a crate already
//! reports about its own inside (`StageTimes`, `IngestTimings`, `IoStats`)
//! ride along as counters on the span of the call that produced them.
//! Nothing is written until the run ends.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Which repetition of the workload's operation this span belongs to.
    pub op: u32,
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Spans opened from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
            counters: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span; the span closes whether or not `f` fails.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    pub fn counter(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].counters.push((key, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus what its direct children cover. Children are
    /// opened and closed by the one adapter thread, so they never overlap.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Per operation, the summed seconds of every span called `name`.
    pub fn seconds_per_op(&self, name: &str) -> Vec<f64> {
        self.per_op(|s| (s.name == name).then(|| s.duration_ns() as f64 / 1e9))
    }

    /// Per operation, the summed value of counter `key` over all spans.
    pub fn counter_per_op(&self, key: &str) -> Vec<f64> {
        self.per_op(|s| {
            let hits: Vec<f64> = s
                .counters
                .iter()
                .filter(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .collect();
            (!hits.is_empty()).then(|| hits.iter().sum())
        })
    }

    /// Sum `pick` over each operation's spans; operations where nothing
    /// matched are left out.
    fn per_op(&self, pick: impl Fn(&Span) -> Option<f64>) -> Vec<f64> {
        let mut sums: Vec<(u32, f64)> = Vec::new();
        for span in &self.spans {
            if let Some(v) = pick(span) {
                match sums.iter_mut().find(|(op, _)| *op == span.op) {
                    Some((_, sum)) => *sum += v,
                    None => sums.push((span.op, v)),
                }
            }
        }
        sums.into_iter().map(|(_, v)| v).collect()
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Int(id as u64)),
                    ("name", Json::str(s.name)),
                    ("workload", Json::str(workload)),
                    ("op", Json::Int(u64::from(s.op))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                    ),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                    ("self_ns", Json::Int(self.self_ns(id))),
                    (
                        "counters",
                        Json::obj(s.counters.iter().map(|(k, v)| (*k, Json::Num(*v)))),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built spans, so the arithmetic is checked without sleeping.
    fn tracer_with(spans: Vec<Span>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
            op: 0,
        }
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = tracer_with(vec![
            span("root", 0, 100, None, 0),
            span("a", 10, 40, Some(0), 0),
            span("b", 50, 70, Some(0), 0),
            span("a.inner", 15, 25, Some(1), 0),
        ]);
        assert_eq!(t.self_ns(0), 100 - 30 - 20); // grandchild not subtracted twice
        assert_eq!(t.self_ns(1), 30 - 10);
        assert_eq!(t.self_ns(2), 20);
        assert_eq!(t.self_ns(3), 10);
    }

    #[test]
    fn self_time_never_goes_negative() {
        // A child that (through clock granularity) outlasts its parent.
        let t = tracer_with(vec![
            span("root", 0, 10, None, 0),
            span("c", 0, 12, Some(0), 0),
        ]);
        assert_eq!(t.self_ns(0), 0);
    }

    #[test]
    fn enter_exit_nest_and_record_parents() {
        let mut t = Tracer::new();
        t.set_op(7);
        let (outer, inner) = t.span("outer", |t| {
            let outer = t.open[0];
            let inner = t.span("inner", |t| *t.open.last().unwrap());
            (outer, inner)
        });
        assert_eq!(t.spans()[inner].parent, Some(outer));
        assert_eq!(t.spans()[outer].parent, None);
        assert_eq!(t.spans()[inner].op, 7);
        assert!(t.spans()[outer].duration_ns() >= t.spans()[inner].duration_ns());
        assert!(t.open.is_empty());
    }

    #[test]
    fn per_op_sums_spans_and_counters_by_operation() {
        let mut t = tracer_with(vec![
            span("run", 0, 2_000_000_000, None, 0),
            span("run", 0, 1_000_000_000, None, 0),
            span("run", 0, 500_000_000, None, 1),
            span("other", 0, 9, None, 2),
        ]);
        t.counter(0, "iters", 4.0);
        t.counter(1, "iters", 5.0);
        t.counter(2, "iters", 6.0);
        assert_eq!(t.seconds_per_op("run"), vec![3.0, 0.5]);
        assert_eq!(t.counter_per_op("iters"), vec![9.0, 6.0]);
        assert!(t.counter_per_op("absent").is_empty());
    }

    #[test]
    fn trace_json_carries_every_span_field() {
        let mut t = tracer_with(vec![
            span("root", 5, 25, None, 3),
            span("kid", 6, 16, Some(0), 3),
        ]);
        t.counter(1, "bytes", 12.0);
        let text = t.to_json("w").render();
        assert!(text.contains(r#""name": "kid", "workload": "w", "op": 3, "parent": 0, "start_ns": 6, "end_ns": 16, "self_ns": 10, "counters": {"bytes": 12}"#), "{text}");
        assert!(
            text.contains(r#""name": "root", "workload": "w", "op": 3, "parent": null"#),
            "{text}"
        );
    }
}
