//! In-memory spans around the calls into each layer, written out at
//! exit as Chrome-trace JSON.
//!
//! The benchmark sees the layers only through their public entry
//! points, so two kinds of span exist. A *call* span wraps a call the
//! replay makes on the operation's own path. A *probe* span carries a
//! duration measured beforehand, outside any operation, for work that
//! happens *inside* a call the benchmark cannot open up (the chunk
//! index lookup inside `plan_node`, the CSV decode inside the
//! scheduler's miss path); it is recorded as a child of that call so
//! the parent's self time is net of it. Probes with no parent time
//! work that is not on the default path at all.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Operation (replay) the span belongs to.
    pub op: u32,
    pub probe: bool,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    /// `false` turns every recording call into a plain call, which is
    /// how the replay measures its own tracing overhead.
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { epoch: Instant::now(), enabled, spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next operation; spans recorded from here carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a call span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.stack.last().copied(),
            op: self.op,
            probe: false,
        });
        self.stack.push(id);
        id
    }

    /// Rename an open span: a fetch is a hit or a miss only once it
    /// has returned.
    pub fn rename(&mut self, id: usize, name: &'static str) {
        if self.enabled {
            self.spans[id].name = name;
        }
    }

    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end;
    }

    /// A leaf call span around `f`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record a probe of `dur` under the innermost open span (or at
    /// top level when none is open).
    pub fn probe(&mut self, name: &'static str, dur: Duration) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied();
        let start = parent.map(|p| self.spans[p].start_ns).unwrap_or_else(|| self.now());
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + dur.as_nanos() as u64,
            parent,
            op: self.op,
            probe: true,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome-trace ("Trace Event Format") rendering: one complete
    /// (`ph: X`) event per span, microsecond timestamps.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(if s.probe { "probe" } else { "call" })),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.op))),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                            ("op", Json::Num(f64::from(s.op))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
    }
}

/// Self time (nanoseconds) per span name per operation: a span's
/// duration minus the part its child spans cover. Children never
/// overlap each other here (one thread, strictly nested), so the sum
/// of child durations is the covered part; a probe longer than its
/// parent (noise between two separate measurements) clamps at zero.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur();
        }
    }
    let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        *out.entry(s.op).or_default().entry(s.name).or_default() += s.dur().saturating_sub(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, probe: bool) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 1, probe }
    }

    #[test]
    fn self_time_subtracts_children_and_probes() {
        let spans = vec![
            span("op", 0, 100, None, false),
            span("fetch", 10, 60, Some(0), false),
            span("decode", 10, 40, Some(1), true),
            span("extract", 60, 90, Some(0), false),
            span("extract", 90, 95, Some(0), false),
        ];
        let t = &self_times(&spans)[&1];
        assert_eq!(t["op"], 100 - 50 - 30 - 5);
        assert_eq!(t["fetch"], 20);
        assert_eq!(t["decode"], 30);
        assert_eq!(t["extract"], 35);
    }

    #[test]
    fn oversized_probe_clamps_parent_at_zero() {
        let spans = vec![span("fetch", 0, 10, None, false), span("decode", 0, 25, Some(0), true)];
        assert_eq!(self_times(&spans)[&1]["fetch"], 0);
    }

    #[test]
    fn tracer_nests_and_disables() {
        let mut t = Tracer::new(true);
        t.next_op();
        let outer = t.enter("outer");
        t.call("inner", || std::hint::black_box(1 + 1));
        t.probe("probe", Duration::from_nanos(5));
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[2].probe && s[2].start_ns == s[0].start_ns);
        assert!(s[0].end_ns >= s[1].end_ns);
        let events = t.chrome_trace();
        assert_eq!(events.get("traceEvents").unwrap().as_arr().unwrap().len(), 3);

        let mut off = Tracer::new(false);
        let id = off.enter("x");
        off.exit(id);
        off.probe("p", Duration::from_nanos(1));
        assert!(off.spans().is_empty());
    }
}
