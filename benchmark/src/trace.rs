//! In-memory span recorder for the traced pass.
//!
//! The driver wraps every call it makes into a crate's public API in a
//! span (name, start, end, parent, and the tick number as the id shared
//! by one tick's spans). Spans stop at the API boundary — what happens
//! inside a call is attributed by the ladder, not here. A disabled
//! tracer costs one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The tick this span belongs to.
    pub tick: u32,
    /// Work items the call covered (updates submitted, items polled, …).
    pub work: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tick: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub calls: u64,
    pub work: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            tick: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Sets the id stamped on spans begun from now on.
    pub fn set_tick(&mut self, tick: u32) {
        self.tick = tick;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            tick: self.tick,
            work: 0,
        });
        self.open.push(idx);
        // Read the clock last so the recorder's own bookkeeping lands
        // outside the span.
        self.spans[idx].start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanId(Some(idx))
    }

    pub fn end(&mut self, id: SpanId, work: u64) {
        let Some(idx) = id.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[idx];
        span.end_ns = now;
        span.work = work;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must nest");
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, with self time = duration − children.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        self_times(&self.spans)
    }

    /// Chrome trace-event document (`chrome://tracing`, Perfetto).
    #[must_use]
    pub fn to_chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(idx, s)| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.name.split('.').next().unwrap_or(""))),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::Num(idx as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("tick", Json::Num(f64::from(s.tick))),
                            ("work", Json::Num(s.work as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj(vec![("workload", Json::str(workload))]),
            ),
        ])
    }
}

/// Self time of every span: its duration minus its direct children's.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (idx, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.work += s.work;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[idx]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            tick: 1,
            work: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("tick", 0, 100, None),
            span("advance", 10, 60, Some(0)),
            span("inner", 20, 30, Some(1)),
            span("poll", 70, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["tick"].self_ns, 100 - 50 - 20);
        assert_eq!(t["advance"].self_ns, 50 - 10);
        assert_eq!(t["inner"].self_ns, 10);
        assert_eq!(t["poll"].total_ns, 20);
        // Self times partition the root's duration.
        assert_eq!(t.values().map(|x| x.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.begin("tick");
        tr.end(id, 3);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_and_stamps_ticks() {
        let mut tr = Tracer::new(true);
        tr.set_tick(7);
        let outer = tr.begin("tick");
        let inner = tr.begin("core.apply_batch");
        tr.end(inner, 12);
        tr.end(outer, 0);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].tick, 7);
        assert_eq!(spans[1].work, 12);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let doc = tr.to_chrome_trace("w");
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }
}
