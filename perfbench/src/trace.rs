//! The benchmark's own tracer: spans (name, start, end, parent) recorded
//! around each call a workload makes into a layer, kept in memory and
//! written out once, each with its self time.
//!
//! A span's self time is its duration minus the part of its interval its
//! child spans cover. Children may overlap (two client connections, or
//! parallel calls), so "the part they cover" is the length of the union
//! of their intervals, clipped to the parent's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span, times in nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (also the request id of an HTTP exchange span).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.timing_screen`.
    pub name: String,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// An open span; close it with [`Tracer::close`].
#[derive(Debug)]
pub struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
}

impl OpenSpan {
    /// The id children should name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span recorder, shareable across threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent`.
    pub fn open(&self, name: impl Into<String>, parent: Option<u64>) -> OpenSpan {
        OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            start_ns: self.now_ns(),
        }
    }

    /// Closes a span and keeps it; returns its duration in seconds.
    pub fn close(&self, span: OpenSpan) -> f64 {
        let end_ns = self.now_ns();
        let record = SpanRecord {
            id: span.id,
            parent: span.parent,
            name: span.name,
            start_ns: span.start_ns,
            end_ns,
        };
        let secs = (end_ns - record.start_ns) as f64 / 1e9;
        self.spans.lock().expect("tracer poisoned").push(record);
        secs
    }

    /// Runs `f` inside a span; returns its result and duration (s).
    pub fn time<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(name, parent);
        let out = f();
        (out, self.close(span))
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("tracer poisoned").clone()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span (parallel to `spans`), ns.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    spans
        .iter()
        .map(|p| {
            let children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(p.id))
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            (p.end_ns - p.start_ns) - covered_ns(&children, p.start_ns, p.end_ns)
        })
        .collect()
}

/// The spans as a JSON array, each with its self time.
pub fn to_json(spans: &[SpanRecord]) -> String {
    use scap_obs::json::{Arr, Obj};
    let selfs = self_times(spans);
    let mut arr = Arr::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let mut o = Obj::new();
        o.u64("id", s.id);
        match s.parent {
            Some(p) => o.u64("parent", p),
            None => o.raw("parent", "null"),
        };
        o.str("name", &s.name)
            .u64("start_ns", s.start_ns)
            .u64("end_ns", s.end_ns)
            .u64("self_ns", self_ns);
        arr.raw(&o.finish());
    }
    arr.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_under_nesting() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [30,60),
        // overlapping a. Root's children cover [10,60) = 50.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 15, 25),
            span(4, Some(1), 30, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 30]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(1, None, 10, 20), span(2, Some(1), 0, 15)];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn union_merges_touching_and_contained_intervals() {
        assert_eq!(covered_ns(&[(0, 5), (5, 10), (2, 3)], 0, 100), 10);
        assert_eq!(covered_ns(&[(20, 30), (0, 5)], 0, 25), 10);
        assert_eq!(covered_ns(&[], 0, 25), 0);
    }

    #[test]
    fn tracer_records_parents_and_serializes() {
        let t = Tracer::default();
        let root = t.open("root", None);
        let ((), _) = t.time("child", Some(root.id()), || {});
        let root_id = root.id();
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(root_id));
        let json = to_json(&spans);
        let v = scap_obs::json::parse(&json).unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 2);
    }
}
