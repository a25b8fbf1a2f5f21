//! Span tracing: nested timed spans collected into per-request traces.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

/// Connects a live [`Trace`] back to the ring it finishes into.
pub(crate) struct TraceSink {
    inner: Arc<crate::Inner>,
}

impl TraceSink {
    pub(crate) fn new(inner: Arc<crate::Inner>) -> Self {
        TraceSink { inner }
    }
}

/// One completed, timed span within a trace.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name, e.g. `extraction`.
    pub name: String,
    /// Nesting depth at the time the span opened (0 = top level).
    pub depth: usize,
    /// Microseconds from trace start to span start.
    pub start_micros: u64,
    /// Span duration in microseconds.
    pub duration_micros: u64,
}

/// A finished trace as stored in the recent-traces ring.
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    /// Trace name, e.g. the route or operation (`recommend`).
    pub name: String,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
    /// Total trace duration in microseconds.
    pub total_micros: u64,
    /// Completed spans in completion order.
    pub spans: Vec<SpanRecord>,
}

struct TraceInner {
    sink: TraceSink,
    name: String,
    started: Instant,
    started_unix_ms: u64,
    spans: Mutex<Vec<SpanRecord>>,
    depth: AtomicUsize,
}

/// A live trace. Open spans with [`Trace::span`]; when the `Trace` is
/// dropped the whole thing lands in the recent-traces ring.
///
/// Traces from [`crate::Telemetry::disabled`] are inert and record
/// nothing.
pub struct Trace {
    inner: Option<TraceInner>,
}

impl Trace {
    pub(crate) fn recording(name: &str, sink: TraceSink) -> Self {
        let started_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis().min(u64::MAX as u128) as u64);
        Trace {
            inner: Some(TraceInner {
                sink,
                name: name.to_string(),
                started: Instant::now(),
                started_unix_ms,
                spans: Mutex::new(Vec::new()),
                depth: AtomicUsize::new(0),
            }),
        }
    }

    pub(crate) fn noop() -> Self {
        Trace { inner: None }
    }

    /// Opens a timed span; it records itself when dropped. Spans opened
    /// while another span guard is alive are marked one level deeper.
    pub fn span(&self, name: &str) -> Span<'_> {
        match &self.inner {
            Some(inner) => {
                let depth = inner.depth.fetch_add(1, Ordering::Relaxed);
                Span {
                    owner: Some(SpanOwner {
                        trace: inner,
                        name: name.to_string(),
                        start: Instant::now(),
                        depth,
                    }),
                }
            }
            None => Span { owner: None },
        }
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let finished = FinishedTrace {
                name: inner.name,
                started_unix_ms: inner.started_unix_ms,
                total_micros: duration_micros(inner.started.elapsed()),
                spans: inner.spans.into_inner(),
            };
            inner.sink.inner.trace_ring().push(finished);
        }
    }
}

struct SpanOwner<'t> {
    trace: &'t TraceInner,
    name: String,
    start: Instant,
    depth: usize,
}

/// Guard for one open span; records itself into the parent trace on
/// drop.
pub struct Span<'t> {
    owner: Option<SpanOwner<'t>>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(owner) = self.owner.take() {
            let record = SpanRecord {
                name: owner.name,
                depth: owner.depth,
                start_micros: duration_micros(owner.start.duration_since(owner.trace.started)),
                duration_micros: duration_micros(owner.start.elapsed()),
            };
            owner.trace.spans.lock().push(record);
            owner.trace.depth.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

fn duration_micros(d: std::time::Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Bounded ring of finished traces; the oldest is evicted first.
pub(crate) struct TraceRing {
    capacity: usize,
    ring: Mutex<VecDeque<FinishedTrace>>,
}

impl TraceRing {
    pub(crate) fn new(capacity: usize) -> Self {
        TraceRing {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    pub(crate) fn push(&self, trace: FinishedTrace) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Newest first.
    pub(crate) fn recent(&self) -> Vec<FinishedTrace> {
        self.ring.lock().iter().rev().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    #[test]
    fn nested_spans_record_depths_and_order() {
        let t = Telemetry::new();
        {
            let trace = t.trace("req");
            let outer = trace.span("outer");
            {
                let _inner = trace.span("inner");
            }
            drop(outer);
            let _sibling = trace.span("sibling");
        }
        let traces = t.recent_traces();
        assert_eq!(traces.len(), 1);
        let spans = &traces[0].spans;
        // Completion order: inner, outer, sibling.
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["inner", "outer", "sibling"]);
        let depth_of = |n: &str| spans.iter().find(|s| s.name == n).unwrap().depth;
        assert_eq!(depth_of("outer"), 0);
        assert_eq!(depth_of("inner"), 1);
        assert_eq!(depth_of("sibling"), 0);
        for s in spans {
            assert!(s.duration_micros <= traces[0].total_micros);
            assert!(s.start_micros <= traces[0].total_micros);
        }
    }

    #[test]
    fn ring_is_bounded_and_newest_first() {
        let t = Telemetry::with_trace_capacity(3);
        for i in 0..5 {
            let _trace = t.trace(&format!("t{i}"));
        }
        let traces = t.recent_traces();
        let names: Vec<&str> = traces.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["t4", "t3", "t2"]);
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let t = Telemetry::with_trace_capacity(0);
        let _ = t.trace("dropped");
        assert!(t.recent_traces().is_empty());
    }
}
