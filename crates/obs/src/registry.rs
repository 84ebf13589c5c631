//! The in-memory [`Recorder`] implementation: a registry of counters,
//! gauges, and histograms keyed by `(class, name)`, plus capped event
//! and span logs.
//!
//! All maps are `BTreeMap`s so iteration — and therefore every export —
//! is deterministic regardless of recording order. The registry takes
//! one short mutex per operation; the hot paths in `core` only reach it
//! once per completed fixpoint run, so contention is a non-issue, and
//! the disabled path never gets here at all (see the crate root).

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::hist::Histogram;
use crate::Recorder;

/// Most recorded events kept before counting drops instead.
const EVENT_CAP: usize = 1 << 16;

/// Most raw spans kept (trace mode) before counting drops instead.
const SPAN_CAP: usize = 1 << 20;

type Key = (&'static str, &'static str);

/// One recorded event (a discrete decision, e.g. a fallback).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRec {
    /// Query-class label ("" when recorded outside any class scope).
    pub class: String,
    /// Event name (e.g. `fallback`).
    pub name: String,
    /// Free-form detail string.
    pub detail: String,
}

/// One raw span occurrence (trace mode only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// Query-class label ("" when recorded outside any class scope).
    pub class: String,
    /// Span name (e.g. `engine.run`).
    pub name: String,
    /// Registry-wide completion order.
    pub seq: u64,
    /// Wall-clock duration in nanoseconds.
    pub ns: u64,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, u64>,
    hists: BTreeMap<Key, Histogram>,
    events: Vec<(&'static str, &'static str, String)>,
    events_dropped: u64,
    spans: Vec<(&'static str, &'static str, u64, u64)>,
    spans_dropped: u64,
    span_seq: u64,
}

/// A thread-safe metrics registry. Install with [`crate::install`],
/// read back with [`Registry::snapshot`].
#[derive(Default)]
pub struct Registry {
    trace_spans: bool,
    inner: Mutex<Inner>,
}

/// An owned, immutable copy of a registry's contents.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters by `(class, name)`.
    pub counters: BTreeMap<(String, String), u64>,
    /// Last-write-wins gauges by `(class, name)`.
    pub gauges: BTreeMap<(String, String), u64>,
    /// Histograms by `(class, name)`; span durations land here too.
    pub hists: BTreeMap<(String, String), Histogram>,
    /// Recorded events in arrival order.
    pub events: Vec<EventRec>,
    /// Events discarded once [`EVENT_CAP`] was reached.
    pub events_dropped: u64,
    /// Raw spans in completion order (empty unless trace mode is on).
    pub spans: Vec<SpanRec>,
    /// Spans discarded once [`SPAN_CAP`] was reached.
    pub spans_dropped: u64,
}

impl Registry {
    /// A metrics-only registry: spans aggregate into histograms but raw
    /// per-span records are not kept.
    pub fn new() -> Self {
        Registry::default()
    }

    /// A tracing registry: like [`Registry::new`] but every span is
    /// also kept individually (up to [`SPAN_CAP`]) for the trace export.
    pub fn with_trace() -> Self {
        Registry {
            trace_spans: true,
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned registry mutex only means a panic elsewhere while
        // recording; the data is still sound for export.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Copies the current contents out for export.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        let key = |k: &Key| (k.0.to_string(), k.1.to_string());
        Snapshot {
            counters: inner.counters.iter().map(|(k, v)| (key(k), *v)).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (key(k), *v)).collect(),
            hists: inner
                .hists
                .iter()
                .map(|(k, v)| (key(k), v.clone()))
                .collect(),
            events: inner
                .events
                .iter()
                .map(|(c, n, d)| EventRec {
                    class: c.to_string(),
                    name: n.to_string(),
                    detail: d.clone(),
                })
                .collect(),
            events_dropped: inner.events_dropped,
            spans: inner
                .spans
                .iter()
                .map(|(c, n, seq, ns)| SpanRec {
                    class: c.to_string(),
                    name: n.to_string(),
                    seq: *seq,
                    ns: *ns,
                })
                .collect(),
            spans_dropped: inner.spans_dropped,
        }
    }
}

impl Recorder for Registry {
    fn counter(&self, class: &'static str, name: &'static str, delta: u64) {
        let mut inner = self.lock();
        *inner.counters.entry((class, name)).or_insert(0) += delta;
    }

    fn gauge(&self, class: &'static str, name: &'static str, value: u64) {
        let mut inner = self.lock();
        inner.gauges.insert((class, name), value);
    }

    fn observe(&self, class: &'static str, name: &'static str, value: u64) {
        let mut inner = self.lock();
        inner.hists.entry((class, name)).or_default().record(value);
    }

    fn event(&self, class: &'static str, name: &'static str, detail: &str) {
        let mut inner = self.lock();
        if inner.events.len() < EVENT_CAP {
            inner.events.push((class, name, detail.to_string()));
        } else {
            inner.events_dropped += 1;
        }
    }

    fn span(&self, class: &'static str, name: &'static str, ns: u64) {
        let mut inner = self.lock();
        inner.hists.entry((class, name)).or_default().record(ns);
        if self.trace_spans {
            let seq = inner.span_seq;
            inner.span_seq += 1;
            if inner.spans.len() < SPAN_CAP {
                inner.spans.push((class, name, seq, ns));
            } else {
                inner.spans_dropped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_aggregates_by_class_and_name() {
        let r = Registry::with_trace();
        r.counter("sssp", "engine.pops", 3);
        r.counter("sssp", "engine.pops", 4);
        r.counter("cc", "engine.pops", 1);
        r.gauge("", "threads", 2);
        r.gauge("", "threads", 4);
        r.observe("sssp", "scope.size", 10);
        r.span("sssp", "engine.run", 1_000);
        r.span("sssp", "engine.run", 2_000);
        r.event("sssp", "fallback", "scope exceeded");

        let s = r.snapshot();
        assert_eq!(
            s.counters[&("sssp".to_string(), "engine.pops".to_string())],
            7
        );
        assert_eq!(
            s.counters[&("cc".to_string(), "engine.pops".to_string())],
            1
        );
        assert_eq!(s.gauges[&(String::new(), "threads".to_string())], 4);
        let run = &s.hists[&("sssp".to_string(), "engine.run".to_string())];
        assert_eq!(run.count(), 2);
        assert_eq!(run.sum(), 3_000);
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[0].seq, 0);
        assert_eq!(s.spans[1].seq, 1);
        assert_eq!(s.events.len(), 1);
    }

    #[test]
    fn metrics_only_registry_keeps_no_raw_spans() {
        let r = Registry::new();
        r.span("", "wal.commit", 500);
        let s = r.snapshot();
        assert!(s.spans.is_empty());
        assert_eq!(
            s.hists[&(String::new(), "wal.commit".to_string())].count(),
            1
        );
    }
}
