//! Observability layer: metrics registry, structured spans, exporters.
//!
//! The incremental pipeline's headline claim — cost bounded by `|AFF|`,
//! not `|G|` — was only visible after the fact through
//! `BoundednessReport`. This crate makes the breakdown *watchable*:
//! where a run spends its time (scope function `h` vs. resumed step
//! function vs. WAL commit vs. audit), exported from long `bench`/`fuzz`
//! campaigns as JSON-lines or a human summary.
//!
//! # Design
//!
//! Everything funnels through one process-global [`Recorder`], mirroring
//! `core::trace::CaseTrace`: the paper-mandated APIs (`update`, `batch`,
//! the engines) stay exactly as Fig. 4/Alg. 2 describe them, with no
//! recorder handle threaded through every signature. The global is
//! gated by a single relaxed [`AtomicBool`]: with no recorder installed
//! (the default — the "noop recorder"), every instrumentation site costs
//! one atomic load and nothing else, which is how the ≤5 % overhead
//! budget on the bench suite is met. Install a [`Registry`] to collect.
//!
//! Metrics are keyed by `(class, name)`. The *class* (a query-class
//! label like `"sssp"`, or `""` for session-level work such as WAL
//! commits) comes from a thread-local set by [`class_scope`]; the
//! engines and the guarded update path record on the caller's thread, so
//! attribution follows the call stack without any plumbing.
//!
//! | kind      | use                                              |
//! |-----------|--------------------------------------------------|
//! | counter   | monotonic totals (pops, evals, WAL bytes)        |
//! | gauge     | last-write-wins levels (threads, heap peak)      |
//! | histogram | log₂-bucketed distributions (latencies, sizes)   |
//! | span      | timed sections (`scope.h`, `engine.run`, ...)    |
//! | event     | discrete decisions (fallbacks, audit failures)   |
//!
//! Spans always aggregate into a histogram of their duration under the
//! span's name; a [`Registry::with_trace`] additionally keeps each raw
//! span for the `--trace` JSON-lines export. See `docs/OBSERVABILITY.md`
//! for the span taxonomy and exporter formats.

pub mod export;
pub mod hist;
pub mod registry;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

pub use export::{parse_jsonl, render_summary, to_jsonl, SCHEMA};
pub use hist::{Histogram, BUCKETS};
pub use registry::{EventRec, Registry, Snapshot, SpanRec};

/// A sink for instrumentation. `class` is the query-class label from
/// the ambient [`class_scope`] (`""` outside any class), `name` the
/// static metric name.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to a monotonic counter.
    fn counter(&self, class: &'static str, name: &'static str, delta: u64);
    /// Sets a last-write-wins level.
    fn gauge(&self, class: &'static str, name: &'static str, value: u64);
    /// Records one observation into a histogram.
    fn observe(&self, class: &'static str, name: &'static str, value: u64);
    /// Records a discrete decision with free-form detail.
    fn event(&self, class: &'static str, name: &'static str, detail: &str);
    /// Records a completed timed section of `ns` nanoseconds.
    fn span(&self, class: &'static str, name: &'static str, ns: u64);
}

/// The zero-cost default: discards everything. Installing it is
/// equivalent to (but slightly slower than) installing nothing, since
/// an installed recorder flips the enabled bit; it exists for tests and
/// for explicitly exercising the dispatch path.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter(&self, _: &'static str, _: &'static str, _: u64) {}
    fn gauge(&self, _: &'static str, _: &'static str, _: u64) {}
    fn observe(&self, _: &'static str, _: &'static str, _: u64) {}
    fn event(&self, _: &'static str, _: &'static str, _: &str) {}
    fn span(&self, _: &'static str, _: &'static str, _: u64) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

thread_local! {
    static CLASS: Cell<&'static str> = const { Cell::new("") };
}

/// Installs the process-global recorder, replacing any previous one.
pub fn install(recorder: Arc<dyn Recorder>) {
    *RECORDER.write().unwrap_or_else(|e| e.into_inner()) = Some(recorder);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the global recorder; instrumentation reverts to one relaxed
/// atomic load per site.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    *RECORDER.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Whether a recorder is installed. The fast path every site checks.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn with(f: impl FnOnce(&dyn Recorder)) {
    let guard = RECORDER.read().unwrap_or_else(|e| e.into_inner());
    if let Some(r) = guard.as_ref() {
        f(r.as_ref());
    }
}

/// The ambient query-class label on this thread (`""` outside scopes).
pub fn current_class() -> &'static str {
    CLASS.with(|c| c.get())
}

/// Sets the ambient query-class label until the guard drops (scopes
/// nest; the previous label is restored).
#[must_use = "the class label reverts when the guard drops"]
pub fn class_scope(class: &'static str) -> ClassScope {
    let prev = CLASS.with(|c| c.replace(class));
    ClassScope { prev }
}

/// RAII guard restoring the previous class label. See [`class_scope`].
pub struct ClassScope {
    prev: &'static str,
}

impl Drop for ClassScope {
    fn drop(&mut self) {
        CLASS.with(|c| c.set(self.prev));
    }
}

/// Adds `delta` to the counter `name` under the ambient class.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        with(|r| r.counter(current_class(), name, delta));
    }
}

/// Sets the gauge `name` under the ambient class.
#[inline]
pub fn gauge(name: &'static str, value: u64) {
    if enabled() {
        with(|r| r.gauge(current_class(), name, value));
    }
}

/// Records one histogram observation under the ambient class.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        with(|r| r.observe(current_class(), name, value));
    }
}

/// Records an event under the ambient class. Call sites that build the
/// detail string should gate on [`enabled`] to keep the disabled path
/// allocation-free.
#[inline]
pub fn event(name: &'static str, detail: &str) {
    if enabled() {
        with(|r| r.event(current_class(), name, detail));
    }
}

/// Starts a timed span; the duration is recorded when the returned
/// guard drops. Disabled ⇒ the guard is inert and no clock is read.
#[inline]
#[must_use = "the span is recorded when the guard drops"]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

/// Guard for a timed section. See [`span`].
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if enabled() {
                with(|r| r.span(current_class(), self.name, ns));
            }
        }
    }
}

/// `span!("scope.h")` — sugar for [`span`] with a literal name; binds
/// the guard to a caller-supplied slot: `let _s = span!("scope.h");`.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global recorder is process-wide; keep every test that touches
    // it in one #[test] body so cargo's parallel runner can't interleave.
    #[test]
    fn global_recorder_lifecycle_and_class_scopes() {
        assert!(!enabled());
        // Disabled: free functions are inert (nothing to assert beyond
        // not panicking — there is no recorder to observe them).
        counter("x", 1);
        {
            let _s = span!("noop.section");
        }

        let registry = Arc::new(Registry::with_trace());
        install(registry.clone());
        assert!(enabled());

        assert_eq!(current_class(), "");
        {
            let _outer = class_scope("sssp");
            assert_eq!(current_class(), "sssp");
            counter("engine.pops", 2);
            {
                let _inner = class_scope("cc");
                assert_eq!(current_class(), "cc");
                counter("engine.pops", 5);
            }
            assert_eq!(current_class(), "sssp", "scopes nest and restore");
            let _s = span("engine.run");
        }
        assert_eq!(current_class(), "");
        gauge("threads", 3);
        if enabled() {
            event("fallback", "detail");
        }

        let snap = registry.snapshot();
        assert_eq!(
            snap.counters[&("sssp".to_string(), "engine.pops".to_string())],
            2
        );
        assert_eq!(
            snap.counters[&("cc".to_string(), "engine.pops".to_string())],
            5
        );
        assert_eq!(snap.gauges[&(String::new(), "threads".to_string())], 3);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].class, "sssp");
        assert_eq!(snap.spans[0].name, "engine.run");
        assert_eq!(snap.events.len(), 1);

        uninstall();
        assert!(!enabled());
        counter("after", 1);
        assert!(!registry
            .snapshot()
            .counters
            .contains_key(&(String::new(), "after".to_string())));

        // NoopRecorder: dispatch runs, nothing observable happens.
        install(Arc::new(NoopRecorder));
        assert!(enabled());
        counter("into.noop", 1);
        uninstall();
    }
}
