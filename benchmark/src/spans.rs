//! In-memory span recording for the traced replay.
//!
//! A span is one public call into a layer, timed from this package: its
//! name, start, end, the span it is attributed to, and the batch sequence
//! every span of one batch shares. Spans stay in a `Vec` until the replay
//! ends and are then written as JSON lines; a layer's **self time** is
//! its span's duration minus its children's.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// How a replayed batch was measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Spans recorded, no obs recorder installed: the batches every
    /// per-layer timing comes from.
    Normal,
    /// Only the batch's root span is timed: the baseline for
    /// `bench.trace_overhead_share`.
    SpansOff,
    /// An `incgraph_obs::Registry` is installed for the batch: the
    /// numerator of `obs.enabled_overhead_share`.
    ObsOn,
}

impl Mode {
    /// Every fourth batch runs with the obs registry on and every fourth
    /// with inner spans off; the other half are [`Mode::Normal`].
    pub fn of_batch(index: usize) -> Mode {
        match index % 4 {
            1 => Mode::SpansOff,
            3 => Mode::ObsOn,
            _ => Mode::Normal,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mode::Normal => "normal",
            Mode::SpansOff => "spans-off",
            Mode::ObsOn => "obs-on",
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u64,
    /// Id of the span this one is attributed to; 0 for a batch root.
    pub parent: u64,
    /// Client sequence of the batch — the id all its spans share.
    pub seq: u64,
    /// Layer call, e.g. `service.store.commit`.
    pub name: String,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// How the batch was measured.
    pub mode: Mode,
}

impl Span {
    /// Duration in µs.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Records spans for one replay.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
    /// Sequence and mode stamped on spans recorded from now on.
    pub seq: u64,
    /// See [`seq`](Self::seq).
    pub mode: Mode,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
            seq: 0,
            mode: Mode::Normal,
        }
    }
}

impl Tracer {
    /// Reserves an id, so children can name a parent that is recorded
    /// after them.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Runs `f` as the span `id` under `parent`. With inner spans off
    /// (and `id` not a root) `f` runs untimed and nothing is recorded.
    pub fn run<T>(&mut self, id: u64, parent: u64, name: &str, f: impl FnOnce() -> T) -> T {
        if self.mode == Mode::SpansOff && parent != 0 {
            return f();
        }
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            id,
            parent,
            seq: self.seq,
            name: name.to_string(),
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            mode: self.mode,
        });
        out
    }

    /// [`run`](Self::run) with a fresh id.
    pub fn child<T>(&mut self, parent: u64, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.reserve();
        self.run(id, parent, name, f)
    }

    /// Marks a root span whose extent was measured by the caller.
    pub fn record(&mut self, id: u64, name: &str, start: Instant, end: Instant) {
        self.spans.push(Span {
            id,
            parent: 0,
            seq: self.seq,
            name: name.to_string(),
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            mode: self.mode,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of the spans called `name` in batches of `mode`,
    /// in recording order.
    pub fn micros(&self, name: &str, mode: Mode) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.mode == mode && s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"seq\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"mode\":\"{}\"}}",
                s.id,
                s.parent,
                s.seq,
                s.name,
                s.start_ns,
                s.end_ns,
                s.mode.name()
            )?;
        }
        w.flush()
    }
}
