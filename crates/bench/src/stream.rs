//! `incgraph stream`: sustained-stream SLO harness over a live durable
//! store with standing queries.
//!
//! Where the microbenches measure one-shot per-update cost, this harness
//! measures the *steady-state regime* the paper's boundedness results are
//! about: timestamped ΔGs arriving continuously at a target rate against
//! a WAL-durable store with standing queries over all seven classes. The
//! moving parts:
//!
//! * **Workload** — the Wiki-DE temporal stand-in
//!   ([`Dataset::temporal`]) on an *undirected* base (so the LCC/BC
//!   standing queries participate), replayed op by op on its
//!   generator-assigned admission ticks rescaled to a target mean
//!   ops/sec ([`rate_schedule`]).
//! * **Scheduler** — [`Scheduler`]: flush on size or deadline, drain at
//!   end of history, explicit backpressure ([`Scheduler::shift_tail`])
//!   when the consumer lags the schedule.
//! * **Store** — the server's durable [`Store`], its built-in states the
//!   standing queries. Each flush is one client `UPDATE`
//!   ([`Store::apply_update`]): one WAL fsync of the flush and its client
//!   origin (the ack point), then the state pass ([`update_states`](incgraph_durable::update_states)),
//!   which makes the flush net before propagation, over the weakly
//!   deducible classes; [`Store::catch_up`] then runs it over the
//!   deducible ones, so each class takes one update per flush.
//! * **Latency** — a forwarding obs recorder turns the end of each
//!   class's `update.guarded` span (and of BC's `dfs.forest` span, for
//!   the folded DFS class) into per-class admission→completion
//!   nanoseconds in the obs log₂ histograms; p50/p99/p999 are read back
//!   from those histograms.
//! * **Oracles** — the run is checked, not just timed: the WAL is
//!   audited for exactly-once application of every acked flush
//!   ([`audit_wal`]) after any reopen *and* at end of run, and the final
//!   store digest ([`Store::repl_digest`]) is a pure function of the
//!   schedule in virtual-time mode (pinned by
//!   `tests/stream_determinism.rs`).
//! * **RTO** — an optional injected kill ([`CrashPoint`]) mid-stream;
//!   the time to reopen the store, audit it and retry the in-flight
//!   flush under its `(token, seq)` is measured and reported.
//!
//! Reports serialize to `results/STREAM_<date>.json` ([`to_json`]) with
//! a `--check-against` regression gate ([`stream_regressions`]) in the
//! spirit of the parbench gate: tail latency is compared as a *ratio*
//! to an in-run batch-recompute calibration, so one committed baseline
//! gates arbitrary CI hosts. docs/STREAMING.md specifies the SLO
//! definitions, the RTO methodology, and the JSON schema.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use incgraph_algos::QueryClass;
use incgraph_durable::{CrashPoint, DurableError, DurableOptions};
use incgraph_graph::{Update, UpdateBatch};
use incgraph_obs::{Recorder, Registry};
use incgraph_oracle::walcheck::{audit_wal, batch_fingerprint, AckedBatch, WalAuditFailure};
use incgraph_service::store::{
    standing_states, Store, StoreLimits, UpdateError, DURABLE_PATTERN_SEED,
};
use incgraph_workloads::Dataset;

use crate::parbench::{field_num, field_str, fmt_ns, today_utc};
use crate::sched::{rate_schedule, FlushPolicy, Scheduler, Step};

/// Histogram name the per-class latencies are recorded under.
pub const LATENCY_HIST: &str = "stream.latency_ns";

/// The store's one durable graph, and the client token each flush is
/// sent under: flush `k` is the token's sequence `k`.
const GRAPH: &str = "stream";
const TOKEN: &str = "stream";

/// Injected kill: arm `point` on the first flush reaching `at_frac` of
/// the op stream, then reopen the store and resume when it fires.
#[derive(Clone, Copy, Debug)]
pub struct StreamCrash {
    /// Where in the durability pipeline the kill fires.
    pub point: CrashPoint,
    /// Fraction of total ops replayed before arming (clamped so the arm
    /// always happens; checkpoint-path points still need a checkpoint to
    /// fire after arming).
    pub at_frac: f64,
}

/// Throughput-ceiling discovery: successive short real-time stages at
/// geometrically increasing rates until the deadline-miss rate exceeds
/// the threshold.
#[derive(Clone, Copy, Debug)]
pub struct RampConfig {
    /// Rate multiplier between stages.
    pub factor: f64,
    /// Maximum stages to attempt.
    pub stages: usize,
    /// A stage whose miss rate exceeds this ends the ramp.
    pub max_miss_rate: f64,
    /// Ops replayed per stage (a prefix of the history).
    pub ops_per_stage: usize,
}

impl Default for RampConfig {
    fn default() -> Self {
        RampConfig {
            factor: 2.0,
            stages: 5,
            max_miss_rate: 0.05,
            ops_per_stage: 2_000,
        }
    }
}

/// Full harness configuration. [`StreamConfig::new`] supplies defaults
/// sized for a laptop smoke run.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Durable store directory; must not already hold a store.
    pub store: PathBuf,
    /// Temporal windows to generate.
    pub windows: usize,
    /// Window size as percent of |G|.
    pub window_pct: f64,
    /// Dataset scale factor.
    pub scale: f64,
    /// Target mean admission rate.
    pub rate_ops_s: f64,
    /// Flush when this many ops are pending.
    pub flush_ops: usize,
    /// Flush when the oldest pending op has waited this long.
    pub flush_wait_ms: f64,
    /// Per-op SLO: admission→completion beyond this is a deadline miss.
    pub deadline_ms: f64,
    /// Backpressure bound: when the consumer lags the next scheduled
    /// arrival by more than this, the unadmitted tail is pushed forward.
    pub max_lag_ms: f64,
    /// Deterministic virtual clock: no sleeping, scheduling decisions
    /// never read the wall clock, processing takes zero virtual time.
    pub virtual_time: bool,
    /// Automatic checkpoint cadence, in flushes.
    pub checkpoint_every: Option<u64>,
    /// Replay only the first N ops of the history.
    pub max_ops: Option<usize>,
    /// Optional injected kill + recovery measurement.
    pub crash: Option<StreamCrash>,
    /// Optional throughput-ceiling ramp (real-time stages).
    pub ramp: Option<RampConfig>,
}

impl StreamConfig {
    /// Smoke-sized defaults: three Wiki-DE windows at quarter scale,
    /// 20k ops/s, flush at 64 ops or 5 ms, 50 ms per-op SLO.
    pub fn new(store: PathBuf) -> Self {
        StreamConfig {
            store,
            windows: 3,
            window_pct: 1.9,
            scale: 0.25,
            rate_ops_s: 20_000.0,
            flush_ops: 64,
            flush_wait_ms: 5.0,
            deadline_ms: 50.0,
            max_lag_ms: 200.0,
            virtual_time: false,
            checkpoint_every: Some(32),
            max_ops: None,
            crash: None,
            ramp: None,
        }
    }
}

/// Per-class steady-state latency stats, from the obs log₂ histograms.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassStream {
    /// Class name (`sssp`, `cc`, …).
    pub class: String,
    /// Latency samples recorded: ops timed, one per op per flush the
    /// class was updated in (a flush the kill interrupted is not timed).
    pub updates: u64,
    /// Median admission→completion latency.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Mean latency.
    pub mean_ns: f64,
    /// Guarded updates that fell back to batch recompute (the class's
    /// `update.fallbacks` counter, so a kill's reopen replay counts too).
    pub fallbacks: u64,
}

/// Everything one stream run measured and verified.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamReport {
    /// UTC date the run finished.
    pub date: String,
    /// Whether the deterministic virtual clock drove scheduling.
    pub virtual_time: bool,
    /// Target mean rate.
    pub rate_ops_s: f64,
    /// Flush-size trigger.
    pub flush_ops: usize,
    /// Flush-wait trigger.
    pub flush_wait_ms: f64,
    /// Per-op SLO.
    pub deadline_ms: f64,
    /// Unit updates replayed (every one acked).
    pub ops_total: usize,
    /// Flushes applied — each exactly one WAL record.
    pub batches: usize,
    /// Effective ops the state pass's netting cancelled, summed over
    /// flushes (the `coalesce.cancelled` counter, so a kill's reopen
    /// replay counts too).
    pub coalesced_ops: usize,
    /// Ops whose admission→completion exceeded the SLO.
    pub deadline_misses: usize,
    /// `deadline_misses / ops_total`.
    pub miss_rate: f64,
    /// Times the backpressure rule pushed the schedule forward.
    pub backpressure_events: usize,
    /// Total schedule delay injected by backpressure.
    pub backpressure_shift_ms: f64,
    /// Highest ramp-stage rate whose miss rate stayed under the
    /// threshold (`None`: ramp disabled, or the first stage already
    /// missed).
    pub throughput_ceiling_ops_s: Option<f64>,
    /// Measured recovery time after the injected kill.
    pub rto_ms: Option<f64>,
    /// Name of the injected crash point.
    pub crash_point: Option<String>,
    /// WAL records the reopen replayed (its `recover.replayed` counter).
    pub recovered_replayed: Option<usize>,
    /// Committed-but-unacked WAL records observed at the post-crash
    /// audit (the in-flight flush whose fsync landed but whose ack never
    /// returned; its retry is then acked as a `dup`).
    pub committed_unacked: usize,
    /// CRC-32 over the final graph and every standing essence, `%08x`
    /// ([`Store::repl_digest`]). A pure function of the schedule in
    /// virtual time, byte-identical across a kill and reopen.
    pub digest: String,
    /// Min wall time of one full standing-query rebuild (batch
    /// recompute of every class) on the final graph — the host-speed
    /// calibration the regression gate divides by.
    pub calib_batch_ns: f64,
    /// Per-class latency stats.
    pub classes: Vec<ClassStream>,
    /// Wall time of the whole run.
    pub wall_ms: f64,
}

/// Harness-level failure.
#[derive(Debug)]
pub enum StreamError {
    /// Bad configuration.
    Config(String),
    /// The durable layer failed (or refused the store directory).
    Durable(DurableError),
    /// The store refused a flush (`ERR code detail`) or crashed unarmed.
    Refused(String),
    /// The exactly-once WAL audit failed — the run is *incorrect*, not
    /// merely slow.
    Audit(WalAuditFailure),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Config(m) => write!(f, "stream config: {m}"),
            StreamError::Durable(e) => write!(f, "stream durable: {e}"),
            StreamError::Refused(m) => write!(f, "stream store refused a flush: {m}"),
            StreamError::Audit(e) => write!(f, "stream audit: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<DurableError> for StreamError {
    fn from(e: DurableError) -> Self {
        StreamError::Durable(e)
    }
}

impl From<UpdateError> for StreamError {
    fn from(e: UpdateError) -> Self {
        StreamError::Refused(match e {
            UpdateError::Wire(code, detail) => format!("ERR {code} {detail}"),
            UpdateError::Crashed(p) => format!("unarmed crash at {}", p.name()),
        })
    }
}

impl From<WalAuditFailure> for StreamError {
    fn from(e: WalAuditFailure) -> Self {
        StreamError::Audit(e)
    }
}

// ---------------------------------------------------------------------
// Latency from spans
// ---------------------------------------------------------------------

/// The run's recorder: forwards everything to the registry and, each
/// time a class's output becomes current, records every admitted op's
/// admission→completion nanoseconds into that class's [`LATENCY_HIST`].
/// A class is current when its `update.guarded` span ends; the `dfs`
/// class when the `dfs.forest` span ends, because on an undirected store
/// the session folds it into BC's forest and BC goes on re-lowering after
/// it. Classes update sequentially inside [`Store::apply_update`] and the
/// [`Store::catch_up`] after it, after the WAL fsync, so each class's
/// latency honestly includes the fsync and every class ahead of it — the
/// freshness a standing-query subscriber of that class observes. With no
/// admissions set (a reopen and its retry) nothing is timed.
struct LatencyRecorder {
    registry: Arc<Registry>,
    /// The stream clock's zero: the instant the replay loop starts, so
    /// store setup never counts as lateness.
    epoch: Instant,
    /// Admission instants of the flush being applied.
    admissions: Mutex<Vec<u64>>,
}

impl LatencyRecorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn admissions(&self) -> std::sync::MutexGuard<'_, Vec<u64>> {
        self.admissions.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Uninstalls the global recorder when dropped, on every exit of a run.
struct Installed;

impl Drop for Installed {
    fn drop(&mut self) {
        incgraph_obs::uninstall();
    }
}

impl Recorder for LatencyRecorder {
    fn counter(&self, class: &'static str, name: &'static str, delta: u64) {
        self.registry.counter(class, name, delta);
    }

    fn gauge(&self, class: &'static str, name: &'static str, value: u64) {
        self.registry.gauge(class, name, value);
    }

    fn observe(&self, class: &'static str, name: &'static str, value: u64) {
        self.registry.observe(class, name, value);
    }

    fn event(&self, class: &'static str, name: &'static str, detail: &str) {
        self.registry.event(class, name, detail);
    }

    fn span(&self, class: &'static str, name: &'static str, ns: u64) {
        self.registry.span(class, name, ns);
        let dfs = QueryClass::Dfs.name();
        let current = match name {
            "update.guarded" if class != dfs => class,
            "dfs.forest" => dfs,
            _ => return,
        };
        let done = self.now_ns();
        for &at in self.admissions().iter() {
            self.registry
                .observe(current, LATENCY_HIST, done.saturating_sub(at));
        }
    }
}

// ---------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------

/// Scheduling clock: virtual (jumps exactly where the scheduler asks,
/// processing is instantaneous) or real (wall clock, sleep+spin waits).
enum Clock {
    Virtual { now: u64 },
    Real { epoch: Instant },
}

impl Clock {
    fn now(&self) -> u64 {
        match self {
            Clock::Virtual { now } => *now,
            Clock::Real { epoch } => epoch.elapsed().as_nanos() as u64,
        }
    }

    fn advance_to(&mut self, target: u64) {
        match self {
            Clock::Virtual { now } => *now = target.max(*now),
            Clock::Real { epoch } => loop {
                let now = epoch.elapsed().as_nanos() as u64;
                if now >= target {
                    break;
                }
                let left = target - now;
                // Coarse sleep to within ~300µs of the target, then spin
                // for precision; low rates stay cheap on CPU.
                if left > 500_000 {
                    std::thread::sleep(std::time::Duration::from_nanos(left - 300_000));
                } else {
                    std::hint::spin_loop();
                }
            },
        }
    }
}

fn ms_to_ns(ms: f64) -> u64 {
    (ms * 1e6) as u64
}

// ---------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------

/// Runs one sustained-stream replay per `cfg`, recording into `registry`
/// (the CLI's `--metrics` registry, so latencies land in the exported
/// metrics file) or, with `None`, into a run-local one. The run owns the
/// process-global obs recorder: it installs its latency recorder in
/// front of the registry and uninstalls it before it returns.
pub fn run_stream(
    cfg: &StreamConfig,
    registry: Option<Arc<Registry>>,
) -> Result<StreamReport, StreamError> {
    if let Some(c) = cfg.crash {
        if !(0.0..=1.0).contains(&c.at_frac) {
            return Err(StreamError::Config(
                "crash fraction must be in [0,1]".into(),
            ));
        }
    }
    if cfg.rate_ops_s <= 0.0 || !cfg.rate_ops_s.is_finite() {
        return Err(StreamError::Config("rate must be positive".into()));
    }
    if cfg.flush_ops == 0 {
        return Err(StreamError::Config("flush size must be positive".into()));
    }
    let wall_start = Instant::now();

    // Workload: undirected base so all seven classes register.
    let t = Dataset::WikiDe.temporal(false, cfg.windows, cfg.window_pct, cfg.scale);
    let mut ops: Vec<Update> = t
        .windows
        .iter()
        .flat_map(|w| w.updates().iter().copied())
        .collect();
    let mut ticks: Vec<u64> = t.timestamps.iter().flatten().copied().collect();
    debug_assert_eq!(ops.len(), ticks.len());
    if let Some(cap) = cfg.max_ops {
        ops.truncate(cap);
        ticks.truncate(cap);
    }
    if ops.is_empty() {
        return Err(StreamError::Config("empty op history".into()));
    }
    let total_ops = ops.len();
    let policy = FlushPolicy::new(cfg.flush_ops, ms_to_ns(cfg.flush_wait_ms));
    let mut sched = Scheduler::new(rate_schedule(&ticks, cfg.rate_ops_s), policy);

    // The server's durable store over the initial graph; its built-in
    // states are the standing queries. Each flush is one client `UPDATE`,
    // and one flush can carry the whole history, so the batch cap is the
    // history's length.
    let options = DurableOptions {
        checkpoint_every: cfg.checkpoint_every,
    };
    let limits = StoreLimits {
        max_batch_units: total_ops,
        ..StoreLimits::default()
    };
    let (nodes, directed) = (t.initial.node_count(), t.initial.is_directed());
    let mut store = Store::create_durable(
        &cfg.store,
        GRAPH,
        t.initial.clone(),
        options.clone(),
        limits.clone(),
    )?;

    // The latency recorder in front of the telemetry sink. Its epoch is
    // now: standing-state construction and the genesis checkpoint are
    // setup, not lateness.
    let latency = Arc::new(LatencyRecorder {
        registry: registry.unwrap_or_default(),
        epoch: Instant::now(),
        admissions: Mutex::new(Vec::new()),
    });
    incgraph_obs::install(latency.clone());
    let installed = Installed;
    let mut clock = if cfg.virtual_time {
        Clock::Virtual { now: 0 }
    } else {
        Clock::Real {
            epoch: latency.epoch,
        }
    };
    let lag_ns = ms_to_ns(cfg.max_lag_ms);
    let deadline_ns = ms_to_ns(cfg.deadline_ms);

    let mut acked: Vec<AckedBatch> = Vec::new();
    let mut batches = 0usize;
    let mut misses = 0usize;
    let mut backpressure_events = 0usize;
    let mut backpressure_shift_ns = 0u64;
    let mut pending_crash = cfg.crash;
    let mut rto_ns: Option<u64> = None;
    let mut committed_unacked = 0usize;

    loop {
        let step = sched.step(clock.now());
        let (start, end) = match step {
            Step::Done => break,
            Step::WaitUntil(at) => {
                clock.advance_to(at);
                continue;
            }
            Step::Flush { start, end, .. } => (start, end),
        };
        batches += 1;
        let client_seq = batches as u64;
        if let Some(c) = pending_crash {
            let fire_at = ((c.at_frac * total_ops as f64) as usize).min(total_ops - 1);
            if end > fire_at {
                store.arm_crash(GRAPH, Some(c.point));
                pending_crash = None;
            }
        }
        let batch = UpdateBatch::from_updates(ops[start..end].to_vec());
        {
            // Admission instants: the scheduled arrival in real mode;
            // "now" in virtual mode, where latency therefore isolates
            // pure processing cost.
            let mut adm = latency.admissions();
            adm.clear();
            match &clock {
                Clock::Real { .. } => adm.extend((start..end).map(|i| sched.arrival(i))),
                Clock::Virtual { .. } => {
                    let now = latency.now_ns();
                    adm.extend((start..end).map(|_| now));
                }
            }
        }
        let ack = match store.apply_update(GRAPH, TOKEN, client_seq, &batch) {
            Err(UpdateError::Crashed(_)) => {
                // The process "died" mid-flush: drop the store, reopen it
                // from disk, audit exactly-once, and send the flush again
                // under the same `(token, seq)`, as a client retries an
                // unacked `UPDATE`. The store answers `dup` when the WAL
                // record landed before the kill and applies the flush when
                // it did not. The interrupted flush is not timed: the
                // reopen's replay and the retry record no latency.
                latency.admissions().clear();
                drop(store);
                let down = Instant::now();
                store = Store::open_durable(
                    &cfg.store,
                    GRAPH,
                    nodes,
                    directed,
                    options.clone(),
                    limits.clone(),
                )?;
                committed_unacked += audit_wal(&cfg.store, &acked, 1)?.committed_unacked;
                let ack = store.apply_update(GRAPH, TOKEN, client_seq, &batch)?;
                rto_ns = Some(down.elapsed().as_nanos() as u64);
                if let Clock::Real { .. } = clock {
                    // Downtime shifts the remaining schedule — the
                    // producer reconnects after the outage. Ops already
                    // admitted keep their arrivals and eat their misses.
                    sched.shift_tail(clock.now());
                }
                ack
            }
            acked_or_refused => acked_or_refused?,
        };
        // The commit updated the weakly deducible classes; the deducible
        // ones catch up here, so every class takes one update per flush.
        store.catch_up(GRAPH);
        acked.push(AckedBatch {
            seq: ack.wal_seq,
            fingerprint: batch_fingerprint(&batch),
        });
        // Deadline-miss accounting at flush completion, against the
        // *original* schedule the ops were admitted under.
        let done = clock.now();
        for i in start..end {
            if done.saturating_sub(sched.arrival(i)) > deadline_ns {
                misses += 1;
            }
        }
        // Explicit backpressure: a consumer lagging the next scheduled
        // arrival beyond the bound throttles the producer instead of
        // letting the queue grow without limit.
        if let Clock::Real { .. } = clock {
            if sched.flushed() < total_ops {
                let now = clock.now();
                let next = sched.arrival(sched.flushed());
                if now > next.saturating_add(lag_ns) {
                    let shift = sched.shift_tail(now);
                    if shift > 0 {
                        backpressure_events += 1;
                        backpressure_shift_ns += shift;
                    }
                }
            }
        }
    }

    // End-of-run oracle: every acked flush exactly once, no strays.
    audit_wal(&cfg.store, &acked, 0)?;

    // Per-class latency stats out of the obs histograms; fallbacks, the
    // netting win and the reopen's replay out of the store's counters.
    let snapshot = latency.registry.snapshot();
    drop(installed);
    let counter = |class: &str, name: &str| {
        let key = (class.to_string(), name.to_string());
        snapshot.counters.get(&key).copied().unwrap_or(0)
    };
    // The base graph is undirected, so every class stands, in the
    // store's registration order.
    let classes: Vec<ClassStream> = QueryClass::ALL
        .iter()
        .map(|c| {
            let name = c.name();
            let hist = snapshot
                .hists
                .get(&(name.to_string(), LATENCY_HIST.to_string()));
            let (updates, p50_ns, p99_ns, p999_ns, mean_ns) = match hist {
                Some(h) => (
                    h.count(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.quantile(0.999),
                    h.mean(),
                ),
                None => (0, 0, 0, 0, 0.0),
            };
            ClassStream {
                class: name.to_string(),
                updates,
                p50_ns,
                p99_ns,
                p999_ns,
                mean_ns,
                fallbacks: counter(name, "update.fallbacks"),
            }
        })
        .collect();
    let coalesced_ops = counter("", "coalesce.cancelled") as usize;
    let recovered_replayed = rto_ns.map(|_| counter("", "recover.replayed") as usize);

    // Throughput ceiling: short real-time stages at rising rates on
    // scratch stores, after the main run's telemetry is finalized (each
    // child installs and removes its own recorder).
    let mut throughput_ceiling_ops_s = None;
    if let Some(ramp) = cfg.ramp {
        let mut rate = cfg.rate_ops_s;
        for stage in 0..ramp.stages {
            let child = StreamConfig {
                store: cfg.store.join(format!("ramp-{stage}")),
                rate_ops_s: rate,
                max_ops: Some(ramp.ops_per_stage.max(cfg.flush_ops)),
                virtual_time: false,
                crash: None,
                ramp: None,
                ..cfg.clone()
            };
            let stage_report = run_stream(&child, None)?;
            let _ = std::fs::remove_dir_all(&child.store);
            if stage_report.miss_rate > ramp.max_miss_rate {
                break;
            }
            throughput_ceiling_ops_s = Some(rate);
            rate *= ramp.factor;
        }
    }

    // Host-speed calibration: min wall time of a full standing-query
    // rebuild (batch recompute of every class) on the final graph, which
    // a shadow replay of the history rebuilds beside the store.
    let mut shadow = t.initial;
    UpdateBatch::from_updates(ops).apply(&mut shadow);
    let calib_batch_ns = {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            std::hint::black_box(standing_states(&shadow, DURABLE_PATTERN_SEED));
            best = best.min(t0.elapsed().as_nanos() as f64);
        }
        best
    };

    Ok(StreamReport {
        date: today_utc(),
        virtual_time: cfg.virtual_time,
        rate_ops_s: cfg.rate_ops_s,
        flush_ops: cfg.flush_ops,
        flush_wait_ms: cfg.flush_wait_ms,
        deadline_ms: cfg.deadline_ms,
        ops_total: total_ops,
        batches,
        coalesced_ops,
        deadline_misses: misses,
        miss_rate: misses as f64 / total_ops as f64,
        backpressure_events,
        backpressure_shift_ms: backpressure_shift_ns as f64 / 1e6,
        throughput_ceiling_ops_s,
        rto_ms: rto_ns.map(|ns| ns as f64 / 1e6),
        crash_point: cfg.crash.map(|c| c.point.name().to_string()),
        recovered_replayed,
        committed_unacked,
        digest: store.repl_digest(GRAPH).expect("the graph is durable").1,
        calib_batch_ns,
        classes,
        wall_ms: wall_start.elapsed().as_nanos() as f64 / 1e6,
    })
}

// ---------------------------------------------------------------------
// JSON + regression gate
// ---------------------------------------------------------------------

/// Serializes a report as the `STREAM_<date>.json` document (schema
/// `incgraph-stream/1`; one class object per line so the line-scanning
/// baseline parser works, like the BENCH_*.json documents).
pub fn to_json(r: &StreamReport) -> String {
    let opt_num = |x: Option<f64>| match x {
        Some(v) if v.is_finite() => format!("{v:.3}"),
        _ => "null".to_string(),
    };
    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"schema\": \"incgraph-stream/1\",");
    let _ = writeln!(j, "  \"date\": \"{}\",", r.date);
    let _ = writeln!(j, "  \"seed\": {DURABLE_PATTERN_SEED},");
    let _ = writeln!(j, "  \"virtual_time\": {},", r.virtual_time);
    let _ = writeln!(j, "  \"rate_ops_s\": {:.1},", r.rate_ops_s);
    let _ = writeln!(j, "  \"flush_ops\": {},", r.flush_ops);
    let _ = writeln!(j, "  \"flush_wait_ms\": {:.3},", r.flush_wait_ms);
    let _ = writeln!(j, "  \"deadline_ms\": {:.3},", r.deadline_ms);
    let _ = writeln!(j, "  \"ops_total\": {},", r.ops_total);
    let _ = writeln!(j, "  \"batches\": {},", r.batches);
    let _ = writeln!(j, "  \"coalesced_ops\": {},", r.coalesced_ops);
    let _ = writeln!(j, "  \"deadline_misses\": {},", r.deadline_misses);
    let _ = writeln!(j, "  \"miss_rate\": {:.6},", r.miss_rate);
    let _ = writeln!(j, "  \"backpressure_events\": {},", r.backpressure_events);
    let _ = writeln!(
        j,
        "  \"backpressure_shift_ms\": {:.3},",
        r.backpressure_shift_ms
    );
    let _ = writeln!(
        j,
        "  \"throughput_ceiling_ops_s\": {},",
        opt_num(r.throughput_ceiling_ops_s)
    );
    let _ = writeln!(j, "  \"rto_ms\": {},", opt_num(r.rto_ms));
    let _ = writeln!(
        j,
        "  \"crash_point\": {},",
        match &r.crash_point {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        }
    );
    let _ = writeln!(
        j,
        "  \"recovered_replayed\": {},",
        r.recovered_replayed
            .map_or_else(|| "null".to_string(), |n| n.to_string())
    );
    let _ = writeln!(j, "  \"committed_unacked\": {},", r.committed_unacked);
    let _ = writeln!(j, "  \"digest\": \"{}\",", r.digest);
    let _ = writeln!(j, "  \"calib_batch_ns\": {:.1},", r.calib_batch_ns);
    let _ = writeln!(j, "  \"wall_ms\": {:.3},", r.wall_ms);
    j.push_str("  \"classes\": [");
    for (i, c) in r.classes.iter().enumerate() {
        if i > 0 {
            j.push(',');
        }
        let _ = write!(
            j,
            "\n    {{ \"class\": \"{}\", \"updates\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"p999_ns\": {}, \"mean_ns\": {:.1}, \"fallbacks\": {} }}",
            c.class, c.updates, c.p50_ns, c.p99_ns, c.p999_ns, c.mean_ns, c.fallbacks
        );
    }
    j.push_str("\n  ]\n}\n");
    j
}

/// Gate rows parsed from a committed STREAM json.
struct StreamBaseline {
    ops_total: Option<f64>,
    batches: Option<f64>,
    miss_rate: Option<f64>,
    virtual_time: bool,
    calib_batch_ns: Option<f64>,
    /// `(class, p50_ns)` per class line.
    classes: Vec<(String, f64)>,
}

fn parse_stream_baseline(json: &str) -> StreamBaseline {
    let mut b = StreamBaseline {
        ops_total: None,
        batches: None,
        miss_rate: None,
        virtual_time: false,
        calib_batch_ns: None,
        classes: Vec::new(),
    };
    for line in json.lines() {
        if let Some(cls) = field_str(line, "\"class\": \"") {
            if let Some(p50) = field_num(line, "\"p50_ns\": ") {
                if !b.classes.iter().any(|(c, _)| c == cls) {
                    b.classes.push((cls.to_string(), p50));
                }
            }
            continue;
        }
        b.ops_total = b.ops_total.or_else(|| field_num(line, "\"ops_total\": "));
        b.batches = b.batches.or_else(|| field_num(line, "\"batches\": "));
        b.miss_rate = b.miss_rate.or_else(|| field_num(line, "\"miss_rate\": "));
        b.calib_batch_ns = b
            .calib_batch_ns
            .or_else(|| field_num(line, "\"calib_batch_ns\": "));
        if field_str(line, "\"virtual_time\": ").is_some_and(|v| v.trim() == "true") {
            b.virtual_time = true;
        }
    }
    b
}

/// Compares a fresh run against a committed STREAM baseline. Returns one
/// message per violated gate:
///
/// * **accounting** — when both runs are virtual-time, `ops_total` and
///   `batches` are pure functions of `(workload, rate, flush policy)`, so
///   any drift is a determinism regression (or a deliberate workload
///   change that must regenerate the baseline);
/// * **latency** — per class, `p50_ns / calib_batch_ns` against the
///   baseline's same ratio beyond `threshold` (0.5 = +50%). The rebuild
///   runs the same kernels on the same host, so the ratio cancels host
///   speed. The gate is on the *median* deliberately: per-op latency
///   includes the flush's WAL fsync, so a single disk hiccup lands in
///   p99 of every class (one slow batch holds the top ops of all of
///   them) — p99/p999 are reported for humans, but only a regression
///   broad enough to move the median fails CI. The log₂-histogram
///   quantization is why the default headroom is still wider than the
///   parbench gate's;
/// * **miss rate** — beyond baseline + 2 percentage points absolute.
pub fn stream_regressions(
    baseline_json: &str,
    report: &StreamReport,
    threshold: f64,
) -> Vec<String> {
    let base = parse_stream_baseline(baseline_json);
    let mut out = Vec::new();
    if base.virtual_time && report.virtual_time {
        if let Some(ops) = base.ops_total {
            if ops as usize != report.ops_total {
                out.push(format!(
                    "ops_total {} != baseline {} (virtual-time accounting must be exact)",
                    report.ops_total, ops as usize
                ));
            }
        }
        if let Some(batches) = base.batches {
            if batches as usize != report.batches {
                out.push(format!(
                    "batches {} != baseline {} (virtual-time flush partition must be exact)",
                    report.batches, batches as usize
                ));
            }
        }
    }
    if let Some(base_miss) = base.miss_rate {
        if report.miss_rate > base_miss + 0.02 {
            out.push(format!(
                "miss_rate {:.4} vs baseline {:.4} (+{:.2}pp, limit +2pp)",
                report.miss_rate,
                base_miss,
                (report.miss_rate - base_miss) * 100.0
            ));
        }
    }
    if let Some(base_calib) = base.calib_batch_ns.filter(|&c| c > 0.0) {
        if report.calib_batch_ns > 0.0 {
            for c in &report.classes {
                let Some((_, base_p50)) = base.classes.iter().find(|(n, _)| n == &c.class) else {
                    continue;
                };
                if *base_p50 <= 0.0 || c.p50_ns == 0 {
                    continue;
                }
                let base_ratio = base_p50 / base_calib;
                let ratio = c.p50_ns as f64 / report.calib_batch_ns;
                if ratio > base_ratio * (1.0 + threshold) {
                    out.push(format!(
                        "{}: p50/calib {:.5} vs baseline {:.5} (+{:.0}%, limit +{:.0}%)",
                        c.class,
                        ratio,
                        base_ratio,
                        (ratio / base_ratio - 1.0) * 100.0,
                        threshold * 100.0
                    ));
                }
            }
        }
    }
    out
}

/// Renders the human table printed after a run.
pub fn render_table(r: &StreamReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "stream: {} ops in {} batches @ {:.0} ops/s target ({}){}",
        r.ops_total,
        r.batches,
        r.rate_ops_s,
        if r.virtual_time {
            "virtual"
        } else {
            "real-time"
        },
        r.rto_ms
            .map_or_else(String::new, |ms| format!(", RTO {ms:.2} ms")),
    );
    let _ = writeln!(
        s,
        "deadline misses: {} ({:.3}%), coalesced: {} ops, backpressure: {} events / {:.1} ms",
        r.deadline_misses,
        r.miss_rate * 100.0,
        r.coalesced_ops,
        r.backpressure_events,
        r.backpressure_shift_ms
    );
    if let Some(c) = r.throughput_ceiling_ops_s {
        let _ = writeln!(s, "throughput ceiling: {c:.0} ops/s");
    }
    let _ = writeln!(s, "digest: {}", r.digest);
    let _ = writeln!(
        s,
        "{:<6} {:>9} {:>12} {:>12} {:>12} {:>10}",
        "class", "updates", "p50", "p99", "p999", "fallbacks"
    );
    for c in &r.classes {
        let _ = writeln!(
            s,
            "{:<6} {:>9} {:>12} {:>12} {:>12} {:>10}",
            c.class,
            c.updates,
            fmt_ns(c.p50_ns as f64),
            fmt_ns(c.p99_ns as f64),
            fmt_ns(c.p999_ns as f64),
            c.fallbacks
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "incgraph-stream-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A tiny virtual-time config that finishes in well under a second.
    fn tiny(store: PathBuf) -> StreamConfig {
        let mut cfg = StreamConfig::new(store);
        cfg.scale = 0.05;
        cfg.virtual_time = true;
        cfg.flush_ops = 16;
        cfg.checkpoint_every = Some(4);
        cfg
    }

    #[test]
    fn virtual_replay_is_deterministic() {
        let _obs = crate::obs_lock();
        let (d1, d2) = (scratch("det-a"), scratch("det-b"));
        let a = run_stream(&tiny(d1.clone()), None).unwrap();
        let b = run_stream(&tiny(d2.clone()), None).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.ops_total, b.ops_total);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.coalesced_ops, b.coalesced_ops);
        assert_eq!(a.deadline_misses, b.deadline_misses);
        assert!(a.batches > 1, "partition should have several flushes");
        // Undirected base: all seven classes stand.
        assert_eq!(a.classes.len(), 7);
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
    }

    #[test]
    fn crash_and_recover_preserves_digest_and_exactly_once() {
        let _obs = crate::obs_lock();
        let clean_dir = scratch("crash-clean");
        let clean = run_stream(&tiny(clean_dir.clone()), None).unwrap();
        for point in [CrashPoint::WalPreFsync, CrashPoint::WalPostFsync] {
            let dir = scratch("crash");
            let mut cfg = tiny(dir.clone());
            cfg.crash = Some(StreamCrash {
                point,
                at_frac: 0.5,
            });
            let crashed = run_stream(&cfg, None).unwrap();
            assert!(crashed.rto_ms.is_some(), "{point:?} never fired");
            assert_eq!(
                crashed.digest, clean.digest,
                "{point:?}: kill+reopen must converge to the clean digest"
            );
            assert_eq!(crashed.ops_total, clean.ops_total);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&clean_dir);
    }

    #[test]
    fn json_roundtrip_gates_clean_against_itself() {
        let _obs = crate::obs_lock();
        let dir = scratch("json");
        let report = run_stream(&tiny(dir.clone()), None).unwrap();
        let json = to_json(&report);
        assert!(json.contains("\"schema\": \"incgraph-stream/1\""));
        assert!(stream_regressions(&json, &report, 0.5).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gate_catches_accounting_and_tail_drift() {
        let _obs = crate::obs_lock();
        let dir = scratch("gate");
        let report = run_stream(&tiny(dir.clone()), None).unwrap();
        let json = to_json(&report);

        let mut drifted = report.clone();
        drifted.ops_total += 1;
        drifted.batches += 2;
        let msgs = stream_regressions(&json, &drifted, 0.5);
        assert!(msgs.iter().any(|m| m.contains("ops_total")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("batches")), "{msgs:?}");

        let mut missy = report.clone();
        missy.miss_rate = report.miss_rate + 0.5;
        assert!(stream_regressions(&json, &missy, 0.5)
            .iter()
            .any(|m| m.contains("miss_rate")));

        // Latency gate needs nonzero histograms on both sides; synthesize.
        let mut base = report.clone();
        base.calib_batch_ns = 1_000_000.0;
        for c in &mut base.classes {
            c.p50_ns = 10_000;
        }
        let base_json = to_json(&base);
        let mut slow = base.clone();
        slow.classes[0].p50_ns = 100_000;
        let msgs = stream_regressions(&base_json, &slow, 0.5);
        assert!(
            msgs.iter().any(|m| m.contains(&slow.classes[0].class)),
            "{msgs:?}"
        );
        assert!(stream_regressions(&base_json, &base, 0.5).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = tiny(scratch("bad"));
        cfg.rate_ops_s = 0.0;
        assert!(matches!(
            run_stream(&cfg, None),
            Err(StreamError::Config(_))
        ));
        cfg.rate_ops_s = 100.0;
        cfg.max_ops = Some(0);
        assert!(matches!(
            run_stream(&cfg, None),
            Err(StreamError::Config(_))
        ));
    }
}
