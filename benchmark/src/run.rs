//! The untraced wire run: real [`Server::start`] instances on loopback
//! TCP, one closed-loop writer connection (plus one `QUERY` reader on
//! `delta-fanout`), and every end-to-end metric. Nothing here looks
//! inside the server — each number is what a client of `incgraph serve`
//! would measure with a stopwatch.

use crate::affinity::{pin_current_thread, BESIDE_CPU, PATH_CPU};
use crate::check::{expected, Expected, Mirror};
use crate::gen::{attach_line, load_ops, Op, UpdateGen};
use crate::report::Results;
use crate::spec::{ViewKind, Workload, GRAPH, IDLE_QUERIES, RECOVERY_TAIL, SEGMENTS, WARMUP_SHARE};
use crate::stats::{median, percentile_of, segment_values, Summary};
use crate::wire::{drive_op, Conn, OpTiming, ReplySource};
use incgraph_durable::checkpoint::{checkpoint_path, list_checkpoints};
use incgraph_durable::{DurableOptions, DurableSession, WAL_NAME};
use incgraph_graph::rng::SplitMix64;
use incgraph_graph::DynamicGraph;
use incgraph_oracle::walcheck::{audit_wal, batch_fingerprint, AckedBatch};
use incgraph_service::store::DURABLE_PATTERN_SEED;
use incgraph_service::{
    standing_states, Reply, Server, ServerConfig, ServerHandle, Store, StoreLimits, DEDUP_NAME,
};
use incgraph_workloads::Dataset;
use std::collections::BTreeMap;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors of any layer end a run; the message is all the caller needs.
pub type BenchResult<T> = Result<T, Box<dyn Error + Send + Sync>>;

const WRITER_TOKEN: &str = "bench-writer";
const READER_TOKEN: &str = "bench-reader";
const READER_QID: &str = "rq";
/// Longest pause of the `delta-fanout` reader between two `QUERY`s. A
/// `QUERY` takes ~1 ms there, so a writer's batch meets a held read lock
/// about one time in three: the collisions are in `ack_p95_us` and the
/// p50 lies well inside the batches that met none. (At 1 ms half of the
/// batches collided, the p50 sat on the knee between the two kinds —
/// 40 µs at p40, 100 µs at p60 — and moved 41–62 µs from run to run.)
const READER_PAUSE_US: u64 = 5_000;

/// When the timed loop stops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Limit {
    /// After this many batches — the same inputs and counts on both
    /// sides of an A/B (`all`, `aa`).
    Ops(usize),
    /// After this many seconds (the driver's `--seconds`).
    Seconds(f64),
}

/// One wire run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// What to run.
    pub workload: Workload,
    /// Seed of the update stream.
    pub seed: u64,
    /// When the timed loop stops.
    pub limit: Limit,
    /// Rigs the run is split over: each is set up from scratch (so
    /// `setup_s` is a median) and carries an equal share of the timed loop.
    pub rigs: usize,
}

/// A fresh directory under `benchmark/.tmp/`, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `benchmark/.tmp/<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".tmp")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once the last run's directory is gone.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The server configuration `incgraph serve` builds: all defaults, with
/// replication scoped to the durable graph when there is one.
pub fn server_config(durable: bool, replica_of: Option<std::net::SocketAddr>) -> ServerConfig {
    ServerConfig {
        repl_graph: durable.then(|| GRAPH.to_string()),
        replica_of,
        ..ServerConfig::default()
    }
}

/// Seeds `dir` with the genesis checkpoint of `g` and the store's seven
/// built-in states, as a primary and its replica must both start from.
pub fn seed_store(dir: &Path, g: &DynamicGraph) -> BenchResult<()> {
    let states = standing_states(g, DURABLE_PATTERN_SEED);
    DurableSession::create(dir, g.clone(), states, DurableOptions::default())?;
    Ok(())
}

/// Opens the durable store in `dir` the way `serve --store` does.
pub fn open_store(dir: &Path, nodes: usize) -> BenchResult<Store> {
    Ok(Store::open_durable(
        dir,
        GRAPH,
        nodes,
        false,
        DurableOptions::default(),
        StoreLimits::default(),
    )?)
}

/// A primary with its semi-sync replica attached.
struct Pair {
    primary: ServerHandle,
    replica: ServerHandle,
}

impl Pair {
    /// Starts both servers on their seeded directories and waits until
    /// the replica's tail session is registered as a sink, so that every
    /// ack from here on is watermark-gated.
    fn start(dirs: &Path, nodes: usize) -> BenchResult<Pair> {
        let primary = Server::start(
            open_store(&dirs.join("primary"), nodes)?,
            server_config(true, None),
        )?;
        let replica = Server::start(
            open_store(&dirs.join("replica"), nodes)?,
            server_config(true, Some(primary.addr())),
        )?;
        let mut probe = Conn::connect(primary.addr(), "bench-probe")?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let status = probe.expect_ok("STATUS")?;
            if status.split_whitespace().any(|t| t == "repl_sinks=1") {
                break;
            }
            if Instant::now() > deadline {
                return Err("replica did not attach within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        probe.bye();
        Ok(Pair { primary, replica })
    }
}

/// One standing view with its client-side mirror.
struct ViewState {
    view: crate::spec::View,
    mirror: Mirror,
}

/// Everything one set-up builds.
struct Rig {
    primary: ServerHandle,
    replica: Option<ServerHandle>,
    dirs: Option<TempDir>,
    writer: Conn,
    reader: Option<Conn>,
    gen: UpdateGen,
    nodes: usize,
    edges: usize,
    setup_s: f64,
    register_ms: f64,
    gen_s: f64,
}

impl Rig {
    /// Abrupt teardown of a set-up that was only built to be timed.
    fn discard(mut self) {
        self.primary.kill();
        if let Some(r) = self.replica.as_mut() {
            r.kill();
        }
    }
}

fn register_views(conn: &mut Conn, views: &[crate::spec::View]) -> BenchResult<f64> {
    let started = Instant::now();
    for v in views {
        conn.expect_ok(&v.register_line())?;
    }
    Ok(started.elapsed().as_secs_f64() * 1e3)
}

/// `setup_s`: graph generation, server start, graph load, every
/// `REGISTER`/`PLAN`. The update generator is created after the clock
/// stops — it is the harness's, not the system's.
fn setup(w: &Workload, seed: u64) -> BenchResult<Rig> {
    let started = Instant::now();
    let g = Dataset::LiveJournal.graph(false, w.scale);
    let gen_s = started.elapsed().as_secs_f64();
    let (nodes, edges) = (g.node_count(), g.edge_count());
    let attach = attach_line(nodes);

    let (primary, replica, dirs, mut writer, shadow, next_seq) = if w.durable {
        let dirs = TempDir::new(w.name)?;
        seed_store(&dirs.path().join("primary"), &g)?;
        seed_store(&dirs.path().join("replica"), &g)?;
        let pair = Pair::start(dirs.path(), nodes)?;
        let mut writer = Conn::connect(pair.primary.addr(), WRITER_TOKEN)?;
        writer.expect_ok(attach.trim_end())?;
        // The genesis graph carries the dataset's labels; so does the shadow.
        (pair.primary, Some(pair.replica), Some(dirs), writer, g, 1)
    } else {
        let primary = Server::start(
            Store::new(StoreLimits::default()),
            server_config(false, None),
        )?;
        let mut writer = Conn::connect(primary.addr(), WRITER_TOKEN)?;
        writer.expect_ok(attach.trim_end())?;
        // A wire-created graph has default labels; the shadow is built
        // from the same load batches so it matches the server's exactly.
        let mut shadow = DynamicGraph::new(false, nodes);
        let mut next_seq = 1;
        for op in load_ops(&g) {
            writer.send(op.update_text())?;
            match writer.next_reply()? {
                Reply::Ack(_) => {}
                other => return Err(format!("graph load: expected ACK, got {other:?}").into()),
            }
            op.batch.apply(&mut shadow);
            next_seq = op.seq + 1;
        }
        // Only the shadow is needed from here on.
        drop(g);
        (primary, None, None, writer, shadow, next_seq)
    };
    if shadow.edge_count() != edges {
        return Err("shadow graph does not mirror the generated graph".into());
    }

    let mut register_ms = register_views(&mut writer, &w.views())?;
    let reader = if w.reader {
        let t = Instant::now();
        let mut reader = Conn::connect(primary.addr(), READER_TOKEN)?;
        reader.expect_ok(attach.trim_end())?;
        reader.expect_ok(&format!("REGISTER {READER_QID} {GRAPH} sssp source=0"))?;
        register_ms += t.elapsed().as_secs_f64() * 1e3;
        Some(reader)
    } else {
        None
    };
    let setup_s = started.elapsed().as_secs_f64();

    Ok(Rig {
        primary,
        replica,
        dirs,
        writer,
        reader,
        gen: UpdateGen::new(shadow, seed, w.batch_units, next_seq),
        nodes,
        edges,
        setup_s,
        register_ms,
        gen_s,
    })
}

/// Fetches every view's initial state (after set-up, before the first
/// timed batch) to seed the notification mirrors.
fn seed_mirrors(conn: &mut Conn, w: &Workload) -> BenchResult<Vec<ViewState>> {
    w.views()
        .into_iter()
        .map(|view| {
            let mirror = match view.kind {
                ViewKind::Class(_) => Mirror::digest(conn.query(&view.qid)?.1),
                ViewKind::Plan(_) => Mirror::rows(&conn.planq(&view.qid)?.1),
            };
            Ok(ViewState { view, mirror })
        })
        .collect()
}

/// Moves the mirrors forward by the notifications read since the last
/// call; returns `(notifications, resyncs)`.
fn drain_notifications(conn: &mut Conn, views: &mut [ViewState], r: &mut Results) -> (u64, u64) {
    let (mut seen, mut resyncs) = (0, 0);
    for d in conn.deltas.drain(..) {
        seen += 1;
        resyncs += d.changed.is_none() as u64;
        let ok = views
            .iter_mut()
            .find(|v| v.view.qid == d.qid)
            .is_some_and(|v| v.mirror.apply_delta(&d));
        if !ok {
            r.fail(format!("DELTA for {} does not fit its view", d.qid));
        }
    }
    for v in conn.vdeltas.drain(..) {
        seen += 1;
        let ok = views
            .iter_mut()
            .find(|s| s.view.qid == v.qid)
            .is_some_and(|s| s.mirror.apply_vdelta(&v));
        if !ok {
            r.fail(format!("VDELTA for {} does not fit its view", v.qid));
        }
    }
    (seen, resyncs)
}

/// What the timed loop leaves behind.
#[derive(Default)]
struct LoopOutcome {
    /// Send → `ACK` of every completed op, µs.
    ack_us: Vec<f64>,
    /// Send → `OK GRAPH` of every completed op, µs.
    fresh_us: Vec<f64>,
    /// The acks the WAL audit checks (durable runs only).
    acked: Vec<AckedBatch>,
    notifications: u64,
    resyncs: u64,
    busy: u64,
    lag_max: u64,
    wall: Duration,
}

/// The ledger entry the WAL audit checks an acknowledged op against.
fn acked(t: &OpTiming, op: &Op) -> AckedBatch {
    AckedBatch {
        seq: t.ack.wal_seq,
        fingerprint: batch_fingerprint(&op.batch),
    }
}

/// The closed loop: generate (untimed), send, wait for both replies,
/// replay the notifications (untimed), repeat. Any op error ends the
/// loop — after a failed op the sequence contract is broken and every
/// later op would fail with it.
fn timed_loop(
    rig: &mut Rig,
    views: &mut [ViewState],
    limit: Limit,
    r: &mut Results,
) -> LoopOutcome {
    let started = Instant::now();
    let mut out = LoopOutcome::default();
    loop {
        let done = match limit {
            Limit::Ops(n) => out.ack_us.len() >= n,
            Limit::Seconds(s) => started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        let op = rig.gen.next_op();
        r.attempted += 1;
        match drive_op(&mut rig.writer, &op.text) {
            Ok(t) => {
                out.ack_us.push(t.ack_latency.as_secs_f64() * 1e6);
                out.fresh_us.push(t.fresh_latency.as_secs_f64() * 1e6);
                out.busy += t.busy_retries as u64;
                if rig.replica.is_some() {
                    out.acked.push(acked(&t, &op));
                }
            }
            Err(e) => {
                r.fail(format!("op {} failed: {e}", op.seq));
                break;
            }
        }
        let (seen, resyncs) = drain_notifications(&mut rig.writer, views, r);
        out.notifications += seen;
        out.resyncs += resyncs;
        if rig.replica.is_some() {
            out.lag_max = out.lag_max.max(rig.primary.repl_lag());
        }
    }
    out.wall = started.elapsed();
    out
}

/// The `delta-fanout` reader: `QUERY`, then a seeded pause of up to
/// [`READER_PAUSE_US`], until told to stop. Without a pause two closed
/// loops on one store phase-lock — the writer's batch either always or
/// never arrives while a `RESULT` is being formatted under the read lock
/// — and `ack_p50_us` reads one of two values from run to run; with it a
/// collision is a steady probability. Where the batch's path is pinned
/// the reader, another user, runs on the other core.
fn reader_loop(
    mut conn: Conn,
    seed: u64,
    pin: bool,
    stop: &AtomicBool,
) -> (Vec<f64>, Option<String>) {
    if pin {
        pin_current_thread(BESIDE_CPU);
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut latencies = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let t = Instant::now();
        if let Err(e) = conn.query(READER_QID) {
            return (latencies, Some(format!("reader QUERY failed: {e}")));
        }
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
        conn.deltas.clear();
        std::thread::sleep(Duration::from_micros(rng.gen_range(0..READER_PAUSE_US)));
    }
    conn.bye();
    (latencies, None)
}

fn idle_queries(conn: &mut Conn, qid: &str) -> BenchResult<Vec<f64>> {
    (0..IDLE_QUERIES)
        .map(|_| {
            let t = Instant::now();
            conn.query(qid)?;
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect()
}

/// The gate on the views: each final `QUERY`/`PLANQ` equals the batch
/// result on the shadow, and each mirror that never saw `resync` equals
/// that final answer.
fn verify_views(
    conn: &mut Conn,
    views: &[ViewState],
    shadow: &DynamicGraph,
    r: &mut Results,
) -> BenchResult<()> {
    let mut cache: Vec<(ViewKind, Expected)> = Vec::new();
    for v in views {
        let last = match v.view.kind {
            ViewKind::Class(_) => Expected::Digest(conn.query(&v.view.qid)?.1),
            ViewKind::Plan(_) => Expected::Rows(conn.planq(&v.view.qid)?.1),
        };
        // 20 views, 5 distinct: batch-compute each kind once.
        let known = cache.iter().position(|(k, _)| *k == v.view.kind);
        let known = known.unwrap_or_else(|| {
            cache.push((v.view.kind.clone(), expected(&v.view, shadow)));
            cache.len() - 1
        });
        let want = &cache[known].1;
        let qid = &v.view.qid;
        r.check(
            (last != *want).then(|| format!("{qid}: final answer differs from batch recompute")),
        );
        r.check(
            (!v.mirror.matches(&last))
                .then(|| format!("{qid}: replayed notifications differ from final answer")),
        );
    }
    Ok(())
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Bytes a durable store holds: WAL, intent log and every checkpoint.
pub fn store_bytes(dir: &Path) -> u64 {
    file_len(&dir.join(WAL_NAME))
        + file_len(&dir.join(DEDUP_NAME))
        + list_checkpoints(dir)
            .into_iter()
            .map(|seq| file_len(&checkpoint_path(dir, seq)))
            .sum::<u64>()
}

/// What only `durable-repl` does after its timed loop: graceful
/// shutdown, restart, [`RECOVERY_TAIL`] more commits, kill, recovery,
/// then the offline gates (digests agree, WAL holds every ack once).
fn durable_tail(
    mut rig: Rig,
    w: &Workload,
    mut acked: Vec<AckedBatch>,
    r: &mut Results,
) -> BenchResult<()> {
    let dirs = rig.dirs.take().expect("durable rig owns its directories");
    let primary_dir = dirs.path().join("primary");
    let mut replica = rig.replica.take().expect("durable rig has a replica");
    rig.writer.bye();

    let t = Instant::now();
    rig.primary.shutdown();
    r.set_value("shutdown_ms", t.elapsed().as_secs_f64() * 1e3);
    replica.shutdown();

    // Restart from the shutdown checkpoint and put exactly RECOVERY_TAIL
    // records behind it. The writer keeps its token, so its sequence
    // continues where the dedup log says it stopped.
    let mut pair = Pair::start(dirs.path(), rig.nodes)?;
    let mut writer = Conn::connect(pair.primary.addr(), WRITER_TOKEN)?;
    writer.expect_ok(attach_line(rig.nodes).trim_end())?;
    register_views(&mut writer, &w.views())?;
    for _ in 0..RECOVERY_TAIL {
        let op = rig.gen.next_op();
        r.attempted += 1;
        match drive_op(&mut writer, &op.text) {
            Ok(t) => acked.push(self::acked(&t, &op)),
            Err(e) => {
                r.fail(format!("post-restart op {} failed: {e}", op.seq));
                break;
            }
        }
    }
    drop(writer);
    pair.primary.kill();
    pair.replica.kill();

    let units = acked.len() * w.batch_units;
    r.set_value(
        "store_bytes_per_unit",
        store_bytes(&primary_dir) as f64 / units.max(1) as f64,
    );

    let t = Instant::now();
    let mut recovered = Server::start(
        open_store(&primary_dir, rig.nodes)?,
        server_config(true, None),
    )?;
    let mut conn = Conn::connect(recovered.addr(), WRITER_TOKEN)?;
    conn.expect_ok(attach_line(rig.nodes).trim_end())?;
    let views = w.views();
    register_views(&mut conn, &views)?;
    let answer = conn.query(&views[0].qid)?.1;
    r.set_value("recover_ms", t.elapsed().as_secs_f64() * 1e3);
    r.check(
        (Expected::Digest(answer) != expected(&views[0], rig.gen.shadow()))
            .then(|| "recovered primary answers differently from batch recompute".to_string()),
    );
    conn.bye();
    recovered.kill();

    let digest = |dir: &Path| -> BenchResult<String> {
        Ok(incgraph_durable::recover(dir, DurableOptions::default())?
            .0
            .digest())
    };
    let (p, q) = (digest(&primary_dir)?, digest(&dirs.path().join("replica"))?);
    r.check((p != q).then(|| "recovered primary and replica digests differ".to_string()));
    r.check(
        audit_wal(&primary_dir, &acked, 0)
            .err()
            .map(|e| format!("WAL audit: {e}")),
    );
    Ok(())
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Drops the warm-up share off the front of one rig's samples.
fn after_warmup<T>(samples: &[T]) -> &[T] {
    let warmup = (samples.len() as f64 * WARMUP_SHARE).ceil() as usize;
    &samples[warmup.min(samples.len())..]
}

/// Per-segment values of every timed metric, pooled over the run's rigs.
#[derive(Default)]
struct Segments(BTreeMap<&'static str, Vec<f64>>);

impl Segments {
    fn push(&mut self, name: &'static str, samples: &[f64], f: impl Fn(&[f64]) -> f64) {
        if !samples.is_empty() {
            self.0
                .entry(name)
                .or_default()
                .extend(segment_values(samples, SEGMENTS, f));
        }
    }
}

/// Runs one workload over the wire and fills every end-to-end metric,
/// plus the per-layer ones only a client can count.
///
/// The run is `opts.rigs` **rigs** one after another — each a full
/// set-up, an equal share of the timed loop, and the view gate — so the
/// set-ups that `setup_s` needs anyway also carry measurement: a timed
/// metric is taken over all rigs' segments ([`Summary::of_segments`]),
/// which rides out both a slow stretch inside one loop and a rig that
/// came up in one. What is measured once (`shutdown_ms`,
/// `recover_ms`, the store audit) comes from the last rig.
pub fn wire_run(opts: &RunOptions) -> BenchResult<Results> {
    let w = &opts.workload;
    let run_started = Instant::now();
    let mut r = Results::default();
    if w.one_core {
        // Every server started from here on inherits the pin.
        pin_current_thread(PATH_CPU);
    }
    let rigs = opts.rigs.max(1);
    let share = match opts.limit {
        Limit::Ops(n) => Limit::Ops((n / rigs).max(SEGMENTS)),
        Limit::Seconds(s) => Limit::Seconds(s / rigs as f64),
    };

    let (mut setup_s, mut register_ms, mut gen_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut segments = Segments::default();
    let (mut ops, mut timed_ops, mut notifications, mut resyncs, mut busy) = (0, 0, 0, 0, 0);
    let mut lag_max = 0;
    let (mut gen_busy, mut loop_wall) = (Duration::ZERO, Duration::ZERO);
    for i in 0..rigs {
        let mut rig = setup(w, opts.seed)?;
        setup_s.push(rig.setup_s);
        register_ms.push(rig.register_ms);
        gen_s.push(rig.gen_s);
        r.info.insert("nodes".into(), rig.nodes as f64);
        r.info.insert("edges".into(), rig.edges as f64);

        let mut views = seed_mirrors(&mut rig.writer, w)?;
        let stop = Arc::new(AtomicBool::new(false));
        let reader = rig.reader.take().map(|conn| {
            let (stop, seed, pin) = (Arc::clone(&stop), opts.seed, w.one_core);
            std::thread::spawn(move || reader_loop(conn, seed, pin, &stop))
        });
        let out = timed_loop(&mut rig, &mut views, share, &mut r);
        stop.store(true, Ordering::Relaxed);
        if i == 0 {
            // Before the gate's from-scratch recomputes, which are the
            // harness's memory, not the server's.
            r.set_value("peak_rss_mb", peak_rss_mb());
        }
        let query_latencies = match reader {
            Some(handle) => {
                let (latencies, problem) = handle.join().map_err(|_| "reader thread panicked")?;
                r.check(problem);
                // The reader ran beside the writer; its warm-up is the same share.
                after_warmup(&latencies).to_vec()
            }
            None => idle_queries(&mut rig.writer, &views[0].view.qid)?,
        };

        let (ack, fresh) = (after_warmup(&out.ack_us), after_warmup(&out.fresh_us));
        segments.push("ack_p50_us", ack, |seg| percentile_of(seg, 50.0));
        segments.push("ack_p95_us", ack, |seg| percentile_of(seg, 95.0));
        segments.push("fresh_p50_us", fresh, |seg| percentile_of(seg, 50.0));
        segments.push("fresh_p95_us", fresh, |seg| percentile_of(seg, 95.0));
        segments.push("commit_rate_per_s", fresh, |seg| {
            seg.len() as f64 / (seg.iter().sum::<f64>() / 1e6)
        });
        segments.push("query_p50_us", &query_latencies, |seg| {
            percentile_of(seg, 50.0)
        });
        ops += out.ack_us.len();
        timed_ops += ack.len();
        notifications += out.notifications;
        resyncs += out.resyncs;
        busy += out.busy;
        lag_max = lag_max.max(out.lag_max);
        gen_busy += rig.gen.busy();
        loop_wall += out.wall;

        verify_views(&mut rig.writer, &views, rig.gen.shadow(), &mut r)?;
        if i + 1 < rigs {
            rig.discard();
        } else if w.durable {
            durable_tail(rig, w, out.acked, &mut r)?;
        } else {
            rig.writer.bye();
            rig.primary.shutdown();
        }
    }

    r.set("setup_s", Summary::of(&setup_s));
    r.set("register_ms", Summary::of(&register_ms));
    r.set_value("graph.gen_s", median(&gen_s));
    for (name, values) in &segments.0 {
        r.set(name, Summary::of(values));
    }
    if let (Some(ack), Some(fresh)) = (r.get("ack_p50_us"), r.get("fresh_p50_us")) {
        r.set_value("service.repl.ack_gate_us", (ack - fresh).max(0.0));
    }
    r.info.insert("ops".into(), ops as f64);
    r.info.insert("timed_ops".into(), timed_ops as f64);
    r.set_value("service.repl.lag_max", lag_max as f64);
    r.set_value(
        "service.outbound.deltas_per_batch",
        notifications as f64 / ops.max(1) as f64,
    );
    r.set_value(
        "service.outbound.resync_share",
        resyncs as f64 / notifications.max(1) as f64,
    );
    r.set_value(
        "service.busy_share",
        busy as f64 / (ops as u64 + busy).max(1) as f64,
    );
    r.set_value(
        "bench.gen_share",
        gen_busy.as_secs_f64() / loop_wall.as_secs_f64().max(f64::MIN_POSITIVE),
    );
    r.info
        .insert("wire_wall_s".into(), run_started.elapsed().as_secs_f64());
    Ok(r)
}
