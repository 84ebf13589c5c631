//! The traced run: the first share of a workload's batch stream replayed
//! **in-process** through the public calls of each layer, one span per
//! call, from the outside in. Nothing inside the program is instrumented;
//! where a layer's sub-steps are not separately callable they are timed
//! on a *twin* — a private instance of the same type fed the same batch —
//! and attributed to the span they are a step of:
//!
//! ```text
//! batch
//! ├ service.protocol.parse          parse_command + parse_update_line × k
//! ├ graph.apply                     UpdateBatch::apply_validated, private graph
//! ├ algos.<c>.update                Session::update_guarded, built-in classes
//! ├ service.store.commit            Store::apply_update_deferred
//! │ ├ service.dedup.intent          DedupLog::append              (durable)
//! │ └ durable.apply                 DurableSession::apply, 7 states (durable)
//! │   └ durable.wal_commit          DurableSession::apply, 0 states
//! ├ service.store.notify            Store::notify_queries
//! │ ├ algos.<c>.update              one per subscribed class
//! │ └ dataflow.tick                 DataflowSession::apply, one per plan
//! └ service.store.query             Store::query
//! ```

use crate::check::{build_session, plan_context};
use crate::gen::{load_ops, Op, UpdateGen};
use crate::report::Results;
use crate::run::{open_store, seed_store, store_bytes, BenchResult, TempDir};
use crate::spans::{Mode, Tracer};
use crate::spec::{ViewKind, Workload, GRAPH, RECOVERY_TAIL, SEGMENTS, SIM_PATTERN};
use crate::stats::{median, p50_by_segment, Summary};
use incgraph_algos::{QueryClass, Session};
use incgraph_core::metrics::BoundednessReport;
use incgraph_dataflow::DataflowSession;
use incgraph_durable::checkpoint::checkpoint_path;
use incgraph_durable::{recover, DurableOptions, DurableSession, WAL_NAME};
use incgraph_graph::{DynamicGraph, UpdateBatch};
use incgraph_service::protocol::{parse_command, parse_update_line, Command};
use incgraph_service::store::DURABLE_PATTERN_SEED;
use incgraph_service::{DedupLog, ErrCode, Outbound, ServerConfig, Store, StoreLimits};
use incgraph_workloads::Dataset;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN: &str = "bench-replay";

/// One replay's parameters.
#[derive(Clone, Debug)]
pub struct ReplayOptions {
    /// Whose batch stream to replay.
    pub workload: Workload,
    /// Seed of the update stream (the wire run's).
    pub seed: u64,
    /// Batches to replay.
    pub ops: usize,
    /// Where to write the spans, if anywhere.
    pub spans_path: Option<PathBuf>,
}

/// Exact per-class work counts, summed over the replayed batches.
#[derive(Default)]
struct ClassCounts {
    scope: u64,
    inspected: u64,
    total_vars: u64,
    evals: u64,
    fallbacks: u64,
    delta_entries: u64,
}

impl ClassCounts {
    fn add(&mut self, report: &BoundednessReport, delta_entries: usize) {
        self.scope += report.scope_size as u64;
        self.inspected += report.inspected_vars;
        self.total_vars += report.total_vars as u64;
        self.evals += report.scope_stats.evals + report.run_stats.evals;
        self.fallbacks += report.fell_back() as u64;
        self.delta_entries += delta_entries as u64;
    }
}

/// A private session of one class with what it has counted.
struct ClassProbe {
    class: QueryClass,
    /// `algos.<class>.update`.
    span: String,
    session: Session,
    build_ms: f64,
    /// Whether a view of the workload subscribes to this class (its
    /// update is then a step of `notify`, not a built-in state's).
    subscribed: bool,
    counts: ClassCounts,
}

/// The durable layer's twins.
struct DurableTwins {
    /// Owns the twins' directories; removed when the twins drop.
    _dirs: TempDir,
    /// Zero states: WAL append + fsync + graph apply only.
    bare: DurableSession,
    /// The store's seven built-in states.
    full: Option<DurableSession>,
    dedup: DedupLog,
    checkpoint_at: usize,
}

fn parse_wire(text: &str) -> BenchResult<UpdateBatch> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty UPDATE text")?;
    let Command::UpdateHeader { k, .. } = parse_command(header).map_err(|e| e.0)? else {
        return Err("replayed text is not an UPDATE".into());
    };
    let mut batch = UpdateBatch::new();
    for line in lines.by_ref().take(k) {
        parse_update_line(line, &mut batch).map_err(|e| e.0)?;
    }
    if batch.len() != k {
        return Err("UPDATE body shorter than its header".into());
    }
    Ok(batch)
}

/// A store refusal (`ERR <code> <detail>`) as an error message.
fn wire_err((code, detail): (ErrCode, String)) -> String {
    format!("{code} {detail}")
}

fn drain(out: &Outbound) {
    // What the session's sender thread would do; keeps the queue below
    // its soft cap so notify never takes the coalescing path here.
    while let Some(msg) = out.pop(Duration::ZERO) {
        std::hint::black_box(msg.render());
    }
}

fn p50(samples: &[f64]) -> Option<Summary> {
    (!samples.is_empty()).then(|| p50_by_segment(samples, SEGMENTS))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Replays `opts.ops` batches and fills the per-layer metrics a replay
/// can measure (the wire-derived ones come from [`crate::run`]).
pub fn replay(opts: &ReplayOptions) -> BenchResult<Results> {
    let w = &opts.workload;
    let started = Instant::now();
    let mut r = Results::default();

    // --- the graph as the server holds it --------------------------------
    let t = Instant::now();
    let g = Dataset::LiveJournal.graph(false, w.scale);
    r.set_value("graph.gen_s", t.elapsed().as_secs_f64());
    let load: Vec<Op> = if w.durable {
        Vec::new()
    } else {
        load_ops(&g).collect()
    };
    let base = if w.durable {
        g
    } else {
        let mut base = DynamicGraph::new(false, g.node_count());
        for op in &load {
            op.batch.apply(&mut base);
        }
        base
    };
    let pattern_seed = if w.durable {
        DURABLE_PATTERN_SEED
    } else {
        SIM_PATTERN
    };

    // --- private instances of every layer --------------------------------
    let views = w.views();
    let mut probes: Vec<ClassProbe> = w
        .classes()
        .into_iter()
        .map(|class| {
            let t = Instant::now();
            let session = build_session(class, &base, pattern_seed);
            ClassProbe {
                class,
                span: format!("algos.{}.update", class.name()),
                session,
                build_ms: t.elapsed().as_secs_f64() * 1e3,
                subscribed: views.iter().any(|v| v.kind == ViewKind::Class(class)),
                counts: ClassCounts::default(),
            }
        })
        .collect();
    let t = Instant::now();
    let mut plans: Vec<DataflowSession> = Vec::new();
    for v in &views {
        if let ViewKind::Plan(text) = v.kind {
            plans.push(DataflowSession::from_text(
                text,
                &base,
                &plan_context(&base, SIM_PATTERN),
            )?);
        }
    }
    if !plans.is_empty() {
        r.set_value("dataflow.build_ms", t.elapsed().as_secs_f64() * 1e3);
    }

    let store_dir = TempDir::new(&format!("{}-replay-store", w.name))?;
    let mut store = if w.durable {
        seed_store(store_dir.path(), &base)?;
        open_store(store_dir.path(), base.node_count())?
    } else {
        let mut store = Store::new(StoreLimits::default());
        store
            .open_graph(GRAPH, base.node_count(), false)
            .map_err(wire_err)?;
        for op in &load {
            store
                .apply_update(GRAPH, TOKEN, op.seq, &op.batch)
                .map_err(|e| format!("replay load: {e:?}"))?;
        }
        store
    };
    let config = ServerConfig::default();
    let new_outbound = || {
        Arc::new(Outbound::new(
            config.out_soft,
            config.out_hard,
            StoreLimits::default().max_delta_entries,
        ))
    };
    let writer_out = new_outbound();
    for v in &views {
        match v.kind {
            ViewKind::Class(c) => store
                .register(
                    1,
                    &v.qid,
                    GRAPH,
                    c.name(),
                    0,
                    SIM_PATTERN,
                    Arc::clone(&writer_out),
                )
                .map(|_| ()),
            ViewKind::Plan(text) => store
                .register_plan(1, &v.qid, GRAPH, SIM_PATTERN, text, Arc::clone(&writer_out))
                .map(|_| ()),
        }
        .map_err(wire_err)?;
    }
    let reader_out = new_outbound();
    if w.reader {
        store
            .register(
                2,
                "rq",
                GRAPH,
                "sssp",
                0,
                SIM_PATTERN,
                Arc::clone(&reader_out),
            )
            .map_err(wire_err)?;
    }
    let view_count = views.len() + w.reader as usize;

    let mut twins = if w.durable {
        let dirs = TempDir::new(&format!("{}-replay-twins", w.name))?;
        let bare = DurableSession::create(
            &dirs.path().join("bare"),
            base.clone(),
            Vec::new(),
            DurableOptions::default(),
        )?;
        // Opened the way the store opens its own — seeded, then recovered:
        // states restored from a checkpoint update ~19 % faster than
        // freshly batch-built ones, and the twin must match the store's.
        seed_store(&dirs.path().join("full"), &base)?;
        let full = recover(&dirs.path().join("full"), DurableOptions::default())?.0;
        let (dedup, _) = DedupLog::open(dirs.path(), 0)?;
        Some(DurableTwins {
            _dirs: dirs,
            bare,
            full: Some(full),
            dedup,
            checkpoint_at: opts.ops - RECOVERY_TAIL.min(opts.ops / 2),
        })
    } else {
        None
    };

    let mut graph = base.clone();
    let first_seq = load.len() as u64 + 1;
    let mut gen = UpdateGen::new(base, opts.seed, w.batch_units, first_seq);
    let registry: Arc<dyn incgraph_obs::Recorder> = Arc::new(incgraph_obs::Registry::new());
    r.info
        .insert("replay_setup_s".into(), started.elapsed().as_secs_f64());

    // --- the replay -------------------------------------------------------
    let mut tracer = Tracer::default();
    let mut commit_notify_us = [Vec::new(), Vec::new()]; // [normal, obs-on]
    let (mut tick_rows, mut ticks) = (0u64, 0u64);
    for i in 0..opts.ops {
        let op: Op = gen.next_op();
        tracer.seq = op.seq;
        tracer.mode = Mode::of_batch(i);
        if tracer.mode == Mode::ObsOn {
            incgraph_obs::install(Arc::clone(&registry));
        }
        let root = tracer.reserve();
        let root_start = Instant::now();

        let parsed = tracer.child(root, "service.protocol.parse", || {
            parse_wire(op.update_text())
        })?;
        if parsed != op.batch {
            r.fail(format!(
                "op {}: wire text parses to a different batch",
                op.seq
            ));
        }

        let applied = tracer
            .child(root, "graph.apply", || parsed.apply_validated(&mut graph))
            .map_err(|e| format!("generated batch {} is invalid: {e}", op.seq))?;
        if applied.len() != parsed.len() {
            r.fail(format!(
                "op {}: {} of {} units were no-ops",
                op.seq,
                parsed.len() - applied.len(),
                parsed.len()
            ));
        }

        let commit = tracer.reserve();
        let t = Instant::now();
        let (_, committed) = tracer
            .run(commit, root, "service.store.commit", || {
                store.apply_update_deferred(GRAPH, TOKEN, op.seq, &parsed)
            })
            .map_err(|e| format!("replay commit {}: {e:?}", op.seq))?;
        let committed = committed.ok_or("replayed batch was deduplicated")?;
        let notify = tracer.reserve();
        tracer.run(notify, root, "service.store.notify", || {
            store.notify_queries(GRAPH, std::slice::from_ref(&committed))
        });
        let both = t.elapsed().as_secs_f64() * 1e6;
        match tracer.mode {
            Mode::Normal => commit_notify_us[0].push(both),
            Mode::ObsOn => commit_notify_us[1].push(both),
            Mode::SpansOff => {}
        }
        drain(&writer_out);
        drain(&reader_out);
        tracer.child(root, "service.store.query", || {
            std::hint::black_box(store.query(1, &views[0].qid))
        });

        if let Some(tw) = twins.as_mut() {
            tracer.child(commit, "service.dedup.intent", || {
                tw.dedup.append(TOKEN, op.seq, op.seq)
            })?;
            if let Some(full) = tw.full.as_mut() {
                let apply = tracer.reserve();
                tracer.run(apply, commit, "durable.apply", || full.apply(&parsed))?;
                tracer.child(apply, "durable.wal_commit", || tw.bare.apply(&parsed))?;
                if i + 1 == tw.checkpoint_at {
                    let t = Instant::now();
                    let covered = full.checkpoint()?;
                    r.set_value("durable.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3);
                    r.set_value(
                        "durable.checkpoint_bytes",
                        std::fs::metadata(checkpoint_path(full.dir(), covered))?.len() as f64,
                    );
                }
            }
        }

        for probe in &mut probes {
            let parent = if probe.subscribed { notify } else { root };
            let tracked = tracer.child(parent, &probe.span, || {
                probe.session.update_guarded(&graph, &applied)
            });
            let entries = tracked.delta.changes.len();
            probe.counts.add(&tracked.report, entries);
        }
        for plan in &mut plans {
            let delta = tracer.child(notify, "dataflow.tick", || plan.apply(&graph, &applied));
            tick_rows += delta.len() as u64;
            ticks += 1;
        }

        tracer.record(root, "batch", root_start, Instant::now());
        if tracer.mode == Mode::ObsOn {
            incgraph_obs::uninstall();
        }
    }

    // --- per-layer metrics ------------------------------------------------
    let normal = |name: &str| tracer.micros(name, Mode::Normal);
    let units = (opts.ops * w.batch_units) as u64;
    // Every batch has `batch_units` units: µs per batch → ns per unit.
    let per_unit = 1e3 / w.batch_units as f64;
    if let Some(s) = p50(&normal("graph.apply")) {
        r.set("graph.apply_ns_per_unit", s.scaled(per_unit));
    }
    if let Some(s) = p50(&normal("service.protocol.parse")) {
        r.set("service.protocol.parse_ns_per_unit", s.scaled(per_unit));
    }
    for probe in &probes {
        let c = probe.class.name();
        let n = &probe.counts;
        r.set_value(&format!("core.{c}.h0_per_unit"), ratio(n.scope, units));
        r.set_value(
            &format!("core.{c}.aff_share"),
            ratio(n.inspected, n.total_vars),
        );
        r.set_value(
            &format!("core.{c}.work_per_aff"),
            ratio(n.evals, n.inspected),
        );
        r.set_value(
            &format!("core.{c}.fallback_share"),
            ratio(n.fallbacks, opts.ops as u64),
        );
        r.set_value(
            &format!("algos.{c}.delta_entries"),
            ratio(n.delta_entries, opts.ops as u64),
        );
        r.set_value(&format!("algos.{c}.build_ms"), probe.build_ms);
        if let Some(s) = p50(&normal(&probe.span)) {
            r.set(&format!("algos.{c}.update_us"), s);
            r.set_value(
                &format!("algos.{c}.inc_vs_batch"),
                s.value / (probe.build_ms * 1e3).max(f64::MIN_POSITIVE),
            );
        }
    }
    if let Some(s) = p50(&normal("dataflow.tick")) {
        r.set("dataflow.tick_us", s);
        r.set_value("dataflow.rows_per_tick", ratio(tick_rows, ticks));
    }
    let commit_us = p50(&normal("service.store.commit"));
    if let Some(s) = commit_us {
        r.set("service.store.commit_us", s);
    }
    if let Some(s) = p50(&normal("service.store.notify")) {
        r.set("service.store.notify_us", s);
        r.set_value(
            "service.store.notify_us_per_view",
            s.value / view_count as f64,
        );
    }
    if let Some(s) = p50(&normal("service.store.query")) {
        r.set("service.store.query_us", s);
    }
    if let Some(s) = p50(&normal("service.dedup.intent")) {
        r.set("service.dedup.intent_us", s);
    }
    if let (Some(full), Some(bare)) = (
        p50(&normal("durable.apply")),
        p50(&normal("durable.wal_commit")),
    ) {
        r.set("durable.wal_commit_us", bare);
        // durable.apply's self time: what the seven states add to a commit.
        r.set_value(
            "durable.states_update_us",
            (full.value - bare.value).max(0.0),
        );
    }
    // The two overhead shares compare whole-replay medians: a quarter of
    // the batches each is too few to cut into segments.
    let share = |on: &[f64], off: &[f64]| median(on) / median(off) - 1.0;
    if !commit_notify_us[1].is_empty() {
        r.set_value(
            "obs.enabled_overhead_share",
            share(&commit_notify_us[1], &commit_notify_us[0]),
        );
    }
    let spans_off = tracer.micros("batch", Mode::SpansOff);
    if !spans_off.is_empty() {
        r.set_value(
            "bench.trace_overhead_share",
            share(&normal("batch"), &spans_off),
        );
    }

    if let Some(mut tw) = twins.take() {
        r.set_value(
            "durable.wal_bytes_per_unit",
            ratio(
                std::fs::metadata(tw.bare.dir().join(WAL_NAME))?.len(),
                units,
            ),
        );
        // Drop the session (releasing its LOCK), then recover its directory:
        // newest checkpoint + the WAL records behind it.
        let full_dir = tw.full.take().expect("still open").dir().to_path_buf();
        let t = Instant::now();
        let (recovered, report) = recover(&full_dir, DurableOptions::default())?;
        r.set_value("durable.recover_ms", t.elapsed().as_secs_f64() * 1e3);
        r.set_value(
            "durable.recover_replayed",
            report.wal_records_replayed as f64,
        );
        r.check(
            (recovered.graph().edge_count() != graph.edge_count())
                .then(|| "recovered twin holds a different graph".to_string()),
        );
        r.info
            .insert("replay_store_bytes".into(), store_bytes(&full_dir) as f64);
        drop(recovered);
    }

    if let Some(path) = &opts.spans_path {
        tracer.write_jsonl(path)?;
    }
    r.info.insert("replay_ops".into(), opts.ops as f64);
    r.info
        .insert("replay_wall_s".into(), started.elapsed().as_secs_f64());
    Ok(r)
}
