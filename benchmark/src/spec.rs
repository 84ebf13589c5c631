//! What the benchmark runs and what it reports: the four workloads, the
//! metric names with their units, directions and regression bounds, and
//! the `BENCHMARK.json` manifest generated from them. Every other module
//! reads names and bounds from here, so the manifest, the result files
//! and `benchmark aa` cannot disagree.

use incgraph_algos::QueryClass;

/// Name every workload's graph is mounted under.
pub const GRAPH: &str = "g";

/// One factor applied to all four op counts `N` so that the driver's
/// 4 + 22 × 4 runs (with their set-ups and two builds) fit its 3420 s
/// cap. The issue sized `N` for ≈30 s per workload; a driver run
/// measures for [`RUN_SECONDS`].
pub const N_SCALE: f64 = 0.5;

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// Rigs per run: each is set up from scratch and carries a third of the
/// timed loop; `setup_s` and `register_ms` are the medians of the three.
pub const SETUPS_PER_RUN: usize = 3;

/// Unit updates per graph-load `UPDATE` (the store's batch cap).
pub const LOAD_UNITS: usize = 4096;

/// Share of ops discarded as warm-up.
pub const WARMUP_SHARE: f64 = 0.10;

/// Equal consecutive segments each rig's timed loop is cut into; see
/// [`crate::stats`] for how segment values become a metric.
pub const SEGMENTS: usize = 5;

/// Share of the batch stream the traced replay covers.
pub const REPLAY_SHARE: f64 = 0.20;

/// `BUSY` retries before an op counts as failed.
pub const BUSY_RETRIES: u32 = 200;

/// Idle-system `QUERY`s timed after the loop where no reader runs.
pub const IDLE_QUERIES: usize = 200;

/// Commits between the graceful restart and the kill on `durable-repl`:
/// exactly this many WAL records follow the last checkpoint at recovery.
pub const RECOVERY_TAIL: usize = 128;

/// Pattern seed of every `sim` view.
pub const SIM_PATTERN: u64 = 1;

const PLAN_NEAR: &str =
    "d = sssp(source=0); c = cc; j = join(d, c, val=left); near = filter(j, val < 40); n = count(near)";
const PLAN_FAR: &str = "d = sssp(source=0); far = filter(d, val > 60); n = count(far)";

/// What a standing view computes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewKind {
    /// `REGISTER <qid> g <class> source=0 [pattern=1]`.
    Class(QueryClass),
    /// `PLAN <qid> g 1 <text>`.
    Plan(&'static str),
}

/// One standing view the writer connection subscribes to.
#[derive(Clone, Debug)]
pub struct View {
    /// Wire query id.
    pub qid: String,
    /// Class or plan.
    pub kind: ViewKind,
}

impl View {
    fn class(qid: &str, class: QueryClass) -> View {
        View {
            qid: qid.to_string(),
            kind: ViewKind::Class(class),
        }
    }

    fn plan(qid: &str, text: &'static str) -> View {
        View {
            qid: qid.to_string(),
            kind: ViewKind::Plan(text),
        }
    }

    /// The wire line that registers this view on [`GRAPH`].
    pub fn register_line(&self) -> String {
        match &self.kind {
            ViewKind::Class(QueryClass::Sim) => {
                format!("REGISTER {} {GRAPH} sim pattern={SIM_PATTERN}", self.qid)
            }
            ViewKind::Class(c) if c.source_rooted() => {
                format!("REGISTER {} {GRAPH} {} source=0", self.qid, c.name())
            }
            ViewKind::Class(c) => format!("REGISTER {} {GRAPH} {}", self.qid, c.name()),
            ViewKind::Plan(text) => format!("PLAN {} {GRAPH} {SIM_PATTERN} {text}", self.qid),
        }
    }
}

/// One benchmark workload. See `README.md` for why each exists.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on what this workload shows that the others do not.
    pub why: &'static str,
    /// `Dataset::LiveJournal.graph(false, scale)`.
    pub scale: f64,
    /// `|ΔG|`: unit updates per timed batch.
    pub batch_units: usize,
    /// Timed batches `N` before [`N_SCALE`].
    pub base_ops: usize,
    /// WAL-durable primary + semi-sync replica instead of one in-memory server.
    pub durable: bool,
    /// A second connection loops `QUERY` beside the writer.
    pub reader: bool,
    /// 15 extra views on top of the common five.
    pub fanout: bool,
    /// The writer client and every thread of the server share one core
    /// (see [`crate::affinity`]): set where a batch is so small that its
    /// latency is the chain of thread hand-offs. A server pinned like this
    /// cannot gain from a second core, so parallel-engine changes are
    /// judged on the workloads that leave it unset.
    pub one_core: bool,
}

/// The four workloads, in the order `all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "delta-large-g",
        why: "fixed 16-unit batches on the largest graph (200k nodes): any per-commit cost that grows with |G| shows here and nowhere else; server on one core",
        scale: 25.0,
        batch_units: 16,
        base_ops: 60_000,
        durable: false,
        reader: false,
        fanout: false,
        one_core: true,
    },
    Workload {
        name: "delta-fanout",
        why: "20 views (5 distinct) plus a QUERY loop on a 10x smaller graph: per-view and per-subscriber cost, reads beside writes; server on one core",
        scale: 2.5,
        batch_units: 16,
        base_ops: 40_000,
        durable: false,
        reader: true,
        fanout: true,
        one_core: true,
    },
    Workload {
        name: "bulk-delta",
        why: "4096-unit batches (1.4% of |E|): large AFF, DELTA resync, fallback policy; parse and graph apply dominate the ack; threads unpinned, so parallel-engine changes are judged here",
        scale: 2.5,
        batch_units: 4096,
        base_ops: 3_000,
        durable: false,
        reader: false,
        fanout: false,
        one_core: false,
    },
    Workload {
        name: "durable-repl",
        why: "WAL-durable primary with a semi-sync replica: intent and WAL fsync, the seven built-in states inside the commit, shipping, checkpoint, recovery",
        scale: 1.0,
        batch_units: 16,
        base_ops: 2_000,
        durable: true,
        reader: false,
        fanout: false,
        one_core: false,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// Timed batches of a fixed-count run: `N × N_SCALE`, a twentieth of
    /// it when `quick`.
    pub fn ops(&self, quick: bool) -> usize {
        let n = (self.base_ops as f64 * N_SCALE).round() as usize;
        if quick {
            (n / 20).max(SEGMENTS * 4)
        } else {
            n
        }
    }

    /// Batches the traced replay covers.
    pub fn replay_ops(&self, quick: bool) -> usize {
        ((self.ops(quick) as f64 * REPLAY_SHARE) as usize).max(8)
    }

    /// The views the writer connection subscribes to.
    pub fn views(&self) -> Vec<View> {
        if self.durable {
            return vec![View::class("cc", QueryClass::Cc)];
        }
        let mut views = vec![
            View::class("sssp", QueryClass::Sssp),
            View::class("cc", QueryClass::Cc),
            View::class("reach", QueryClass::Reach),
            View::class("sim", QueryClass::Sim),
            View::plan("near", PLAN_NEAR),
        ];
        if self.fanout {
            for i in 1..=7 {
                views.push(View::class(&format!("sssp{i}"), QueryClass::Sssp));
            }
            for i in 1..=7 {
                views.push(View::class(&format!("cc{i}"), QueryClass::Cc));
            }
            views.push(View::plan("far", PLAN_FAR));
        }
        views
    }

    /// Classes whose `core.*` / `algos.*` metrics this workload fills:
    /// the subscribed ones, plus the built-in states on a durable graph.
    pub fn classes(&self) -> Vec<QueryClass> {
        if self.durable {
            QueryClass::ALL.to_vec()
        } else {
            vec![
                QueryClass::Sssp,
                QueryClass::Cc,
                QueryClass::Reach,
                QueryClass::Sim,
            ]
        }
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's static description.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Name it is printed and stored under.
    pub name: String,
    /// Unit (`us`, `ms`, `s`, `1/s`, `MB`, `B`, `count`, `share`, `ns`).
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: share of the parent's median it may worsen by.
    pub bound: Option<f64>,
    /// Whether the value is a count, or a ratio of two counts, that must
    /// repeat exactly between two runs of the same code, seed and op count
    /// (`benchmark aa` checks it).
    pub exact: bool,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

fn layer(name: &str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound: None,
        exact: false,
    }
}

fn count(name: &str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        exact: true,
        ..layer(name, unit, better)
    }
}

/// End-to-end metrics defined, and never 0, on **every** workload — the
/// `end_to_end` list of `BENCHMARK.json`. The bound is the share of the
/// parent's median a metric may worsen by: 0.25, the driver's cap, is
/// what this host's run-to-run spread leaves (`README.md`, *Bounds*).
/// `setup_s` is there because the driver requires it; its spread is the
/// one the driver does not hold against its bound.
pub fn end_to_end() -> Vec<MetricSpec> {
    use Better::*;
    vec![
        e2e("setup_s", "s", Lower, 0.25),
        e2e("ack_p50_us", "us", Lower, 0.25),
        e2e("fresh_p50_us", "us", Lower, 0.25),
        e2e("commit_rate_per_s", "1/s", Higher, 0.25),
        e2e("peak_rss_mb", "MB", Lower, 0.25),
    ]
}

/// User-visible metrics without a bound: the three that exist only on
/// `durable-repl` (the driver wants every bounded metric non-zero on
/// every workload) and the ones whose ten-seed spread on this host
/// reached the largest bound the driver allows on some workload
/// (`README.md`, *Bounds*) — demoted, not given a wider bound. They are
/// printed and stored with the end-to-end metrics and listed under
/// `per_layer` in `BENCHMARK.json`.
pub fn demoted() -> Vec<MetricSpec> {
    use Better::*;
    vec![
        layer("register_ms", "ms", Lower),
        layer("ack_p95_us", "us", Lower),
        layer("fresh_p95_us", "us", Lower),
        layer("query_p50_us", "us", Lower),
        layer("shutdown_ms", "ms", Lower),
        layer("recover_ms", "ms", Lower),
        count("store_bytes_per_unit", "B", Lower),
    ]
}

/// Per-layer metrics, timed from this package around public calls.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::*;
    let mut v = vec![
        layer("graph.apply_ns_per_unit", "ns", Lower),
        layer("graph.gen_s", "s", Lower),
    ];
    for c in QueryClass::ALL {
        let c = c.name();
        v.push(count(&format!("core.{c}.h0_per_unit"), "count", Lower));
        v.push(count(&format!("core.{c}.aff_share"), "share", Lower));
        v.push(count(&format!("core.{c}.work_per_aff"), "count", Lower));
        v.push(count(&format!("core.{c}.fallback_share"), "share", Lower));
    }
    for c in QueryClass::ALL {
        let c = c.name();
        v.push(layer(&format!("algos.{c}.update_us"), "us", Lower));
        v.push(layer(&format!("algos.{c}.build_ms"), "ms", Lower));
        v.push(count(&format!("algos.{c}.delta_entries"), "count", Lower));
        v.push(layer(&format!("algos.{c}.inc_vs_batch"), "share", Lower));
    }
    v.extend([
        layer("dataflow.tick_us", "us", Lower),
        count("dataflow.rows_per_tick", "count", Lower),
        layer("dataflow.build_ms", "ms", Lower),
        layer("durable.wal_commit_us", "us", Lower),
        layer("durable.states_update_us", "us", Lower),
        count("durable.wal_bytes_per_unit", "B", Lower),
        layer("durable.checkpoint_ms", "ms", Lower),
        count("durable.checkpoint_bytes", "B", Lower),
        layer("durable.recover_ms", "ms", Lower),
        count("durable.recover_replayed", "count", Lower),
        layer("service.protocol.parse_ns_per_unit", "ns", Lower),
        layer("service.dedup.intent_us", "us", Lower),
        layer("service.store.commit_us", "us", Lower),
        layer("service.store.notify_us", "us", Lower),
        layer("service.store.notify_us_per_view", "us", Lower),
        layer("service.store.query_us", "us", Lower),
        layer("service.server.wire_overhead_us", "us", Lower),
        layer("service.repl.ack_gate_us", "us", Lower),
        layer("service.repl.lag_max", "count", Lower),
        layer("service.outbound.deltas_per_batch", "count", Lower),
        layer("service.outbound.resync_share", "share", Lower),
        layer("service.busy_share", "share", Lower),
        layer("obs.enabled_overhead_share", "share", Lower),
        layer("bench.gen_share", "share", Lower),
        layer("bench.trace_overhead_share", "share", Lower),
    ]);
    v
}

/// Every metric `--trace 1` reports: [`demoted`] then [`per_layer`].
pub fn trace_metrics() -> Vec<MetricSpec> {
    let mut v = demoted();
    v.extend(per_layer());
    v
}

/// Looks up any metric's description.
pub fn metric(name: &str) -> Option<MetricSpec> {
    end_to_end()
        .into_iter()
        .chain(trace_metrics())
        .find(|m| m.name == name)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of the root `BENCHMARK.json` (`benchmark manifest` prints it;
/// a test pins the committed file to it).
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            json_str(w.name),
            json_str(w.why)
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    let e = end_to_end();
    for (i, m) in e.iter().enumerate() {
        let sep = if i + 1 < e.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            json_str(&m.name),
            json_str(m.unit),
            json_str(m.better.name()),
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let l = trace_metrics();
    for (i, m) in l.iter().enumerate() {
        let sep = if i + 1 < l.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            json_str(&m.name),
            json_str(m.unit),
            json_str(m.better.name())
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
