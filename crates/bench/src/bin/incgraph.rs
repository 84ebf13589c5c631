//! `incgraph` CLI: run any query class over an edge-list graph file and
//! keep the answer fresh under an update-stream file.
//!
//! ```text
//! incgraph <class> --graph G.txt [--updates D.txt] [--directed] [--source N] [--out result.txt]
//! ```
//!
//! Classes: `sssp` (needs `--source`), `cc`, `sim` (built-in (4,6) random
//! pattern seeded by `--seed`), `dfs`, `lcc`, `bc`, `reach` (needs
//! `--source`). Graph files use the SNAP/KONECT edge-list format of
//! `incgraph_graph::io`; update streams use `+ u v [w]` / `- u v` lines.
//! With `--updates`, the batch result is computed first, the stream is
//! validated and applied transactionally as one `ΔG`
//! ([`UpdateBatch::apply_validated`]), and the incremental algorithm runs
//! through the hardened pipeline ([`incgraph_algos::update_with`]) —
//! opt into its degradation and auditing knobs with `--max-aff-frac F`
//! (fall back to batch recompute past that affected fraction),
//! `--max-scope N` (absolute cap), and `--audit` / `--audit-stride K`
//! (post-run fixpoint re-check).
//!
//! Every subcommand accepts `--metrics PATH` and `--trace PATH`
//! (see `crates/obs` and docs/OBSERVABILITY.md): `--metrics` installs
//! the metrics registry and writes the aggregate counters, gauges, and
//! phase-latency histograms as canonical JSON-lines at exit; `--trace`
//! additionally keeps every completed span and writes the full snapshot
//! (raw spans included) to its own file. Either flag also prints the
//! human-readable summary to stderr. Without them the no-op recorder
//! stays installed and the pipeline pays one atomic load per site.
//!
//! Durability lives behind two subcommands over a *store* directory
//! (WAL + checkpoints + manifest, see `crates/durable`):
//! `incgraph checkpoint --store DIR` creates the store from `--graph` on
//! first use, WAL-logs an optional `--updates` batch, and forces a
//! checkpoint; `incgraph recover --store DIR` rebuilds the live state
//! from the newest valid checkpoint plus incremental WAL replay and
//! prints the recovery report with per-class state digests. The
//! `DURABLE_CRASH_AT` environment variable (`pre-fsync`, `post-fsync`,
//! `mid-checkpoint`, `post-rename`) arms a one-shot injected crash at
//! that point — the process dies mid-pipeline exactly as `kill -9`
//! would, which is how the crash-injection CI matrix exercises recovery
//! end to end.
//!
//! The long-running **service** (see `crates/service` and
//! docs/SERVICE.md) gets three subcommands: `incgraph serve` binds the
//! `incgraph-wire/1` TCP server over an in-memory store or a WAL-durable
//! one (`--store DIR`, one writer per store — a second opener exits with
//! code 7) and runs until a wire `SHUTDOWN` drains it; `incgraph load`
//! drives many concurrent client sessions against a live server and
//! prints per-class `UPDATE`→`ACK` latency percentiles; `incgraph chaos`
//! runs the network-chaos oracle (byte-cutting proxy, abrupt server
//! kill/restart cycles) and exits 1 on any exactly-once or recovery
//! violation.
//!
//! Output paths (`--out`, `--metrics`, `--trace`, bench datapoints) get
//! their parent directories created on demand, so pointing a run at
//! `results/new/dir/out.txt` just works.
//!
//! Failures map to distinct exit codes so scripts can tell them apart:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 1    | oracle violation (`fuzz`, `replay`, `chaos`, failed `load` sessions) |
//! | 2    | usage error (bad flags, missing class/graph) |
//! | 3    | file unreadable / output unwritable / durable store corrupt |
//! | 4    | parse error (reported with its line number) |
//! | 5    | invalid update stream (rejected by validation, graph rolled back) |
//! | 6    | injected crash fired (`DURABLE_CRASH_AT`) |
//! | 7    | store busy: another live process holds the store's `LOCK` |

use incgraph_algos::{
    update_with, BcState, CcState, DfsState, ExecOptions, IncrementalState, LccState, QueryClass,
    ReachState, Session, SimState, SsspState,
};
use incgraph_core::audit::FixpointAudit;
use incgraph_core::fallback::FallbackPolicy;
use incgraph_core::metrics::BoundednessReport;
use incgraph_durable::{crc::crc32, CrashPoint, DurableError, DurableOptions, DurableSession};
use incgraph_graph::io::{read_graph, read_updates, IoError, ParseError};
use incgraph_graph::{BatchError, DynamicGraph, UpdateBatch};
use incgraph_obs::Registry;
use incgraph_workloads::random_pattern;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Everything that can end a run early, with its process exit code.
#[derive(Debug)]
enum CliError {
    /// A fuzz/replay run observed an unexpected oracle outcome (a real
    /// divergence during `fuzz`, a corpus case violating its
    /// expectation during `replay`).
    Oracle(String),
    /// Bad invocation: unknown flag/class, missing argument.
    Usage(String),
    /// A named input could not be opened or read.
    FileUnreadable {
        path: String,
        source: std::io::Error,
    },
    /// A named input was readable but malformed.
    Parse { path: String, source: ParseError },
    /// The update stream parsed but failed batch validation; the graph
    /// was rolled back to its pre-batch state before exiting.
    InvalidUpdates { path: String, source: BatchError },
    /// The output destination could not be written.
    Output {
        path: String,
        source: std::io::Error,
    },
    /// A durable-store operation failed (I/O, corruption beyond
    /// recovery, …).
    Durable { store: String, source: DurableError },
    /// The one-shot crash armed via `DURABLE_CRASH_AT` fired; the store
    /// was left exactly as a real mid-pipeline kill would leave it.
    InjectedCrash(CrashPoint),
    /// Another live process holds the store's `LOCK` file; nothing was
    /// touched and a retry after the owner exits will succeed.
    StoreBusy { store: String, pid: u32 },
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Oracle(_) => 1,
            CliError::Usage(_) => 2,
            CliError::FileUnreadable { .. }
            | CliError::Output { .. }
            | CliError::Durable { .. } => 3,
            CliError::Parse { .. } => 4,
            CliError::InvalidUpdates { .. } => 5,
            CliError::InjectedCrash(_) => 6,
            CliError::StoreBusy { .. } => 7,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Oracle(msg) => write!(f, "{msg}"),
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::FileUnreadable { path, source } => write!(f, "{path}: {source}"),
            CliError::Parse { path, source } => {
                write!(f, "{path}:{}: {}", source.line, source.message)
            }
            CliError::InvalidUpdates { path, source } => {
                write!(f, "{path}: invalid update stream: {source}")
            }
            CliError::Output { path, source } => write!(f, "{path}: {source}"),
            CliError::Durable { store, source } => write!(f, "{store}: {source}"),
            CliError::InjectedCrash(p) => write!(f, "injected crash fired at {p}"),
            CliError::StoreBusy { store, pid } => write!(
                f,
                "{store}: busy — locked by live process {pid} \
                 (one writer per store; retry after it exits)"
            ),
        }
    }
}

/// Wraps a durable-store failure, routing the cases with their own exit
/// codes (invalid ΔG → 5, injected crash → 6, lock held → 7) past the
/// generic 3.
fn durable_error(store: &str, e: DurableError) -> CliError {
    match e {
        DurableError::InvalidBatch(source) => CliError::InvalidUpdates {
            path: store.to_string(),
            source,
        },
        DurableError::InjectedCrash(p) => CliError::InjectedCrash(p),
        DurableError::StoreBusy { dir, pid } => CliError::StoreBusy { store: dir, pid },
        source => CliError::Durable {
            store: store.to_string(),
            source,
        },
    }
}

/// Creates the parent directory of an output path on demand, so
/// `--out results/new/dir/f.txt` (and `--metrics`/`--trace`/bench
/// datapoints) never fail on a missing directory.
fn ensure_parent(path: &str) -> Result<(), CliError> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| CliError::Output {
                path: path.to_string(),
                source: e,
            })?;
        }
    }
    Ok(())
}

/// Splits an [`IoError`] from reading `path` into the two exit classes.
fn read_error(path: &str, e: IoError) -> CliError {
    match e {
        IoError::Io(source) => CliError::FileUnreadable {
            path: path.to_string(),
            source,
        },
        IoError::Parse(source) => CliError::Parse {
            path: path.to_string(),
            source,
        },
    }
}

struct Args {
    class: String,
    graph: String,
    updates: Option<String>,
    directed: bool,
    source: u32,
    seed: u64,
    out: Option<String>,
    max_aff_frac: f64,
    max_scope: usize,
    audit: bool,
    audit_stride: usize,
    scale: f64,
    /// `bench` only: committed baseline JSON for the regression gate.
    check_against: Option<String>,
}

const USAGE: &str = "usage: incgraph <sssp|cc|sim|dfs|lcc|bc|reach> --graph G.txt \
                     [--updates D.txt] [--directed] [--source N] [--seed S] [--out F] \
                     [--max-aff-frac F] [--max-scope N] [--audit] [--audit-stride K]\n\
                     \u{20}      incgraph bench [--scale F] [--out BENCH.json] \
                     [--check-against BASELINE.json]\n\
                     \u{20}      incgraph fuzz [--seed S] [--cases N] [--budget-secs T] \
                     [--inject-fault skip-op|drop-deletes] [--crash] [--coalesce] [--dataflow] \
                     [--corpus DIR] [--max-nodes N]\n\
                     \u{20}      incgraph query --plan 'a = sssp(source=0); n = count(a)' \
                     --graph G.txt [--updates D.txt] [--directed] [--pattern-seed S] [--out F]\n\
                     \u{20}      incgraph replay <FILE.case|DIR>...\n\
                     \u{20}      incgraph checkpoint --store DIR [--graph G.txt] [--updates D.txt] \
                     [--directed] [--source N] [--seed S] [--classes c1,c2,…]\n\
                     \u{20}      incgraph recover --store DIR [--out F]\n\
                     \u{20}      incgraph serve [--addr H:P] [--store DIR [--graph-name G] \
                     [--nodes N] [--directed]] [--max-sessions N] [--max-pending N] \
                     [--idle-timeout-secs S] [--retry-after-ms MS] [--no-remote-shutdown] \
                     [--flush-ops N] [--flush-ms MS] [--replica-of H:P] [--digest-every N] \
                     [--snapshot-lag N] [--ack-timeout-ms MS]\n\
                     \u{20}      incgraph promote --addr H:P\n\
                     \u{20}      incgraph verify-store --store DIR\n\
                     \u{20}      incgraph failover --store DIR [--seed S] [--clients N] \
                     [--batches N] [--crash-at pre-fsync|post-fsync|mid-checkpoint|post-rename]\n\
                     \u{20}      incgraph load --addr H:P [--sessions N] [--batches N] \
                     [--units N] [--nodes N] [--seed S]\n\
                     \u{20}      incgraph chaos --store DIR [--seed S] [--clients N] \
                     [--batches N] [--kills N] [--no-proxy-faults]\n\
                     \u{20}      incgraph stream [--store DIR] [--virtual-time] [--rate OPS_S] \
                     [--flush-ops N] [--flush-ms MS] [--deadline-ms MS] [--max-lag-ms MS] \
                     [--seed S] [--scale F] [--windows N] [--max-ops N] [--checkpoint-every N] \
                     [--crash-at pre-fsync|post-fsync|mid-checkpoint|post-rename [--kill-at FRAC]] \
                     [--ramp] [--out STREAM.json] [--check-against BASELINE.json]\n\
                     every subcommand also accepts: [--metrics METRICS.jsonl] [--trace TRACE.jsonl]";

fn parse_args(argv: &[String]) -> Result<Args, CliError> {
    let mut args = Args {
        class: String::new(),
        graph: String::new(),
        updates: None,
        directed: false,
        source: 0,
        seed: 42,
        out: None,
        max_aff_frac: 1.0,
        max_scope: usize::MAX,
        audit: false,
        audit_stride: 1,
        scale: 1.0,
        check_against: None,
    };
    let usage = |msg: &str| CliError::Usage(format!("{msg}\n{USAGE}"));
    let mut it = argv.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--graph" => args.graph = it.next().ok_or_else(|| usage("--graph needs a path"))?,
            "--updates" => {
                args.updates = Some(it.next().ok_or_else(|| usage("--updates needs a path"))?)
            }
            "--directed" => args.directed = true,
            "--audit" => args.audit = true,
            "--source" => {
                args.source = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--source needs a node id"))?
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--seed needs an integer"))?
            }
            "--max-aff-frac" => {
                args.max_aff_frac = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|f| (0.0..=1.0).contains(f))
                    .ok_or_else(|| usage("--max-aff-frac needs a fraction in [0, 1]"))?
            }
            "--max-scope" => {
                args.max_scope = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--max-scope needs a variable count"))?
            }
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&f| f > 0.0)
                    .ok_or_else(|| usage("--scale needs a positive factor"))?
            }
            "--audit-stride" => {
                args.audit_stride = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&k| k >= 1)
                    .ok_or_else(|| usage("--audit-stride needs an integer ≥ 1"))?
            }
            "--out" => args.out = Some(it.next().ok_or_else(|| usage("--out needs a path"))?),
            "--check-against" => {
                args.check_against = Some(
                    it.next()
                        .ok_or_else(|| usage("--check-against needs a path"))?,
                )
            }
            flag if flag.starts_with('-') => return Err(usage(&format!("unknown flag {flag}"))),
            class if args.class.is_empty() => args.class = class.to_string(),
            extra => return Err(usage(&format!("unexpected argument {extra}"))),
        }
    }
    if args.class.is_empty() || (args.graph.is_empty() && args.class != "bench") {
        return Err(CliError::Usage(USAGE.to_string()));
    }
    Ok(args)
}

fn report(phase: &str, secs: f64, rep: Option<&BoundednessReport>) {
    match rep {
        Some(r) => {
            eprintln!(
                "{phase}: {:.3} ms | scope {} | inspected {} of {} vars ({:.4}%)",
                secs * 1e3,
                r.scope_size,
                r.inspected_vars,
                r.total_vars,
                100.0 * r.aff_fraction()
            );
            if let Some(d) = r.fallback {
                eprintln!(
                    "fell back to batch recompute: {:?} (observed {} > limit {})",
                    d.reason, d.observed, d.limit
                );
            }
        }
        None => eprintln!("{phase}: {:.3} ms", secs * 1e3),
    }
}

fn write_out(path: &Option<String>, lines: impl Iterator<Item = String>) -> Result<(), CliError> {
    let out_err = |p: &str, e: std::io::Error| CliError::Output {
        path: p.to_string(),
        source: e,
    };
    match path {
        Some(p) => {
            ensure_parent(p)?;
            let f = std::fs::File::create(p).map_err(|e| out_err(p, e))?;
            let mut w = std::io::BufWriter::new(f);
            for l in lines {
                writeln!(w, "{l}").map_err(|e| out_err(p, e))?;
            }
            w.flush().map_err(|e| out_err(p, e))
        }
        None => {
            let stdout = std::io::stdout();
            let mut w = std::io::BufWriter::new(stdout.lock());
            for l in lines {
                writeln!(w, "{l}").map_err(|e| out_err("<stdout>", e))?;
            }
            w.flush().map_err(|e| out_err("<stdout>", e))
        }
    }
}

fn load(args: &Args) -> Result<(DynamicGraph, Option<UpdateBatch>), CliError> {
    let f = std::fs::File::open(&args.graph).map_err(|e| CliError::FileUnreadable {
        path: args.graph.clone(),
        source: e,
    })?;
    let g = read_graph(f, args.directed).map_err(|e| read_error(&args.graph, e))?;
    eprintln!(
        "loaded {}: |V|={}, |E|={}, {}",
        args.graph,
        g.node_count(),
        g.edge_count(),
        if args.directed {
            "directed"
        } else {
            "undirected"
        }
    );
    let updates = match &args.updates {
        Some(p) => {
            let f = std::fs::File::open(p).map_err(|e| CliError::FileUnreadable {
                path: p.clone(),
                source: e,
            })?;
            Some(read_updates(f).map_err(|e| read_error(p, e))?)
        }
        None => None,
    };
    Ok((g, updates))
}

/// The `--metrics` / `--trace` observability flags, shared by every
/// subcommand: they are stripped out of `argv` *before* dispatch so the
/// per-subcommand strict parsers never see them, and when either is
/// present the process-wide metrics registry is installed for the whole
/// run.
struct ObsSetup {
    metrics: Option<String>,
    trace: Option<String>,
    registry: Option<Arc<Registry>>,
}

impl ObsSetup {
    fn extract(argv: &mut Vec<String>) -> Result<ObsSetup, CliError> {
        let usage = |msg: &str| CliError::Usage(format!("{msg}\n{USAGE}"));
        let mut metrics = None;
        let mut trace = None;
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--metrics" | "--trace" => {
                    if i + 1 >= argv.len() {
                        return Err(usage(&format!("{} needs a path", argv[i])));
                    }
                    let flag = argv.remove(i);
                    let path = argv.remove(i);
                    if flag == "--metrics" {
                        metrics = Some(path);
                    } else {
                        trace = Some(path);
                    }
                }
                _ => i += 1,
            }
        }
        let registry = if metrics.is_some() || trace.is_some() {
            let r = Arc::new(if trace.is_some() {
                Registry::with_trace()
            } else {
                Registry::new()
            });
            incgraph_obs::install(r.clone());
            Some(r)
        } else {
            None
        };
        Ok(ObsSetup {
            metrics,
            trace,
            registry,
        })
    }

    /// Writes the collected telemetry and prints the human summary to
    /// stderr. Runs even when the subcommand failed, so a failing run
    /// still leaves its metrics behind for postmortems.
    fn export(&self) -> Result<(), CliError> {
        let Some(registry) = &self.registry else {
            return Ok(());
        };
        let snap = registry.snapshot();
        let out_err = |p: &str, e: std::io::Error| CliError::Output {
            path: p.to_string(),
            source: e,
        };
        if let Some(path) = &self.metrics {
            // The metrics file carries the aggregate view; raw spans
            // (when traced) belong to the --trace file.
            let mut aggregate = snap.clone();
            aggregate.spans.clear();
            ensure_parent(path)?;
            std::fs::write(path, incgraph_obs::to_jsonl(&aggregate))
                .map_err(|e| out_err(path, e))?;
            eprintln!("wrote metrics to {path}");
        }
        if let Some(path) = &self.trace {
            ensure_parent(path)?;
            std::fs::write(path, incgraph_obs::to_jsonl(&snap)).map_err(|e| out_err(path, e))?;
            eprintln!("wrote trace to {path}");
        }
        eprint!("{}", incgraph_obs::render_summary(&snap));
        Ok(())
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}

/// `incgraph bench`: runs the engine suite, writes the machine-readable
/// `BENCH_<date>.json` datapoint (see
/// [`incgraph_bench::parbench`]), then runs the instrumented per-phase
/// pass ([`incgraph_bench::phasebench`]) and prints its breakdown
/// table. The phase metrics are written as JSON-lines next to the
/// datapoint (`<path>.metrics.jsonl`), in addition to whatever
/// `--metrics`/`--trace` requested.
fn run_bench(args: &Args, registry: &Option<Arc<Registry>>) -> Result<(), CliError> {
    use incgraph_bench::{parbench, phasebench};
    let reps = std::env::var("INCGRAPH_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5);
    eprintln!(
        "engine bench: scale {}, {reps} sample(s) per point",
        args.scale
    );
    let results = parbench::run_suite(args.scale, reps);
    print!("{}", parbench::render_table(&results));
    let date = parbench::today_utc();
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("results/BENCH_{date}.json"));
    let out_err = |p: &str, e: std::io::Error| CliError::Output {
        path: p.to_string(),
        source: e,
    };
    ensure_parent(&path)?;
    let host = parbench::HostInfo::probe();
    let json = parbench::to_json(&date, &host, args.scale, reps, &results);
    std::fs::write(&path, json).map_err(|e| out_err(&path, e))?;
    eprintln!("wrote {path}");

    // Regression gate (the CI smoke job): the incremental/batch min-ratio
    // against the committed baseline, with 25% headroom — see
    // `parbench::regressions` for why ratios of mins.
    if let Some(baseline_path) = &args.check_against {
        let baseline = std::fs::read_to_string(baseline_path).map_err(|e| CliError::Output {
            path: baseline_path.clone(),
            source: e,
        })?;
        let bad = parbench::regressions(&baseline, &results, 0.25);
        if bad.is_empty() {
            eprintln!("bench-regression gate vs {baseline_path}: ok");
        } else {
            for line in &bad {
                eprintln!("bench-regression: {line}");
            }
            return Err(CliError::Usage(format!(
                "bench-regression gate failed: {} class(es) slower than {baseline_path} + 25%",
                bad.len()
            )));
        }
    }

    // Per-phase pass: reuse the `--metrics` registry when one is live
    // (the pass then also lands in the exported file); otherwise
    // install a bench-local one just for this pass.
    let phase_registry = match registry {
        Some(r) => r.clone(),
        None => {
            let r = Arc::new(Registry::new());
            incgraph_obs::install(r.clone());
            r
        }
    };
    phasebench::run_phases(args.scale);
    let snap = phase_registry.snapshot();
    if registry.is_none() {
        incgraph_obs::uninstall();
    }
    print!("{}", phasebench::render_phase_table(&snap));
    let metrics_path = format!(
        "{}.metrics.jsonl",
        path.strip_suffix(".json").unwrap_or(&path)
    );
    let mut aggregate = snap;
    aggregate.spans.clear();
    std::fs::write(&metrics_path, incgraph_obs::to_jsonl(&aggregate))
        .map_err(|e| out_err(&metrics_path, e))?;
    eprintln!("wrote {metrics_path}");
    Ok(())
}

/// `incgraph fuzz`: a differential-fuzzing campaign over generated
/// cases (see `crates/oracle`). Exit codes: 0 = campaign met its goal,
/// 1 = a real divergence was found (clean mode) or the injected fault
/// escaped the oracles (`--inject-fault` mode).
fn run_fuzz(argv: &[String]) -> Result<(), CliError> {
    use incgraph_oracle::{fuzz, Fault, FuzzConfig};
    let usage = |msg: &str| CliError::Usage(format!("{msg}\n{USAGE}"));
    let mut cfg = FuzzConfig::new(1, 100);
    cfg.corpus_dir = Some(std::path::PathBuf::from("tests/corpus"));
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--seed needs an integer"))?
            }
            "--cases" => {
                cfg.cases = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| usage("--cases needs an integer ≥ 1"))?
            }
            "--budget-secs" => {
                let secs: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s > 0.0)
                    .ok_or_else(|| usage("--budget-secs needs a positive number"))?;
                cfg.time_budget = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--inject-fault" => {
                let name = it
                    .next()
                    .ok_or_else(|| usage("--inject-fault needs a fault name"))?;
                cfg.inject_fault = Some(
                    Fault::from_name(name)
                        .ok_or_else(|| usage(&format!("unknown fault `{name}`")))?,
                );
            }
            "--corpus" => {
                cfg.corpus_dir = Some(std::path::PathBuf::from(
                    it.next().ok_or_else(|| usage("--corpus needs a dir"))?,
                ))
            }
            "--no-corpus" => cfg.corpus_dir = None,
            "--crash" => cfg.crash = true,
            "--coalesce" => cfg.coalesce = true,
            "--dataflow" => cfg.dataflow = true,
            "--max-nodes" => {
                cfg.gen.max_nodes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 6)
                    .ok_or_else(|| usage("--max-nodes needs an integer ≥ 6"))?
            }
            flag => return Err(usage(&format!("unknown fuzz flag {flag}"))),
        }
    }
    // Create the corpus directory up front so a campaign that finds a
    // failure hours in cannot lose its reproducer to a missing dir.
    if let Some(dir) = &cfg.corpus_dir {
        std::fs::create_dir_all(dir).map_err(|source| CliError::Output {
            path: dir.display().to_string(),
            source,
        })?;
    }
    match cfg.inject_fault {
        Some(f) => eprintln!(
            "fuzz: seed {}, up to {} cases, injecting fault `{}`",
            cfg.seed,
            cfg.cases,
            f.name()
        ),
        None => eprintln!(
            "fuzz: seed {}, up to {} cases{}{}{}",
            cfg.seed,
            cfg.cases,
            if cfg.crash {
                ", sweeping crash-recovery"
            } else {
                ""
            },
            if cfg.coalesce {
                ", with the coalesce oracle"
            } else {
                ""
            },
            if cfg.dataflow {
                ", with the dataflow oracle"
            } else {
                ""
            }
        ),
    }
    let report = fuzz(&cfg);
    let classes: Vec<&str> = report.classes_exercised.iter().map(|c| c.name()).collect();
    eprintln!(
        "fuzz: ran {} cases / {} oracle checks; classes exercised: {}",
        report.cases_run,
        report.checks,
        classes.join(",")
    );
    if cfg.crash {
        eprintln!(
            "fuzz: {} kill-and-recover cycles verified",
            report.recoveries
        );
    }
    for rec in &report.crash_failures {
        eprintln!(
            "fuzz: case seed {}: {}{}",
            rec.case_seed,
            rec.failure,
            match &rec.path {
                Some(p) => format!(" → {}", p.display()),
                None => String::new(),
            }
        );
    }
    for rec in &report.failures {
        eprintln!(
            "fuzz: case seed {}: {} — minimized to {} updates / {} edges in {} attempts{}",
            rec.case_seed,
            rec.failure,
            rec.minimized.schedule_len(),
            rec.minimized.edges.len(),
            rec.shrink.attempts,
            match &rec.path {
                Some(p) => format!(" → {}", p.display()),
                None => String::new(),
            }
        );
    }
    match cfg.inject_fault {
        None => {
            if report.clean() {
                eprintln!("fuzz: all oracles held");
                Ok(())
            } else {
                Err(CliError::Oracle(format!(
                    "fuzz: {} divergence(s) found — reproducers written above",
                    report.failures.len() + report.crash_failures.len()
                )))
            }
        }
        Some(fault) => {
            // Validation mode: the fault MUST be caught and shrink small.
            let smallest = report
                .failures
                .iter()
                .map(|r| r.minimized.schedule_len())
                .min();
            match smallest {
                None => Err(CliError::Oracle(format!(
                    "fuzz: injected fault `{}` escaped all oracles over {} cases",
                    fault.name(),
                    report.cases_run
                ))),
                Some(n) if n > 10 => Err(CliError::Oracle(format!(
                    "fuzz: injected fault `{}` caught but only minimized to {n} updates (> 10)",
                    fault.name()
                ))),
                Some(n) => {
                    eprintln!(
                        "fuzz: injected fault `{}` caught and minimized to {n} update(s)",
                        fault.name()
                    );
                    Ok(())
                }
            }
        }
    }
}

/// `incgraph query --plan`: one-shot evaluation of an `incgraph-plan/1`
/// program over an edge-list graph (optionally after an update file),
/// printing the resulting view as `key value weight` rows. The same
/// plan text registers as a standing query against `incgraph serve`
/// via the wire `PLAN` verb.
fn run_query(argv: &[String]) -> Result<(), CliError> {
    use incgraph_dataflow::{eval_once, PlanContext, PLAN_GRAMMAR};
    let usage = |msg: &str| CliError::Usage(format!("{msg}\n{USAGE}"));
    let mut plan: Option<String> = None;
    let mut graph = String::new();
    let mut updates: Option<String> = None;
    let mut directed = false;
    let mut pattern_seed = 42u64;
    let mut out: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--plan" => {
                plan = Some(
                    it.next()
                        .ok_or_else(|| usage("--plan needs a program"))?
                        .clone(),
                )
            }
            "--graph" => {
                graph = it
                    .next()
                    .ok_or_else(|| usage("--graph needs a path"))?
                    .clone()
            }
            "--updates" => {
                updates = Some(
                    it.next()
                        .ok_or_else(|| usage("--updates needs a path"))?
                        .clone(),
                )
            }
            "--directed" => directed = true,
            "--pattern-seed" => {
                pattern_seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--pattern-seed needs an integer"))?
            }
            "--out" => {
                out = Some(
                    it.next()
                        .ok_or_else(|| usage("--out needs a path"))?
                        .clone(),
                )
            }
            flag => return Err(usage(&format!("unknown query flag {flag}"))),
        }
    }
    let plan = plan.ok_or_else(|| usage("query needs --plan '<program>'"))?;
    if graph.is_empty() {
        return Err(usage("query needs --graph G.txt"));
    }
    let f = std::fs::File::open(&graph).map_err(|e| CliError::FileUnreadable {
        path: graph.clone(),
        source: e,
    })?;
    let mut g = read_graph(f, directed).map_err(|e| read_error(&graph, e))?;
    if let Some(p) = &updates {
        let f = std::fs::File::open(p).map_err(|e| CliError::FileUnreadable {
            path: p.clone(),
            source: e,
        })?;
        let batch = read_updates(f).map_err(|e| read_error(p, e))?;
        batch.apply(&mut g);
    }
    let ctx = PlanContext {
        pattern: Some(random_pattern(&g, 4, 6, pattern_seed)),
        ..Default::default()
    };
    let view = eval_once(&plan, &g, &ctx)
        .map_err(|e| CliError::Usage(format!("bad plan ({PLAN_GRAMMAR}): {e}")))?;
    eprintln!(
        "query: {} view row(s) over |V|={} |E|={}",
        view.len(),
        g.node_count(),
        g.edge_count()
    );
    write_out(&out, view.iter().map(|(k, v, w)| format!("{k} {v} {w}")))
}

/// `incgraph replay`: re-run corpus case files through the full oracle
/// stack. A case recording an `inject-fault` must still fail (the fault
/// is re-injected — it proves the oracles have teeth); a case without
/// one is a fixed-bug regression test and must pass.
fn run_replay(argv: &[String]) -> Result<(), CliError> {
    use incgraph_oracle::{run_case, Case};
    if argv.is_empty() {
        return Err(CliError::Usage(format!(
            "replay needs case files or directories\n{USAGE}"
        )));
    }
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for arg in argv {
        let path = std::path::PathBuf::from(arg);
        if path.is_dir() {
            let entries = std::fs::read_dir(&path).map_err(|e| CliError::FileUnreadable {
                path: arg.clone(),
                source: e,
            })?;
            let mut cases: Vec<_> = entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "case"))
                .collect();
            cases.sort();
            files.extend(cases);
        } else {
            files.push(path);
        }
    }
    if files.is_empty() {
        return Err(CliError::Usage("replay: no .case files found".into()));
    }
    let mut bad: Vec<String> = Vec::new();
    for path in &files {
        let shown = path.display();
        let text = std::fs::read_to_string(path).map_err(|e| CliError::FileUnreadable {
            path: shown.to_string(),
            source: e,
        })?;
        let case = Case::parse(&text).map_err(|e| CliError::Parse {
            path: shown.to_string(),
            source: ParseError {
                line: e.line,
                message: e.message,
            },
        })?;
        let outcome = run_case(&case, case.fault);
        match (case.fault, outcome.failure) {
            (Some(fault), Some(f)) => {
                eprintln!(
                    "replay {shown}: fault `{}` still caught ({f})",
                    fault.name()
                )
            }
            (Some(fault), None) => bad.push(format!(
                "{shown}: recorded fault `{}` no longer trips any oracle",
                fault.name()
            )),
            (None, Some(f)) => bad.push(format!("{shown}: regression: {f}")),
            (None, None) => eprintln!("replay {shown}: ok ({} checks)", outcome.checks),
        }
    }
    if bad.is_empty() {
        eprintln!("replay: {} case(s) verified", files.len());
        Ok(())
    } else {
        Err(CliError::Oracle(bad.join("\n")))
    }
}

/// Flags shared by the two durable-store subcommands.
struct StoreArgs {
    store: String,
    graph: Option<String>,
    updates: Option<String>,
    directed: bool,
    source: u32,
    seed: u64,
    classes: Option<Vec<String>>,
    out: Option<String>,
}

fn parse_store_args(cmd: &str, argv: &[String]) -> Result<StoreArgs, CliError> {
    let usage = |msg: &str| CliError::Usage(format!("{msg}\n{USAGE}"));
    let mut args = StoreArgs {
        store: String::new(),
        graph: None,
        updates: None,
        directed: false,
        source: 0,
        seed: 42,
        classes: None,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => {
                args.store = it
                    .next()
                    .ok_or_else(|| usage("--store needs a dir"))?
                    .clone()
            }
            "--graph" => {
                args.graph = Some(
                    it.next()
                        .ok_or_else(|| usage("--graph needs a path"))?
                        .clone(),
                )
            }
            "--updates" => {
                args.updates = Some(
                    it.next()
                        .ok_or_else(|| usage("--updates needs a path"))?
                        .clone(),
                )
            }
            "--directed" => args.directed = true,
            "--source" => {
                args.source = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--source needs a node id"))?
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--seed needs an integer"))?
            }
            "--classes" => {
                let list = it.next().ok_or_else(|| usage("--classes needs a list"))?;
                args.classes = Some(list.split(',').map(str::to_string).collect());
            }
            "--out" => {
                args.out = Some(
                    it.next()
                        .ok_or_else(|| usage("--out needs a path"))?
                        .clone(),
                )
            }
            flag => return Err(usage(&format!("unknown {cmd} flag {flag}"))),
        }
    }
    if args.store.is_empty() {
        return Err(usage(&format!("{cmd} needs --store DIR")));
    }
    Ok(args)
}

/// Builds fresh batch states for a new store. Default class set is every
/// class defined on the graph's direction regime.
fn store_states(
    g: &DynamicGraph,
    args: &StoreArgs,
) -> Result<Vec<Box<dyn IncrementalState>>, CliError> {
    let names: Vec<String> = match &args.classes {
        Some(list) => list.clone(),
        None => {
            let mut all = vec!["sssp", "cc", "sim", "reach"];
            if !g.is_directed() {
                all.extend(["lcc", "dfs", "bc"]);
            } else {
                all.push("dfs");
            }
            all.into_iter().map(str::to_string).collect()
        }
    };
    let mut states: Vec<Box<dyn IncrementalState>> = Vec::with_capacity(names.len());
    for name in &names {
        let class = QueryClass::from_name(name)
            .ok_or_else(|| CliError::Usage(format!("unknown class {name}\n{USAGE}")))?;
        let mut builder = Session::builder(class);
        if class.source_rooted() {
            builder = builder.source(args.source);
        }
        if class == QueryClass::Sim {
            builder = builder.pattern(random_pattern(g, 4, 6, args.seed));
        }
        let session = builder
            .build(g)
            .map_err(|e| CliError::Usage(format!("{name}: {e}\n{USAGE}")))?;
        states.push(Box::new(session));
    }
    Ok(states)
}

/// One digest line per state: class name + CRC-32 of the essence, the
/// same equality the crash oracle checks — two stores printing the same
/// digests hold value-identical worlds.
fn state_digests(session: &DurableSession) -> Vec<String> {
    session
        .states()
        .iter()
        .map(|s| format!("{} {:08x}", s.name(), crc32(&s.save_state())))
        .collect()
}

/// `incgraph checkpoint`: open (or create, from `--graph`) the durable
/// store, WAL-log the optional `--updates` batch through the hardened
/// incremental pipeline, and force a checkpoint. `DURABLE_CRASH_AT`
/// arms a one-shot injected crash at the named pipeline point.
fn run_checkpoint(argv: &[String]) -> Result<(), CliError> {
    let args = parse_store_args("checkpoint", argv)?;
    let store = args.store.as_str();
    let crash = CrashPoint::from_env()
        .map_err(|e| CliError::Usage(format!("DURABLE_CRASH_AT: {e}\n{USAGE}")))?;

    let manifest_exists = std::path::Path::new(store)
        .join(incgraph_durable::checkpoint::MANIFEST_NAME)
        .exists();
    let mut session = if manifest_exists {
        let (session, report) =
            incgraph_durable::recover(std::path::Path::new(store), DurableOptions::default())
                .map_err(|e| durable_error(store, e))?;
        eprintln!(
            "opened {store}: checkpoint seq {}, {} WAL record(s) replayed",
            report.checkpoint_seq, report.wal_records_replayed
        );
        session
    } else {
        let graph_path = args.graph.as_deref().ok_or_else(|| {
            CliError::Usage(format!("checkpoint on a new store needs --graph\n{USAGE}"))
        })?;
        let f = std::fs::File::open(graph_path).map_err(|e| CliError::FileUnreadable {
            path: graph_path.to_string(),
            source: e,
        })?;
        let g = read_graph(f, args.directed).map_err(|e| read_error(graph_path, e))?;
        eprintln!(
            "creating {store} from {graph_path}: |V|={}, |E|={}",
            g.node_count(),
            g.edge_count()
        );
        let states = store_states(&g, &args)?;
        DurableSession::create(
            std::path::Path::new(store),
            g,
            states,
            DurableOptions::default(),
        )
        .map_err(|e| durable_error(store, e))?
    };

    session.arm_crash(crash);
    if let Some(path) = &args.updates {
        let f = std::fs::File::open(path).map_err(|e| CliError::FileUnreadable {
            path: path.clone(),
            source: e,
        })?;
        let batch = read_updates(f).map_err(|e| read_error(path, e))?;
        let reports = session.apply(&batch).map_err(|e| durable_error(store, e))?;
        let fallbacks = reports.iter().filter(|r| r.fallback.is_some()).count();
        eprintln!(
            "applied ΔG as WAL record {} ({} state(s), {} fallback(s))",
            session.last_seq(),
            reports.len(),
            fallbacks
        );
    }
    let seq = session.checkpoint().map_err(|e| durable_error(store, e))?;
    eprintln!("checkpoint covering seq {seq} written");
    for line in state_digests(&session) {
        println!("{line}");
    }
    Ok(())
}

/// `incgraph recover`: rebuild live state from the store and print the
/// recovery report plus per-class digests (to `--out` if given).
fn run_recover(argv: &[String]) -> Result<(), CliError> {
    let args = parse_store_args("recover", argv)?;
    let store = args.store.as_str();
    let t = Instant::now();
    let (session, report) =
        incgraph_durable::recover(std::path::Path::new(store), DurableOptions::default())
            .map_err(|e| durable_error(store, e))?;
    eprintln!(
        "recovered {store} in {:.3} ms: checkpoint seq {} ({}), {} WAL record(s) replayed, \
         {} fallback(s)",
        t.elapsed().as_secs_f64() * 1e3,
        report.checkpoint_seq,
        if report.used_manifest {
            "via manifest"
        } else {
            "via directory scan"
        },
        report.wal_records_replayed,
        report.fallbacks
    );
    if report.checkpoints_skipped > 0 {
        eprintln!(
            "recover: skipped {} invalid/stale checkpoint(s)",
            report.checkpoints_skipped
        );
    }
    if report.wal_truncated_bytes > 0 {
        eprintln!(
            "recover: truncated {} torn byte(s) from the WAL tail",
            report.wal_truncated_bytes
        );
    }
    if report.wal_records_dropped > 0 {
        eprintln!(
            "recover: dropped {} corrupt WAL record(s)",
            report.wal_records_dropped
        );
    }
    eprintln!(
        "live state: |V|={}, |E|={}, seq {}",
        session.graph().node_count(),
        session.graph().edge_count(),
        session.last_seq()
    );
    write_out(&args.out, state_digests(&session).into_iter())
}

/// `incgraph serve`: bind the `incgraph-wire/1` TCP server and run until
/// a wire `SHUTDOWN` drains it. With `--store DIR` the named graph is
/// WAL-durable (recovered if the store exists, initialized from
/// `--nodes`/`--directed` otherwise) and protected by the store `LOCK` —
/// a second server on the same store exits with code 7. Without it the
/// store starts empty and clients create in-memory graphs over the wire.
fn run_serve(argv: &[String]) -> Result<(), CliError> {
    use incgraph_service::{Server, ServerConfig, Store, StoreLimits};
    let usage = |msg: &str| CliError::Usage(format!("{msg}\n{USAGE}"));
    let mut cfg = ServerConfig::default();
    let mut store_dir: Option<String> = None;
    let mut graph_name = "g0".to_string();
    let mut nodes = 64usize;
    let mut directed = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                cfg.addr = it
                    .next()
                    .ok_or_else(|| usage("--addr needs host:port"))?
                    .clone()
            }
            "--store" => {
                store_dir = Some(
                    it.next()
                        .ok_or_else(|| usage("--store needs a dir"))?
                        .clone(),
                )
            }
            "--graph-name" => {
                graph_name = it
                    .next()
                    .ok_or_else(|| usage("--graph-name needs a name"))?
                    .clone()
            }
            "--nodes" => {
                nodes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--nodes needs an integer"))?
            }
            "--directed" => directed = true,
            "--max-sessions" => {
                cfg.max_sessions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--max-sessions needs an integer"))?
            }
            "--max-pending" => {
                cfg.max_pending = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--max-pending needs an integer"))?
            }
            "--idle-timeout-secs" => {
                let secs: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--idle-timeout-secs needs an integer"))?;
                cfg.idle_timeout = std::time::Duration::from_secs(secs);
            }
            "--retry-after-ms" => {
                cfg.retry_after_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--retry-after-ms needs an integer"))?
            }
            "--no-remote-shutdown" => cfg.allow_remote_shutdown = false,
            "--flush-ops" => {
                cfg.flush_ops = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| usage("--flush-ops needs an integer >= 1"))?
            }
            "--flush-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--flush-ms needs an integer"))?;
                cfg.flush_window = std::time::Duration::from_millis(ms);
            }
            "--replica-of" => {
                cfg.replica_of = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| usage("--replica-of needs host:port"))?,
                )
            }
            "--digest-every" => {
                cfg.digest_every = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--digest-every needs an integer (0 disables)"))?
            }
            "--snapshot-lag" => {
                cfg.snapshot_lag = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--snapshot-lag needs an integer"))?
            }
            "--ack-timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--ack-timeout-ms needs an integer"))?;
                cfg.repl_ack_timeout = std::time::Duration::from_millis(ms);
            }
            flag => return Err(usage(&format!("unknown serve flag {flag}"))),
        }
    }
    // Replication is scoped to the durable graph: any server with a
    // store is a potential primary (or, with --replica-of, a replica).
    if store_dir.is_some() {
        cfg.repl_graph = Some(graph_name.clone());
    } else if cfg.replica_of.is_some() {
        return Err(usage("--replica-of needs --store (replicas are durable)"));
    }
    let store = match &store_dir {
        Some(dir) => {
            if nodes == 0 {
                return Err(usage("--store needs --nodes >= 1 to initialize a graph"));
            }
            let store = Store::open_durable(
                std::path::Path::new(dir),
                &graph_name,
                nodes,
                directed,
                DurableOptions::default(),
                StoreLimits::default(),
            )
            .map_err(|e| durable_error(dir, e))?;
            eprintln!("durable graph {graph_name} mounted from {dir}");
            store
        }
        None => Store::new(StoreLimits::default()),
    };
    if !cfg.allow_remote_shutdown {
        eprintln!("serve: wire SHUTDOWN disabled — stop the process to exit");
    }
    if let Some(primary) = cfg.replica_of {
        eprintln!("serve: replica of {primary} — read-only until promoted");
    }
    let mut handle = Server::start(store, cfg).map_err(|e| CliError::Output {
        path: "listener".to_string(),
        source: e,
    })?;
    // Machine-readable bind line on stdout so scripts can discover an
    // ephemeral port; everything else goes to stderr.
    println!("incgraph-wire/1 listening on {}", handle.addr());
    std::io::stdout().flush().ok();
    handle.wait();
    eprintln!("serve: drained and stopped");
    Ok(())
}

/// `incgraph load`: drive many concurrent sessions (classes round-robin
/// over all seven) against a live server and print per-class
/// `UPDATE`→`ACK` percentiles. Any session failing is an oracle-grade
/// error (exit 1) so CI smoke jobs fail loudly.
fn run_load_cmd(argv: &[String]) -> Result<(), CliError> {
    use incgraph_service::LoadConfig;
    let usage = |msg: &str| CliError::Usage(format!("{msg}\n{USAGE}"));
    let mut cfg = LoadConfig::default();
    let mut addr: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = Some(
                    it.next()
                        .ok_or_else(|| usage("--addr needs host:port"))?
                        .clone(),
                )
            }
            "--sessions" => {
                cfg.sessions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--sessions needs an integer"))?
            }
            "--batches" => {
                cfg.batches_per_session = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--batches needs an integer"))?
            }
            "--units" => {
                cfg.units_per_batch = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--units needs an integer"))?
            }
            "--nodes" => {
                cfg.nodes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--nodes needs an integer"))?
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--seed needs an integer"))?
            }
            flag => return Err(usage(&format!("unknown load flag {flag}"))),
        }
    }
    let addr = addr.ok_or_else(|| usage("load needs --addr HOST:PORT"))?;
    cfg.addr = addr
        .parse()
        .map_err(|_| usage(&format!("--addr: cannot parse {addr}")))?;
    eprintln!(
        "load: {} sessions × {} batches × {} units against {}",
        cfg.sessions, cfg.batches_per_session, cfg.units_per_batch, cfg.addr
    );
    let report = incgraph_service::run_load(&cfg);
    print!("{report}");
    if report.sessions_failed > 0 {
        return Err(CliError::Oracle(format!(
            "load: {} of {} sessions failed",
            report.sessions_failed, cfg.sessions
        )));
    }
    Ok(())
}

/// `incgraph chaos`: the network-chaos oracle from `crates/oracle` —
/// real server, byte-cutting proxy, abrupt kill/restart cycles, then a
/// WAL audit (exactly-once for every ack) and an essence check of the
/// recovered store against genesis replay. Any violation exits 1.
fn run_chaos_cmd(argv: &[String]) -> Result<(), CliError> {
    use incgraph_oracle::ChaosConfig;
    let usage = |msg: &str| CliError::Usage(format!("{msg}\n{USAGE}"));
    let mut cfg = ChaosConfig::default();
    let mut store: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => {
                store = Some(
                    it.next()
                        .ok_or_else(|| usage("--store needs a dir"))?
                        .clone(),
                )
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--seed needs an integer"))?
            }
            "--clients" => {
                cfg.clients = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--clients needs an integer"))?
            }
            "--batches" => {
                cfg.batches_per_client = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--batches needs an integer"))?
            }
            "--kills" => {
                cfg.kills = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--kills needs an integer"))?
            }
            "--no-proxy-faults" => cfg.proxy_faults = false,
            flag => return Err(usage(&format!("unknown chaos flag {flag}"))),
        }
    }
    let store = store.ok_or_else(|| usage("chaos needs --store DIR"))?;
    eprintln!(
        "chaos: seed {:#x}, {} clients × {} batches, {} kill cycles, proxy faults {}",
        cfg.seed,
        cfg.clients,
        cfg.batches_per_client,
        cfg.kills,
        if cfg.proxy_faults { "on" } else { "off" }
    );
    let report = incgraph_oracle::run_chaos(std::path::Path::new(&store), &cfg)
        .map_err(|e| CliError::Oracle(format!("chaos violation: {e}")))?;
    println!(
        "chaos clean: {} acked ({} dup acks), {} reconnects, {} server deaths, \
         {} WAL batches ({} committed-unacked), {} classes verified",
        report.acked,
        report.dup_acks,
        report.reconnects,
        report.server_deaths,
        report.wal_batches,
        report.committed_unacked,
        report.classes_verified
    );
    Ok(())
}

/// `incgraph failover`: the partition/failover chaos oracle
/// (see [`incgraph_oracle::failover`] and docs/ROBUSTNESS.md §6). One
/// primary→replica cycle per crash point: kill the primary mid-stream,
/// promote the replica, redirect the clients, then audit the new
/// primary offline for exactly-once survival of every acked batch and
/// genesis-replay equality.
fn run_failover_cmd(argv: &[String]) -> Result<(), CliError> {
    let usage = |msg: &str| CliError::Usage(format!("{msg}\n{USAGE}"));
    let mut cfg = incgraph_oracle::FailoverConfig::default();
    let mut store: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => {
                store = Some(
                    it.next()
                        .ok_or_else(|| usage("--store needs a dir"))?
                        .clone(),
                )
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--seed needs an integer"))?
            }
            "--clients" => {
                cfg.clients = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--clients needs an integer"))?
            }
            "--batches" => {
                cfg.batches_per_client = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--batches needs an integer"))?
            }
            "--crash-at" => {
                let name = it
                    .next()
                    .ok_or_else(|| usage("--crash-at needs a crash point name"))?;
                cfg.points = vec![CrashPoint::parse(name)
                    .ok_or_else(|| usage(&format!("unknown crash point `{name}`")))?];
            }
            flag => return Err(usage(&format!("unknown failover flag {flag}"))),
        }
    }
    let store = store.ok_or_else(|| usage("failover needs --store DIR"))?;
    eprintln!(
        "failover: seed {:#x}, {} clients × {} batches, crash points {:?}",
        cfg.seed, cfg.clients, cfg.batches_per_client, cfg.points
    );
    let report = incgraph_oracle::run_failover(std::path::Path::new(&store), &cfg)
        .map_err(|e| CliError::Oracle(format!("failover violation: {e}")))?;
    println!(
        "failover clean: {} cycles, {} acked ({} dup acks), {} reconnects, \
         {} WAL batches ({} committed-unacked), {} class essences verified",
        report.cycles,
        report.acked,
        report.dup_acks,
        report.reconnects,
        report.wal_batches,
        report.committed_unacked,
        report.classes_verified
    );
    Ok(())
}

/// `incgraph promote`: operator promotion of a replica to primary.
/// Bumps the durable epoch; prints the new epoch on stdout.
fn run_promote(argv: &[String]) -> Result<(), CliError> {
    use incgraph_service::client::Client;
    let usage = |msg: &str| CliError::Usage(format!("{msg}\n{USAGE}"));
    let mut addr: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = Some(
                    it.next()
                        .ok_or_else(|| usage("--addr needs host:port"))?
                        .clone(),
                )
            }
            flag => return Err(usage(&format!("unknown promote flag {flag}"))),
        }
    }
    let addr = addr.ok_or_else(|| usage("promote needs --addr H:P"))?;
    let sock: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| usage(&format!("bad address `{addr}`")))?;
    let mut c = Client::connect_timeout(sock, "promote-cli", std::time::Duration::from_secs(5))
        .map_err(|e| CliError::Oracle(format!("{addr}: connect: {e}")))?;
    let epoch = c
        .promote()
        .map_err(|e| CliError::Oracle(format!("{addr}: promote refused: {e}")))?;
    println!("promoted: epoch {epoch}");
    let _ = c.bye();
    Ok(())
}

/// `incgraph verify-store`: offline read-only scrub of a durable store
/// directory. Walks every checkpoint (magic + whole-file CRC + payload
/// decode), the full WAL (per-record CRC and sequence continuity from
/// the store's base), the dedup intent log, and the
/// manifest/EPOCH/BASE sidecars, then cross-checks their consistency.
/// Never takes the store `LOCK` and mutates nothing, so it is safe on a
/// store a live server holds. Integrity violations exit 1; a torn WAL
/// or dedup tail is reported but healthy (crash-normal).
fn run_verify_store(argv: &[String]) -> Result<(), CliError> {
    use incgraph_durable::checkpoint::{
        checkpoint_path, list_checkpoints, load_checkpoint, read_manifest,
    };
    use incgraph_durable::wal::WAL_MAGIC;
    use incgraph_durable::{read_base, read_epoch, scan_records, WAL_NAME};
    let usage = |msg: &str| CliError::Usage(format!("{msg}\n{USAGE}"));
    let mut store: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => {
                store = Some(
                    it.next()
                        .ok_or_else(|| usage("--store needs a dir"))?
                        .clone(),
                )
            }
            flag => return Err(usage(&format!("unknown verify-store flag {flag}"))),
        }
    }
    let store = store.ok_or_else(|| usage("verify-store needs --store DIR"))?;
    let dir = std::path::Path::new(&store);
    let bad = |msg: String| CliError::Oracle(format!("{store}: {msg}"));

    // Sidecars: corrupt metadata is a hard failure, missing is default.
    let epoch = read_epoch(dir).map_err(|e| durable_error(&store, e))?;
    let base = read_base(dir).map_err(|e| durable_error(&store, e))?;

    // Every checkpoint must fully validate, and its filename sequence
    // must match the sequence sealed inside the payload.
    let ckpts = list_checkpoints(dir);
    for &seq in &ckpts {
        let (covered, _graph, states) = load_checkpoint(&checkpoint_path(dir, seq))
            .map_err(|e| bad(format!("checkpoint {seq}: {e}")))?;
        if covered != seq {
            return Err(bad(format!(
                "checkpoint {seq}: payload covers seq {covered}"
            )));
        }
        eprintln!(
            "verify-store: checkpoint {seq} ok ({} states)",
            states.len()
        );
    }

    // The WAL: per-record CRC + strict sequence continuity from base.
    let wal_path = dir.join(WAL_NAME);
    let bytes = std::fs::read(&wal_path).map_err(|e| CliError::FileUnreadable {
        path: wal_path.display().to_string(),
        source: e,
    })?;
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(bad("WAL magic missing or damaged".into()));
    }
    let body = &bytes[WAL_MAGIC.len()..];
    let scan = scan_records(body, base + 1);
    let torn = body.len() - scan.valid_len;
    let last_seq = base + scan.records.len() as u64;
    eprintln!(
        "verify-store: WAL records {}..={} ok ({} records, {torn} torn tail bytes)",
        base + 1,
        last_seq,
        scan.records.len()
    );

    // The dedup intent log (longest-valid-prefix scan, read-only).
    let dedup_entries = incgraph_service::dedup::scan_entries(dir, last_seq)
        .map_err(|e| bad(format!("dedup log: {e}")))?;
    eprintln!(
        "verify-store: dedup log ok ({} committed intents)",
        dedup_entries.len()
    );

    // Cross-consistency.
    let manifest = read_manifest(dir);
    if let Some((mseq, mepoch)) = manifest {
        if !ckpts.contains(&mseq) {
            return Err(bad(format!(
                "manifest names checkpoint {mseq}, which does not validate on disk"
            )));
        }
        if mseq > last_seq {
            return Err(bad(format!(
                "manifest covers seq {mseq} beyond the WAL frontier {last_seq}"
            )));
        }
        if mepoch > epoch {
            return Err(bad(format!(
                "manifest epoch {mepoch} beyond the EPOCH sidecar {epoch}"
            )));
        }
    } else if !ckpts.is_empty() {
        eprintln!("verify-store: note — checkpoints exist but no manifest (pre-seal crash)");
    }
    for &seq in &ckpts {
        if seq < base || seq > last_seq {
            return Err(bad(format!(
                "checkpoint {seq} outside the store's history [{base}, {last_seq}]"
            )));
        }
    }

    println!(
        "store healthy: epoch {epoch}, base {base}, {} WAL records (frontier {last_seq}), \
         {} checkpoints, {} dedup intents{}",
        scan.records.len(),
        ckpts.len(),
        dedup_entries.len(),
        if torn > 0 {
            format!(", {torn}-byte torn WAL tail (crash-normal)")
        } else {
            String::new()
        }
    );
    Ok(())
}

/// `incgraph stream`: the sustained-stream SLO harness
/// (see [`incgraph_bench::stream`] and docs/STREAMING.md). Replays the
/// temporal workload's timestamped history at a target rate against a
/// WAL-durable store with standing queries over every class, measures
/// steady-state p50/p99/p999 update latency per class, optionally
/// injects a kill to measure recovery time, optionally ramps to find
/// the throughput ceiling, audits the WAL for exactly-once application
/// of every ack, and writes `results/STREAM_<date>.json` with a
/// `--check-against` regression gate. `--virtual-time` drives a
/// deterministic virtual clock: same seed + same schedule ⇒ identical
/// final store digest and accounting.
fn run_stream_cmd(argv: &[String], obs: &ObsSetup) -> Result<(), CliError> {
    use incgraph_bench::stream::{
        render_table, run_stream, stream_regressions, to_json, RampConfig, StreamConfig,
        StreamCrash, StreamError,
    };
    let usage = |msg: &str| CliError::Usage(format!("{msg}\n{USAGE}"));
    let scratch_store =
        std::env::temp_dir().join(format!("incgraph-stream-{}", std::process::id()));
    let mut cfg = StreamConfig::new(scratch_store.clone());
    let mut out: Option<String> = None;
    let mut check_against: Option<String> = None;
    let mut crash_at: Option<CrashPoint> = None;
    let mut kill_at = 0.5f64;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => {
                cfg.store =
                    std::path::PathBuf::from(it.next().ok_or_else(|| usage("--store needs a dir"))?)
            }
            "--virtual-time" => cfg.virtual_time = true,
            "--rate" => {
                cfg.rate_ops_s = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r: &f64| r > 0.0)
                    .ok_or_else(|| usage("--rate needs a positive ops/sec"))?
            }
            "--flush-ops" => {
                cfg.flush_ops = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| usage("--flush-ops needs an integer >= 1"))?
            }
            "--flush-ms" => {
                cfg.flush_wait_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&f: &f64| f >= 0.0)
                    .ok_or_else(|| usage("--flush-ms needs a non-negative number"))?
            }
            "--deadline-ms" => {
                cfg.deadline_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&f: &f64| f > 0.0)
                    .ok_or_else(|| usage("--deadline-ms needs a positive number"))?
            }
            "--max-lag-ms" => {
                cfg.max_lag_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&f: &f64| f > 0.0)
                    .ok_or_else(|| usage("--max-lag-ms needs a positive number"))?
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--seed needs an integer"))?
            }
            "--scale" => {
                cfg.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&f: &f64| f > 0.0)
                    .ok_or_else(|| usage("--scale needs a positive factor"))?
            }
            "--windows" => {
                cfg.windows = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| usage("--windows needs an integer >= 1"))?
            }
            "--max-ops" => {
                cfg.max_ops = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| usage("--max-ops needs an integer >= 1"))?,
                )
            }
            "--checkpoint-every" => {
                let n: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--checkpoint-every needs an integer (0 = off)"))?;
                cfg.checkpoint_every = (n > 0).then_some(n);
            }
            "--crash-at" => {
                let name = it
                    .next()
                    .ok_or_else(|| usage("--crash-at needs a crash point name"))?;
                crash_at = Some(
                    CrashPoint::parse(name)
                        .ok_or_else(|| usage(&format!("unknown crash point `{name}`")))?,
                );
            }
            "--kill-at" => {
                kill_at = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|f: &f64| (0.0..=1.0).contains(f))
                    .ok_or_else(|| usage("--kill-at needs a fraction in [0, 1]"))?
            }
            "--ramp" => cfg.ramp = Some(RampConfig::default()),
            "--out" => {
                out = Some(
                    it.next()
                        .ok_or_else(|| usage("--out needs a path"))?
                        .clone(),
                )
            }
            "--check-against" => {
                check_against = Some(
                    it.next()
                        .ok_or_else(|| usage("--check-against needs a path"))?
                        .clone(),
                )
            }
            flag => return Err(usage(&format!("unknown stream flag {flag}"))),
        }
    }
    cfg.crash = crash_at.map(|point| StreamCrash {
        point,
        at_frac: kill_at,
    });
    let store_shown = cfg.store.display().to_string();
    eprintln!(
        "stream: {} clock, target {:.0} ops/s, flush {} ops / {:.1} ms, SLO {:.0} ms, store {}",
        if cfg.virtual_time {
            "virtual"
        } else {
            "real-time"
        },
        cfg.rate_ops_s,
        cfg.flush_ops,
        cfg.flush_wait_ms,
        cfg.deadline_ms,
        store_shown
    );
    let result = run_stream(&cfg, obs.registry.clone());
    // A scratch store (no --store) is throwaway; a named one is kept for
    // postmortems.
    if cfg.store == scratch_store {
        let _ = std::fs::remove_dir_all(&scratch_store);
    }
    let report = result.map_err(|e| match e {
        StreamError::Config(m) => usage(&m),
        StreamError::Durable(d) => durable_error(&store_shown, d),
        StreamError::Audit(a) => CliError::Oracle(format!("stream exactly-once audit: {a}")),
    })?;
    print!("{}", render_table(&report));
    let path = out.unwrap_or_else(|| format!("results/STREAM_{}.json", report.date));
    ensure_parent(&path)?;
    std::fs::write(&path, to_json(&report)).map_err(|e| CliError::Output {
        path: path.clone(),
        source: e,
    })?;
    eprintln!("wrote {path}");
    if let Some(baseline_path) = &check_against {
        let baseline = std::fs::read_to_string(baseline_path).map_err(|e| CliError::Output {
            path: baseline_path.clone(),
            source: e,
        })?;
        let bad = stream_regressions(&baseline, &report, 1.0);
        if bad.is_empty() {
            eprintln!("stream-regression gate vs {baseline_path}: ok");
        } else {
            for line in &bad {
                eprintln!("stream-regression: {line}");
            }
            return Err(CliError::Usage(format!(
                "stream-regression gate failed: {} violation(s) vs {baseline_path}",
                bad.len()
            )));
        }
    }
    Ok(())
}

fn run() -> Result<(), CliError> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let obs = ObsSetup::extract(&mut argv)?;
    let result = dispatch(&argv, &obs);
    // Telemetry export happens after the subcommand, success or not, so
    // a failing run still leaves its metrics behind; an export failure
    // only surfaces when the run itself was clean.
    match obs.export() {
        Ok(()) => result,
        Err(e) => result.and(Err(e)),
    }
}

fn dispatch(argv: &[String], obs: &ObsSetup) -> Result<(), CliError> {
    match argv.first().map(String::as_str) {
        Some("fuzz") => return run_fuzz(&argv[1..]),
        Some("query") => return run_query(&argv[1..]),
        Some("replay") => return run_replay(&argv[1..]),
        Some("checkpoint") => return run_checkpoint(&argv[1..]),
        Some("recover") => return run_recover(&argv[1..]),
        Some("serve") => return run_serve(&argv[1..]),
        Some("load") => return run_load_cmd(&argv[1..]),
        Some("chaos") => return run_chaos_cmd(&argv[1..]),
        Some("failover") => return run_failover_cmd(&argv[1..]),
        Some("promote") => return run_promote(&argv[1..]),
        Some("verify-store") => return run_verify_store(&argv[1..]),
        Some("stream") => return run_stream_cmd(&argv[1..], obs),
        _ => {}
    }
    let args = parse_args(argv)?;
    if args.class == "bench" {
        return run_bench(&args, &obs.registry);
    }
    let (mut g, updates) = load(&args)?;

    let policy = FallbackPolicy {
        max_aff_fraction: args.max_aff_frac,
        max_scope_size: args.max_scope,
        ..Default::default()
    };
    let audit = if args.audit {
        Some(if args.audit_stride > 1 {
            FixpointAudit::sampled(args.audit_stride, args.seed as usize)
        } else {
            FixpointAudit::full()
        })
    } else {
        None
    };
    // One knob struct for the whole guarded pipeline: degradation
    // policy and auditing.
    let exec = ExecOptions {
        policy,
        audit,
        micro_batch: false,
    };

    // Validate-then-apply: a poisoned stream rolls the graph back and
    // exits 5 before any algorithm state is touched.
    let apply_updates =
        |g: &mut DynamicGraph, state: &mut dyn IncrementalState| -> Result<(), CliError> {
            let Some(batch) = &updates else {
                return Ok(());
            };
            let path = args.updates.as_deref().unwrap_or("<updates>");
            let applied = batch
                .apply_validated(g)
                .map_err(|source| CliError::InvalidUpdates {
                    path: path.to_string(),
                    source,
                })?;
            eprintln!("applying ΔG: {} effective unit updates", applied.len());
            let t = Instant::now();
            let rep = update_with(state, g, &applied, &exec);
            report("incremental", t.elapsed().as_secs_f64(), Some(&rep));
            Ok(())
        };

    macro_rules! run {
        ($batch:expr, $emit:expr) => {{
            let t = Instant::now();
            let mut state = $batch;
            report("batch", t.elapsed().as_secs_f64(), None);
            apply_updates(&mut g, &mut state)?;
            write_out(&args.out, $emit(&state, &g))?;
        }};
    }

    match args.class.as_str() {
        "sssp" => run!(
            SsspState::batch(&g, args.source).0,
            |s: &SsspState, _g: &DynamicGraph| {
                let d = s.distances().to_vec();
                d.into_iter().enumerate().map(|(v, d)| {
                    if d == u64::MAX {
                        format!("{v} inf")
                    } else {
                        format!("{v} {d}")
                    }
                })
            }
        ),
        "reach" => run!(
            ReachState::batch(&g, args.source).0,
            |s: &ReachState, _g: &DynamicGraph| {
                let r = s.reached().to_vec();
                r.into_iter()
                    .enumerate()
                    .map(|(v, b)| format!("{v} {}", b as u8))
            }
        ),
        "cc" => run!(CcState::batch(&g).0, |s: &CcState, _g: &DynamicGraph| {
            let c = s.components().to_vec();
            c.into_iter().enumerate().map(|(v, c)| format!("{v} {c}"))
        }),
        "dfs" => run!(DfsState::batch(&g).0, |s: &DfsState, g: &DynamicGraph| {
            let rows: Vec<String> = (0..g.node_count() as u32)
                .map(|v| format!("{v} {} {} {}", s.first(v), s.last(v), s.parent(v)))
                .collect();
            rows.into_iter()
        }),
        "lcc" => run!(LccState::batch(&g).0, |s: &LccState, g: &DynamicGraph| {
            let rows: Vec<String> = (0..g.node_count() as u32)
                .map(|v| format!("{v} {:.6}", s.coefficient(v)))
                .collect();
            rows.into_iter()
        }),
        "bc" => run!(BcState::batch(&g).0, |s: &BcState, g: &DynamicGraph| {
            let rows = vec![
                format!(
                    "articulation_points {}",
                    s.articulation_points(g)
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                ),
                format!(
                    "bridges {}",
                    s.bridges(g)
                        .iter()
                        .map(|(a, b)| format!("{a}-{b}"))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            ];
            rows.into_iter()
        }),
        "sim" => {
            let q = random_pattern(&g, 4, 6, args.seed);
            eprintln!("pattern |Q|=(4,6), seed {}", args.seed);
            run!(
                SimState::batch(&g, q.clone()).0,
                |s: &SimState, _g: &DynamicGraph| {
                    let rel = s.relation();
                    rel.into_iter().map(|(v, u)| format!("{v} {u}"))
                }
            )
        }
        other => {
            return Err(CliError::Usage(format!("unknown class {other}\n{USAGE}")));
        }
    }
    Ok(())
}
