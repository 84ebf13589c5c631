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
//! and `incgraph failover` run the network-fault oracle (byte-cutting
//! proxy and kill/restart cycles, or primary kill + replica promotion) on
//! a fresh store and exit 1 on any exactly-once or recovery violation.
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
//! | 1    | oracle violation (`fuzz`, `replay`, `chaos`, `failover`, failed `load` sessions) |
//! | 2    | usage error (bad flags, missing class/graph) |
//! | 3    | file unreadable / output unwritable / durable store corrupt |
//! | 4    | parse error (reported with its line number) |
//! | 5    | invalid update stream (rejected by validation, graph rolled back) |
//! | 6    | injected crash fired (`DURABLE_CRASH_AT`) |
//! | 7    | store busy: another live process holds the store's `LOCK` |

mod args;
mod class;
mod oracle;
mod service;
mod store;
mod stream;

use args::write_file;
use incgraph_durable::{CrashPoint, DurableError};
use incgraph_graph::io::ParseError;
use incgraph_graph::BatchError;
use incgraph_obs::Registry;
use std::sync::Arc;

/// Everything that can end a run early, with its process exit code.
#[derive(Debug)]
pub(crate) enum CliError {
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
    pub(crate) fn exit_code(&self) -> i32 {
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

pub(crate) const USAGE: &str = "usage: incgraph <sssp|cc|sim|dfs|lcc|bc|reach> --graph G.txt \
                     [--updates D.txt] [--directed] [--source N] [--seed S] [--out F] \
                     [--max-aff-frac F] [--max-scope N] [--audit] [--audit-stride K]\n\
                     \u{20}      incgraph bench [--scale F] [--out BENCH.json] \
                     [--check-against BASELINE.json]\n\
                     \u{20}      incgraph fuzz [--seed S] [--cases N] [--budget-secs T] \
                     [--inject-fault skip-op|drop-deletes] [--crash] [--coalesce] [--dataflow] \
                     [--corpus DIR] [--no-corpus] [--max-nodes N]\n\
                     \u{20}      incgraph query --plan 'a = sssp(source=0); n = count(a)' \
                     --graph G.txt [--updates D.txt] [--directed] [--pattern-seed S] [--out F]\n\
                     \u{20}      incgraph replay <FILE.case|DIR>...\n\
                     \u{20}      incgraph checkpoint --store DIR [--graph G.txt] [--updates D.txt] \
                     [--directed] [--source N] [--seed S] [--classes c1,c2,…]\n\
                     \u{20}      incgraph recover --store DIR [--out F]\n\
                     \u{20}      incgraph serve [--addr H:P] [--store DIR [--graph-name G] \
                     [--nodes N] [--directed]] [--max-sessions N] [--max-pending N] \
                     [--idle-timeout-secs S] [--retry-after-ms MS] [--no-remote-shutdown] \
                     [--replica-of H:P] [--digest-every N] [--snapshot-lag N] \
                     [--ack-timeout-ms MS]\n\
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
                     [--scale F] [--windows N] [--max-ops N] [--checkpoint-every N] \
                     [--crash-at pre-fsync|post-fsync|mid-checkpoint|post-rename [--kill-at FRAC]] \
                     [--ramp] [--out STREAM.json] [--check-against BASELINE.json]\n\
                     every subcommand also accepts: [--metrics METRICS.jsonl] [--trace TRACE.jsonl]";

/// The `--metrics` / `--trace` observability flags, shared by every
/// subcommand: they are stripped out of `argv` *before* dispatch so the
/// per-subcommand strict parsers never see them, and when either is
/// present the process-wide metrics registry is installed for the whole
/// run.
pub(crate) struct ObsSetup {
    metrics: Option<String>,
    trace: Option<String>,
    pub(crate) registry: Option<Arc<Registry>>,
}

impl ObsSetup {
    fn extract(argv: &mut Vec<String>) -> Result<ObsSetup, CliError> {
        let mut metrics = None;
        let mut trace = None;
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--metrics" | "--trace" => {
                    if i + 1 >= argv.len() {
                        return Err(args::usage(&format!("{} needs a path", argv[i])));
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
        if let Some(path) = &self.metrics {
            // The metrics file carries the aggregate view; raw spans
            // (when traced) belong to the --trace file.
            let mut aggregate = snap.clone();
            aggregate.spans.clear();
            write_file(path, incgraph_obs::to_jsonl(&aggregate))?;
            eprintln!("wrote metrics to {path}");
        }
        if let Some(path) = &self.trace {
            write_file(path, incgraph_obs::to_jsonl(&snap))?;
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
        Some("fuzz") => return oracle::run_fuzz(&argv[1..]),
        Some("query") => return oracle::run_query(&argv[1..]),
        Some("replay") => return oracle::run_replay(&argv[1..]),
        Some("checkpoint") => return store::run_checkpoint(&argv[1..]),
        Some("recover") => return store::run_recover(&argv[1..]),
        Some("serve") => return service::run_serve(&argv[1..]),
        Some("load") => return service::run_load_cmd(&argv[1..]),
        Some(cmd @ ("chaos" | "failover")) => return service::run_chaos_cmd(cmd, &argv[1..]),
        Some("promote") => return service::run_promote(&argv[1..]),
        Some("verify-store") => return store::run_verify_store(&argv[1..]),
        Some("stream") => return stream::run_stream_cmd(&argv[1..], obs),
        _ => {}
    }
    class::run_class(argv, obs)
}
