//! The class runs (`incgraph <class>`) and `incgraph bench`.

use crate::args::{
    self, output_error, read_graph_file, read_updates_file, usage, write_file, write_out,
};
use crate::{CliError, ObsSetup, USAGE};
use incgraph_algos::{
    update_with, BcState, CcState, DfsState, ExecOptions, IncrementalState, LccState, QueryClass,
    ReachState, SessionError, SimState, SsspState,
};
use incgraph_core::audit::FixpointAudit;
use incgraph_core::fallback::FallbackPolicy;
use incgraph_core::metrics::BoundednessReport;
use incgraph_graph::{DynamicGraph, UpdateBatch};
use incgraph_obs::Registry;
use incgraph_workloads::random_pattern;
use std::sync::Arc;
use std::time::Instant;

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
    args::parse(argv, |a, rest| {
        match a {
            "--graph" => args.graph = rest.path("--graph needs a path")?,
            "--updates" => args.updates = Some(rest.path("--updates needs a path")?),
            "--directed" => args.directed = true,
            "--audit" => args.audit = true,
            "--source" => args.source = rest.value("--source needs a node id")?,
            "--seed" => args.seed = rest.value("--seed needs an integer")?,
            "--max-aff-frac" => {
                args.max_aff_frac = rest
                    .value_if("--max-aff-frac needs a fraction in [0, 1]", |f| {
                        (0.0..=1.0).contains(f)
                    })?
            }
            "--max-scope" => args.max_scope = rest.value("--max-scope needs a variable count")?,
            "--scale" => {
                args.scale = rest.value_if("--scale needs a positive factor", |&f| f > 0.0)?
            }
            "--audit-stride" => {
                args.audit_stride =
                    rest.value_if("--audit-stride needs an integer ≥ 1", |&k| k >= 1)?
            }
            "--out" => args.out = Some(rest.path("--out needs a path")?),
            "--check-against" => {
                args.check_against = Some(rest.path("--check-against needs a path")?)
            }
            flag if flag.starts_with('-') => return Err(usage(&format!("unknown flag {flag}"))),
            class if args.class.is_empty() => args.class = class.to_string(),
            extra => return Err(usage(&format!("unexpected argument {extra}"))),
        }
        Ok(())
    })?;
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

fn load(args: &Args) -> Result<(DynamicGraph, Option<UpdateBatch>), CliError> {
    let g = read_graph_file(&args.graph, args.directed)?;
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
    let updates = args.updates.as_deref().map(read_updates_file).transpose()?;
    Ok((g, updates))
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
    let host = parbench::HostInfo::probe();
    let json = parbench::to_json(&date, &host, args.scale, reps, &results);
    write_file(&path, json)?;
    eprintln!("wrote {path}");

    // Regression gate (the CI smoke job): the incremental/batch min-ratio
    // against the committed baseline, with 25% headroom — see
    // `parbench::regressions` for why ratios of mins.
    if let Some(baseline_path) = &args.check_against {
        let baseline =
            std::fs::read_to_string(baseline_path).map_err(output_error(baseline_path))?;
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
    write_file(&metrics_path, incgraph_obs::to_jsonl(&aggregate))?;
    eprintln!("wrote {metrics_path}");
    Ok(())
}

pub(crate) fn run_class(argv: &[String], obs: &ObsSetup) -> Result<(), CliError> {
    let args = parse_args(argv)?;
    if args.class == "bench" {
        return run_bench(&args, &obs.registry);
    }
    let (mut g, updates) = load(&args)?;
    // The class states index by the source, so one past the graph is
    // refused here, as the session builder refuses it.
    let rooted = QueryClass::from_name(&args.class).is_some_and(QueryClass::source_rooted);
    if rooted && args.source as usize >= g.node_count() {
        let (source, nodes) = (args.source, g.node_count());
        let refusal = SessionError::SourceOutOfRange { source, nodes };
        return Err(usage(&refusal.to_string()));
    }

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
    let exec = ExecOptions { policy, audit };

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
            return Err(usage(&format!("unknown class {other}")));
        }
    }
    Ok(())
}
