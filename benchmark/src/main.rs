//! `benchmark`: the command line of the repo benchmark.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1    one workload (the driver's form;
//!                                                            without --seconds, its fixed op count)
//! benchmark all   [--seed N] [--quick]                       every workload, results file
//! benchmark aa    [--seed N] [--quick]                       every workload twice, compared
//! benchmark trace W [--seed N] [--quick]                     the traced replay alone
//! benchmark manifest                                         BENCHMARK.json on stdout
//! ```

use incgraph_benchmark::replay::{replay, ReplayOptions};
use incgraph_benchmark::report::{self, Provenance, Results};
use incgraph_benchmark::run::{wire_run, BenchResult, Limit, RunOptions};
use incgraph_benchmark::spec::{self, Better, Workload, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str =
    "usage: benchmark [all|aa|trace <workload>|manifest] [--workload W] [--seed N] \
[--seconds S] [--trace 0|1] [--quick]";

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
        }
        match a.as_str() {
            "--workload" => args.workload = Some(value(a)?),
            "--seed" => args.seed = num(a, value(a)?)?,
            "--seconds" => args.seconds = Some(num(a, value(a)?)?),
            "--trace" => args.trace = num::<u8>(a, value(a)?)? != 0,
            "--quick" => args.quick = true,
            "all" | "aa" | "manifest" if args.command.is_none() => args.command = Some(a.clone()),
            "trace" if args.command.is_none() => {
                args.command = Some(a.clone());
                args.workload = Some(value(a)?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn workload(args: &Args) -> Result<Workload, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    Workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })
}

fn spans_path(w: &Workload) -> std::path::PathBuf {
    report::results_dir().join(format!("{}.{}.spans.jsonl", report::git_commit().0, w.name))
}

fn replay_options(w: Workload, args: &Args) -> ReplayOptions {
    ReplayOptions {
        workload: w,
        seed: args.seed,
        ops: w.replay_ops(args.quick),
        // A --quick run is a smoke test; it leaves no files behind.
        spans_path: (!args.quick).then(|| spans_path(&w)),
    }
}

/// One workload in this process: the untraced wire run, then (with
/// `--trace 1`) the traced replay. Prints every metric it measured and,
/// last, the driver's JSON line.
fn run_single(args: &Args) -> BenchResult<ExitCode> {
    let w = workload(args)?;
    let limit = match args.seconds {
        Some(s) => Limit::Seconds(s),
        None => Limit::Ops(w.ops(args.quick)),
    };
    let started = Instant::now();
    let mut results = wire_run(&RunOptions {
        workload: w,
        seed: args.seed,
        limit,
        rigs: if args.quick { 1 } else { spec::SETUPS_PER_RUN },
    })?;
    if args.trace {
        results.merge(replay(&replay_options(w, args))?);
        if let (Some(ack), Some(commit)) = (
            results.get("ack_p50_us"),
            results.get("service.store.commit_us"),
        ) {
            results.set_value("service.server.wire_overhead_us", ack - commit);
        }
    }
    results
        .info
        .insert("wall_s".into(), started.elapsed().as_secs_f64());
    println!("workload {} seed {}", w.name, args.seed);
    print!("{}", results.to_text());
    let names = if args.trace {
        spec::trace_metrics()
    } else {
        spec::end_to_end()
    };
    println!("{}", results.driver_json(&names));
    Ok(exit_code(results.failed == 0))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_trace(args: &Args) -> BenchResult<ExitCode> {
    let w = workload(args)?;
    let results = replay(&replay_options(w, args))?;
    println!(
        "workload {} seed {} (traced replay only)",
        w.name, args.seed
    );
    print!("{}", results.to_text());
    Ok(exit_code(results.failed == 0))
}

/// Runs one workload, wire run and traced replay, in a child process of
/// its own so that `peak_rss_mb` and the process-global obs recorder are
/// per workload.
fn run_child(w: &Workload, args: &Args) -> BenchResult<Results> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", w.name, "--trace", "1"])
        .args(["--seed", &args.seed.to_string()])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.spawn()?.wait_with_output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    let mut results = Results::parse_text(&text);
    if results.attempted == 0 {
        // The child died before it could report: count the workload as failed.
        results.attempted = 1;
        results.fail(format!(
            "{} exited with {} and no result",
            w.name, out.status
        ));
    }
    Ok(results)
}

fn run_all(args: &Args) -> BenchResult<ExitCode> {
    let mut runs = Vec::new();
    for w in WORKLOADS {
        println!("== {}", w.name);
        runs.push((w.name.to_string(), run_child(&w, args)?));
    }
    if !args.quick {
        let prov = Provenance::collect(args.seed, args.quick);
        let path = report::results_dir().join(format!("{}.json", prov.commit));
        std::fs::create_dir_all(report::results_dir())?;
        std::fs::write(&path, report::results_json(&prov, &runs))?;
        println!("wrote {}", path.display());
    }
    Ok(exit_code(runs.iter().all(|(_, r)| r.failed == 0)))
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// A/A: every workload twice on the same code and seed, the two runs of
/// a workload back to back so that the host has the least time to change
/// between them. Every bounded metric must agree within its bound in both
/// directions, every count-valued metric exactly, and nothing may fail.
fn run_aa(args: &Args) -> BenchResult<ExitCode> {
    let mut ok = true;
    let all: Vec<_> = spec::end_to_end()
        .into_iter()
        .chain(spec::trace_metrics())
        .collect();
    for w in WORKLOADS {
        println!("== {} (first)", w.name);
        let a = run_child(&w, args)?;
        println!("== {} (second)", w.name);
        let b = run_child(&w, args)?;
        println!("== A/A {}", w.name);
        if a.failed + b.failed > 0 {
            println!("FAIL  {} + {} failed ops or checks", a.failed, b.failed);
            ok = false;
        }
        for m in &all {
            let (Some(x), Some(y)) = (a.get(&m.name), b.get(&m.name)) else {
                continue;
            };
            let bound = m.bound;
            let diff = worse_by(m.better, x, y);
            let verdict = match bound {
                _ if m.exact && x != y => "FAIL (count differs)",
                Some(b) if diff.abs() > b => "FAIL",
                Some(_) => "ok",
                None if m.exact => "ok (exact)",
                None => continue,
            };
            ok &= !verdict.starts_with("FAIL");
            println!(
                "{verdict:<5} {:<28} {} -> {} {}  {:+.2}% of bound {}",
                m.name,
                report::num(x),
                report::num(y),
                m.unit,
                diff * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            );
        }
    }
    println!("{}", if ok { "A/A holds" } else { "A/A violated" });
    Ok(exit_code(ok))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_deref() {
        Some("manifest") => {
            print!("{}", spec::manifest_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("all") => run_all(&args),
        Some("aa") => run_aa(&args),
        Some("trace") => run_trace(&args),
        _ => run_single(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::FAILURE
    })
}
