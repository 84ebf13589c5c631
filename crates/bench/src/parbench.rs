//! Engine benchmark suite: per-class batch and incremental timings and
//! the machine-readable `BENCH_<date>.json` report.
//!
//! The suite runs the five engine-backed classes (SSSP, CC, Reach, Sim,
//! LCC) on their dataset stand-ins and measures two numbers each: the
//! batch fixpoint from scratch and the incremental resume over a 1 % ΔG,
//! plus their ratio (what incrementalization buys). Shared by the
//! `incgraph bench` subcommand and its regression gate.

use crate::report::measure_stats;
use incgraph_algos::{CcState, IncrementalState, LccState, ReachState, SimState, SsspState};
use incgraph_graph::{AppliedBatch, DynamicGraph};
use incgraph_workloads::{random_batch_pct, random_pattern, sample_sources, Dataset};
use std::fmt::Write as _;

/// Maximum edge weight for the weighted (SSSP) workload.
const MAX_WEIGHT: u32 = 100;

/// |ΔG| as a percentage of |G| for the incremental measurements.
const DELTA_PCT: f64 = 1.0;

/// Timings for one query class, in nanoseconds per operation.
#[derive(Clone, Debug)]
pub struct ClassResult {
    /// Query class tag (`sssp`, `cc`, `reach`, `sim`, `lcc`).
    pub class: &'static str,
    /// Dataset stand-in tag (LJ, DP, ...).
    pub dataset: &'static str,
    /// Node count of the benchmarked graph.
    pub nodes: usize,
    /// Edge count of the benchmarked graph.
    pub edges: usize,
    /// Batch fixpoint from scratch (mean).
    pub batch_ns: f64,
    /// Incremental resume over a 1% ΔG (mean).
    pub inc_ns: f64,
    /// Fastest batch sample (noise floor, see [`measure_stats`]).
    pub batch_min_ns: f64,
    /// Fastest incremental sample — the bench-regression gate metric:
    /// mins shed scheduler noise that inflates the means of µs-scale
    /// measurements.
    pub inc_min_ns: f64,
}

impl ClassResult {
    /// Batch over incremental time (>1 means incrementalization pays).
    /// Computed from the fastest samples: scheduler hiccups only ever
    /// add time, so a ratio of mins estimates the true ratio while a
    /// ratio of means compounds the noise of both sides.
    pub fn inc_speedup(&self) -> f64 {
        self.batch_min_ns / self.inc_min_ns
    }
}

/// Measures one class: `batch` from scratch on the updated graph `g1`,
/// and the incremental update of a fresh `batch(g0)` state over `applied`.
fn measure_class<S: IncrementalState>(
    class: &'static str,
    dataset: Dataset,
    g0: &DynamicGraph,
    g1: &DynamicGraph,
    applied: &AppliedBatch,
    reps: usize,
    batch: impl Fn(&DynamicGraph) -> S,
) -> ClassResult {
    let (batch_mean, batch_min) = measure_stats(
        reps,
        || (),
        |_| {
            std::hint::black_box(batch(g1));
        },
    );
    let (inc_mean, inc_min) = measure_stats(
        reps,
        || batch(g0),
        |s| {
            s.update(g1, applied);
        },
    );
    ClassResult {
        class,
        dataset: dataset.tag(),
        nodes: g1.node_count(),
        edges: g1.edge_count(),
        batch_ns: batch_mean * 1e9,
        inc_ns: inc_mean * 1e9,
        batch_min_ns: batch_min * 1e9,
        inc_min_ns: inc_min * 1e9,
    }
}

/// Runs the five-class suite. `scale` multiplies the stand-in sizes
/// (1.0 = the DESIGN.md base; Sim and LCC use a reduced slice of it to
/// keep their heavier kernels in budget), `reps` is the repetition count
/// per measurement (setup excluded).
pub fn run_suite(scale: f64, reps: usize) -> Vec<ClassResult> {
    let updated = |g0: &DynamicGraph, max_weight: u32, seed: u64| {
        let mut g1 = g0.clone();
        let applied = random_batch_pct(g0, DELTA_PCT, max_weight, seed).apply(&mut g1);
        (g1, applied)
    };
    let mut out = Vec::new();

    // SSSP on the LiveJournal stand-in (directed, weighted).
    {
        let g0 = Dataset::LiveJournal.graph(true, scale);
        let (g1, applied) = updated(&g0, MAX_WEIGHT, 42);
        let src = sample_sources(&g0, 1, 7)[0];
        out.push(measure_class(
            "sssp",
            Dataset::LiveJournal,
            &g0,
            &g1,
            &applied,
            reps,
            |g| SsspState::batch(g, src).0,
        ));
    }

    // CC on the LiveJournal stand-in (undirected).
    {
        let g0 = Dataset::LiveJournal.graph(false, scale);
        let (g1, applied) = updated(&g0, 1, 43);
        out.push(measure_class(
            "cc",
            Dataset::LiveJournal,
            &g0,
            &g1,
            &applied,
            reps,
            |g| CcState::batch(g).0,
        ));
    }

    // Reach on the DBPedia stand-in (directed).
    {
        let g0 = Dataset::DbPedia.graph(true, scale);
        let (g1, applied) = updated(&g0, 1, 44);
        let src = sample_sources(&g0, 1, 9)[0];
        out.push(measure_class(
            "reach",
            Dataset::DbPedia,
            &g0,
            &g1,
            &applied,
            reps,
            |g| ReachState::batch(g, src).0,
        ));
    }

    // Sim on the DBPedia stand-in (directed, labeled; half scale — the
    // per-variable work is quadratic in pattern fan-in).
    {
        let g0 = Dataset::DbPedia.graph(true, scale * 0.5);
        let q = random_pattern(&g0, 4, 6, 11);
        let (g1, applied) = updated(&g0, 1, 45);
        out.push(measure_class(
            "sim",
            Dataset::DbPedia,
            &g0,
            &g1,
            &applied,
            reps,
            |g| SimState::batch(g, q.clone()).0,
        ));
    }

    // LCC on the LiveJournal stand-in (undirected; quarter scale — the
    // triangle kernel is O(Σ deg²)).
    {
        let g0 = Dataset::LiveJournal.graph(false, scale * 0.25);
        let (g1, applied) = updated(&g0, 1, 46);
        out.push(measure_class(
            "lcc",
            Dataset::LiveJournal,
            &g0,
            &g1,
            &applied,
            reps,
            |g| LccState::batch(g).0,
        ));
    }

    out
}

/// Renders the suite as an aligned text table (one row per class).
pub fn render_table(results: &[ClassResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:<4} {:>7} {:>8} {:>13} {:>13} {:>10}",
        "class", "data", "|V|", "|E|", "batch", "inc", "batch/inc"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:<6} {:<4} {:>7} {:>8} {:>13} {:>13} {:>9.1}x",
            r.class,
            r.dataset,
            r.nodes,
            r.edges,
            fmt_ns(r.batch_ns),
            fmt_ns(r.inc_ns),
            r.inc_speedup(),
        );
    }
    out
}

/// Human-readable nanoseconds (`1.23ms`, `456µs`, ...).
pub(crate) fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Where a datapoint was taken: a number is only comparable to another
/// recorded on the same cores, compiler and commit.
#[derive(Clone, Debug)]
pub struct HostInfo {
    /// `std::thread::available_parallelism` (0 if unknown).
    pub cores: usize,
    /// `rustc -V` of the toolchain on `PATH` at run time.
    pub rustc: String,
    /// `git describe --always --dirty` of the working directory: the
    /// full commit hash, suffixed `-dirty` when the tree the binary was
    /// presumably built from has uncommitted changes.
    pub commit: String,
}

impl HostInfo {
    /// Probes the host; fields that cannot be determined read `unknown`.
    pub fn probe() -> Self {
        let run = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
        };
        HostInfo {
            cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: run("rustc", &["-V"]),
            commit: run("git", &["describe", "--always", "--dirty", "--abbrev=40"]),
        }
    }
}

/// Serializes the suite as the `BENCH_<date>.json` document.
pub fn to_json(
    date: &str,
    host: &HostInfo,
    scale: f64,
    reps: usize,
    results: &[ClassResult],
) -> String {
    let num = |x: f64| {
        if x.is_finite() {
            format!("{x:.1}")
        } else {
            "null".to_string()
        }
    };
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"date\": \"{date}\",");
    let _ = writeln!(json, "  \"commit\": \"{}\",", host.commit);
    let _ = writeln!(json, "  \"rustc\": \"{}\",", host.rustc);
    let _ = writeln!(json, "  \"available_parallelism\": {},", host.cores);
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"samples\": {reps},");
    let _ = writeln!(json, "  \"delta_pct\": {DELTA_PCT},");
    json.push_str("  \"classes\": [");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    {{ \"class\": \"{}\", \"dataset\": \"{}\", \"nodes\": {}, \"edges\": {}, \
             \"batch_ns\": {}, \"inc_ns\": {}, \"batch_min_ns\": {}, \"inc_min_ns\": {}, \
             \"inc_speedup\": {:.3} }}",
            r.class,
            r.dataset,
            r.nodes,
            r.edges,
            num(r.batch_ns),
            num(r.inc_ns),
            num(r.batch_min_ns),
            num(r.inc_min_ns),
            r.inc_speedup(),
        );
    }
    json.push_str("\n  ]\n}\n");
    json
}

/// One baseline row the regression gate compares against:
/// `(class, inc_min_ns, batch_min_ns)`.
type BaselineRow = (String, f64, f64);

/// Extracts the gate rows from a BENCH json document. Handwritten scan —
/// the files are machine written one class-object per line, so no JSON
/// dependency is needed.
pub fn parse_baseline(json: &str) -> Vec<BaselineRow> {
    json.lines()
        .filter_map(|line| {
            let cls = field_str(line, "\"class\": \"")?;
            let inc = field_num(line, "\"inc_min_ns\": ")?;
            let batch = field_num(line, "\"batch_min_ns\": ")?;
            Some((cls.to_string(), inc, batch))
        })
        .collect()
}

pub(crate) fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(['"', ','])
        .unwrap_or_else(|| rest.trim_end().len());
    Some(&rest[..end])
}

pub(crate) fn field_num(line: &str, key: &str) -> Option<f64> {
    field_str(line, key)?
        .trim_end_matches([' ', '}'])
        .parse()
        .ok()
}

/// Compares fresh results against a committed baseline document and
/// returns one message per class whose incremental path regressed beyond
/// `threshold` (0.25 = 25% slower). Classes absent from the baseline are
/// ignored (new classes cannot fail the gate); a baseline with no rows at
/// all is itself a failure, so a document in a format this parser does
/// not read cannot pass vacuously.
///
/// The compared metric is the *ratio* of the fastest incremental
/// sample to the fastest batch sample, not raw nanoseconds: the batch
/// fixpoint exercises the same kernels on the same machine, so
/// dividing by it cancels host speed and lets one committed baseline
/// gate runs on arbitrary CI hardware. Mins rather than means for
/// both, because scheduler noise only ever adds time and a single
/// inflated sample would otherwise dominate a µs-scale mean.
pub fn regressions(baseline_json: &str, results: &[ClassResult], threshold: f64) -> Vec<String> {
    let baseline = parse_baseline(baseline_json);
    if baseline.is_empty() {
        return vec!["baseline has no `inc_min_ns`/`batch_min_ns` class rows".to_string()];
    }
    let mut out = Vec::new();
    for r in results {
        let Some((_, base_inc, base_batch)) = baseline.iter().find(|(c, _, _)| c == r.class) else {
            continue;
        };
        if *base_inc <= 0.0 || *base_batch <= 0.0 || r.batch_min_ns <= 0.0 {
            continue;
        }
        let base_ratio = base_inc / base_batch;
        let ratio = r.inc_min_ns / r.batch_min_ns;
        if ratio > base_ratio * (1.0 + threshold) {
            out.push(format!(
                "{}: inc/batch {:.5} (inc {} / batch {}) vs baseline {:.5} \
                 (+{:.0}%, limit +{:.0}%)",
                r.class,
                ratio,
                fmt_ns(r.inc_min_ns),
                fmt_ns(r.batch_min_ns),
                base_ratio,
                (ratio / base_ratio - 1.0) * 100.0,
                threshold * 100.0,
            ));
        }
    }
    out
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock (no external
/// date crates offline; civil-from-days per Howard Hinnant's algorithm).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Converts days since 1970-01-01 to a (year, month, day) civil date.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (yoe + era * 400 + i64::from(m <= 2), m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_round_trip_known_points() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year start
        assert_eq!(civil_from_days(19_782), (2024, 2, 29)); // leap day
        assert_eq!(civil_from_days(20_671), (2026, 8, 6));
    }

    fn sample_result(class: &'static str, inc_ns: f64) -> ClassResult {
        ClassResult {
            class,
            dataset: "LJ",
            nodes: 100,
            edges: 400,
            batch_ns: 2100.0,
            inc_ns,
            batch_min_ns: 2000.0,
            inc_min_ns: inc_ns,
        }
    }

    fn sample_host() -> HostInfo {
        HostInfo {
            cores: 2,
            rustc: "rustc 1.0.0".into(),
            commit: "abc123".into(),
        }
    }

    #[test]
    fn json_report_is_well_formed_and_round_trips_the_gate_rows() {
        let r = sample_result("sssp", 500.0);
        let json = to_json(
            "2026-08-06",
            &sample_host(),
            12.5,
            5,
            std::slice::from_ref(&r),
        );
        assert!(json.contains("\"available_parallelism\": 2"));
        assert!(json.contains("\"commit\": \"abc123\""));
        assert!(json.contains("\"scale\": 12.5"));
        assert!(json.contains("\"inc_speedup\": 4.000"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{json}");
        assert_eq!(
            parse_baseline(&json),
            vec![("sssp".to_string(), 500.0, 2000.0)]
        );
    }

    #[test]
    fn regression_gate_trips_only_past_threshold() {
        let baseline = to_json(
            "2026-08-08",
            &sample_host(),
            1.0,
            5,
            &[sample_result("sssp", 1000.0), sample_result("cc", 1000.0)],
        );
        let fresh = [
            sample_result("sssp", 1200.0), // +20%: inside the 25% budget
            sample_result("cc", 1300.0),   // +30%: regression
            sample_result("lcc", 9999.0),  // not in baseline: ignored
        ];
        let bad = regressions(&baseline, &fresh, 0.25);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("cc:"), "{bad:?}");
        // A document the parser reads no rows from must not pass.
        let bad = regressions("{ \"classes\": [] }", &fresh, 0.25);
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn suite_smoke_runs_tiny() {
        let results = run_suite(0.02, 1);
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(r.batch_ns > 0.0 && r.inc_ns > 0.0, "{r:?}");
        }
    }
}
