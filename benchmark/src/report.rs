//! Results: the metric table one run fills, its `name value unit` text
//! form (which `all` and `aa` read back from their child processes), the
//! driver's one-line JSON, and the `results/<commit>.json` baseline file
//! with its provenance block.

use crate::spec::{self, MetricSpec};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where result files go: `benchmark/results/`.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Everything one workload run measured.
#[derive(Clone, Debug, Default)]
pub struct Results {
    /// Metric name → value with its per-segment spread.
    pub values: BTreeMap<String, Summary>,
    /// Ops sent (warm-up and timed) plus correctness checks made.
    pub attempted: u64,
    /// Ops that ended in `BUSY` after the retry budget, `ERR`, a timeout,
    /// plus correctness checks that failed.
    pub failed: u64,
    /// One line per failure, for the human reading the output.
    pub failures: Vec<String>,
    /// Run facts that are not metrics: `nodes`, `edges`, `ops`, `wall_s`, ….
    pub info: BTreeMap<String, f64>,
}

impl Results {
    /// Records a metric with its spread.
    pub fn set(&mut self, name: &str, summary: Summary) {
        debug_assert!(spec::metric(name).is_some(), "unknown metric {name}");
        self.values.insert(name.to_string(), summary);
    }

    /// Records a metric measured once.
    pub fn set_value(&mut self, name: &str, value: f64) {
        self.set(name, Summary::single(value));
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|s| s.value)
    }

    /// Counts one correctness check; `problem` describes a failed one.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Counts one failure against an already-counted attempt.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.failures.push(problem);
    }

    /// `failed ÷ attempted`.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Folds another phase's results (the traced replay's) into this one.
    pub fn merge(&mut self, other: Results) {
        self.values.extend(other.values);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.info.extend(other.info);
    }

    /// The text form: `# key value` facts, then `name value unit [ min ..
    /// max ]` for every recorded metric in `spec` order, then the failure
    /// tally. [`parse_text`](Self::parse_text) reads it back.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.info {
            writeln!(s, "# {k} {v}").expect("String write");
        }
        let specs = spec::end_to_end().into_iter().chain(spec::trace_metrics());
        for m in specs {
            if let Some(v) = self.values.get(&m.name) {
                writeln!(
                    s,
                    "{} {} {} [ {} .. {} ]",
                    m.name,
                    num(v.value),
                    m.unit,
                    num(v.min),
                    num(v.max)
                )
                .expect("String write");
            }
        }
        writeln!(
            s,
            "failed_share {} share ({} of {})",
            num(self.failed_share()),
            self.failed,
            self.attempted
        )
        .expect("String write");
        for f in &self.failures {
            writeln!(s, "! {f}").expect("String write");
        }
        s
    }

    /// Inverse of [`to_text`](Self::to_text); lines it does not know are
    /// skipped, so a child's other output does not disturb it.
    pub fn parse_text(text: &str) -> Results {
        let mut r = Results::default();
        for line in text.lines() {
            let t: Vec<&str> = line.split_whitespace().collect();
            match t.as_slice() {
                ["#", key, value] => {
                    if let Ok(v) = value.parse() {
                        r.info.insert(key.to_string(), v);
                    }
                }
                ["failed_share", _, "share", failed, "of", attempted] => {
                    r.failed = failed.trim_start_matches('(').parse().unwrap_or(0);
                    r.attempted = attempted.trim_end_matches(')').parse().unwrap_or(0);
                }
                ["!", ..] => r.failures.push(line[1..].trim().to_string()),
                [name, value, _unit, "[", min, "..", max, "]"] if spec::metric(name).is_some() => {
                    if let (Ok(value), Ok(min), Ok(max)) = (value.parse(), min.parse(), max.parse())
                    {
                        r.values
                            .insert(name.to_string(), Summary { value, min, max });
                    }
                }
                _ => {}
            }
        }
        r
    }

    /// The driver's result line: `correct`, `attempted`, `failed` and the
    /// `metrics` of exactly `names` (0 for one this workload never fills).
    pub fn driver_json(&self, names: &[MetricSpec]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in names.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(self.get(&m.name).unwrap_or(0.0)),
                m.unit
            )
            .expect("String write");
        }
        s.push_str("}}");
        s
    }
}

/// A JSON-safe number with all its digits (non-finite values become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn tool_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Short hash of the checked-out commit, and whether the working tree
/// differs from it; `("unknown", false)` outside a git checkout.
pub fn git_commit() -> (String, bool) {
    match tool_line("git", &["rev-parse", "--short=12", "HEAD"]) {
        Some(hash) if !hash.is_empty() => {
            let dirty = tool_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            (hash, dirty)
        }
        _ => ("unknown".to_string(), false),
    }
}

/// Facts a number is meaningless without.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// [`git_commit`]: the hash the numbers were measured on top of.
    pub commit: String,
    /// Whether the tree had changes on top of `commit` (the commit that
    /// adds or edits the benchmark measures itself this way).
    pub dirty: bool,
    /// `rustc -V`.
    pub rustc: String,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Workload seed.
    pub seed: u64,
    /// [`spec::N_SCALE`], times 1/20 for a `--quick` run.
    pub n_scale: f64,
}

impl Provenance {
    /// Collects the provenance of a run started now.
    pub fn collect(seed: u64, quick: bool) -> Provenance {
        let (commit, dirty) = git_commit();
        Provenance {
            commit,
            dirty,
            rustc: tool_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            seed,
            n_scale: spec::N_SCALE / if quick { 20.0 } else { 1.0 },
        }
    }
}

fn metric_block(s: &mut String, r: &Results, specs: &[MetricSpec], with_bound: bool) {
    let mut first = true;
    for m in specs {
        let Some(v) = r.values.get(&m.name) else {
            continue;
        };
        if !first {
            s.push_str(",\n");
        }
        first = false;
        write!(
            s,
            "        \"{}\": {{\"value\": {}, \"min\": {}, \"max\": {}, \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            num(v.value),
            num(v.min),
            num(v.max),
            m.unit,
            m.better.name()
        )
        .expect("String write");
        if let (true, Some(b)) = (with_bound, m.bound) {
            write!(s, ", \"bound\": {b}").expect("String write");
        }
        s.push('}');
    }
    s.push('\n');
}

/// Renders the result file of one `all` run.
pub fn results_json(prov: &Provenance, runs: &[(String, Results)]) -> String {
    let mut s = String::from("{\n  \"schema\": \"incgraph-benchmark/1\",\n");
    writeln!(
        s,
        "  \"provenance\": {{\"commit\": \"{}\", \"dirty\": {}, \"rustc\": \"{}\", \
         \"available_parallelism\": {}, \"seed\": {}, \"n_scale\": {}}},",
        prov.commit,
        prov.dirty,
        prov.rustc,
        prov.available_parallelism,
        prov.seed,
        num(prov.n_scale)
    )
    .expect("String write");
    s.push_str("  \"workloads\": {\n");
    for (i, (name, r)) in runs.iter().enumerate() {
        writeln!(s, "    \"{name}\": {{").expect("String write");
        for (k, v) in &r.info {
            writeln!(s, "      \"{k}\": {},", num(*v)).expect("String write");
        }
        writeln!(
            s,
            "      \"attempted\": {}, \"failed\": {}, \"failed_share\": {},",
            r.attempted,
            r.failed,
            num(r.failed_share())
        )
        .expect("String write");
        let mut e2e = spec::end_to_end();
        e2e.extend(spec::demoted());
        s.push_str("      \"end_to_end\": {\n");
        metric_block(&mut s, r, &e2e, true);
        s.push_str("      },\n      \"per_layer\": {\n");
        metric_block(&mut s, r, &spec::per_layer(), false);
        s.push_str("      }\n    }");
        s.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    s.push_str("  }\n}\n");
    s
}
