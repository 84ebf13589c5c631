//! The oracle runs (`incgraph fuzz`, `incgraph replay`) and the one-shot
//! plan query (`incgraph query`).

use crate::args::{self, output_error, read_graph_file, read_updates_file, usage, write_out};
use crate::CliError;
use incgraph_graph::io::ParseError;
use incgraph_workloads::random_pattern;

/// `incgraph fuzz`: a differential-fuzzing campaign over generated
/// cases (see `crates/oracle`). Exit codes: 0 = campaign met its goal,
/// 1 = a real divergence was found (clean mode) or the injected fault
/// escaped the oracles (`--inject-fault` mode).
pub(crate) fn run_fuzz(argv: &[String]) -> Result<(), CliError> {
    use incgraph_oracle::{fuzz, Fault, FuzzConfig};
    let mut cfg = FuzzConfig::new(1, 100);
    cfg.corpus_dir = Some(std::path::PathBuf::from("tests/corpus"));
    args::parse(argv, |a, rest| {
        match a {
            "--seed" => cfg.seed = rest.value("--seed needs an integer")?,
            "--cases" => {
                cfg.cases = rest.value_if("--cases needs an integer ≥ 1", |&n| n >= 1)?
            }
            "--budget-secs" => {
                let secs = rest.value_if("--budget-secs needs a positive number", |&s| s > 0.0)?;
                cfg.time_budget = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--inject-fault" => {
                let name = rest.path("--inject-fault needs a fault name")?;
                cfg.inject_fault = Some(
                    Fault::from_name(&name)
                        .ok_or_else(|| usage(&format!("unknown fault `{name}`")))?,
                );
            }
            "--corpus" => cfg.corpus_dir = Some(rest.value("--corpus needs a dir")?),
            "--no-corpus" => cfg.corpus_dir = None,
            "--crash" => cfg.crash = true,
            "--coalesce" => cfg.coalesce = true,
            "--dataflow" => cfg.dataflow = true,
            "--max-nodes" => {
                cfg.gen.max_nodes =
                    rest.value_if("--max-nodes needs an integer ≥ 6", |&n| n >= 6)?
            }
            flag => return Err(usage(&format!("unknown fuzz flag {flag}"))),
        }
        Ok(())
    })?;
    // Create the corpus directory up front so a campaign that finds a
    // failure hours in cannot lose its reproducer to a missing dir.
    if let Some(dir) = &cfg.corpus_dir {
        std::fs::create_dir_all(dir).map_err(output_error(&dir.display().to_string()))?;
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
pub(crate) fn run_query(argv: &[String]) -> Result<(), CliError> {
    use incgraph_dataflow::{eval_once, PlanContext, PLAN_GRAMMAR};
    let mut plan: Option<String> = None;
    let mut graph = String::new();
    let mut updates: Option<String> = None;
    let mut directed = false;
    let mut pattern_seed = 42u64;
    let mut out: Option<String> = None;
    args::parse(argv, |a, rest| {
        match a {
            "--plan" => plan = Some(rest.path("--plan needs a program")?),
            "--graph" => graph = rest.path("--graph needs a path")?,
            "--updates" => updates = Some(rest.path("--updates needs a path")?),
            "--directed" => directed = true,
            "--pattern-seed" => pattern_seed = rest.value("--pattern-seed needs an integer")?,
            "--out" => out = Some(rest.path("--out needs a path")?),
            flag => return Err(usage(&format!("unknown query flag {flag}"))),
        }
        Ok(())
    })?;
    let plan = plan.ok_or_else(|| usage("query needs --plan '<program>'"))?;
    if graph.is_empty() {
        return Err(usage("query needs --graph G.txt"));
    }
    let mut g = read_graph_file(&graph, directed)?;
    if let Some(p) = &updates {
        read_updates_file(p)?.apply(&mut g);
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
pub(crate) fn run_replay(argv: &[String]) -> Result<(), CliError> {
    use incgraph_oracle::{run_case, Case};
    if argv.is_empty() {
        return Err(usage("replay needs case files or directories"));
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
