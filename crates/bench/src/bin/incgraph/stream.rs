//! `incgraph stream`: the sustained-stream SLO harness.

use crate::args::{self, durable_error, output_error, usage, write_file};
use crate::{CliError, ObsSetup};
use incgraph_durable::CrashPoint;

/// `incgraph stream`: the sustained-stream SLO harness
/// (see [`incgraph_bench::stream`] and docs/STREAMING.md). Replays the
/// temporal workload's timestamped history at a target rate against the
/// server's durable store with standing queries over every class (each
/// flush one client `UPDATE`), measures steady-state p50/p99/p999
/// update latency per class, optionally injects a kill to measure
/// recovery time, optionally ramps to find the throughput ceiling,
/// audits the WAL for exactly-once application of every ack, and writes
/// `results/STREAM_<date>.json` with a `--check-against` regression
/// gate. `--virtual-time` drives a deterministic virtual clock: the same
/// schedule ⇒ identical final store digest and accounting.
pub(crate) fn run_stream_cmd(argv: &[String], obs: &ObsSetup) -> Result<(), CliError> {
    use incgraph_bench::stream::{
        render_table, run_stream, stream_regressions, to_json, RampConfig, StreamConfig,
        StreamCrash, StreamError,
    };
    let scratch_store =
        std::env::temp_dir().join(format!("incgraph-stream-{}", std::process::id()));
    let mut cfg = StreamConfig::new(scratch_store.clone());
    let mut out: Option<String> = None;
    let mut check_against: Option<String> = None;
    let mut crash_at: Option<CrashPoint> = None;
    let mut kill_at = 0.5f64;
    args::parse(argv, |a, rest| {
        match a {
            "--store" => cfg.store = rest.value("--store needs a dir")?,
            "--virtual-time" => cfg.virtual_time = true,
            "--rate" => {
                cfg.rate_ops_s = rest.value_if("--rate needs a positive ops/sec", |&r| r > 0.0)?
            }
            "--flush-ops" => {
                cfg.flush_ops = rest.value_if("--flush-ops needs an integer >= 1", |&n| n >= 1)?
            }
            "--flush-ms" => {
                cfg.flush_wait_ms =
                    rest.value_if("--flush-ms needs a non-negative number", |&f| f >= 0.0)?
            }
            "--deadline-ms" => {
                cfg.deadline_ms =
                    rest.value_if("--deadline-ms needs a positive number", |&f| f > 0.0)?
            }
            "--max-lag-ms" => {
                cfg.max_lag_ms =
                    rest.value_if("--max-lag-ms needs a positive number", |&f| f > 0.0)?
            }
            "--scale" => {
                cfg.scale = rest.value_if("--scale needs a positive factor", |&f| f > 0.0)?
            }
            "--windows" => {
                cfg.windows = rest.value_if("--windows needs an integer >= 1", |&n| n >= 1)?
            }
            "--max-ops" => {
                cfg.max_ops = Some(rest.value_if("--max-ops needs an integer >= 1", |&n| n >= 1)?)
            }
            "--checkpoint-every" => {
                let n: u64 = rest.value("--checkpoint-every needs an integer (0 = off)")?;
                cfg.checkpoint_every = (n > 0).then_some(n);
            }
            "--crash-at" => {
                let name = rest.path("--crash-at needs a crash point name")?;
                crash_at = Some(
                    CrashPoint::parse(&name)
                        .ok_or_else(|| usage(&format!("unknown crash point `{name}`")))?,
                );
            }
            "--kill-at" => {
                kill_at = rest.value_if("--kill-at needs a fraction in [0, 1]", |f| {
                    (0.0..=1.0).contains(f)
                })?
            }
            "--ramp" => cfg.ramp = Some(RampConfig::default()),
            "--out" => out = Some(rest.path("--out needs a path")?),
            "--check-against" => check_against = Some(rest.path("--check-against needs a path")?),
            flag => return Err(usage(&format!("unknown stream flag {flag}"))),
        }
        Ok(())
    })?;
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
        StreamError::Refused(m) => CliError::Oracle(format!("stream store refused a flush: {m}")),
    })?;
    print!("{}", render_table(&report));
    let path = out.unwrap_or_else(|| format!("results/STREAM_{}.json", report.date));
    write_file(&path, to_json(&report))?;
    eprintln!("wrote {path}");
    if let Some(baseline_path) = &check_against {
        let baseline =
            std::fs::read_to_string(baseline_path).map_err(output_error(baseline_path))?;
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
