//! `incgraph bench --metrics --trace` through the built binary, at smoke
//! size: the metrics file carries the `incgraph-metrics/1` schema line,
//! an `update.guarded` histogram for each of the seven classes and the
//! durable commit's `wal.commit` row, and the trace file holds spans.

use std::path::PathBuf;
use std::process::Command;

/// A scratch directory, removed when the test ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn bench_metrics_follow_the_schema_and_cover_every_class() {
    let dir = std::env::temp_dir().join(format!("incgraph-cli-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let s = Scratch(dir);
    let out = Command::new(env!("CARGO_BIN_EXE_incgraph"))
        .args(["bench", "--scale", "0.05", "--out", "rec.json"])
        .args(["--metrics", "metrics.jsonl", "--trace", "trace.jsonl"])
        .env("INCGRAPH_BENCH_SAMPLES", "2")
        .current_dir(&s.0)
        .output()
        .expect("spawn incgraph");
    assert_eq!(
        out.status.code(),
        Some(0),
        "incgraph bench:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = std::fs::read_to_string(s.0.join("metrics.jsonl")).unwrap();
    let first = metrics.lines().next().unwrap_or_default();
    assert!(first.contains("incgraph-metrics/1"), "first line: {first}");
    for class in ["sssp", "cc", "sim", "reach", "lcc", "dfs", "bc"] {
        let hist = format!(r#""type":"hist","class":"{class}","name":"update.guarded""#);
        assert!(
            metrics.contains(&hist),
            "missing update.guarded histogram for {class}"
        );
    }
    assert!(
        metrics.contains(r#""name":"wal.commit""#),
        "no wal.commit row"
    );
    let trace = std::fs::read_to_string(s.0.join("trace.jsonl")).unwrap();
    assert!(trace.contains(r#""type":"span""#), "no span in the trace");
}
