//! `incgraph stream` driven through the built binary: a kill at each
//! crash point mid-replay, and a whole history in one flush.
//!
//! The kill runs use the smoke flags of the committed
//! `results/STREAM_SMOKE.json` baseline. Each must exit 0, record a
//! numeric `rto_ms` in its `--out` report, and end on the clean run's
//! digest: the store reopened, passed the exactly-once audit and took
//! the interrupted flush's retry.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The smoke flags the kill runs share with the committed baseline.
const SMOKE: [&str; 9] = [
    "--virtual-time",
    "--scale",
    "0.05",
    "--max-ops",
    "400",
    "--flush-ops",
    "16",
    "--checkpoint-every",
    "8",
];

/// A scratch directory the reports are written into, removed when the
/// test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("incgraph-cli-stream-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    /// Runs `incgraph stream args… --out out` inside the scratch dir,
    /// asserts it exits 0 and returns the report.
    fn stream(&self, args: &[&str], out: &str) -> String {
        let run = Command::new(env!("CARGO_BIN_EXE_incgraph"))
            .arg("stream")
            .args(args)
            .args(["--out", out])
            .env_remove("DURABLE_CRASH_AT")
            .current_dir(&self.0)
            .output()
            .expect("spawn incgraph");
        assert_eq!(
            run.status.code(),
            Some(0),
            "incgraph stream {args:?} failed:\n{}",
            String::from_utf8_lossy(&run.stderr)
        );
        std::fs::read_to_string(self.path().join(out)).unwrap()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The raw value of the top-level `"key": value` line of a report.
fn field<'a>(report: &'a str, key: &str) -> &'a str {
    let prefix = format!("\"{key}\": ");
    report
        .lines()
        .find_map(|l| l.trim().strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("no {key} in the report:\n{report}"))
        .trim_end_matches(',')
}

#[test]
fn kill_at_every_crash_point_keeps_the_clean_digest() {
    let s = Scratch::new("kill");
    let clean = s.stream(&SMOKE, "clean.json");
    assert_eq!(field(&clean, "rto_ms"), "null");
    let digest = field(&clean, "digest");
    for point in ["pre-fsync", "post-fsync", "mid-checkpoint", "post-rename"] {
        let args: Vec<&str> = SMOKE.iter().copied().chain(["--crash-at", point]).collect();
        let report = s.stream(&args, &format!("stream-{point}.json"));
        let rto = field(&report, "rto_ms");
        assert!(
            rto.parse::<f64>().is_ok(),
            "{point}: no RTO recorded (rto_ms {rto})"
        );
        assert_eq!(
            field(&report, "digest"),
            digest,
            "{point}: a killed run must end on the clean run's store"
        );
    }
}

#[test]
fn a_whole_history_fits_one_flush() {
    let s = Scratch::new("one-flush");
    let report = s.stream(
        &[
            "--virtual-time",
            "--scale",
            "0.5",
            "--flush-ops",
            "100000",
            "--flush-ms",
            "1000000",
            "--checkpoint-every",
            "0",
        ],
        "one.json",
    );
    assert_eq!(field(&report, "batches"), "1");
}
