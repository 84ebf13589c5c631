//! `incgraph chaos` through the built binary: a bounded restart run with
//! three kills audits clean (exit 0), and a second run on the same store
//! is refused before any server starts (usage error, exit 2) rather than
//! audited into a false violation.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory, removed when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("incgraph-cli-chaos-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `incgraph args…` inside `dir` to completion.
fn incgraph(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_incgraph"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn incgraph")
}

#[test]
fn a_bounded_chaos_run_audits_clean_and_a_rerun_on_its_store_is_refused() {
    let s = Scratch::new("smoke");
    let run = ["chaos", "--store", "chaosdb", "--seed", "1"];
    let bounded = [
        &run[..],
        &["--clients", "5", "--batches", "8", "--kills", "3"],
    ]
    .concat();
    let out = incgraph(s.path(), &bounded);
    assert_eq!(
        out.status.code(),
        Some(0),
        "chaos run failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let again = incgraph(s.path(), &run);
    assert_eq!(
        again.status.code(),
        Some(2),
        "a second run on the same store:\n{}",
        String::from_utf8_lossy(&again.stderr)
    );
}
