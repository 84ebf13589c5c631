//! The dataflow layer through the built binary: a one-shot `query
//! --plan` over a five-node path yields the expected count row, and two
//! fixed-seed `fuzz --dataflow` campaigns hold every oracle.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `incgraph args…` inside `dir` to completion, asserts exit 0 and
/// returns what it printed.
fn incgraph_ok(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_incgraph"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn incgraph");
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "incgraph {}:\n{text}",
        args.join(" ")
    );
    text.into_owned()
}

/// A scratch directory, removed when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "incgraph-cli-dataflow-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Distances from 0 on the path are 0, 2, 3, 7, 8: three are below 4, so
/// the count view holds the one row `0 3 1` (key, value, multiplicity).
#[test]
fn a_one_shot_plan_counts_the_near_nodes() {
    let s = Scratch::new("query");
    std::fs::write(s.0.join("g.txt"), "0 1 2\n1 2 1\n2 3 4\n3 4 1\n").unwrap();
    let plan = "d = sssp(source=0); near = filter(d, val < 4); n = count(near)";
    let args = [
        "query", "--plan", plan, "--graph", "g.txt", "--out", "view.txt",
    ];
    incgraph_ok(&s.0, &args);
    let view = std::fs::read_to_string(s.0.join("view.txt")).unwrap();
    assert!(view.lines().any(|l| l == "0 3 1"), "view.txt:\n{view}");
}

fn dataflow_campaign(seed: &str) {
    let args = [
        "fuzz",
        "--seed",
        seed,
        "--cases",
        "150",
        "--budget-secs",
        "60",
        "--dataflow",
        "--no-corpus",
    ];
    let printed = incgraph_ok(&std::env::temp_dir(), &args);
    assert!(printed.contains("all oracles held"), "{printed}");
}

#[test]
fn dataflow_campaign_seed_1() {
    dataflow_campaign("1");
}

#[test]
fn dataflow_campaign_seed_20260808() {
    dataflow_campaign("20260808");
}
