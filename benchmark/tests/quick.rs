//! End to end: a `--quick` (N ÷ 20) run of all four workloads through
//! the real binary passes the correctness gate, in under a minute.

use incgraph_benchmark::report::Results;
use incgraph_benchmark::spec::{self, WORKLOADS};
use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn quick_suite_passes_the_correctness_gate() {
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["all", "--quick", "--seed", "2"])
        .output()
        .expect("benchmark binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\n{text}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "quick suite took {:?}",
        started.elapsed()
    );
    // One block per workload, each with every end-to-end metric, no failures.
    let blocks: Vec<&str> = text.split("== ").skip(1).collect();
    assert_eq!(blocks.len(), WORKLOADS.len());
    for (w, block) in WORKLOADS.iter().zip(blocks) {
        assert!(block.starts_with(w.name), "{block}");
        let r = Results::parse_text(block);
        assert!(
            r.attempted > 0 && r.failed == 0,
            "{}: {:?}",
            w.name,
            r.failures
        );
        for m in spec::end_to_end() {
            let v = r.get(&m.name).unwrap_or(0.0);
            assert!(v > 0.0, "{}: {} is {v}", w.name, m.name);
        }
        for m in ["shutdown_ms", "recover_ms", "store_bytes_per_unit"] {
            assert_eq!(r.get(m).is_some(), w.durable, "{}: {m}", w.name);
        }
        assert!(r.get("service.store.commit_us").unwrap_or(0.0) > 0.0);
    }
}
