//! End-to-end durability acceptance: kill-and-recover at every injection
//! point must yield state value-identical to the uninterrupted run, for
//! all seven query classes.
//!
//! This is the top of the stack: the full durable pipeline (transactional
//! ΔG validation → WAL append + fsync → incremental state update →
//! periodic checkpoints) is killed at each of the four crash points of
//! every schedule round, recovered from disk through the checkpoint +
//! WAL-replay ladder, and compared essence-for-essence (values *and*
//! timestamps) against a run that was never interrupted. Determinism is
//! what makes this a hard equality rather than a plausibility check —
//! the paper's algorithms admit exactly one correct world per history.
//!
//! Beneath it, the WAL scanner's longest-valid-prefix properties
//! (`crates/durable/tests/prop_wal.rs`) are pulled in by path so that
//! tier-1 runs them too.

#[path = "../crates/durable/tests/prop_wal.rs"]
mod prop_wal;

use incgraph_graph::{Pattern, UpdateBatch};
use incgraph_oracle::{gen_case, run_crash_case, Case, ClassId, GenConfig};

/// An undirected case exercising all seven classes, including the
/// timestamped (weakly deducible) ones, with both inserts and deletes.
fn all_classes_case() -> Case {
    let mut b1 = UpdateBatch::new();
    b1.insert(0, 5, 2).delete(1, 2);
    let mut b2 = UpdateBatch::new();
    b2.insert(2, 6, 1).insert(6, 0, 3);
    let mut b3 = UpdateBatch::new();
    b3.delete(0, 5).insert(1, 2, 4).delete(3, 4);
    let mut b4 = UpdateBatch::new();
    b4.insert(3, 4, 1).insert(5, 7, 2);
    Case {
        seed: 0xD07,
        directed: false,
        nodes: 8,
        labels: Some(vec![0, 1, 0, 1, 0, 1, 0, 1]),
        edges: vec![
            (0, 1, 1),
            (1, 2, 2),
            (2, 3, 1),
            (3, 4, 2),
            (4, 5, 1),
            (5, 6, 2),
            (6, 7, 1),
        ],
        schedule: vec![b1, b2, b3, b4],
        classes: ClassId::ALL.to_vec(),
        source: 0,
        pattern: Some(Pattern::new(vec![0, 1], &[(0, 1)])),
        fault: None,
        crash_at: None,
        coalesce: false,
        plan: None,
    }
}

#[test]
fn every_injection_point_recovers_value_identical_for_all_seven_classes() {
    let case = all_classes_case();
    assert_eq!(case.classes.len(), 7, "the sweep must cover every class");
    let outcome = run_crash_case(&case);
    assert!(
        outcome.passed(),
        "durability violation: {}",
        outcome.failure.unwrap()
    );
    // 4 rounds × 4 injection points, every batch valid.
    assert_eq!(outcome.recoveries, 16);
    assert!(
        outcome.checks >= 16 * 9,
        "seq + edges + 7 essences per cycle"
    );
}

#[test]
fn generated_directed_cases_survive_the_sweep() {
    // Directed topologies drop the undirected-only classes but stress the
    // timestamped ones under generator-shaped (random, effective) ΔG.
    let cfg = GenConfig {
        max_nodes: 16,
        max_batches: 4,
        max_batch_ops: 4,
    };
    let mut swept = 0;
    for seed in 0..12u64 {
        let case = gen_case(seed, &cfg);
        if !case.directed {
            continue;
        }
        let outcome = run_crash_case(&case);
        assert!(
            outcome.passed(),
            "seed {seed}: {}",
            outcome.failure.unwrap()
        );
        swept += 1;
        if swept == 2 {
            break;
        }
    }
    assert!(swept > 0, "no directed case among the first dozen seeds");
}
