//! The crash-recovery oracle: kill the durable pipeline at every
//! injection point, recover from disk, and demand value-identity with an
//! uninterrupted run.
//!
//! Durability turns the paper's determinism into a testable contract.
//! Every algorithm here is a deterministic function of (essence, graph,
//! ΔG), so for any prefix of a case's schedule there is exactly one
//! correct world — and recovery must land on it bit-for-bit, no matter
//! where the process died:
//!
//! * crash **before** the WAL fsync of batch `r` → recovery must produce
//!   the world after `r` batches (the in-flight one was never committed);
//! * crash **after** the fsync → the world after `r + 1` batches (it was
//!   committed, so losing it would be data loss);
//! * crash **mid-checkpoint** or **between checkpoint rename and manifest
//!   update** → the world is unchanged by the failed/unannounced
//!   checkpoint and recovery still replays to the full logged history.
//!
//! [`run_crash_case`] sweeps `every round × every injection point` of a
//! [`Case`], comparing the recovered states' `SaveState` essences — the
//! strictest equality available, covering values, timestamps, and the
//! logical clock of the weakly deducible classes — plus the recovered
//! graph's edge set against an uninterrupted in-memory reference. A
//! mid-prefix checkpoint is taken on longer histories so recovery
//! exercises the checkpoint-plus-WAL-suffix path, not just full replay.

use crate::case::Case;
use incgraph_algos::{IncrementalState, QueryClass, Session};
use incgraph_durable::{
    recover, update_states, CrashPoint, DurableError, DurableOptions, DurableSession,
};
use incgraph_graph::{DynamicGraph, NodeId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// One crash-recovery violation.
#[derive(Clone, Debug)]
pub struct CrashFailure {
    /// Schedule round the crash was injected at (0-based).
    pub round: usize,
    /// The injection point.
    pub point: CrashPoint,
    /// Human-readable detail (which class/essence diverged, …).
    pub detail: String,
}

impl std::fmt::Display for CrashFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash-recovery oracle failed at round {} point {}: {}",
            self.round, self.point, self.detail
        )
    }
}

/// Outcome of one crash-recovery sweep.
#[derive(Debug)]
pub struct CrashOutcome {
    /// Kill-and-recover cycles performed.
    pub recoveries: u64,
    /// Individual equality checks performed.
    pub checks: u64,
    /// First violation, if any.
    pub failure: Option<CrashFailure>,
}

impl CrashOutcome {
    /// Whether every recovery was value-identical.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Clamps an out-of-range source to node 0 (mirrors the runner).
fn clamp_source(source: NodeId, nodes: usize) -> NodeId {
    if (source as usize) < nodes {
        source
    } else {
        0
    }
}

/// Fresh sequential batch states for the case's classes, in case order —
/// one [`Session::builder`] call per class instead of a local seven-way
/// `match`. The durable store stops their journals when it takes them,
/// so the pre-crash store and a recovered one run the same code.
fn build_states(case: &Case, g: &DynamicGraph, source: NodeId) -> Vec<Session> {
    case.classes
        .iter()
        .map(|&c| {
            let mut builder = Session::builder(c);
            if c.source_rooted() {
                builder = builder.source(source);
            }
            if c == QueryClass::Sim {
                let p = case.pattern.as_ref().expect("sim case without a pattern");
                builder = builder.pattern(p.clone());
            }
            builder.build(g).expect("session build")
        })
        .collect()
}

fn essences(states: &[Session]) -> Vec<Vec<u8>> {
    states.iter().map(|s| s.save_state()).collect()
}

fn sorted_edges(g: &DynamicGraph) -> Vec<(NodeId, NodeId, u32)> {
    let mut e: Vec<_> = g.edges().collect();
    e.sort_unstable();
    e
}

/// The uninterrupted reference: world snapshots after every prefix of the
/// schedule, computed through the exact pipeline the durable session
/// replays (`apply_validated` + [`update_states`]), so netting and
/// fallback decisions are identical on both sides.
struct Reference {
    /// `essences[k]` = per-state essence after `k` *valid* batches.
    essences: Vec<Vec<Vec<u8>>>,
    /// `edges[k]` = sorted edge set after `k` batches.
    edges: Vec<Vec<(NodeId, NodeId, u32)>>,
    /// `valid[r]` = whether schedule batch `r` passed validation (invalid
    /// batches are rejected before logging, on both sides).
    valid: Vec<bool>,
    /// `committed[k]` = number of valid batches among the first `k`.
    committed: Vec<u64>,
}

fn build_reference(case: &Case) -> Reference {
    let mut g = case.build_graph();
    let source = clamp_source(case.source, case.nodes);
    let mut states = build_states(case, &g, source);
    let mut reference = Reference {
        essences: vec![essences(&states)],
        edges: vec![sorted_edges(&g)],
        valid: Vec::with_capacity(case.schedule.len()),
        committed: vec![0],
    };
    let mut committed = 0u64;
    for batch in &case.schedule {
        match batch.apply_validated(&mut g) {
            Ok(applied) => {
                update_states(&mut states, &g, &applied);
                committed += 1;
                reference.valid.push(true);
            }
            Err(_) => reference.valid.push(false),
        }
        reference.essences.push(essences(&states));
        reference.edges.push(sorted_edges(&g));
        reference.committed.push(committed);
    }
    reference
}

static SCRATCH_ID: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(round: usize, point: CrashPoint) -> PathBuf {
    std::env::temp_dir().join(format!(
        "incgraph-crash-{}-{}-r{round}-{point}",
        std::process::id(),
        SCRATCH_ID.fetch_add(1, Ordering::Relaxed),
    ))
}

/// Sweeps kill-and-recover over the case's schedule: for every round `r`
/// and every injection point (or just `case.crash_at` when set), build a
/// durable session, apply `r` batches cleanly — taking a real checkpoint
/// halfway so recovery exercises suffix replay — inject the crash,
/// recover, and compare the recovered world against the uninterrupted
/// reference at the expected prefix length. Stops at the first violation.
pub fn run_crash_case(case: &Case) -> CrashOutcome {
    let options = DurableOptions::default();
    let reference = build_reference(case);
    let points: Vec<CrashPoint> = match case.crash_at {
        Some(p) => vec![p],
        None => CrashPoint::ALL.to_vec(),
    };
    let source = clamp_source(case.source, case.nodes);
    let mut out = CrashOutcome {
        recoveries: 0,
        checks: 0,
        failure: None,
    };

    for round in 0..case.schedule.len() {
        for &point in &points {
            // WAL points crash *inside* the apply of batch `round`; a
            // batch that fails validation never reaches the log, so the
            // injection would not fire — skip the combination.
            if point.is_wal_point() && !reference.valid[round] {
                continue;
            }
            let dir = scratch_dir(round, point);
            let _ = std::fs::remove_dir_all(&dir);
            let g0 = case.build_graph();
            let states = build_states(case, &g0, source);
            let mut session = match DurableSession::create(&dir, g0, states, options.clone()) {
                Ok(s) => s,
                Err(e) => {
                    out.failure = Some(CrashFailure {
                        round,
                        point,
                        detail: format!("session create failed: {e}"),
                    });
                    return out;
                }
            };
            // Clean prefix, with a real checkpoint halfway through so the
            // recovery under test starts from it and replays the suffix.
            let mut failed = None;
            for (i, batch) in case.schedule[..round].iter().enumerate() {
                match session.apply(batch) {
                    Ok(_) | Err(DurableError::InvalidBatch(_)) => {}
                    Err(e) => {
                        failed = Some(format!("prefix apply {i} failed: {e}"));
                        break;
                    }
                }
                if round > 1 && i == round / 2 {
                    if let Err(e) = session.checkpoint() {
                        failed = Some(format!("mid-prefix checkpoint failed: {e}"));
                        break;
                    }
                }
            }
            if let Some(detail) = failed {
                out.failure = Some(CrashFailure {
                    round,
                    point,
                    detail,
                });
                let _ = std::fs::remove_dir_all(&dir);
                return out;
            }

            // The killing blow.
            session.arm_crash(Some(point));
            let crash_result = if point.is_wal_point() {
                session.apply(&case.schedule[round]).map(|_| ())
            } else {
                session.checkpoint().map(|_| ())
            };
            match crash_result {
                Err(DurableError::InjectedCrash(p)) if p == point => {}
                other => {
                    out.failure = Some(CrashFailure {
                        round,
                        point,
                        detail: format!("expected injected crash, got {other:?}"),
                    });
                    let _ = std::fs::remove_dir_all(&dir);
                    return out;
                }
            }
            drop(session);

            // The batch survives iff its WAL record was fsynced first.
            let expected_k = if point == CrashPoint::WalPostFsync {
                round + 1
            } else {
                round
            };
            let expected_seq = reference.committed[expected_k];

            out.recoveries += 1;
            let (recovered, _report) = match recover(&dir, options.clone()) {
                Ok(r) => r,
                Err(e) => {
                    out.failure = Some(CrashFailure {
                        round,
                        point,
                        detail: format!("recovery failed: {e}"),
                    });
                    let _ = std::fs::remove_dir_all(&dir);
                    return out;
                }
            };

            out.checks += 1;
            if recovered.last_seq() != expected_seq {
                out.failure = Some(CrashFailure {
                    round,
                    point,
                    detail: format!(
                        "recovered {} committed batches, expected {expected_seq}",
                        recovered.last_seq()
                    ),
                });
                let _ = std::fs::remove_dir_all(&dir);
                return out;
            }
            out.checks += 1;
            if sorted_edges(recovered.graph()) != reference.edges[expected_k] {
                out.failure = Some(CrashFailure {
                    round,
                    point,
                    detail: "recovered graph edge set diverges from reference".into(),
                });
                let _ = std::fs::remove_dir_all(&dir);
                return out;
            }
            let want = &reference.essences[expected_k];
            let essences = recovered.essences();
            if essences.len() != want.len() {
                out.failure = Some(CrashFailure {
                    round,
                    point,
                    detail: format!(
                        "recovered {} essences, expected {}",
                        essences.len(),
                        want.len()
                    ),
                });
                let _ = std::fs::remove_dir_all(&dir);
                return out;
            }
            for ((class, blob), expected) in essences.zip(want) {
                out.checks += 1;
                if &blob != expected {
                    out.failure = Some(CrashFailure {
                        round,
                        point,
                        detail: format!(
                            "{class}: recovered essence diverges from uninterrupted run"
                        ),
                    });
                    let _ = std::fs::remove_dir_all(&dir);
                    return out;
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gencase::{gen_case, GenConfig};
    use crate::runner::ClassId;
    use incgraph_graph::{Pattern, UpdateBatch};

    fn small_case() -> Case {
        let mut b1 = UpdateBatch::new();
        b1.insert(0, 3, 2).delete(1, 2);
        let mut b2 = UpdateBatch::new();
        b2.insert(2, 4, 1).insert(4, 0, 3);
        let mut b3 = UpdateBatch::new();
        b3.delete(0, 3).insert(1, 2, 9);
        Case {
            seed: 21,
            directed: false,
            nodes: 5,
            labels: None,
            edges: vec![(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 2)],
            schedule: vec![b1, b2, b3],
            classes: ClassId::ALL.to_vec(),
            source: 0,
            pattern: Some(Pattern::new(vec![0, 0], &[(0, 1)])),
            fault: None,
            crash_at: None,
            coalesce: false,
            plan: None,
        }
    }

    #[test]
    fn all_seven_classes_survive_every_round_and_point() {
        let outcome = run_crash_case(&small_case());
        assert!(outcome.passed(), "{}", outcome.failure.unwrap());
        // 3 rounds × 4 points, all batches valid.
        assert_eq!(outcome.recoveries, 12);
    }

    #[test]
    fn crash_at_restricts_the_sweep() {
        let mut case = small_case();
        case.crash_at = Some(CrashPoint::MidCheckpoint);
        let outcome = run_crash_case(&case);
        assert!(outcome.passed(), "{}", outcome.failure.unwrap());
        assert_eq!(outcome.recoveries, 3, "one point, three rounds");
    }

    #[test]
    fn generated_case_survives_the_sweep() {
        // A fuzzer-shaped case (random topology + schedule) through the
        // full sweep — the bridge between the generator and the crash
        // oracle that `incgraph fuzz --crash` walks at scale.
        let case = gen_case(0xC4A5, &GenConfig::default());
        let outcome = run_crash_case(&case);
        assert!(outcome.passed(), "{}", outcome.failure.unwrap());
        assert!(outcome.recoveries > 0);
    }
}
