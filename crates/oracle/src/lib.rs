//! Differential fuzzing oracle for the incremental graph engine.
//!
//! The paper's central claims — the incremental algorithm `A_Δ` computes
//! exactly the batch fixpoint (Theorems 1 & 3) and the work is bounded by
//! the affected area — are *differential* properties: each one equates
//! two independent computations. This crate turns them into executable
//! oracles and hunts for divergence with seeded random campaigns:
//!
//! * [`gencase`] expands one `u64` seed into a self-contained [`case::Case`]
//!   (graph topology, labels, query parameters, and a long schedule of
//!   effective `ΔG` batches);
//! * [`runner`] drives a case through all seven query classes, checking
//!   incremental-vs-batch value equality and boundedness-accounting
//!   invariants after every batch;
//! * [`crash`] sweeps kill-and-recover over a case's schedule at every
//!   durability injection point, demanding the recovered world is
//!   value-identical to an uninterrupted run (the determinism of the
//!   paper's algorithms makes recovery *verifiable*, not just plausible);
//! * [`shrink`] minimizes a failing case ddmin-style while preserving the
//!   failure fingerprint, producing a certified reproducer;
//! * [`fuzz`] is the campaign loop gluing these together and writing
//!   minimized cases — annotated with provenance and the engine-level
//!   [`CaseTrace`](incgraph_core::CaseTrace) — into a replayable corpus;
//! * [`walcheck`] is the exactly-once check of a WAL against an
//!   ingest-side ack ledger, run by the sustained-stream harness after
//!   every kill-and-recover;
//! * [`chaos`] lifts the adversary to the network: concurrent
//!   exactly-once clients drive the real TCP service (crates/service)
//!   under one of two schedules — kill/restart cycles behind a
//!   byte-cutting proxy, or a crash-point kill of a replicated primary
//!   followed by promotion and client redirect — and every store left
//!   behind is audited by [`walcheck`] (the acks and the origin fold),
//!   the recovered ack table, and recovered per-class essences
//!   byte-for-byte against genesis replay.
//!
//! The `incgraph fuzz` / `incgraph replay` subcommands (crates/bench) are
//! thin CLI shells over this crate; the corpus-replay integration test
//! re-runs every checked-in case on every build.

pub mod case;
pub mod chaos;
pub mod crash;
pub mod fuzz;
pub mod gencase;
pub mod runner;
pub mod shrink;
pub mod walcheck;

pub use case::{Case, CaseParseError};
pub use chaos::{run_chaos, ChaosConfig, ChaosFailure, ChaosReport, Schedule};
pub use crash::{run_crash_case, CrashFailure, CrashOutcome};
pub use fuzz::{fuzz, CrashRecord, FailureRecord, FuzzConfig, FuzzReport};
pub use gencase::{gen_case, GenConfig};
pub use runner::{run_case, ClassId, Fault, OracleFailure, OracleKind, RunOutcome};
pub use shrink::{shrink_case, ShrinkStats};
pub use walcheck::{audit_wal, batch_fingerprint, AckedBatch, WalAuditFailure, WalAuditReport};
