//! The paper's primary contribution: a fixpoint model of batch graph
//! algorithms and a systematic incrementalization of them.
//!
//! # The model (paper §3)
//!
//! A *fixpoint algorithm* `A` maintains a set of **status variables**
//! `x_i`, each governed by an **update function** `f_{x_i}(Y_{x_i})` over
//! an input set of other status variables, and iterates a **step
//! function**
//!
//! ```text
//! (D^{t+1}, H^{t+1}) = f_A(D^t, Q, G, H^t)
//! ```
//!
//! where `D` is the status (all variable values) and `H` is the *scope*
//! (the worklist of variables whose logical statement `σ_{x_i}: x_i =
//! f_{x_i}(Y_{x_i})` may be violated). The computation stops at a fixpoint
//! where the scope empties and the invariant `σ_A = ∧ σ_{x_i}` holds.
//!
//! In this crate the model is the [`spec::FixpointSpec`] trait and the
//! step function is [`engine::run_fixpoint`]: a rank-bucketed worklist that
//! pops a variable, re-evaluates its update function, and on change pushes
//! its dependents. Batch algorithms (`crates/algos`) are `FixpointSpec`
//! instances run from `(D⊥, H⁰ = all possibly-violated vars)`.
//!
//! # Incrementalization (paper §3–4)
//!
//! The deduced incremental algorithm `A_Δ` reuses the *same* step function
//! and differs only in the **initial scope function**
//! `h(D^r_A, ΔG) = (D⁰_{A_Δ}, H⁰_{A_Δ})`, after which
//! [`engine::run_fixpoint`] is simply resumed — so deducibility (same
//! logic and data structures) holds *by construction*. Two strategies:
//!
//! * [`scope::bounded_scope_in`] — the paper's Fig. 4: processes potentially
//!   infeasible variables in the contributor topological order `<_C`
//!   (provided by a [`scope::ContributorOracle`]), rebuilding feasible
//!   input sets and raising infeasible values. Requires the algorithm to
//!   be *contracting and monotonic* (condition C2); yields relative
//!   boundedness (`H⁰ ⊆ AFF`, condition C1 / Theorem 3).
//! * [`scope::pe_reset_scope_in`] — the brute-force Theorem 1 construction:
//!   flood the *potentially affected* (PE) variables through dependency
//!   edges and reset them to `⊥`. Always correct, not bounded (kept both
//!   as the LCC strategy, where no flooding occurs, and as the `abl-scope`
//!   ablation baseline).
//!
//! Timestamps (the only auxiliary structure *weak deducibility* permits)
//! are recorded by [`status::Status`] as a byproduct of the batch run and
//! consumed by contributor oracles of CC and Sim.

pub mod audit;
pub mod bucket;
pub mod coalesce;
pub mod engine;
pub mod epoch;
pub mod fallback;
pub mod lattice;
pub mod metrics;
pub mod scope;
pub mod spec;
pub mod status;
pub mod trace;

pub use audit::{AuditMode, AuditReport, AuditViolation, FixpointAudit};
pub use bucket::BucketQueue;
pub use coalesce::coalesce_batches;
pub use engine::{run_fixpoint, Engine, RunStats};
pub use epoch::VisitEpoch;
pub use fallback::{AuditAction, FallbackDecision, FallbackPolicy, FallbackReason};
pub use metrics::BoundednessReport;
pub use scope::{bounded_scope_in, pe_reset_scope_in, ContributorOracle, ScopeScratch, ScopeStats};
pub use spec::FixpointSpec;
pub use status::{Journal, Status};
pub use trace::{CaseTrace, TraceEvent};
