//! Seven query classes — the paper's five proof-of-concept classes, the
//! sixth it names (BC) and one extension example (Reach) — each as a batch
//! fixpoint algorithm plus its deduced incremental algorithm:
//!
//! | Query class | Batch (`A`) | Incremental (`A_Δ`) | Deducibility | State |
//! |-------------|------------|---------------------|--------------|-------|
//! | [`sssp`] single-source shortest paths | Dijkstra as fixpoint (paper Fig. 1) | `IncSSSP` (paper Fig. 5) | deducible (order `<_C` from distance values) | [`Deduced`] |
//! | [`cc`] connected components | min-label propagation `CC_fp` (Ex. 2) | `IncCC` (Ex. 5) | weakly deducible (timestamps) | [`Deduced`] |
//! | [`sim`] graph simulation | `Sim_fp` \[HHK95\] (§5.1) | `IncSim` | weakly deducible (timestamps) | [`Deduced`] |
//! | [`reach`] single-source reachability | OR-propagation under the flipped order | `IncReach` | weakly deducible (timestamps) | [`Deduced`] |
//! | [`lcc`] local clustering coefficient | `LCC_fp` (§5.3) | `IncLCC` | deducible (PE variables, no order needed) | own |
//! | [`dfs`] depth-first search | `DFS_fp` interval traversal (§5.2) | `IncDFS` | deducible (order from preorder numbers) | own |
//! | [`bc`] biconnectivity | lowpoint fixpoint over the DFS forest | `IncBC` (`IncDFS`'s replay, which re-lowers every node it re-enters, then a cut-off pass over `ΔG`'s endpoints) | deducible | own |
//!
//! Every incremental algorithm follows the same two-phase shape mandated
//! by the paper: an **initial scope function** `h` adjusts the previous
//! fixpoint to a feasible status and initial scope, then the **unchanged
//! step function** of the batch algorithm is resumed. For SSSP, CC, Sim
//! and Reach that sentence is one type: each class defines a
//! [`Deducible`] (its spec, its order `<_C`, its evolved input sets) and
//! [`deduced::Deduced`] assembles `A_Δ` from
//! [`incgraph_core::bounded_scope_in`] + [`incgraph_core::engine::Engine`].
//! LCC uses the PE-variable strategy of Theorem 1 and writes its status
//! arithmetically; DFS implements the same `h`-plus-resume pattern
//! directly on the traversal representation (its update functions are not
//! pure functions of an input set, so it does not fit the generic
//! `FixpointSpec` — the paper likewise treats it as the stretch case of
//! the framework), and BC layers a lowpoint fixpoint over it. Those three
//! keep their own state types.
//!
//! All `update` entry points take the **already updated** graph `G ⊕ ΔG`
//! together with the [`incgraph_graph::AppliedBatch`] describing the
//! effective `ΔG`; this matches the paper's interface
//! `A_Δ(Q, G, Q(G), ΔG)` while letting the caller own graph mutation.

pub mod bc;
pub mod cc;
pub mod deduced;
pub mod dfs;
pub mod lcc;
pub mod output;
pub mod persist;
pub mod reach;
pub mod session;
pub mod sim;
pub mod sssp;

pub use bc::BcState;
pub use cc::CcState;
pub use deduced::{Deduced, Deducible};
pub use dfs::DfsState;
pub use lcc::LccState;
pub use output::{NodeChange, OutputChange, OutputDelta, OutputSnapshot, TrackedUpdate};
pub use persist::StateLoadError;
pub use reach::ReachState;
pub use session::{QueryClass, Session, SessionBuilder, SessionError};
pub use sim::SimState;
pub use sssp::SsspState;

use incgraph_core::audit::{AuditReport, FixpointAudit};
use incgraph_core::engine::RunStats;
use incgraph_core::fallback::{FallbackDecision, FallbackPolicy};
use incgraph_core::metrics::BoundednessReport;
use incgraph_graph::{AppliedBatch, DynamicGraph};

/// The uniform face of the seven incremental algorithm states, used by
/// the hardened pipeline ([`update_with`]) to audit fixpoints and to
/// degrade to batch recomputation when an update stops being bounded.
///
/// All methods take the **already updated** graph `G ⊕ ΔG`, like the
/// inherent `update` methods they wrap. Implementations live next to each
/// state so they can reach private fields (the stored query parameters
/// needed for [`recompute`](Self::recompute), the engine for
/// [`set_work_budget`](Self::set_work_budget)).
///
/// `Send + Sync` are supertraits: every state is plain owned data, and
/// the service layer moves boxed states (and the [`Session`]s wrapping
/// them) into its writer thread and reads digests from others.
pub trait IncrementalState: Send + Sync {
    /// Short algorithm name for logs and reports (`"sssp"`, `"cc"`, …).
    fn name(&self) -> &'static str;

    /// Total status variables `|Ψ|` for the current graph size — the
    /// denominator of every [`FallbackPolicy`] fraction.
    fn total_vars(&self, g: &DynamicGraph) -> usize;

    /// One incremental step: the inherent `update` of the state.
    fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport;

    /// Abandon the incremental state and recompute from scratch with the
    /// stored query parameters. Afterwards the state is exactly what
    /// `Self::batch` would have produced on `g`.
    fn recompute(&mut self, g: &DynamicGraph) -> RunStats;

    /// Re-check the fixpoint invariant `σ_A = ∧_x σ_x` over the settled
    /// state (see [`FixpointAudit`]).
    fn audit(&self, g: &DynamicGraph, audit: &FixpointAudit) -> AuditReport;

    /// Cap the engine's distinct-variable work for subsequent updates;
    /// `None` removes the cap. States whose update runs no engine (DFS,
    /// LCC, BC) keep this no-op and rely on [`update_with`]'s post-run
    /// scope check instead.
    fn set_work_budget(&mut self, _budget: Option<u64>) {}

    /// Resident bytes of the algorithm's state (Fig. 8).
    fn space_bytes(&self) -> usize;

    /// Serializes the state's durable essence (`SaveState`): the stored
    /// query parameters plus the status `D^r` — values, and for weakly
    /// deducible classes the timestamps and logical clock that linearize
    /// `<_C`. Engine scratch is excluded; it is rebuilt on load. The blob
    /// is self-describing (see [`persist`]) and routable via
    /// [`Session::restore`].
    fn save_state(&self) -> Vec<u8>;

    /// Replaces this state's durable essence with a previously saved blob
    /// (`LoadState`), validated against `g`. No fixpoint is run — the
    /// blob *is* the fixpoint; the engine restarts with fresh scratch.
    fn load_state(&mut self, g: &DynamicGraph, bytes: &[u8]) -> Result<(), StateLoadError>;

    /// The canonical DFS forest this state maintains as a layer of its
    /// own fixpoint, if any — BC's `IncDFS`. The forest is the DFS
    /// class's whole output, so a holder of several states can read the
    /// DFS essence from it instead of replaying a second copy. A
    /// [`Session`] forwards its class state's.
    fn forest(&self) -> Option<&DfsState> {
        None
    }
}

/// Everything a guarded update run is configured by, in one value: the
/// degradation policy and the optional fixpoint audit — one options
/// struct travels from the session builder through every update.
///
/// `Copy`, so callers stash it by value (a [`Session`] does); the
/// defaults are the conservative ones: default policy, no audit.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions {
    /// Degradation policy for the guarded run.
    pub policy: FallbackPolicy,
    /// Post-run fixpoint audit; `None` skips auditing.
    pub audit: Option<FixpointAudit>,
}

/// The hardened update path: one incremental step under an
/// [`ExecOptions`] bundle (policy + optional audit).
///
/// 1. The policy's [`var_limit`](FallbackPolicy::var_limit) is installed
///    as the engine's mid-run work budget; a blown budget aborts the run
///    ([`RunStats::aborted`]) and triggers a batch recompute recorded as
///    [`WorkExceeded`](incgraph_core::fallback::FallbackReason::WorkExceeded).
/// 2. For runs that complete, the inspected-variable count is re-checked
///    against the same limit (this is what catches states without an
///    engine budget, like DFS); a violation recomputes and records
///    [`ScopeExceeded`](incgraph_core::fallback::FallbackReason::ScopeExceeded).
/// 3. If an audit is configured and the run stayed incremental, `σ_x` is
///    re-checked; violations recompute (unless the policy says
///    [`Ignore`](incgraph_core::fallback::AuditAction::Ignore)) and
///    record [`AuditFailed`](incgraph_core::fallback::FallbackReason::AuditFailed).
///
/// A fresh batch recompute establishes the fixpoint by construction, so
/// no audit runs after a fallback. The returned report merges the
/// abandoned run's stats with the recompute's, and
/// [`BoundednessReport::fallback`] carries the decision so experiment
/// drivers can report fallback rates.
///
/// The whole call runs under an ambient observability class scope named
/// after the state and an `update.guarded` span; fallback decisions and
/// failed audits surface as discrete events, and the final report's
/// totals flow into the registry (all of it one relaxed atomic load when
/// no recorder is installed).
pub fn update_with<S: IncrementalState + ?Sized>(
    state: &mut S,
    g: &DynamicGraph,
    applied: &AppliedBatch,
    options: &ExecOptions,
) -> BoundednessReport {
    let _class = incgraph_obs::class_scope(state.name());
    let report = {
        let _span = incgraph_obs::span("update.guarded");
        run_guarded(state, g, applied, options)
    };
    report.record_obs();
    report
}

/// The guarded-run core; see [`update_with`] for the contract.
fn run_guarded<S: IncrementalState + ?Sized>(
    state: &mut S,
    g: &DynamicGraph,
    applied: &AppliedBatch,
    options: &ExecOptions,
) -> BoundednessReport {
    let policy = &options.policy;
    let total = state.total_vars(g);
    state.set_work_budget(policy.var_limit(total));
    let mut report = state.update(g, applied);
    state.set_work_budget(None);

    if report.run_stats.aborted {
        let decision = policy.work_exceeded(report.run_stats.distinct_vars, total);
        fallback_event(&decision);
        let run = state.recompute(g);
        report.run_stats.merge(&run);
        return report.with_fallback(decision);
    }
    if let Some(decision) = policy.check_scope(report.inspected_vars as usize, total) {
        fallback_event(&decision);
        let run = state.recompute(g);
        report.run_stats.merge(&run);
        return report.with_fallback(decision);
    }
    if let Some(cfg) = &options.audit {
        let audit_report = state.audit(g, cfg);
        if incgraph_obs::enabled() && !audit_report.is_clean() {
            incgraph_obs::event(
                "audit.failed",
                &format!(
                    "{} of {} checked vars violated",
                    audit_report.violations.len(),
                    audit_report.checked
                ),
            );
        }
        if let Some(decision) = policy.check_audit(audit_report.violations.len()) {
            fallback_event(&decision);
            let run = state.recompute(g);
            report.run_stats.merge(&run);
            return report.with_fallback(decision);
        }
    }
    report
}

/// Surfaces a degradation decision as a discrete observability event;
/// gated on [`incgraph_obs::enabled`] so the disabled path never formats.
fn fallback_event(decision: &FallbackDecision) {
    if incgraph_obs::enabled() {
        incgraph_obs::event(
            "fallback",
            &format!(
                "{:?}: observed {} > limit {}",
                decision.reason, decision.observed, decision.limit
            ),
        );
    }
}

#[cfg(test)]
mod guarded_tests {
    use super::*;
    use incgraph_core::fallback::{AuditAction, FallbackPolicy, FallbackReason};
    use incgraph_graph::{DynamicGraph, Pattern, UpdateBatch};

    fn directed_path(n: usize) -> DynamicGraph {
        let mut g = DynamicGraph::new(true, n);
        for v in 0..n as u32 - 1 {
            g.insert_edge(v, v + 1, 1);
        }
        g
    }

    /// Undirected ring with one chord — connected, so every state has
    /// non-trivial structure; all labels 0 so the trivial Sim pattern
    /// matches everywhere.
    fn ring(n: usize) -> DynamicGraph {
        let mut g = DynamicGraph::new(false, n);
        for v in 0..n as u32 {
            g.insert_edge(v, (v + 1) % n as u32, 1);
        }
        g.insert_edge(0, n as u32 / 2, 3);
        g
    }

    #[test]
    fn all_seven_states_run_guarded_and_audit_clean() {
        let g0 = ring(16);
        let mut states: Vec<Box<dyn IncrementalState>> = vec![
            Box::new(SsspState::batch(&g0, 0).0),
            Box::new(CcState::batch(&g0).0),
            Box::new(SimState::batch(&g0, Pattern::new(vec![0], &[])).0),
            Box::new(ReachState::batch(&g0, 0).0),
            Box::new(LccState::batch(&g0).0),
            Box::new(DfsState::batch(&g0).0),
            Box::new(BcState::batch(&g0).0),
        ];
        let mut g = g0.clone();
        let mut batch = UpdateBatch::new();
        batch.insert(2, 10, 2).delete(5, 6);
        let applied = batch.apply(&mut g);

        let audit = FixpointAudit::full();
        let audited = ExecOptions {
            audit: Some(audit),
            ..Default::default()
        };
        let mut names = Vec::new();
        for state in &mut states {
            let report = update_with(state.as_mut(), &g, &applied, &audited);
            assert!(
                !report.fell_back(),
                "{} fell back on a small clean update: {:?}",
                state.name(),
                report.fallback
            );
            let audit_report = state.audit(&g, &audit);
            assert!(
                audit_report.is_clean(),
                "{}: {audit_report:?}",
                state.name()
            );
            assert!(state.space_bytes() > 0);
            names.push(state.name());
        }
        assert_eq!(names, ["sssp", "cc", "sim", "reach", "lcc", "dfs", "bc"]);
    }

    #[test]
    fn work_budget_abort_degrades_to_batch() {
        // Deleting the first edge of a directed path invalidates every
        // downstream distance: |AFF| ≈ |Ψ|, the worst case for the
        // incremental path. A 10% budget must abort and recompute.
        let mut g = directed_path(64);
        let (mut state, _) = SsspState::batch(&g, 0);
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        let applied = batch.apply(&mut g);

        let options = ExecOptions {
            policy: FallbackPolicy::with_max_aff_fraction(0.1),
            ..Default::default()
        };
        let report = update_with(&mut state, &g, &applied, &options);
        let decision = report.fallback.expect("a near-total update must degrade");
        assert_eq!(decision.reason, FallbackReason::WorkExceeded);
        assert!(decision.observed > decision.limit);
        assert!(report.run_stats.aborted);

        // The recompute must leave exactly the batch fixpoint.
        let (fresh, _) = SsspState::batch(&g, 0);
        assert_eq!(state.distances(), fresh.distances());
        // The budget is a per-guarded-call override, not sticky state.
        let mut refill = UpdateBatch::new();
        refill.insert(0, 1, 1);
        let applied = refill.apply(&mut g);
        let report = state.update(&g, &applied);
        assert!(
            !report.run_stats.aborted,
            "budget must be lifted afterwards"
        );
    }

    #[test]
    fn failed_audit_forces_recompute() {
        let mut g = directed_path(16);
        let (mut state, _) = SsspState::batch(&g, 0);
        state.poison(5, 0); // true distance is 5

        // A benign no-op batch: reinserting an existing edge with its
        // existing weight applies nothing, so only the audit can notice.
        let mut batch = UpdateBatch::new();
        batch.insert(14, 15, 1);
        let applied = batch.apply(&mut g);
        assert!(applied.is_empty());

        let options = ExecOptions {
            audit: Some(FixpointAudit::full()),
            ..Default::default()
        };
        let report = update_with(&mut state, &g, &applied, &options);
        let decision = report.fallback.expect("corruption must be caught");
        assert_eq!(decision.reason, FallbackReason::AuditFailed);
        assert_eq!(state.distance(5), 5, "recompute heals the poisoned value");
    }

    #[test]
    fn audit_action_ignore_keeps_corrupt_state() {
        let mut g = directed_path(16);
        let (mut state, _) = SsspState::batch(&g, 0);
        state.poison(5, 0);
        let mut batch = UpdateBatch::new();
        batch.insert(14, 15, 1);
        let applied = batch.apply(&mut g);

        let audit = FixpointAudit::full();
        let options = ExecOptions {
            policy: FallbackPolicy {
                on_audit_failure: AuditAction::Ignore,
                ..Default::default()
            },
            audit: Some(audit),
        };
        let report = update_with(&mut state, &g, &applied, &options);
        assert!(!report.fell_back());
        assert_eq!(state.distance(5), 0, "Ignore keeps the observed state");
        // The corruption is still *visible* to a caller who audits.
        assert!(!state.audit(&g, &audit).is_clean());
    }

    #[test]
    fn save_restore_roundtrip_preserves_future_updates() {
        // The durable essence must capture everything the incremental
        // algorithms consult: a restored state has to produce *bit-equal*
        // essences on every later update, or the weakly deducible classes
        // would silently drift once their stamps were dropped.
        let g0 = ring(16);
        let mut states: Vec<Box<dyn IncrementalState>> = vec![
            Box::new(SsspState::batch(&g0, 0).0),
            Box::new(CcState::batch(&g0).0),
            Box::new(SimState::batch(&g0, Pattern::new(vec![0], &[])).0),
            Box::new(ReachState::batch(&g0, 0).0),
            Box::new(LccState::batch(&g0).0),
            Box::new(DfsState::batch(&g0).0),
            Box::new(BcState::batch(&g0).0),
        ];
        let mut g = g0.clone();
        let mut batch = UpdateBatch::new();
        batch.insert(2, 10, 2).delete(5, 6);
        let applied = batch.apply(&mut g);
        for state in &mut states {
            state.update(&g, &applied);
        }

        let mut restored: Vec<Session> = states
            .iter()
            .map(|s| Session::restore(&g, &s.save_state()).expect("restore"))
            .collect();
        for (a, b) in states.iter().zip(&restored) {
            assert_eq!(a.name(), b.name());
            assert_eq!(
                a.save_state(),
                b.save_state(),
                "{} essence differs",
                a.name()
            );
        }

        let mut batch = UpdateBatch::new();
        batch.delete(2, 10).insert(4, 12, 1).delete(0, 8);
        let applied = batch.apply(&mut g);
        for (a, b) in states.iter_mut().zip(restored.iter_mut()) {
            a.update(&g, &applied);
            b.update(&g, &applied);
            assert_eq!(
                a.save_state(),
                b.save_state(),
                "{} diverged after restore",
                a.name()
            );
        }
    }

    #[test]
    fn corrupted_blobs_are_rejected() {
        let g = ring(8);
        let (state, _) = CcState::batch(&g);
        let blob = CcState::save_state(&state);
        let small = ring(6);
        assert!(matches!(
            CcState::restore(&small, &blob),
            Err(StateLoadError::SizeMismatch { .. })
        ));
        assert!(CcState::restore(&g, &blob[..blob.len() - 1]).is_err());
        assert!(matches!(
            SsspState::restore(&g, &blob),
            Err(StateLoadError::WrongClass { .. })
        ));
        assert!(Session::restore(&g, b"garbage").is_err());
    }

    #[test]
    fn dfs_scope_check_degrades_without_an_engine() {
        // Deleting the root's tree edge shifts every timestamp after the
        // divergence point, so IncDFS replays nearly the whole forest.
        // DFS has no engine budget; the post-run scope check must catch
        // the blow-up and record ScopeExceeded.
        let mut g = directed_path(32);
        let (mut state, _) = DfsState::batch(&g);
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        let applied = batch.apply(&mut g);

        let options = ExecOptions {
            policy: FallbackPolicy {
                max_scope_size: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = update_with(&mut state, &g, &applied, &options);
        let decision = report.fallback.expect("near-total replay must degrade");
        assert_eq!(decision.reason, FallbackReason::ScopeExceeded);
        let (fresh, _) = DfsState::batch(&g);
        for v in 0..32u32 {
            assert_eq!(state.first(v), fresh.first(v), "node {v}");
            assert_eq!(state.last(v), fresh.last(v), "node {v}");
            assert_eq!(state.parent(v), fresh.parent(v), "node {v}");
        }
    }
}
