//! Instrumentation for the paper's empirical claims: affected-area sizes
//! (Exp-1) and space costs (Fig. 8).
//!
//! These structs are per-run *views*: each carries the counters of the
//! one run that produced it, by value, with no synchronization — which
//! is what the paper-facing APIs return and what the oracle asserts on.
//! Cross-run aggregation is not done here: the same counters flow into
//! the `incgraph-obs` registry at the seams that produce them (the
//! engine's completion hook, the scope functions, the guarded update
//! path), so there is exactly one recording path and the registry is the
//! single cross-run aggregate. [`BoundednessReport::record_obs`] is that
//! seam for the per-update totals.

use crate::engine::RunStats;
use crate::fallback::FallbackDecision;
use crate::scope::ScopeStats;

/// Empirical relative-boundedness report for one incremental run: how much
/// of the status-variable universe the run actually inspected, the
/// quantity the paper reports as `|AFF|` fractions in Exp-1(1c)/(2c).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BoundednessReport {
    /// Size of the initial scope `|H⁰|`.
    pub scope_size: usize,
    /// Distinct status variables the engine inspected.
    pub inspected_vars: u64,
    /// Total status variables `|Ψ_A|`.
    pub total_vars: usize,
    /// Work spent in the scope function `h`.
    pub scope_stats: ScopeStats,
    /// Work spent resuming the step function.
    pub run_stats: RunStats,
    /// Degradation decision, when the incremental run was abandoned for a
    /// batch recompute (scope blow-up, work-budget abort, failed audit);
    /// `None` for a run that completed incrementally. Lets Exp-style
    /// drivers report fallback rates alongside `|AFF|` fractions.
    pub fallback: Option<FallbackDecision>,
}

impl BoundednessReport {
    /// Builds a report from the two phases of an incremental run.
    pub fn new(
        total_vars: usize,
        scope_size: usize,
        scope_stats: ScopeStats,
        run_stats: RunStats,
    ) -> Self {
        BoundednessReport {
            scope_size,
            inspected_vars: run_stats.distinct_vars.max(scope_size as u64),
            total_vars,
            scope_stats,
            run_stats,
            fallback: None,
        }
    }

    /// The same report with a degradation decision stamped in.
    pub fn with_fallback(mut self, decision: FallbackDecision) -> Self {
        self.fallback = Some(decision);
        self
    }

    /// Whether this run degraded to a batch recompute.
    pub fn fell_back(&self) -> bool {
        self.fallback.is_some()
    }

    /// Inspected fraction of the variable universe, in `\[0, 1\]` — the
    /// paper's "`|AFF|` accounts for x% of the total size of the auxiliary
    /// structures".
    pub fn aff_fraction(&self) -> f64 {
        if self.total_vars == 0 {
            0.0
        } else {
            self.inspected_vars as f64 / self.total_vars as f64
        }
    }

    /// Forwards this report's per-update totals to the observability
    /// registry under the ambient class label. Called once per guarded
    /// update by `algos::update_with`; costs one atomic load when no
    /// recorder is installed.
    pub fn record_obs(&self) {
        use incgraph_obs as obs;
        if !obs::enabled() {
            return;
        }
        obs::counter("update.runs", 1);
        obs::observe("update.scope_size", self.scope_size as u64);
        obs::observe("update.inspected", self.inspected_vars);
        obs::observe("update.changed", self.run_stats.changes);
        obs::gauge("update.total_vars", self.total_vars as u64);
        if self.fell_back() {
            obs::counter("update.fallbacks", 1);
        }
    }

    /// Share of update-function evaluations performed by `h` rather than
    /// the resumed step function (the paper's Exp-2(2d) measurement).
    pub fn scope_share(&self) -> f64 {
        let h = self.scope_stats.evals as f64;
        let total = h + self.run_stats.evals as f64;
        if total == 0.0 {
            0.0
        } else {
            h / total
        }
    }
}

/// Heap bytes of a `Vec<T>`'s buffer.
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_are_well_defined() {
        let run = RunStats {
            distinct_vars: 25,
            changes: 10,
            evals: 30,
            ..Default::default()
        };
        let scope = ScopeStats {
            evals: 10,
            ..Default::default()
        };
        let r = BoundednessReport::new(1000, 20, scope, run);
        assert!((r.aff_fraction() - 0.025).abs() < 1e-12);
        assert!((r.scope_share() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_universe_is_zero_fraction() {
        let r = BoundednessReport::new(0, 0, ScopeStats::default(), RunStats::default());
        assert_eq!(r.aff_fraction(), 0.0);
        assert_eq!(r.scope_share(), 0.0);
    }

    #[test]
    fn vec_bytes_counts_capacity() {
        let v: Vec<u64> = Vec::with_capacity(16);
        assert_eq!(vec_bytes(&v), 128);
    }
}
