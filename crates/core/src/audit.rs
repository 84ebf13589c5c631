//! Post-run fixpoint auditing.
//!
//! The correctness of a deduced incremental algorithm rests on the
//! invariant `σ_A = ∧_x σ_x` holding at the end of every run: each status
//! variable must equal its update function over its inputs,
//! `x = f_x(Y_x)`. The engine guarantees this when its preconditions
//! (feasible `D⁰`, valid `H⁰` — Theorems 1–3) hold, but a production
//! pipeline should not *trust* them blindly: a buggy oracle, a corrupted
//! state restored from disk, or a mis-specified scope silently poisons
//! every later incremental run. [`FixpointAudit`] re-checks `σ_x` over
//! the full or a sampled variable set by re-running
//! [`FixpointSpec::eval`] against the settled status, and reports every
//! violated variable in a typed [`AuditReport`].
//!
//! Auditing costs one extra evaluation per checked variable, so it is
//! opt-in (`debug`/CLI flag) rather than always-on; sampled mode keeps a
//! deterministic O(|Ψ|/stride) smoke-check cheap enough for steady
//! streams.

use crate::spec::FixpointSpec;
use crate::status::Status;

/// How much of the variable universe to re-check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditMode {
    /// Check every status variable: `σ_x` for all `x ∈ Ψ`.
    Full,
    /// Check every `stride`-th variable starting at `offset % stride`.
    /// Deterministic (no PRNG in the hot path) and rotating the offset
    /// across runs covers the whole universe every `stride` runs.
    Sample {
        /// Check one variable in every `stride` (must be ≥ 1).
        stride: usize,
        /// Starting offset; taken modulo `stride`.
        offset: usize,
    },
}

/// One violated statement: variable `x` where `x ≠ f_x(Y_x)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditViolation {
    /// The violated variable's index.
    pub var: usize,
    /// Debug-rendered `(stored, recomputed)` pair, kept as text so the
    /// report type is independent of the spec's value type.
    pub detail: String,
}

/// Result of re-checking `σ_x` over a (possibly sampled) variable set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Variables checked.
    pub checked: usize,
    /// Total variables in the universe `|Ψ|`.
    pub total_vars: usize,
    /// Violations found, in variable order, capped at
    /// [`FixpointAudit::max_violations`].
    pub violations: Vec<AuditViolation>,
    /// Whether the violation list was truncated at the cap.
    pub truncated: bool,
}

impl AuditReport {
    /// Whether the audited set satisfied every statement.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A reusable audit configuration; see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixpointAudit {
    /// Which variables to re-check.
    pub mode: AuditMode,
    /// Cap on recorded violations; checking continues (for the count) but
    /// details stop accumulating, keeping a totally-corrupt state from
    /// allocating |Ψ| strings.
    pub max_violations: usize,
}

impl Default for FixpointAudit {
    fn default() -> Self {
        FixpointAudit {
            mode: AuditMode::Full,
            max_violations: 32,
        }
    }
}

impl FixpointAudit {
    /// Full audit with the default violation cap.
    pub fn full() -> Self {
        Self::default()
    }

    /// Sampled audit with the default violation cap.
    pub fn sampled(stride: usize, offset: usize) -> Self {
        assert!(stride >= 1, "stride must be at least 1");
        FixpointAudit {
            mode: AuditMode::Sample { stride, offset },
            max_violations: 32,
        }
    }

    /// Re-checks `σ_x : x = f_x(Y_x)` for the configured variable set
    /// against `status`, which is read-only here.
    pub fn run<S: FixpointSpec>(&self, spec: &S, status: &Status<S::Value>) -> AuditReport {
        let _span = incgraph_obs::span("audit.run");
        let report = self.check(spec.num_vars(), "f_x", |x| {
            (status.get(x), spec.eval(x, &mut |y| status.get(y)))
        });
        incgraph_obs::counter("audit.checked", report.checked as u64);
        incgraph_obs::counter("audit.violations", report.violations.len() as u64);
        report
    }

    /// Checks the configured subset of `n` variables: `pair(x)` is `x`'s
    /// stored value and the one `by` gives, which must be equal. The
    /// re-check of [`run`](Self::run), and of a state whose variables are
    /// not `σ_x` statements (DFS compares against a batch traversal).
    pub fn check<V: PartialEq + std::fmt::Debug>(
        &self,
        n: usize,
        by: &str,
        mut pair: impl FnMut(usize) -> (V, V),
    ) -> AuditReport {
        let (stride, start) = match self.mode {
            AuditMode::Full => (1, 0),
            AuditMode::Sample { stride, offset } => (stride, offset % stride),
        };
        let mut report = AuditReport {
            checked: 0,
            total_vars: n,
            violations: Vec::new(),
            truncated: false,
        };
        for x in (start..n).step_by(stride) {
            report.checked += 1;
            let (stored, expect) = pair(x);
            if stored == expect {
                continue;
            }
            if report.violations.len() < self.max_violations {
                report.violations.push(AuditViolation {
                    var: x,
                    detail: format!("stored {stored:?}, {by} gives {expect:?}"),
                });
            } else {
                report.truncated = true;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Min-label propagation over a fixed path 0-1-2-3 (miniature CC).
    struct PathCc;

    impl FixpointSpec for PathCc {
        type Value = u32;
        fn num_vars(&self) -> usize {
            4
        }
        fn bottom(&self, x: usize) -> u32 {
            x as u32
        }
        fn eval<R: FnMut(usize) -> u32>(&self, x: usize, read: &mut R) -> u32 {
            let mut m = x as u32;
            if x > 0 {
                m = m.min(read(x - 1));
            }
            if x < 3 {
                m = m.min(read(x + 1));
            }
            m
        }
        fn dependents<P: FnMut(usize)>(&self, x: usize, push: &mut P) {
            if x > 0 {
                push(x - 1);
            }
            if x < 3 {
                push(x + 1);
            }
        }
        fn preceq(&self, a: &u32, b: &u32) -> bool {
            a <= b
        }
        fn rank(&self, _x: usize, v: &u32) -> u64 {
            *v as u64
        }
        fn push_rank(&self, _z: usize, _zv: &u32, _t: usize, tv: &u32) -> u64 {
            *tv as u64
        }
    }

    #[test]
    fn clean_fixpoint_passes_full_audit() {
        let spec = PathCc;
        let mut status = Status::init(&spec, false);
        crate::engine::run_fixpoint(&spec, &mut status, 0..4);
        let report = FixpointAudit::full().run(&spec, &status);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.checked, 4);
        assert_eq!(report.total_vars, 4);
    }

    #[test]
    fn corrupted_status_is_caught_with_details() {
        let spec = PathCc;
        let mut status = Status::init(&spec, false);
        crate::engine::run_fixpoint(&spec, &mut status, 0..4);
        status.set_unstamped(2, 7); // poison one variable
        let report = FixpointAudit::full().run(&spec, &status);
        assert!(!report.is_clean());
        // Var 2 is wrong; its neighbors' statements still hold (their min
        // over inputs is unchanged by a *raised* neighbor... except they
        // read 7 > their own values, so 1 and 3 stay satisfied).
        let vars: Vec<usize> = report.violations.iter().map(|v| v.var).collect();
        assert!(vars.contains(&2), "vars: {vars:?}");
        let v = report.violations.iter().find(|v| v.var == 2).unwrap();
        assert!(v.detail.contains("stored 7"), "{}", v.detail);
    }

    #[test]
    fn sampled_audit_checks_stride_subset() {
        let spec = PathCc;
        let mut status = Status::init(&spec, false);
        crate::engine::run_fixpoint(&spec, &mut status, 0..4);
        let report = FixpointAudit::sampled(2, 0).run(&spec, &status);
        assert_eq!(report.checked, 2, "vars 0 and 2");
        assert!(report.is_clean());
        // Rotating offsets cover the complement.
        let report = FixpointAudit::sampled(2, 1).run(&spec, &status);
        assert_eq!(report.checked, 2, "vars 1 and 3");
    }

    #[test]
    fn violation_list_truncates_at_cap() {
        let spec = PathCc;
        let status = Status::from_values(vec![9, 9, 9, 9]);
        let audit = FixpointAudit {
            mode: AuditMode::Full,
            max_violations: 2,
        };
        let report = audit.run(&spec, &status);
        assert_eq!(report.violations.len(), 2);
        assert!(report.truncated);
        assert!(!report.is_clean());
    }
}
