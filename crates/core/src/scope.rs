//! Initial scope functions `h(D^r_A, ΔG) = (D⁰, H⁰)`.
//!
//! Two constructions are provided:
//!
//! * [`bounded_scope_in`] — the paper's Fig. 4 algorithm, generic over a
//!   [`ContributorOracle`]. Under conditions (C1)/(C2) of Theorem 3 it
//!   yields `H⁰ ⊆ AFF`, i.e. a *relatively bounded* incrementalization.
//! * [`pe_reset_scope_in`] — the conservative Theorem 1 construction that
//!   floods *potentially affected* (PE) variables along dependency edges
//!   and resets them to `⊥`. Always correct, potentially unbounded.
//!
//! Both mutate the old fixpoint status in place into the feasible status
//! `D⁰` and leave the initial scope `H⁰`, from which the ordinary engine
//! ([`crate::engine::Engine::run`]) is resumed, in a caller-owned
//! [`ScopeScratch`]. Incremental states keep one scratch per instance so a
//! steady-state ΔG update performs no heap allocation in `h` at all — the
//! epoch bitmaps reset in `O(1)` and the queue/scope buffers retain their
//! high-water capacity the same way [`crate::engine::Engine`] does.

use crate::epoch::VisitEpoch;
use crate::spec::FixpointSpec;
use crate::status::Status;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Knowledge about the *anchor sets* `C_x` and the topological order `<_C`
/// of a finished batch (or previous incremental) run.
///
/// The order is exposed as a numeric key: `order_key(x) < order_key(y)`
/// means `x <_C y`, i.e. `x`'s final value was determined before `y`'s.
/// Deducible algorithms derive keys from final values (SSSP: the distance
/// itself; DFS: the preorder number); weakly deducible ones (CC, Sim) use
/// the timestamps recorded by [`Status`].
///
/// Oracle methods receive the **live** status: `h` raises values as it
/// goes but never touches timestamps, and a raised value is itself
/// feasible, so consulting live state in place of a pre-update snapshot
/// only makes trust decisions more conservative — it never unsounds them.
/// (`contributes_to(x)` is invoked *before* `x`'s raise is applied, so
/// the oracle still sees `x`'s pre-raise value.) This is what keeps a
/// unit update free of `O(|Ψ_A|)` snapshot copies.
///
/// # Contract
///
/// * Along every contributor edge, keys strictly increase: if `x ∈ C_z`
///   then `order_key(x) < order_key(z)` at the time the edge is examined.
/// * `contributes_to(x)` pushes **at least** every not-yet-processed `z`
///   with `x ∈ C_z` (over-approximation is safe, it only widens the
///   queue).
///
/// Under this contract, [`bounded_scope_in`] pops variables in `<_C` order
/// and every infeasible variable is reached through a contributor chain
/// before any variable that might trust it.
pub trait ContributorOracle<V> {
    /// The `<_C` position of `x` (smaller = determined earlier).
    fn order_key(&self, x: usize, status: &Status<V>) -> u64;

    /// Pushes every variable that may have `x` in its anchor set.
    fn contributes_to<P: FnMut(usize)>(&self, x: usize, status: &Status<V>, push: &mut P);
}

/// Work counters for one scope-function invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopeStats {
    /// Queue pops processed.
    pub pops: u64,
    /// Update-function evaluations against the feasible view.
    pub evals: u64,
    /// Input reads performed by those evaluations.
    pub reads: u64,
    /// Variables whose value `h` adjusted (raised toward `⊥`).
    pub raised: u64,
    /// Contributor-queue pushes.
    pub pushes: u64,
}

/// Reusable working memory for the scope functions: the flat-state arena
/// the zero-allocation ΔG path runs in.
///
/// One scratch per incremental state instance. The caller fills
/// [`touched`](Self::touched) (the variables whose input sets evolved
/// under ΔG — line 1 of Fig. 4), invokes [`bounded_scope_in`] or
/// [`pe_reset_scope_in`], and reads the resulting `H⁰` from
/// [`scope`](Self::scope). Between updates every structure keeps its
/// backing storage: the epoch bitmaps clear with one counter bump, the
/// vectors keep their high-water capacity, and the contributor queue
/// follows the engine's 4× overshoot shrink policy — so a steady-state
/// update allocates nothing.
#[derive(Clone, Debug)]
pub struct ScopeScratch {
    /// Caller-filled input: variables with evolved input sets. The scope
    /// functions only read it — callers clear and refill it before each
    /// run (and may inspect it afterwards).
    pub touched: Vec<usize>,
    /// Output `H⁰`, sorted and deduplicated after a run; the scope
    /// functions re-clear it on entry.
    pub scope: Vec<usize>,
    queue: BinaryHeap<Reverse<(u64, usize)>>,
    in_scope: VisitEpoch,
    done: VisitEpoch,
    frontier: Vec<usize>,
    peak_queue: usize,
}

impl Default for ScopeScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl ScopeScratch {
    /// An empty scratch; structures grow lazily to the spec's size.
    pub fn new() -> Self {
        ScopeScratch {
            touched: Vec::new(),
            scope: Vec::new(),
            queue: BinaryHeap::new(),
            in_scope: VisitEpoch::new(0),
            done: VisitEpoch::new(0),
            frontier: Vec::new(),
            peak_queue: 0,
        }
    }

    /// Resets per-run state and sizes the bitmaps for `n` variables.
    /// `touched` is *not* cleared — it is this run's input.
    fn begin_run(&mut self, n: usize) {
        self.in_scope.grow_to(n);
        self.done.grow_to(n);
        self.in_scope.clear();
        self.done.clear();
        self.queue.clear();
        self.scope.clear();
        self.frontier.clear();
        self.peak_queue = 0;
    }

    /// Applies the engine's capacity policy: a one-off spike (one huge
    /// update) should not pin the queue's high-water mark forever, but
    /// shrinking every run would force realloc churn under a steady
    /// update stream.
    fn end_run(&mut self) {
        if self.queue.capacity() > 4 * self.peak_queue.max(1) {
            self.queue.shrink_to(self.peak_queue);
        }
    }

    /// Heap bytes held by the scratch.
    pub fn space_bytes(&self) -> usize {
        self.touched.capacity() * std::mem::size_of::<usize>()
            + self.scope.capacity() * std::mem::size_of::<usize>()
            + self.queue.capacity() * std::mem::size_of::<Reverse<(u64, usize)>>()
            + self.in_scope.space_bytes()
            + self.done.space_bytes()
            + self.frontier.capacity() * std::mem::size_of::<usize>()
    }
}

/// The paper's Fig. 4: a correct and bounded initial scope function for
/// contracting, monotonic algorithms.
///
/// `spec` must be specified over the **updated** graph `G ⊕ ΔG`; `status`
/// holds the old fixpoint `D^r_A` and is adjusted in place to the feasible
/// status `D⁰`; the caller fills `scratch.touched` with the variables
/// whose update-function input sets evolved under `ΔG` (line 1 of Fig. 4)
/// and the resulting `H⁰` lands in `scratch.scope` (sorted, deduplicated).
/// Performs no heap allocation once the scratch has reached its
/// steady-state capacity.
///
/// Processing order follows `<_C`: each popped variable `x` is re-evaluated
/// against the *feasible view* in which inputs not yet determined
/// (`order_key ≥ order_key(x)`) read as their `⊥` value (lines 5–6). If
/// the recomputation shows `x ≺ f_x(Ȳ)` — the stored value is more
/// advanced than anything the surviving contributors justify — `x` is
/// raised, added to `H⁰`, and the variables it contributed to are enqueued
/// (lines 7–9).
///
/// A raise stores `⊥`, not the refined `f_x(Ȳ)`. The refined value is
/// tempting (it can spare the engine a re-derivation) but it corrupts the
/// weakly-deducible timestamp order: when the resumed engine *confirms*
/// the refined value without a change, the variable keeps its pre-update
/// stamp, which may now be smaller than the stamp of the very neighbor
/// that witnesses it — and a later round's `<_C` then misidentifies which
/// endpoint of a deleted edge can be affected (found by differential
/// fuzzing: two successive bridge deletions in CC left a stale component
/// label behind). Resetting to `⊥` restores the invariant by
/// construction: every surviving non-`⊥` value was either untouched (its
/// old stamp and witness are intact) or freshly lowered by the engine
/// (stamped in change order).
///
/// Raises use [`Status::set_unstamped`]: a raise is a rollback, not a
/// step, of the underlying contracting run, and the reset-to-`⊥` above
/// guarantees any value the engine keeps is restamped when re-derived.
pub fn bounded_scope_in<S: FixpointSpec, O: ContributorOracle<S::Value>>(
    spec: &S,
    oracle: &O,
    status: &mut Status<S::Value>,
    scratch: &mut ScopeScratch,
) -> ScopeStats {
    let _span = incgraph_obs::span("scope.h");
    let mut stats = ScopeStats::default();
    scratch.begin_run(spec.num_vars());
    let ScopeScratch {
        touched,
        scope,
        queue,
        in_scope,
        done,
        peak_queue,
        ..
    } = scratch;

    for &x in touched.iter() {
        if in_scope.insert(x) {
            scope.push(x);
            queue.push(Reverse((oracle.order_key(x, status), x)));
            *peak_queue = (*peak_queue).max(queue.len());
            stats.pushes += 1;
        }
    }

    while let Some(Reverse((key, x))) = queue.pop() {
        if !done.insert(x) {
            continue;
        }
        stats.pops += 1;

        let cur = status.get(x);
        // A variable at ⊥ is maximal under ⪯: no raise is possible, so
        // the feasible-view recomputation is skipped (the variable stays
        // in H⁰ if it was touched, and the engine handles any lowering).
        if cur == spec.bottom(x) {
            continue;
        }
        let mut reads = 0u64;
        // Feasible view: trust only inputs determined strictly before x.
        let newv = spec.eval(x, &mut |y| {
            reads += 1;
            if oracle.order_key(y, status) < key {
                status.get(y)
            } else {
                spec.bottom(y)
            }
        });
        stats.evals += 1;
        stats.reads += reads;

        // `x ≺ f_x(Ȳ)` (or incomparable): the stored value is potentially
        // infeasible for G ⊕ ΔG — raise it, all the way to `⊥` (see the
        // function docs for why the refined value must not be stored).
        // Contributors are collected *before* the raise lands so the
        // oracle sees x's pre-raise value.
        if newv != cur && !spec.preceq(&newv, &cur) {
            oracle.contributes_to(x, status, &mut |z| {
                if !done.contains(z) {
                    queue.push(Reverse((oracle.order_key(z, status), z)));
                    stats.pushes += 1;
                }
            });
            *peak_queue = (*peak_queue).max(queue.len());
            status.set_unstamped(x, spec.bottom(x));
            stats.raised += 1;
            if in_scope.insert(x) {
                scope.push(x);
            }
        }
    }

    scope.sort_unstable();
    let scope_len = scope.len();
    scratch.end_run();
    record_scope_obs(&stats, scope_len);
    stats
}

/// Forwards one scope-function invocation's counters to the
/// observability layer (one `enabled` check when no recorder is
/// installed — the scope functions run once per update, not per pop).
fn record_scope_obs(stats: &ScopeStats, scope_len: usize) {
    use incgraph_obs as obs;
    if !obs::enabled() {
        return;
    }
    obs::counter("scope.pops", stats.pops);
    obs::counter("scope.evals", stats.evals);
    obs::counter("scope.reads", stats.reads);
    obs::counter("scope.raised", stats.raised);
    obs::counter("scope.pushes", stats.pushes);
    obs::observe("scope.size", scope_len as u64);
}

/// The Theorem 1 construction: flood the *potentially affected* variables
/// through dependency edges (Example 2's expansion rule) and reset every
/// one of them to its `⊥` value.
///
/// Always correct for any fixpoint algorithm — the resulting status is
/// trivially feasible and the scope valid — but the flood is not bounded
/// by `AFF` (deleting one edge of a connected graph floods the whole
/// component under CC). Used as the `abl-scope` ablation baseline. Runs
/// inside the caller's [`ScopeScratch`] under the same contract as
/// [`bounded_scope_in`].
pub fn pe_reset_scope_in<S: FixpointSpec>(
    spec: &S,
    status: &mut Status<S::Value>,
    scratch: &mut ScopeScratch,
) -> ScopeStats {
    let _span = incgraph_obs::span("scope.pe_reset");
    let mut stats = ScopeStats::default();
    scratch.begin_run(spec.num_vars());
    let ScopeScratch {
        touched,
        scope,
        in_scope,
        frontier,
        ..
    } = scratch;
    // Dense epoch bitmap instead of a HashSet: membership is one compare,
    // and the flood is the hot loop of the ablation baseline.
    for &x in touched.iter() {
        if in_scope.insert(x) {
            scope.push(x);
            frontier.push(x);
            stats.pushes += 1;
        }
    }
    while let Some(x) = frontier.pop() {
        stats.pops += 1;
        spec.dependents(x, &mut |z| {
            if in_scope.insert(z) {
                scope.push(z);
                frontier.push(z);
                stats.pushes += 1;
            }
        });
    }
    scope.sort_unstable();
    for &x in scope.iter() {
        let bot = spec.bottom(x);
        if status.get(x) != bot {
            status.set_unstamped(x, bot);
            stats.raised += 1;
        }
    }
    let scope_len = scope.len();
    scratch.end_run();
    record_scope_obs(&stats, scope_len);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_fixpoint;

    /// Min-label CC over a mutable adjacency, as a test double for the
    /// real algorithm in `incgraph-algos`.
    struct Cc {
        adj: Vec<Vec<usize>>,
    }

    impl Cc {
        fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
            let mut adj = vec![Vec::new(); n];
            for &(a, b) in edges {
                adj[a].push(b);
                adj[b].push(a);
            }
            Cc { adj }
        }
    }

    impl FixpointSpec for Cc {
        type Value = u32;
        fn num_vars(&self) -> usize {
            self.adj.len()
        }
        fn bottom(&self, x: usize) -> u32 {
            x as u32
        }
        fn eval<R: FnMut(usize) -> u32>(&self, x: usize, read: &mut R) -> u32 {
            let mut m = x as u32;
            for &y in &self.adj[x] {
                m = m.min(read(y));
            }
            m
        }
        fn dependents<P: FnMut(usize)>(&self, x: usize, push: &mut P) {
            for &y in &self.adj[x] {
                push(y);
            }
        }
        fn preceq(&self, a: &u32, b: &u32) -> bool {
            a <= b
        }
        fn rank(&self, _x: usize, v: &u32) -> u64 {
            *v as u64
        }
    }

    /// Timestamp-based oracle over the live status, as IncCC uses.
    struct StampOracle<'a> {
        adj: &'a [Vec<usize>],
    }

    impl ContributorOracle<u32> for StampOracle<'_> {
        fn order_key(&self, x: usize, status: &Status<u32>) -> u64 {
            status.stamp(x)
        }
        fn contributes_to<P: FnMut(usize)>(&self, x: usize, status: &Status<u32>, push: &mut P) {
            let sx = status.stamp(x);
            for &z in &self.adj[x] {
                if status.stamp(z) > sx {
                    push(z);
                }
            }
        }
    }

    /// A fresh scratch whose `touched` is `vars`.
    fn touching(vars: &[usize]) -> ScopeScratch {
        let mut scratch = ScopeScratch::new();
        scratch.touched.extend_from_slice(vars);
        scratch
    }

    #[test]
    fn bounded_scope_handles_bridge_deletion() {
        // Path 0-1-2-3: all labels converge to 0. Delete (1,2): labels of
        // {2,3} must recover to 2.
        let old = Cc::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut status = Status::init(&old, true);
        run_fixpoint(&old, &mut status, 0..4);
        assert_eq!(status.values(), &[0, 0, 0, 0]);

        let new = Cc::from_edges(4, &[(0, 1), (2, 3)]);
        // Oracle keys/stamps come from the old run, and contributor
        // expansion uses the old adjacency (the deleted edge carried the
        // old change propagation); `old` stays alive, so the oracle
        // borrows its adjacency directly instead of cloning it.
        let mut scratch = touching(&[1, 2]);
        bounded_scope_in(
            &new,
            &StampOracle { adj: &old.adj },
            &mut status,
            &mut scratch,
        );
        // h must have raised 2 (and possibly 3) back toward their ids.
        assert!(scratch.scope.contains(&2));
        run_fixpoint(&new, &mut status, scratch.scope.iter().copied());
        assert_eq!(status.values(), &[0, 0, 2, 2]);
        // Boundedness: component {0,1} minus the touched var 1 stays out.
        assert!(!scratch.scope.contains(&0));
    }

    #[test]
    fn bounded_scope_noop_when_updates_dont_matter() {
        // Cycle 0-1-2-0 plus chord (0,2): deleting the chord changes no
        // label; h must raise nothing beyond re-checking the touched vars.
        let old = Cc::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let mut status = Status::init(&old, true);
        run_fixpoint(&old, &mut status, 0..3);
        let new = Cc::from_edges(3, &[(0, 1), (1, 2)]);
        let mut scratch = touching(&[0, 2]);
        bounded_scope_in(
            &new,
            &StampOracle { adj: &old.adj },
            &mut status,
            &mut scratch,
        );
        run_fixpoint(&new, &mut status, scratch.scope.iter().copied());
        assert_eq!(status.values(), &[0, 0, 0]);
        assert!(scratch.scope.len() <= 2, "only the touched endpoints");
    }

    #[test]
    fn bounded_scope_insertion_lowers_through_engine() {
        // Two components {0,1} and {2,3}; insert (1,2): labels of {2,3}
        // drop to 0. h raises nothing; the engine does the lowering.
        let old = Cc::from_edges(4, &[(0, 1), (2, 3)]);
        let mut status = Status::init(&old, true);
        run_fixpoint(&old, &mut status, 0..4);
        assert_eq!(status.values(), &[0, 0, 2, 2]);
        let new = Cc::from_edges(4, &[(0, 1), (2, 3), (1, 2)]);
        let mut scratch = touching(&[1, 2]);
        let stats = bounded_scope_in(
            &new,
            &StampOracle { adj: &old.adj },
            &mut status,
            &mut scratch,
        );
        assert_eq!(stats.raised, 0, "insertions need no raises");
        run_fixpoint(&new, &mut status, scratch.scope.iter().copied());
        assert_eq!(status.values(), &[0, 0, 0, 0]);
    }

    #[test]
    fn pe_reset_floods_component_and_stays_correct() {
        let old = Cc::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let mut status = Status::init(&old, false);
        run_fixpoint(&old, &mut status, 0..5);
        let new = Cc::from_edges(5, &[(0, 1), (2, 3)]);
        let mut scratch = touching(&[1, 2]);
        pe_reset_scope_in(&new, &mut status, &mut scratch);
        // The flood covers the whole old component reachable in the new
        // graph from the endpoints — including 0 (the Example 2 cost).
        assert!(scratch.scope.contains(&0));
        assert!(!scratch.scope.contains(&4), "isolated node untouched");
        run_fixpoint(&new, &mut status, scratch.scope.iter().copied());
        assert_eq!(status.values(), &[0, 0, 2, 2, 4]);
    }

    #[test]
    fn scope_results_are_sorted_and_deduped() {
        let g = Cc::from_edges(3, &[(0, 1)]);
        let mut status = Status::init(&g, false);
        run_fixpoint(&g, &mut status, 0..3);
        let mut scratch = touching(&[1, 1, 0]);
        pe_reset_scope_in(&g, &mut status, &mut scratch);
        assert_eq!(scratch.scope, vec![0, 1]);
    }

    #[test]
    fn scratch_reuse_is_identical_to_fresh_calls() {
        // Repeated runs through one scratch must produce the same scope,
        // counters and raises as the same runs through a fresh scratch
        // each, with no state bleeding between runs.
        let old = Cc::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut s1 = Status::init(&old, true);
        run_fixpoint(&old, &mut s1, 0..4);
        let mut s2 = s1.clone();

        let new = Cc::from_edges(4, &[(0, 1), (2, 3)]);
        let oracle = StampOracle { adj: &old.adj };
        let mut reused = ScopeScratch::new();
        for _round in 0..3 {
            // Round 0 raises; later rounds re-run h on the now-feasible
            // status, where it must be idempotent on both sides.
            let mut fresh = touching(&[1, 2]);
            let fresh_stats = bounded_scope_in(&new, &oracle, &mut s1, &mut fresh);
            reused.touched.clear();
            reused.touched.extend([1usize, 2]);
            let reused_stats = bounded_scope_in(&new, &oracle, &mut s2, &mut reused);
            assert_eq!(fresh.scope, reused.scope);
            assert_eq!(fresh_stats, reused_stats);
            assert_eq!(s1.values(), s2.values());
        }
    }

    #[test]
    fn pe_reset_scratch_reuse_matches_fresh_scratch() {
        // A scratch that already served another run (here: a bounded-scope
        // run over different variables) floods exactly like a fresh one.
        let old = Cc::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let mut s1 = Status::init(&old, false);
        run_fixpoint(&old, &mut s1, 0..5);
        let mut s2 = s1.clone();
        let new = Cc::from_edges(5, &[(0, 1), (2, 3)]);
        let mut fresh = touching(&[1, 2]);
        let fresh_stats = pe_reset_scope_in(&new, &mut s1, &mut fresh);
        let mut reused = touching(&[0, 3, 4]);
        pe_reset_scope_in(&old, &mut s2.clone(), &mut reused);
        reused.touched.clear();
        reused.touched.extend([1usize, 2]);
        let reused_stats = pe_reset_scope_in(&new, &mut s2, &mut reused);
        assert_eq!(fresh.scope, reused.scope);
        assert_eq!(fresh_stats, reused_stats);
        assert_eq!(s1.values(), s2.values());
    }
}
