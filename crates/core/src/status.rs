//! Status storage `D_A`: variable values plus optional timestamps, and
//! the write [`Journal`] that records a run's output derivative.

use crate::spec::FixpointSpec;

/// The variables a run wrote, each with its value before the first write
/// since the last drain: the run's output derivative, recorded where the
/// values are written. Off until a holder that owes a delta starts it;
/// one entry per variable between drains, so it never outgrows `|Ψ|`.
#[derive(Clone, Debug)]
pub struct Journal<V> {
    /// `(x, old)`, in write order until [`sort`](Self::sort)ed.
    writes: Vec<(u32, V)>,
    /// Bit `x` is set iff `x` has an entry in `writes`.
    logged: Vec<u64>,
    /// Variables covered: the cap on `writes`.
    vars: usize,
    on: bool,
}

impl<V> Default for Journal<V> {
    fn default() -> Self {
        Journal {
            writes: Vec::new(),
            logged: Vec::new(),
            vars: 0,
            on: false,
        }
    }
}

impl<V: Copy + PartialEq> Journal<V> {
    /// Starts recording writes to `vars` variables afresh (`on`), or
    /// stops and releases the memory.
    pub fn switch(&mut self, on: bool, vars: usize) {
        *self = Journal::default();
        if on {
            self.on = true;
            self.vars = vars;
            self.logged = vec![0; vars.div_ceil(64)];
        }
    }

    /// Notes that `x`, holding `old`, is being written; only the first
    /// write since the last drain is kept.
    #[inline]
    pub fn record(&mut self, x: usize, old: V) {
        let (word, bit) = (x / 64, 1u64 << (x % 64));
        if !self.on || self.logged[word] & bit != 0 {
            return;
        }
        self.logged[word] |= bit;
        if self.writes.len() == self.writes.capacity() {
            let room = self.writes.len().max(16).min(self.vars - self.writes.len());
            self.writes.reserve_exact(room);
        }
        self.writes.push((x as u32, old));
    }

    /// Records every `x` whose value differs between `before` and `after`:
    /// how a wholesale replacement (a recompute, a load) stays journaled.
    pub fn record_changes(
        &mut self,
        before: impl IntoIterator<Item = V>,
        after: impl IntoIterator<Item = V>,
    ) {
        if !self.on {
            return;
        }
        for (x, (a, b)) in before.into_iter().zip(after).enumerate() {
            if a != b {
                self.record(x, a);
            }
        }
    }

    /// Orders the entries by variable.
    pub fn sort(&mut self) {
        self.writes.sort_unstable_by_key(|&(x, _)| x);
    }

    /// The `(x, old)` pairs, one per written variable.
    pub fn entries(&self) -> &[(u32, V)] {
        &self.writes
    }

    /// `x`'s value at the last drain if it has been written since.
    /// Requires [`sort`](Self::sort)ed entries.
    pub fn old(&self, x: usize) -> Option<V> {
        let logged = self.logged.get(x / 64)? >> (x % 64) & 1 != 0;
        let at = logged.then(|| self.writes.binary_search_by_key(&(x as u32), |e| e.0))?;
        at.ok().map(|i| self.writes[i].1)
    }

    /// The drain: forgets every entry, keeping the capacity.
    pub fn clear(&mut self) {
        for &(x, _) in &self.writes {
            self.logged[x as usize / 64] = 0; // every set bit is an entry's
        }
        self.writes.clear();
    }

    /// Heap bytes held.
    pub fn space_bytes(&self) -> usize {
        self.writes.capacity() * std::mem::size_of::<(u32, V)>() + self.logged.capacity() * 8
    }
}

/// The status `D_A = (S_A, R_A)` of a fixpoint computation: the current
/// value of every status variable, plus — when enabled — a **timestamp**
/// per variable recording the logical time of its last change.
///
/// Timestamps are the one auxiliary structure the paper's *weakly
/// deducible* incrementalization is allowed to add (§4): they are written
/// as a byproduct of the batch run and consulted by the contributor
/// oracles of CC and Sim to derive the order `<_C`. Deducible algorithms
/// (SSSP, DFS, LCC) run with timestamps disabled and pay nothing.
///
/// Every write goes through [`set`](Self::set) or
/// [`set_unstamped`](Self::set_unstamped), which also feed the
/// [`Journal`] when one is started.
#[derive(Clone, Debug)]
pub struct Status<V> {
    vals: Vec<V>,
    /// Last-change logical time per variable; empty when not tracking.
    stamps: Vec<u64>,
    clock: u64,
    journal: Journal<V>,
}

impl<V: Copy + PartialEq> Status<V> {
    /// Initializes every variable to its `⊥` value.
    pub fn init<S: FixpointSpec<Value = V>>(spec: &S, track_stamps: bool) -> Self {
        let n = spec.num_vars();
        let vals = (0..n).map(|x| spec.bottom(x)).collect();
        let stamps = if track_stamps { vec![0; n] } else { Vec::new() };
        Status::from_parts(vals, stamps, 0)
    }

    /// Builds a status directly from values (no timestamps).
    pub fn from_values(vals: Vec<V>) -> Self {
        Status::from_parts(vals, Vec::new(), 0)
    }

    /// Rebuilds a status from its serialized parts: values, timestamps
    /// (empty = not tracked) and the logical clock. The checkpoint/restore
    /// path needs this because weakly deducible classes derive the
    /// contributor order `<_C` from the stamps — a restore that dropped
    /// them would silently degrade every later incremental run.
    ///
    /// # Panics
    /// Panics if `stamps` is non-empty with a length other than
    /// `vals.len()`, or if any stamp exceeds `clock`.
    pub fn from_parts(vals: Vec<V>, stamps: Vec<u64>, clock: u64) -> Self {
        assert!(
            stamps.is_empty() || stamps.len() == vals.len(),
            "stamp vector length {} does not match {} values",
            stamps.len(),
            vals.len()
        );
        assert!(
            stamps.iter().all(|&s| s <= clock),
            "stamp beyond the logical clock {clock}"
        );
        Status {
            vals,
            stamps,
            clock,
            journal: Journal::default(),
        }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether there are no variables.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Current value of variable `x`.
    #[inline]
    pub fn get(&self, x: usize) -> V {
        self.vals[x]
    }

    /// All values, in variable order.
    pub fn values(&self) -> &[V] {
        &self.vals
    }

    /// Sets `x` to `v`, advancing the logical clock and stamping `x` if
    /// timestamps are tracked.
    #[inline]
    pub fn set(&mut self, x: usize, v: V) {
        self.set_unstamped(x, v);
        self.clock += 1;
        if !self.stamps.is_empty() {
            self.stamps[x] = self.clock;
        }
    }

    /// Sets `x` without advancing the clock or the stamp. The scope
    /// function uses this when *raising* values back toward `⊥`: stamps
    /// must keep describing the order of the (conceptual) batch run.
    #[inline]
    pub fn set_unstamped(&mut self, x: usize, v: V) {
        self.journal.record(x, self.vals[x]);
        self.vals[x] = v;
    }

    /// The write journal (off unless started).
    pub fn journal(&self) -> &Journal<V> {
        &self.journal
    }

    /// The write journal, to start, sort or drain it.
    pub fn journal_mut(&mut self) -> &mut Journal<V> {
        &mut self.journal
    }

    /// Starts journaling writes to every variable (`on`), or stops.
    pub fn set_journal(&mut self, on: bool) {
        self.journal.switch(on, self.vals.len());
    }

    /// Takes over the journal of `prev`, the status this one replaces
    /// (a recompute or a load, over the same variables), and records
    /// every value that differs, so the journal still describes the
    /// change since its last drain.
    pub fn carry_journal(&mut self, prev: Status<V>) {
        let mut journal = prev.journal;
        journal.record_changes(prev.vals, self.vals.iter().copied());
        self.journal = journal;
    }

    /// Whether timestamps are tracked.
    pub fn tracks_stamps(&self) -> bool {
        !self.stamps.is_empty()
    }

    /// Timestamp of the last change to `x` (0 if never changed).
    ///
    /// # Panics
    /// Panics if timestamps are not tracked.
    #[inline]
    pub fn stamp(&self, x: usize) -> u64 {
        self.stamps[x]
    }

    /// All timestamps, in variable order (empty when not tracked). The
    /// serialization counterpart of [`from_parts`](Self::from_parts).
    pub fn stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// Current logical clock (total number of stamped changes).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Heap bytes held; timestamps show up here, which is how the space
    /// experiment (Fig. 8) sees the deducible/weakly-deducible difference.
    pub fn space_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<V>()
            + self.stamps.capacity() * std::mem::size_of::<u64>()
            + self.journal.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FixpointSpec;

    /// Minimal spec: three variables, bottom = 10, no deps.
    struct Toy;
    impl FixpointSpec for Toy {
        type Value = u32;
        fn num_vars(&self) -> usize {
            3
        }
        fn bottom(&self, _x: usize) -> u32 {
            10
        }
        fn eval<R: FnMut(usize) -> u32>(&self, _x: usize, _read: &mut R) -> u32 {
            10
        }
        fn dependents<P: FnMut(usize)>(&self, _x: usize, _push: &mut P) {}
        fn preceq(&self, a: &u32, b: &u32) -> bool {
            a <= b
        }
    }

    #[test]
    fn init_fills_bottoms() {
        let s = Status::init(&Toy, false);
        assert_eq!(s.values(), &[10, 10, 10]);
        assert!(!s.tracks_stamps());
    }

    #[test]
    fn stamps_record_change_order() {
        let mut s = Status::init(&Toy, true);
        s.set(2, 5);
        s.set(0, 7);
        assert_eq!(s.stamp(1), 0);
        assert!(s.stamp(2) < s.stamp(0), "2 changed before 0");
        assert_eq!(s.clock(), 2);
    }

    #[test]
    fn unstamped_set_preserves_stamps() {
        let mut s = Status::init(&Toy, true);
        s.set(1, 4);
        let st = s.stamp(1);
        s.set_unstamped(1, 9);
        assert_eq!(s.get(1), 9);
        assert_eq!(s.stamp(1), st);
        assert_eq!(s.clock(), 1);
    }

    #[test]
    fn journal_keeps_the_first_old_value_until_drained() {
        let mut s = Status::init(&Toy, false);
        s.set(1, 4);
        assert!(s.journal().entries().is_empty(), "off until started");
        s.set_journal(true);
        s.set(2, 5);
        s.set(2, 6);
        s.set_unstamped(0, 7);
        s.journal_mut().sort();
        assert_eq!(s.journal().entries(), &[(0, 10), (2, 10)]);
        s.journal_mut().clear();
        s.set(2, 8);
        assert_eq!(s.journal().entries(), &[(2, 6)]);
    }

    #[test]
    fn sorted_journal_answers_old_values() {
        let mut s = Status::init(&Wide(200), false);
        s.set_journal(true);
        for x in [150, 3, 64, 63, 199] {
            s.set(x, 7);
        }
        s.journal_mut().sort();
        let order: Vec<u32> = s.journal().entries().iter().map(|e| e.0).collect();
        assert_eq!(order, [3, 63, 64, 150, 199]);
        let old: Vec<_> = (0..200)
            .filter_map(|x| s.journal().old(x).map(|v| (x, v)))
            .collect();
        assert_eq!(old, [(3, 0), (63, 0), (64, 0), (150, 0), (199, 0)]);
    }

    #[test]
    fn journal_never_outgrows_the_variable_count() {
        let spec = Wide(1000);
        let mut s = Status::init(&spec, false);
        s.set_journal(true);
        for round in 0..5u32 {
            for x in 0..1000 {
                s.set(x, round);
            }
        }
        assert_eq!(s.journal().entries().len(), 1000);
        assert!(s.journal().space_bytes() <= 1000 * 8 + 1000usize.div_ceil(64) * 8);
    }

    #[test]
    fn carried_journal_records_what_a_replacement_changed() {
        let mut s = Status::init(&Toy, false);
        s.set_journal(true);
        s.set(0, 3);
        let fresh = Status::from_values(vec![5, 10, 2]);
        let prev = std::mem::replace(&mut s, fresh);
        s.carry_journal(prev);
        s.journal_mut().sort();
        // 0 keeps its pre-drain value, 2 is new, 1 never moved.
        assert_eq!(s.journal().entries(), &[(0, 10), (2, 10)]);
    }

    /// `n` variables at `⊥ = 0`, no deps.
    struct Wide(usize);
    impl FixpointSpec for Wide {
        type Value = u32;
        fn num_vars(&self) -> usize {
            self.0
        }
        fn bottom(&self, _x: usize) -> u32 {
            0
        }
        fn eval<R: FnMut(usize) -> u32>(&self, _x: usize, _read: &mut R) -> u32 {
            0
        }
        fn dependents<P: FnMut(usize)>(&self, _x: usize, _push: &mut P) {}
        fn preceq(&self, a: &u32, b: &u32) -> bool {
            a <= b
        }
    }

    #[test]
    fn space_accounts_for_stamps() {
        let with = Status::init(&Toy, true).space_bytes();
        let without = Status::init(&Toy, false).space_bytes();
        assert!(with > without);
    }
}
