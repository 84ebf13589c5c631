//! Epoch-versioned membership bitmaps.
//!
//! Scope floods and frontier traversals need a "have I visited x yet?"
//! set that is (a) dense — hashing every probe costs more than the probe
//! itself — and (b) free to clear, because an incremental run that
//! inspects 40 variables must not pay `O(|Ψ|)` to reset a bitmap of a
//! million slots. [`VisitEpoch`] versions each slot with the epoch of its
//! last insertion: clearing is one counter bump, membership is one `u32`
//! compare, and the backing array is allocated once and reused across
//! runs — the same trick the engine's scratch tables use, packaged for
//! the scope functions.

/// A reusable membership set over `0..len` with `O(1)` clearing.
#[derive(Clone, Debug)]
pub struct VisitEpoch {
    /// Epoch in which each slot was last inserted; `0` = never.
    mark: Vec<u32>,
    /// Current epoch; slots are members iff `mark[x] == epoch`.
    epoch: u32,
    /// Number of members in the current epoch.
    count: usize,
}

impl VisitEpoch {
    /// An empty set over `0..len`.
    pub fn new(len: usize) -> Self {
        VisitEpoch {
            mark: vec![0; len],
            epoch: 1,
            count: 0,
        }
    }

    /// Capacity (the universe size, not the member count).
    pub fn len(&self) -> usize {
        self.mark.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.mark.is_empty()
    }

    /// Number of members inserted since the last [`clear`](Self::clear).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Inserts `x`; returns `true` if it was not yet a member.
    #[inline]
    pub fn insert(&mut self, x: usize) -> bool {
        if self.mark[x] == self.epoch {
            false
        } else {
            self.mark[x] = self.epoch;
            self.count += 1;
            true
        }
    }

    /// Whether `x` is a member.
    #[inline]
    pub fn contains(&self, x: usize) -> bool {
        self.mark[x] == self.epoch
    }

    /// Empties the set in `O(1)` by advancing the epoch. On the (once per
    /// `u32::MAX` clears) wrap, the backing array is hard-reset.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.count = 0;
    }

    /// Test-only: jumps the current epoch so wraparound behaviour can be
    /// exercised without `u32::MAX` real clears. Membership is recomputed
    /// against the new epoch, so the set's invariants stay intact.
    #[doc(hidden)]
    pub fn jump_to_epoch(&mut self, epoch: u32) {
        assert!(epoch > 0, "epoch 0 is reserved for never-inserted slots");
        self.epoch = epoch;
        self.count = self.mark.iter().filter(|&&m| m == epoch).count();
    }

    /// Grows the universe to `len` slots (no-op if already that large).
    /// Fresh slots are non-members.
    pub fn grow_to(&mut self, len: usize) {
        if len > self.mark.len() {
            self.mark.resize(len, 0);
        }
    }

    /// Heap bytes held by the set.
    pub fn space_bytes(&self) -> usize {
        self.mark.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_roundtrip() {
        let mut s = VisitEpoch::new(8);
        assert!(s.insert(3));
        assert!(!s.insert(3), "second insert is a no-op");
        assert!(s.contains(3));
        assert!(!s.contains(4));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn clear_is_constant_time_epoch_bump() {
        let mut s = VisitEpoch::new(4);
        s.insert(0);
        s.insert(1);
        s.clear();
        assert_eq!(s.count(), 0);
        assert!(!s.contains(0) && !s.contains(1));
        assert!(s.insert(0), "slots are reusable after clear");
    }

    #[test]
    fn epoch_wrap_hard_resets() {
        let mut s = VisitEpoch::new(2);
        s.epoch = u32::MAX - 1;
        s.insert(0);
        s.clear(); // epoch = MAX
        s.insert(1);
        s.clear(); // wrap: hard reset
        assert!(!s.contains(0) && !s.contains(1));
        assert!(s.insert(0));
    }

    #[test]
    fn grow_preserves_members() {
        let mut s = VisitEpoch::new(2);
        s.insert(1);
        s.grow_to(10);
        assert!(s.contains(1));
        assert!(!s.contains(9));
        assert!(s.insert(9));
    }
}
