//! Radix bucket queue for rank-ordered worklists.
//!
//! A binary heap pays `O(log n)` per push and pop plus a
//! comparison-heavy pop path. Ranks, however, are a *performance hint*,
//! not a correctness requirement — for C2 (monotone and contracting)
//! step functions the fixpoint is unique under any schedule (paper
//! Lemma 2) — so a coarse delta-stepping style bucket queue is enough:
//! ranks map to one of [`NUM_BUCKETS`] buckets by a configurable right
//! shift, pushes append to the target bucket in O(1), and pops scan a
//! cursor over the bucket array. Entries within a bucket come out FIFO,
//! which keeps the schedule deterministic for a given push sequence.
//!
//! Non-monotone rank sequences are legal (a CC label can drop below the
//! current cursor); the cursor simply moves backward on such pushes.
//! Ranks at or above `NUM_BUCKETS << shift` all land in the final
//! overflow bucket and are served FIFO among themselves.

/// Number of buckets; ranks beyond the addressable range share the last
/// (overflow) bucket.
pub const NUM_BUCKETS: usize = 1024;

/// Words in the occupancy bitmap (one bit per bucket).
const OCC_WORDS: usize = NUM_BUCKETS / 64;

/// A monotone-cursor bucket queue mapping `rank >> shift` to a bucket.
///
/// Popped prefixes of each bucket are tracked with a head index so a pop
/// is O(1) amortized; a bucket's storage is reused the moment its last
/// entry is served. An occupancy bitmap (one bit per bucket) lets
/// [`min_bucket`](Self::min_bucket) jump to the next non-empty bucket
/// with a handful of `trailing_zeros` word scans instead of walking the
/// bucket array slot by slot — on sparse incremental worklists, where a
/// scope touches a few ranks scattered over the 1024-slot range, that
/// linear sweep used to dominate the pop path.
#[derive(Clone, Debug)]
pub struct BucketQueue {
    buckets: Vec<Vec<(u64, usize)>>,
    /// Index of the first unserved entry in each bucket.
    heads: Vec<usize>,
    /// Bit `b` is set iff bucket `b` has unserved entries.
    occ: [u64; OCC_WORDS],
    /// Rank subtracted (saturating) before binning, so the bucket range
    /// can be re-centered on the band a run actually occupies.
    base: u64,
    shift: u32,
    /// Lowest bucket that may be non-empty.
    cursor: usize,
    len: usize,
    /// Sum of the buckets' allocated capacities, in entries.
    capacity: usize,
}

impl Default for BucketQueue {
    /// An exact-binning queue (`shift = 0`).
    fn default() -> Self {
        BucketQueue::new(0)
    }
}

impl BucketQueue {
    /// Creates an empty queue; ranks are binned as `rank >> shift`.
    ///
    /// A shift of 0 gives exact ordering for ranks `< NUM_BUCKETS`; larger
    /// shifts trade scheduling precision for range. Correctness never
    /// depends on the choice.
    pub fn new(shift: u32) -> Self {
        BucketQueue {
            buckets: vec![Vec::new(); NUM_BUCKETS],
            heads: vec![0; NUM_BUCKETS],
            occ: [0; OCC_WORDS],
            base: 0,
            shift,
            cursor: NUM_BUCKETS,
            len: 0,
            capacity: 0,
        }
    }

    /// Re-centers the binning window: ranks are binned as
    /// `(rank - base) >> shift` (saturating below `base`). An incremental
    /// run's seed ranks sit in a narrow absolute band — SSSP distances
    /// after a small ΔG are all ≈ their converged values — and a fixed
    /// `rank >> shift` collapses that band into a handful of buckets,
    /// degrading the schedule toward FIFO and re-evaluating variables an
    /// exact order would have served once. Centering the 1024 buckets on
    /// the observed band restores near-exact ordering where it matters.
    /// Binning precision is a performance knob only; correctness never
    /// depends on it.
    pub fn reconfigure(&mut self, base: u64, shift: u32) {
        debug_assert!(
            self.is_empty(),
            "reconfiguring with queued entries would scramble their binning"
        );
        self.base = base;
        self.shift = shift;
    }

    /// The bucket a rank maps to.
    #[inline]
    pub fn bucket_of(&self, rank: u64) -> usize {
        ((rank.saturating_sub(self.base) >> self.shift) as usize).min(NUM_BUCKETS - 1)
    }

    /// Number of queued (unserved) entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `var` at `rank` in O(1).
    #[inline]
    pub fn push(&mut self, rank: u64, var: usize) {
        let b = self.bucket_of(rank);
        let bucket = &mut self.buckets[b];
        let before = bucket.capacity();
        bucket.push((rank, var));
        self.capacity += bucket.capacity() - before;
        self.occ[b / 64] |= 1u64 << (b % 64);
        self.len += 1;
        if b < self.cursor {
            self.cursor = b;
        }
    }

    /// Index of the lowest non-empty bucket, advancing the cursor to it.
    ///
    /// Scans the occupancy bitmap from the cursor's word, so skipping an
    /// arbitrary run of empty buckets costs at most [`OCC_WORDS`] word
    /// tests rather than one test per bucket.
    pub fn min_bucket(&mut self) -> Option<usize> {
        if self.len == 0 {
            self.cursor = NUM_BUCKETS;
            return None;
        }
        let mut w = self.cursor / 64;
        let mut word = self.occ[w] & (u64::MAX << (self.cursor % 64));
        loop {
            if word != 0 {
                let b = w * 64 + word.trailing_zeros() as usize;
                self.cursor = b;
                return Some(b);
            }
            w += 1;
            if w >= OCC_WORDS {
                debug_assert!(false, "len > 0 but occupancy bitmap is empty");
                self.cursor = NUM_BUCKETS;
                return None;
            }
            word = self.occ[w];
        }
    }

    /// Pops the next `(rank, var)` in bucket order (FIFO within a bucket).
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        let b = self.min_bucket()?;
        let e = self.buckets[b][self.heads[b]];
        self.heads[b] += 1;
        self.len -= 1;
        if self.heads[b] == self.buckets[b].len() {
            self.buckets[b].clear();
            self.heads[b] = 0;
            self.occ[b / 64] &= !(1u64 << (b % 64));
        }
        Some(e)
    }

    /// Drops all queued entries, keeping allocated bucket storage.
    pub fn clear(&mut self) {
        for b in 0..NUM_BUCKETS {
            self.buckets[b].clear();
            self.heads[b] = 0;
        }
        self.occ = [0; OCC_WORDS];
        self.cursor = NUM_BUCKETS;
        self.len = 0;
    }

    /// Entries of bucket storage currently allocated (queued or not).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops all queued entries *and* frees the bucket storage — for a
    /// queue whose high-water mark (a batch run seeding every variable)
    /// is far above what the next runs will need.
    pub fn release(&mut self) {
        self.clear();
        self.buckets.iter_mut().for_each(|b| *b = Vec::new());
        self.capacity = 0;
    }

    /// Heap bytes held by the bucket storage.
    pub fn space_bytes(&self) -> usize {
        use std::mem::size_of;
        self.capacity * size_of::<(u64, usize)>()
            + self.buckets.capacity() * size_of::<Vec<(u64, usize)>>()
            + self.heads.capacity() * size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_bucket_order_fifo_within_bucket() {
        let mut q = BucketQueue::new(0);
        q.push(5, 50);
        q.push(2, 20);
        q.push(5, 51);
        q.push(0, 0);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(0, 0), (2, 20), (5, 50), (5, 51)]);
        assert!(q.is_empty());
    }

    #[test]
    fn cursor_moves_backward_on_lower_push() {
        let mut q = BucketQueue::new(0);
        q.push(9, 1);
        assert_eq!(q.pop(), Some((9, 1)));
        q.push(3, 2); // below the drained cursor position
        q.push(9, 3);
        assert_eq!(q.pop(), Some((3, 2)));
        assert_eq!(q.pop(), Some((9, 3)));
    }

    #[test]
    fn shift_coarsens_binning() {
        let mut q = BucketQueue::new(4);
        // Ranks 0..16 share bucket 0 and come out FIFO.
        q.push(15, 1);
        q.push(0, 2);
        q.push(16, 3); // bucket 1
        assert_eq!(q.pop(), Some((15, 1)));
        assert_eq!(q.pop(), Some((0, 2)));
        assert_eq!(q.pop(), Some((16, 3)));
    }

    #[test]
    fn overflow_ranks_share_last_bucket() {
        let mut q = BucketQueue::new(0);
        q.push(u64::MAX - 1, 1);
        q.push(NUM_BUCKETS as u64 * 7, 2);
        q.push(3, 3);
        assert_eq!(q.pop(), Some((3, 3)));
        // Both overflow entries are in the last bucket, FIFO.
        assert_eq!(q.pop(), Some((u64::MAX - 1, 1)));
        assert_eq!(q.pop(), Some((NUM_BUCKETS as u64 * 7, 2)));
    }

    #[test]
    fn capacity_tracks_bucket_storage_and_release_frees_it() {
        let mut q = BucketQueue::new(0);
        assert_eq!(q.capacity(), 0);
        for i in 0..100u64 {
            q.push(i % 10, i as usize);
        }
        let held: usize = q.buckets.iter().map(Vec::capacity).sum();
        assert_eq!(q.capacity(), held);
        assert!(held >= 100);
        q.clear();
        assert_eq!(q.capacity(), held, "clear keeps storage");
        q.push(3, 7);
        q.release();
        assert!(q.is_empty());
        assert_eq!(q.capacity(), 0);
        assert!(q.buckets.iter().all(|b| b.capacity() == 0));
        q.push(1, 42);
        assert_eq!(q.pop(), Some((1, 42)));
    }

    #[test]
    fn min_bucket_tracks_lowest_nonempty() {
        let mut q = BucketQueue::new(0);
        assert_eq!(q.min_bucket(), None);
        q.push(7, 1);
        assert_eq!(q.min_bucket(), Some(7));
        q.push(4, 2);
        assert_eq!(q.min_bucket(), Some(4));
        q.pop();
        assert_eq!(q.min_bucket(), Some(7));
    }

    #[test]
    fn reconfigure_recenters_binning() {
        let mut q = BucketQueue::new(0);
        q.reconfigure(1_000_000, 2);
        q.push(1_000_009, 1); // (9 >> 2) = bucket 2
        q.push(1_000_001, 2); // bucket 0
        q.push(999_000, 3); // below base saturates into bucket 0, FIFO
        assert_eq!(q.pop(), Some((1_000_001, 2)));
        assert_eq!(q.pop(), Some((999_000, 3)));
        assert_eq!(q.pop(), Some((1_000_009, 1)));
    }

    #[test]
    fn clear_resets_but_reuses() {
        let mut q = BucketQueue::new(0);
        for i in 0..100u64 {
            q.push(i % 10, i as usize);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(1, 42);
        assert_eq!(q.pop(), Some((1, 42)));
    }
}
