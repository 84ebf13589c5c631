//! Property tests for the engine's two scheduling primitives, driven by
//! the same SplitMix64 generator the fuzzing oracle uses.
//!
//! * [`BucketQueue`] is checked against a brute-force reference model:
//!   among all queued entries, a pop must serve the earliest-pushed entry
//!   of the lowest bucket. That FIFO-within-bucket discipline is what
//!   makes the engine's schedule deterministic, so it must hold under
//!   arbitrary interleavings of pushes, pops, clears and storage
//!   releases — including pushes below the drained cursor and overflow
//!   ranks.
//! * [`VisitEpoch`] is checked against a `HashSet` model across random
//!   insert/contains/clear/grow schedules, including epochs pinned next
//!   to `u32::MAX` so the wraparound hard-reset path runs.

use incgraph_core::bucket::NUM_BUCKETS;
use incgraph_core::{BucketQueue, VisitEpoch};
use std::collections::HashSet;

/// SplitMix64 — same generator as `incgraph-oracle`, inlined so the core
/// crate's tests stay dependency-free.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Reference model: a flat list of queued entries in push order. A pop
/// serves the earliest entry of the lowest bucket.
struct RefQueue {
    entries: Vec<(u64, usize)>,
    shift: u32,
}

impl RefQueue {
    fn bucket_of(&self, rank: u64) -> usize {
        ((rank >> self.shift) as usize).min(NUM_BUCKETS - 1)
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(i, (r, _))| (self.bucket_of(*r), *i))
            .map(|(i, _)| i)?;
        Some(self.entries.remove(best))
    }
}

/// A random rank: mostly small (in-range buckets), sometimes huge so the
/// shared overflow bucket is exercised too.
fn random_rank(rng: &mut SplitMix64) -> u64 {
    match rng.below(8) {
        0 => rng.next(), // overflow territory with high probability
        _ => rng.below(3 * NUM_BUCKETS as u64),
    }
}

#[test]
fn bucket_queue_drain_matches_stable_sort() {
    for seed in 0..40u64 {
        let mut rng = SplitMix64::new(0xB0C4 ^ seed);
        let shift = rng.below(7) as u32;
        let n = 1 + rng.below(300) as usize;
        let mut q = BucketQueue::new(shift);
        let mut pushed: Vec<(u64, usize)> = Vec::with_capacity(n);
        for var in 0..n {
            let rank = random_rank(&mut rng);
            q.push(rank, var);
            pushed.push((rank, var));
        }
        assert_eq!(q.len(), n);
        // Stable sort by bucket preserves push order within a bucket —
        // the exact contract of the queue.
        let shifted = |r: u64| ((r >> shift) as usize).min(NUM_BUCKETS - 1);
        pushed.sort_by_key(|&(r, _)| shifted(r));
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, pushed, "seed {seed}, shift {shift}");
        assert!(q.is_empty());
        assert_eq!(q.min_bucket(), None);
    }
}

#[test]
fn bucket_queue_interleaved_ops_match_reference() {
    for seed in 0..25u64 {
        let mut rng = SplitMix64::new(0x1BAD_CAFE ^ seed.wrapping_mul(0x9E37));
        let shift = rng.below(5) as u32;
        let mut q = BucketQueue::new(shift);
        let mut model = RefQueue {
            entries: Vec::new(),
            shift,
        };
        let mut next_var = 0usize;
        for step in 0..600 {
            match rng.below(10) {
                // Pushes dominate so the queue builds depth; ranks may
                // land below the cursor after earlier pops.
                0..=4 => {
                    let rank = random_rank(&mut rng);
                    q.push(rank, next_var);
                    model.entries.push((rank, next_var));
                    next_var += 1;
                }
                5..=7 => {
                    assert_eq!(
                        q.pop(),
                        model.pop(),
                        "seed {seed} step {step}: pop diverged"
                    );
                }
                8 => {
                    q.release();
                    model.entries.clear();
                    assert_eq!(q.capacity(), 0, "seed {seed} step {step}");
                }
                _ => {
                    q.clear();
                    model.entries.clear();
                }
            }
            assert_eq!(q.len(), model.entries.len(), "seed {seed} step {step}");
        }
        // Final drain must agree entry-for-entry.
        loop {
            let (got, want) = (q.pop(), model.pop());
            assert_eq!(got, want, "seed {seed}: final drain diverged");
            if got.is_none() {
                break;
            }
        }
    }
}

#[test]
fn visit_epoch_matches_hashset_model() {
    for seed in 0..30u64 {
        let mut rng = SplitMix64::new(0xE90C ^ seed.wrapping_mul(31));
        let mut len = 1 + rng.below(64) as usize;
        let mut s = VisitEpoch::new(len);
        let mut model: HashSet<usize> = HashSet::new();
        for step in 0..500 {
            match rng.below(12) {
                0..=5 => {
                    let x = rng.below(len as u64) as usize;
                    let fresh = s.insert(x);
                    assert_eq!(fresh, model.insert(x), "seed {seed} step {step}");
                }
                6..=8 => {
                    let x = rng.below(len as u64) as usize;
                    assert_eq!(s.contains(x), model.contains(&x), "seed {seed} step {step}");
                }
                9 => {
                    s.clear();
                    model.clear();
                }
                _ => {
                    len += rng.below(16) as usize;
                    s.grow_to(len);
                    // Growth must not disturb membership.
                    for &m in &model {
                        assert!(s.contains(m), "seed {seed} step {step}: grow lost {m}");
                    }
                }
            }
            assert_eq!(s.count(), model.len(), "seed {seed} step {step}");
            assert_eq!(s.len(), len, "seed {seed} step {step}");
        }
    }
}

#[test]
fn visit_epoch_wraparound_is_transparent() {
    for seed in 0..30u64 {
        let mut rng = SplitMix64::new(0x3A9F ^ seed.wrapping_mul(0xC0FFEE));
        let len = 1 + rng.below(48) as usize;
        let mut s = VisitEpoch::new(len);
        // Park the epoch within a few clears of u32::MAX so every
        // schedule below crosses the hard-reset wrap at least once.
        s.jump_to_epoch(u32::MAX - rng.below(4) as u32);
        let mut model: HashSet<usize> = HashSet::new();
        for step in 0..200 {
            match rng.below(8) {
                0..=4 => {
                    let x = rng.below(len as u64) as usize;
                    assert_eq!(s.insert(x), model.insert(x), "seed {seed} step {step}");
                }
                5..=6 => {
                    let x = rng.below(len as u64) as usize;
                    assert_eq!(
                        s.contains(x),
                        model.contains(&x),
                        "seed {seed} step {step}: membership diverged across wrap"
                    );
                }
                _ => {
                    s.clear();
                    model.clear();
                }
            }
            assert_eq!(s.count(), model.len(), "seed {seed} step {step}");
        }
        // Stale marks from pre-wrap epochs must never resurface.
        s.clear();
        for x in 0..len {
            assert!(!s.contains(x), "seed {seed}: slot {x} leaked across wrap");
        }
    }
}
