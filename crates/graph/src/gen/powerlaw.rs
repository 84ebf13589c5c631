//! Chung–Lu expected-degree power-law generator.
//!
//! The real-life graphs the paper evaluates on (LiveJournal, Orkut,
//! Twitter, Friendster) all have heavy-tailed degree distributions, and
//! the paper explicitly attributes some of its findings to that skew
//! (e.g. "the power-law node degree distribution of WD ... easily results
//! in stable connected components", Exp-2). The Chung–Lu model reproduces
//! the skew: node `i` is assigned expected weight `w_i ∝ (i + i0)^(-1/(γ-1))`
//! and edges are sampled with endpoint probability proportional to weight.

use crate::gen::{random_labels, sampled_graph};
use crate::ids::{NodeId, Weight};
use crate::rng::SplitMix64;
use crate::store::DynamicGraph;

/// Generates a power-law graph with `n` nodes and up to `m` edges.
///
/// `gamma` is the degree exponent (social networks sit around 2.1–2.8);
/// labels are drawn from `alphabet` symbols, weights from
/// `1..=max_weight`. Deterministic in `seed`.
pub fn power_law(
    n: usize,
    m: usize,
    gamma: f64,
    directed: bool,
    max_weight: Weight,
    alphabet: u32,
    seed: u64,
) -> DynamicGraph {
    assert!(n >= 2, "need at least two nodes");
    assert!(gamma > 1.0, "degree exponent must exceed 1");
    assert!(max_weight >= 1, "weights start at 1");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let labels = random_labels(&mut rng, n, alphabet);

    // Cumulative weight table for endpoint sampling.
    let exponent = -1.0 / (gamma - 1.0);
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for i in 0..n {
        total += ((i + 1) as f64).powf(exponent);
        cum.push(total);
    }
    let guide = Guide::new(&cum, total);

    let max_attempts = m.saturating_mul(30).max(1024);
    sampled_graph(directed, labels, m, max_attempts, || {
        let u = guide.sample(&cum, rng.gen_range(0.0..total));
        let v = guide.sample(&cum, rng.gen_range(0.0..total));
        (u != v).then(|| (u, v, rng.gen_range(1..=max_weight)))
    })
}

/// A guide table over a cumulative weight table `cum`: `[0, total)` is cut
/// into `cum.len()` equal buckets, and bucket `b` records the answer for
/// its left edge. A draw inside a bucket then only searches the indices
/// between its bucket's answer and the next one's — about one on average,
/// where the plain search takes `log n` steps, most of them cache misses.
struct Guide {
    /// `first[b]`: the first index whose cumulative weight exceeds bucket
    /// `b`'s left edge, for `b` in `0..=buckets`.
    first: Vec<u32>,
    width: f64,
}

impl Guide {
    fn new(cum: &[f64], total: f64) -> Guide {
        let buckets = cum.len();
        let width = total / buckets as f64;
        let mut first = Vec::with_capacity(buckets + 1);
        let mut i = 0;
        for b in 0..=buckets {
            let edge = b as f64 * width;
            while i < cum.len() && cum[i] <= edge {
                i += 1;
            }
            first.push(i as u32);
        }
        Guide { first, width }
    }

    /// `cum.partition_point(|&c| c <= x)`, the node whose cumulative
    /// weight first exceeds `x`. Falls back to the full search when
    /// rounding puts `x` outside the bucket it computes.
    fn sample(&self, cum: &[f64], x: f64) -> NodeId {
        let b = (x / self.width) as usize;
        let i = if b + 1 < self.first.len()
            && b as f64 * self.width <= x
            && x < (b + 1) as f64 * self.width
        {
            // Every index before `first[b]` is `<= x`; `first[b + 1]` is
            // the first one past the next edge, so `> x`.
            let (lo, hi) = (self.first[b] as usize, self.first[b + 1] as usize);
            lo + cum[lo..hi].partition_point(|&c| c <= x)
        } else {
            cum.partition_point(|&c| c <= x)
        };
        i as NodeId
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = power_law(200, 800, 2.3, false, 5, 5, 11);
        let b = power_law(200, 800, 2.3, false, 5, 5, 11);
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn low_ids_are_hubs() {
        // In the Chung–Lu model, node 0 has the largest expected degree;
        // check the skew shows up: top-decile nodes own a disproportionate
        // share of edge endpoints.
        let g = power_law(1000, 8000, 2.2, false, 1, 1, 5);
        let top: usize = (0..100u32).map(|v| g.degree(v)).sum();
        let bottom: usize = (900..1000u32).map(|v| g.degree(v)).sum();
        assert!(
            top > 4 * bottom.max(1),
            "expected heavy skew, got top={top} bottom={bottom}"
        );
    }

    #[test]
    fn guide_answers_the_full_search() {
        let mut rng = SplitMix64::seed_from_u64(8);
        for (n, exponent) in [(1usize, -0.7), (2, -0.9), (50, -0.5), (3000, -0.7)] {
            let mut total = 0.0;
            let cum: Vec<f64> = (0..n)
                .map(|i| {
                    total += ((i + 1) as f64).powf(exponent);
                    total
                })
                .collect();
            let guide = Guide::new(&cum, total);
            // Random draws, every bucket edge, the float just below it
            // (where `x / width` can round up into the next bucket) and
            // every table entry.
            let edges = (0..=n).flat_map(|b| {
                let edge = b as f64 * guide.width;
                [edge, f64::from_bits(edge.to_bits().saturating_sub(1))]
            });
            let draws = (0..10_000).map(|_| rng.gen_range(0.0..total));
            for x in draws.chain(edges).chain(cum.iter().copied()) {
                if x < total {
                    let want = cum.partition_point(|&c| c <= x) as NodeId;
                    assert_eq!(guide.sample(&cum, x), want, "n={n} x={x}");
                }
            }
        }
        // A table entry exactly on a bucket edge, drawn one ulp below it,
        // where `x / width` rounds up into that edge's bucket: only the
        // lower bracket check sends the draw to the full search.
        let width = 1.0 / 6.0;
        let cum: Vec<f64> = (1..=6).map(|i| i as f64 * width).collect();
        let guide = Guide::new(&cum, 1.0);
        let x = f64::from_bits(0.5f64.to_bits() - 1);
        assert_eq!(cum[2], 3.0 * guide.width, "entry on the bucket-3 edge");
        assert_eq!((x / guide.width) as usize, 3, "x / width rounds up");
        assert_eq!(guide.sample(&cum, x), 2);
    }

    #[test]
    fn respects_edge_budget() {
        let g = power_law(500, 2000, 2.5, true, 10, 5, 3);
        assert!(g.edge_count() <= 2000);
        assert!(g.edge_count() > 1500, "should get close to the budget");
    }
}
