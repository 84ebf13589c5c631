//! Erdős–Rényi-style G(n, m) generator.

use crate::gen::{random_labels, sampled_graph};
use crate::ids::{NodeId, Weight};
use crate::rng::SplitMix64;
use crate::store::DynamicGraph;

/// Generates a graph with `n` nodes and (up to) `m` distinct edges chosen
/// uniformly at random, labels drawn from `alphabet` symbols and weights
/// from `1..=max_weight`. Deterministic in `seed`.
///
/// Rejection sampling of duplicate edges is used; for the sparse regimes
/// of the experiments (`m ≪ n²`) this terminates quickly. The generator
/// gives up after `20 m` attempts (at least 1 024) so that dense requests
/// still terminate, which is why `m` is an upper bound.
pub fn uniform(
    n: usize,
    m: usize,
    directed: bool,
    max_weight: Weight,
    alphabet: u32,
    seed: u64,
) -> DynamicGraph {
    assert!(n >= 2, "need at least two nodes");
    assert!(max_weight >= 1, "weights start at 1");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let labels = random_labels(&mut rng, n, alphabet);
    let max_attempts = m.saturating_mul(20).max(1024);
    sampled_graph(directed, labels, m, max_attempts, || {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        (u != v).then(|| (u, v, rng.gen_range(1..=max_weight)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = uniform(100, 300, true, 10, 5, 42);
        let b = uniform(100, 300, true, 10, 5, 42);
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = uniform(100, 300, true, 10, 5, 1);
        let b = uniform(100, 300, true, 10, 5, 2);
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn hits_requested_edge_count_when_sparse() {
        let g = uniform(1000, 5000, true, 10, 5, 7);
        assert_eq!(g.edge_count(), 5000);
        assert_eq!(g.node_count(), 1000);
    }

    #[test]
    fn undirected_variant_has_no_self_loops() {
        let g = uniform(50, 200, false, 1, 1, 3);
        for (u, v, _) in g.edges() {
            assert_ne!(u, v);
        }
    }

    #[test]
    fn weights_in_range() {
        let g = uniform(100, 400, true, 7, 5, 9);
        assert!(g.edges().all(|(_, _, w)| (1..=7).contains(&w)));
    }
}
