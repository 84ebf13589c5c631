//! Synthetic graph generators.
//!
//! The paper evaluates on six real-life graphs (LiveJournal, DBPedia,
//! Orkut, Twitter-2010, Friendster, Wiki-DE) plus a synthetic generator
//! "controlled by the number |V| of nodes and the number |E| of edges with
//! L drawn from an alphabet of 5 labels". We cannot ship multi-billion
//! edge downloads, so the workloads crate instantiates laptop-scale
//! stand-ins from these generators:
//!
//! * [`uniform`] — Erdős–Rényi-style G(n, m): the paper's synthetic
//!   scalability graphs (Exp-3).
//! * [`power_law`] — Chung–Lu expected-degree model: reproduces the heavy
//!   degree skew of the social-network datasets, which is the property
//!   that drives affected-area (`AFF`) sizes.
//! * [`grid`] — road-network-like lattice with weighted edges, the SSSP
//!   motivation workload.
//! * [`temporal`] — timestamped edge history generator standing in for the
//!   Wiki-DE temporal graph (81% insertions / 19% deletions per window).

mod grid;
mod powerlaw;
mod temporal;
mod uniform;

pub use grid::grid;
pub use powerlaw::power_law;
pub use temporal::{temporal, TemporalGraph, WINDOW_TICKS};
pub use uniform::uniform;

use crate::ids::{Label, NodeId, Weight};
use crate::rng::SplitMix64;
use crate::store::DynamicGraph;

/// Draws `n` labels uniformly from an alphabet of `alphabet` symbols,
/// matching the paper's synthetic-label setup (`alphabet = 5` there).
pub(crate) fn random_labels(rng: &mut SplitMix64, n: usize, alphabet: u32) -> Vec<Label> {
    assert!(alphabet > 0, "label alphabet must be non-empty");
    (0..n).map(|_| rng.gen_range(0..alphabet)).collect()
}

/// The random generators' rejection loop, as one build: makes attempts
/// until `m` distinct edges have been drawn or `max_attempts` attempts
/// were made, and returns the graph of the edges drawn. `attempt` makes
/// one attempt (`None`: it drew no edge). The result is the graph that
/// `insert_edge` after each attempt would leave — an edge's first draw
/// wins — and `attempt` is called exactly as often as that loop calls it.
///
/// Duplicates are found by sorting, not by probing a growing graph: the
/// attempts are made in chunks, and each chunk is sorted into the
/// distinct edges drawn so far (a stable sort keeps an edge's first
/// draw first). A chunk may run past the attempt that drew the `m`-th
/// distinct edge; the edges first drawn after it are cut again. Callers
/// draw from their own generator and drop it afterwards, so the extra
/// attempts change nothing they return.
pub(crate) fn sampled_graph(
    directed: bool,
    labels: Vec<Label>,
    m: usize,
    max_attempts: usize,
    mut attempt: impl FnMut() -> Option<(NodeId, NodeId, Weight)>,
) -> DynamicGraph {
    let key = |u: NodeId, v: NodeId| {
        let (a, b) = if directed || u < v { (u, v) } else { (v, u) };
        (a as u64) << 32 | b as u64
    };
    // (edge key, index of the attempt that drew it, weight); after each
    // chunk sorted by key and holding each key's first draw only.
    let mut drawn: Vec<(u64, u32, Weight)> = Vec::new();
    let mut attempts = 0usize;
    while drawn.len() < m && attempts < max_attempts {
        let need = m - drawn.len();
        // The first chunk cannot overshoot; later ones aim a quarter past
        // the need at the rate seen so far.
        let chunk = if attempts == 0 {
            need
        } else {
            let rate = drawn.len().max(1) as f64 / attempts as f64;
            (need as f64 / rate * 1.25) as usize + 1024
        };
        let end = max_attempts.min(attempts.saturating_add(chunk));
        drawn.reserve(end - attempts);
        for i in attempts..end {
            if let Some((u, v, w)) = attempt() {
                let i = u32::try_from(i).expect("attempt index fits in u32");
                drawn.push((key(u, v), i, w));
            }
        }
        attempts = end;
        drawn.sort_by_key(|&(k, _, _)| k);
        drawn.dedup_by_key(|&mut (k, _, _)| k);
        if drawn.len() > m {
            // The loop stops at the attempt that drew the m-th distinct
            // edge: the m-th smallest first-draw index.
            let mut firsts: Vec<u32> = drawn.iter().map(|&(_, i, _)| i).collect();
            let last = *firsts.select_nth_unstable(m - 1).1;
            drawn.retain(|&(_, i, _)| i <= last);
        }
    }
    let edges = drawn
        .into_iter()
        .map(|(k, _, w)| ((k >> 32) as NodeId, k as NodeId, w))
        .collect();
    DynamicGraph::from_edges(directed, labels, edges).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_within_alphabet() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let labels = random_labels(&mut rng, 1000, 5);
        assert_eq!(labels.len(), 1000);
        assert!(labels.iter().all(|&l| l < 5));
        // All symbols should appear for a 1000-sample draw.
        for s in 0..5 {
            assert!(labels.contains(&s), "symbol {s} missing");
        }
    }
}
