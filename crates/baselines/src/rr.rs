//! `RR`: the Ramalingam–Reps dynamic SSSP algorithm \[39, 40\] for **unit**
//! updates — the paper's unit-update SSSP baseline (Exp-1).
//!
//! The algorithm maintains the distance array only. An insertion triggers
//! a Dijkstra-style *lowering* phase from the new edge's head. A deletion
//! runs the classic two phases: (1) identify the **affected vertices** —
//! those whose every remaining shortest path went through the deleted
//! edge — by peeling vertices that lose all their tight supports, in
//! distance order; (2) re-run Dijkstra restricted to the affected set,
//! seeded with the best boundary edges from unaffected vertices.

use incgraph_graph::ids::{Dist, INF_DIST};
use incgraph_graph::{DynamicGraph, NodeId, Weight};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Dynamic SSSP state à la Ramalingam–Reps.
pub struct RrSssp {
    source: NodeId,
    dist: Vec<Dist>,
}

impl RrSssp {
    /// Initializes from a batch Dijkstra run on `g`.
    pub fn new(g: &DynamicGraph, source: NodeId) -> Self {
        let mut s = RrSssp {
            source,
            dist: vec![INF_DIST; g.node_count()],
        };
        s.dist[source as usize] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > s.dist[u as usize] {
                continue;
            }
            for &(v, w) in g.out_neighbors(u) {
                let nd = d + w as Dist;
                if nd < s.dist[v as usize] {
                    s.dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        s
    }

    /// Current distances.
    pub fn distances(&self) -> &[Dist] {
        &self.dist
    }

    /// Handles one unit update. `g` must already reflect the update.
    /// For undirected graphs the edge is processed in both directions.
    pub fn apply_unit(
        &mut self,
        g: &DynamicGraph,
        inserted: bool,
        u: NodeId,
        v: NodeId,
        w: Weight,
    ) {
        if inserted {
            self.inserted(g, u, v, w);
            if !g.is_directed() {
                self.inserted(g, v, u, w);
            }
        } else {
            self.deleted(g, u, v);
            if !g.is_directed() {
                self.deleted(g, v, u);
            }
        }
    }

    /// Resident bytes (Fig. 8).
    pub fn space_bytes(&self) -> usize {
        self.dist.capacity() * 8
    }

    /// Lowering phase after inserting `(u, v, w)`.
    fn inserted(&mut self, g: &DynamicGraph, u: NodeId, v: NodeId, w: Weight) {
        if self.dist[u as usize] == INF_DIST {
            return;
        }
        let cand = self.dist[u as usize] + w as Dist;
        if cand >= self.dist[v as usize] {
            return;
        }
        self.dist[v as usize] = cand;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((cand, v)));
        while let Some(Reverse((d, x))) = heap.pop() {
            if d > self.dist[x as usize] {
                continue;
            }
            for &(y, wy) in g.out_neighbors(x) {
                let nd = d + wy as Dist;
                if nd < self.dist[y as usize] {
                    self.dist[y as usize] = nd;
                    heap.push(Reverse((nd, y)));
                }
            }
        }
    }

    /// Two-phase repair after deleting `(u, v)` (`g` no longer has it).
    fn deleted(&mut self, g: &DynamicGraph, _u: NodeId, v: NodeId) {
        if self.dist[v as usize] == INF_DIST {
            return;
        }
        // Phase 1: peel affected vertices in distance order. A vertex is
        // affected when none of its remaining in-edges supports its
        // current distance through an unaffected tail.
        let mut affected: HashSet<NodeId> = HashSet::new();
        let mut work: BinaryHeap<Reverse<(Dist, NodeId)>> = BinaryHeap::new();
        work.push(Reverse((self.dist[v as usize], v)));
        let mut enqueued: HashSet<NodeId> = HashSet::from([v]);
        while let Some(Reverse((d, x))) = work.pop() {
            if d != self.dist[x as usize] || affected.contains(&x) {
                continue;
            }
            let supported = g.in_neighbors(x).iter().any(|&(y, wy)| {
                !affected.contains(&y)
                    && self.dist[y as usize] != INF_DIST
                    && self.dist[y as usize] + wy as Dist == self.dist[x as usize]
            });
            if supported {
                continue;
            }
            affected.insert(x);
            for &(z, wz) in g.out_neighbors(x) {
                if self.dist[x as usize] != INF_DIST
                    && self.dist[z as usize] == self.dist[x as usize] + wz as Dist
                    && enqueued.insert(z)
                {
                    work.push(Reverse((self.dist[z as usize], z)));
                }
            }
        }
        if affected.is_empty() {
            return;
        }
        // Phase 2: Dijkstra over the affected set, seeded from the
        // unaffected boundary.
        let mut heap: BinaryHeap<Reverse<(Dist, NodeId)>> = BinaryHeap::new();
        for &a in &affected {
            self.dist[a as usize] = INF_DIST;
        }
        for &a in &affected {
            let mut best = INF_DIST;
            for &(y, wy) in g.in_neighbors(a) {
                if !affected.contains(&y) && self.dist[y as usize] != INF_DIST {
                    best = best.min(self.dist[y as usize] + wy as Dist);
                }
            }
            if a == self.source {
                best = 0;
            }
            if best < INF_DIST {
                self.dist[a as usize] = best;
                heap.push(Reverse((best, a)));
            }
        }
        while let Some(Reverse((d, x))) = heap.pop() {
            if d > self.dist[x as usize] {
                continue;
            }
            for &(y, wy) in g.out_neighbors(x) {
                let nd = d + wy as Dist;
                if nd < self.dist[y as usize] {
                    self.dist[y as usize] = nd;
                    heap.push(Reverse((nd, y)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    fn dijkstra(g: &DynamicGraph, s: NodeId) -> Vec<Dist> {
        RrSssp::new(g, s).dist
    }

    #[test]
    fn insertion_lowers_distances() {
        let mut g = DynamicGraph::new(true, 4);
        g.insert_edge(0, 1, 10);
        g.insert_edge(1, 2, 10);
        let mut rr = RrSssp::new(&g, 0);
        assert_eq!(rr.distances(), &[0, 10, 20, INF_DIST]);
        g.insert_edge(0, 2, 5);
        rr.apply_unit(&g, true, 0, 2, 5);
        assert_eq!(rr.distances(), &[0, 10, 5, INF_DIST]);
    }

    #[test]
    fn deletion_repairs_affected_region() {
        let mut g = DynamicGraph::new(true, 5);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        g.insert_edge(2, 3, 1);
        g.insert_edge(0, 3, 10);
        g.insert_edge(3, 4, 1);
        let mut rr = RrSssp::new(&g, 0);
        assert_eq!(rr.distances(), &[0, 1, 2, 3, 4]);
        g.delete_edge(1, 2);
        rr.apply_unit(&g, false, 1, 2, 1);
        assert_eq!(rr.distances(), dijkstra(&g, 0).as_slice());
        assert_eq!(rr.distances(), &[0, 1, INF_DIST, 10, 11]);
    }

    #[test]
    fn deletion_of_redundant_edge_is_cheap() {
        let mut g = DynamicGraph::new(true, 3);
        g.insert_edge(0, 1, 1);
        g.insert_edge(0, 2, 1);
        g.insert_edge(1, 2, 1); // redundant for distances
        let mut rr = RrSssp::new(&g, 0);
        g.delete_edge(1, 2);
        rr.apply_unit(&g, false, 1, 2, 1);
        assert_eq!(rr.distances(), &[0, 1, 1]);
    }

    #[test]
    fn random_unit_sequence_matches_dijkstra() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(150, 700, true, 10, 5, 55);
        let mut rr = RrSssp::new(&g, 3);
        let mut rng = SplitMix64::seed_from_u64(4);
        for step in 0..120 {
            let u = rng.gen_range(0..150) as NodeId;
            let v = rng.gen_range(0..150) as NodeId;
            let mut batch = UpdateBatch::new();
            if rng.gen_bool(0.5) {
                batch.insert(u, v, rng.gen_range(1u32..=10));
            } else {
                batch.delete(u, v);
            }
            let applied = batch.apply(&mut g);
            for op in applied.ops() {
                rr.apply_unit(&g, op.inserted, op.src, op.dst, op.weight);
            }
            assert_eq!(
                rr.distances(),
                dijkstra(&g, 3).as_slice(),
                "divergence at step {step}"
            );
        }
    }

    #[test]
    fn undirected_updates_propagate_both_ways() {
        let mut g = incgraph_graph::gen::grid(5, 5, 4, 8);
        let mut rr = RrSssp::new(&g, 0);
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        let applied = batch.apply(&mut g);
        for op in applied.ops() {
            rr.apply_unit(&g, op.inserted, op.src, op.dst, op.weight);
        }
        assert_eq!(rr.distances(), dijkstra(&g, 0).as_slice());
    }

    #[test]
    fn disconnecting_the_source_region() {
        let mut g = DynamicGraph::new(true, 3);
        g.insert_edge(0, 1, 2);
        g.insert_edge(1, 2, 2);
        let mut rr = RrSssp::new(&g, 0);
        g.delete_edge(0, 1);
        rr.apply_unit(&g, false, 0, 1, 2);
        assert_eq!(rr.distances(), &[0, INF_DIST, INF_DIST]);
    }
}
