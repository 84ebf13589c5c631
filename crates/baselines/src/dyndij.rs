//! `DynDij`: batch shortest-path-tree maintenance after Chan & Yang \[17\]
//! — the paper's batch-update SSSP baseline.
//!
//! Unlike `RR`, the state includes an explicit shortest-path tree. A
//! batch update first *invalidates* the SPT subtrees hanging below every
//! deleted tree edge (a superset of the vertices whose distance can
//! grow), then runs one Dijkstra repair seeded with (a) the best boundary
//! in-edges of the invalidated region and (b) the heads of inserted
//! edges. The coarse subtree invalidation is the signature of this family
//! of algorithms — and the reason the deduced `IncSSSP`, which raises only
//! provably infeasible variables, tends to inspect less (paper Exp-2).

use incgraph_graph::ids::{Dist, INF_DIST};
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// No-parent sentinel.
const NONE: NodeId = NodeId::MAX;

/// Batch-dynamic SSSP with an explicit shortest-path tree.
pub struct DynDij {
    source: NodeId,
    dist: Vec<Dist>,
    parent: Vec<NodeId>,
}

impl DynDij {
    /// Initializes from a batch Dijkstra run on `g`.
    pub fn new(g: &DynamicGraph, source: NodeId) -> Self {
        let mut s = DynDij {
            source,
            dist: vec![INF_DIST; g.node_count()],
            parent: vec![NONE; g.node_count()],
        };
        s.dist[source as usize] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, source)));
        s.dijkstra(g, heap);
        s
    }

    /// Current distances.
    pub fn distances(&self) -> &[Dist] {
        &self.dist
    }

    /// SPT parent of `v` (`NodeId::MAX` for the source / unreachable).
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// Processes a whole batch. `g` must already be `G ⊕ ΔG`.
    pub fn apply_batch(&mut self, g: &DynamicGraph, applied: &AppliedBatch) {
        let _span = incgraph_obs::span("baseline.update");

        // 1) Suspect roots: heads of deleted SPT tree edges.
        let mut suspects: Vec<NodeId> = Vec::new();
        for (u, v, _) in applied.deleted() {
            if self.parent[v as usize] == u {
                suspects.push(v);
            }
            if !g.is_directed() && self.parent[u as usize] == v {
                suspects.push(u);
            }
        }

        let mut heap: BinaryHeap<Reverse<(Dist, NodeId)>> = BinaryHeap::new();

        if !suspects.is_empty() {
            // 2) Children lists, then collect the invalidated region M.
            let n = self.dist.len();
            let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
            for v in 0..n {
                let p = self.parent[v];
                if p != NONE {
                    children[p as usize].push(v as NodeId);
                }
            }
            let mut in_m = vec![false; n];
            let mut stack = suspects;
            while let Some(x) = stack.pop() {
                if std::mem::replace(&mut in_m[x as usize], true) {
                    continue;
                }
                stack.extend(children[x as usize].iter().copied());
            }
            // 3) Invalidate M and seed from the unaffected boundary.
            for (x, &m) in in_m.iter().enumerate() {
                if m {
                    self.dist[x] = INF_DIST;
                    self.parent[x] = NONE;
                }
            }
            for x in 0..n {
                if !in_m[x] {
                    continue;
                }
                if x == self.source as usize {
                    self.dist[x] = 0;
                    heap.push(Reverse((0, x as NodeId)));
                    continue;
                }
                let mut best = INF_DIST;
                let mut best_p = NONE;
                for &(y, wy) in g.in_neighbors(x as NodeId) {
                    if !in_m[y as usize] && self.dist[y as usize] != INF_DIST {
                        let cand = self.dist[y as usize] + wy as Dist;
                        if cand < best {
                            best = cand;
                            best_p = y;
                        }
                    }
                }
                if best < INF_DIST {
                    self.dist[x] = best;
                    self.parent[x] = best_p;
                    heap.push(Reverse((best, x as NodeId)));
                }
            }
        }

        // 4) Seed lowering from inserted edges. A batch may insert and
        // later delete (or reweight) the same edge, so seeds are taken
        // from the *final* graph's adjacency, not the op's payload.
        for (u, v, _) in applied.inserted() {
            let both = [(u, v), (v, u)];
            let dirs = if g.is_directed() {
                &both[..1]
            } else {
                &both[..]
            };
            for &(a, b) in dirs {
                let Some(w) = g.edge_weight(a, b) else {
                    continue;
                };
                if self.dist[a as usize] != INF_DIST {
                    let cand = self.dist[a as usize] + w as Dist;
                    if cand < self.dist[b as usize] {
                        self.dist[b as usize] = cand;
                        self.parent[b as usize] = a;
                        heap.push(Reverse((cand, b)));
                    }
                }
            }
        }

        // 5) One Dijkstra repair pass.
        self.dijkstra(g, heap);
    }

    /// Resident bytes (Fig. 8): distances plus the explicit SPT — the
    /// space this family trades for update speed.
    pub fn space_bytes(&self) -> usize {
        self.dist.capacity() * 8 + self.parent.capacity() * std::mem::size_of::<NodeId>()
    }

    fn dijkstra(&mut self, g: &DynamicGraph, mut heap: BinaryHeap<Reverse<(Dist, NodeId)>>) {
        while let Some(Reverse((d, x))) = heap.pop() {
            if d > self.dist[x as usize] {
                continue;
            }
            for &(y, wy) in g.out_neighbors(x) {
                let nd = d + wy as Dist;
                if nd < self.dist[y as usize] {
                    self.dist[y as usize] = nd;
                    self.parent[y as usize] = x;
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

    fn reference(g: &DynamicGraph, s: NodeId) -> Vec<Dist> {
        DynDij::new(g, s).dist
    }

    #[test]
    fn spt_parents_are_tight() {
        let g = incgraph_graph::gen::uniform(100, 500, true, 10, 5, 77);
        let d = DynDij::new(&g, 0);
        for v in 0..100u32 {
            let p = d.parent(v);
            if p != NONE {
                let w = g.edge_weight(p, v).expect("tree edge exists") as Dist;
                assert_eq!(d.distances()[p as usize] + w, d.distances()[v as usize]);
            }
        }
    }

    #[test]
    fn batch_with_tree_deletions_and_insertions() {
        let mut g = DynamicGraph::new(true, 6);
        for (u, v, w) in [(0u32, 1, 2u32), (1, 2, 2), (2, 3, 2), (0, 4, 9), (4, 3, 1)] {
            g.insert_edge(u, v, w);
        }
        let mut d = DynDij::new(&g, 0);
        assert_eq!(d.distances(), &[0, 2, 4, 6, 9, INF_DIST]);
        let mut batch = UpdateBatch::new();
        batch.delete(1, 2).insert(3, 5, 1);
        let applied = batch.apply(&mut g);
        d.apply_batch(&g, &applied);
        assert_eq!(d.distances(), reference(&g, 0).as_slice());
        assert_eq!(d.distances(), &[0, 2, INF_DIST, 10, 9, 11]);
    }

    #[test]
    fn random_batches_match_reference() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(200, 900, true, 10, 5, 14);
        let mut d = DynDij::new(&g, 5);
        let mut rng = SplitMix64::seed_from_u64(23);
        for round in 0..15 {
            let mut batch = UpdateBatch::new();
            for _ in 0..25 {
                let u = rng.gen_range(0..200) as NodeId;
                let v = rng.gen_range(0..200) as NodeId;
                if rng.gen_bool(0.5) {
                    batch.insert(u, v, rng.gen_range(1u32..=10));
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            d.apply_batch(&g, &applied);
            assert_eq!(
                d.distances(),
                reference(&g, 5).as_slice(),
                "divergence at round {round}"
            );
        }
    }

    #[test]
    fn undirected_batches() {
        let mut g = incgraph_graph::gen::grid(8, 8, 5, 2);
        let mut d = DynDij::new(&g, 0);
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1).delete(0, 8).insert(0, 63, 3);
        let applied = batch.apply(&mut g);
        d.apply_batch(&g, &applied);
        assert_eq!(d.distances(), reference(&g, 0).as_slice());
    }

    #[test]
    fn deleting_source_subtree_root_edge() {
        let mut g = DynamicGraph::new(true, 3);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        let mut d = DynDij::new(&g, 0);
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        let applied = batch.apply(&mut g);
        d.apply_batch(&g, &applied);
        assert_eq!(d.distances(), &[0, INF_DIST, INF_DIST]);
    }
}
