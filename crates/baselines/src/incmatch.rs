//! `IncMatch`: incremental graph simulation after Fan, Wang and Wu \[23\]
//! — the paper's Sim baseline.
//!
//! In contrast to the deduced `IncSim` (one uniform scope function for
//! the whole batch), `IncMatch` follows the classic split design of \[23\]:
//! **deletions** are handled by direct false-propagation (retract every
//! match whose simulation condition fails, pushing retraction to pattern
//! predecessors), and **insertions** by discovering the *affected area* —
//! the false, label-compatible pairs backward-reachable from the inserted
//! edges through dependency edges — optimistically raising it, and
//! re-running the downward fixpoint over it. Both phases operate on the
//! match relation only; no timestamps or anchor orders are kept.

use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId, Pattern};
use std::collections::VecDeque;

/// Incremental simulation state: the match matrix for one pattern.
pub struct IncMatch {
    q: Pattern,
    matches: Vec<bool>,
}

impl IncMatch {
    /// Computes the maximum simulation of `q` in `g` from scratch.
    pub fn new(g: &DynamicGraph, q: Pattern) -> Self {
        let nq = q.node_count();
        let matches = vec![false; g.node_count() * nq];
        let mut s = IncMatch { q, matches };
        s.recompute(g);
        s
    }

    /// Whether `v` matches pattern node `u`.
    pub fn matches(&self, v: NodeId, u: usize) -> bool {
        self.matches[v as usize * self.q.node_count() + u]
    }

    /// The match matrix in `(v, u)` row-major order.
    pub fn relation(&self) -> &[bool] {
        &self.matches
    }

    /// Number of matching pairs.
    pub fn match_count(&self) -> usize {
        self.matches.iter().filter(|&&b| b).count()
    }

    /// Processes a batch: deletion phase then insertion phase, both on
    /// the updated graph.
    pub fn apply_batch(&mut self, g: &DynamicGraph, applied: &AppliedBatch) {
        let _span = incgraph_obs::span("baseline.update");
        let nq = self.q.node_count();

        // ---- Deletion phase: false-propagation. ----
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (a, _b, _) in applied.deleted() {
            for u in 0..nq {
                let x = a as usize * nq + u;
                if self.matches[x] {
                    queue.push_back(x);
                }
            }
        }
        while let Some(x) = queue.pop_front() {
            if !self.matches[x] || self.condition(g, x) {
                continue;
            }
            self.matches[x] = false;
            let (v, u) = (x / nq, x % nq);
            for &(vp, _) in g.in_neighbors(v as NodeId) {
                for &up in self.q.in_neighbors(u) {
                    let y = vp as usize * nq + up;
                    if self.matches[y] {
                        queue.push_back(y);
                    }
                }
            }
        }

        // ---- Insertion phase: affected-area discovery + local fixpoint. ----
        let mut region: Vec<usize> = Vec::new();
        let mut in_region = vec![false; self.matches.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (a, _b, _) in applied.inserted() {
            for u in 0..nq {
                let x = a as usize * nq + u;
                if !self.matches[x] && self.label_ok(g, x) && !in_region[x] {
                    in_region[x] = true;
                    stack.push(x);
                }
            }
        }
        while let Some(x) = stack.pop() {
            region.push(x);
            let (v, u) = (x / nq, x % nq);
            for &(vp, _) in g.in_neighbors(v as NodeId) {
                for &up in self.q.in_neighbors(u) {
                    let y = vp as usize * nq + up;
                    if !self.matches[y] && !in_region[y] && self.label_ok(g, y) {
                        in_region[y] = true;
                        stack.push(y);
                    }
                }
            }
        }
        if region.is_empty() {
            return;
        }
        // Optimistically raise the region, then tighten downward.
        for &x in &region {
            self.matches[x] = true;
        }
        let mut queue: VecDeque<usize> = region.iter().copied().collect();
        while let Some(x) = queue.pop_front() {
            if !self.matches[x] || self.condition(g, x) {
                continue;
            }
            self.matches[x] = false;
            let (v, u) = (x / nq, x % nq);
            for &(vp, _) in g.in_neighbors(v as NodeId) {
                for &up in self.q.in_neighbors(u) {
                    let y = vp as usize * nq + up;
                    if self.matches[y] {
                        queue.push_back(y);
                    }
                }
            }
        }
    }

    /// Resident bytes (Fig. 8).
    pub fn space_bytes(&self) -> usize {
        self.matches.capacity()
    }

    fn label_ok(&self, g: &DynamicGraph, x: usize) -> bool {
        let nq = self.q.node_count();
        g.label((x / nq) as NodeId) == self.q.label(x % nq)
    }

    /// The simulation condition for pair `x` under the current relation.
    fn condition(&self, g: &DynamicGraph, x: usize) -> bool {
        let nq = self.q.node_count();
        let (v, u) = ((x / nq) as NodeId, x % nq);
        if g.label(v) != self.q.label(u) {
            return false;
        }
        'succ: for &un in self.q.out_neighbors(u) {
            for &(vn, _) in g.out_neighbors(v) {
                if self.matches[vn as usize * nq + un] {
                    continue 'succ;
                }
            }
            return false;
        }
        true
    }

    /// Full recompute: the standard downward fixpoint from label matches.
    fn recompute(&mut self, g: &DynamicGraph) {
        let nq = self.q.node_count();
        for x in 0..self.matches.len() {
            self.matches[x] = self.label_ok(g, x);
        }
        let mut queue: VecDeque<usize> = (0..self.matches.len())
            .filter(|&x| self.matches[x])
            .collect();
        while let Some(x) = queue.pop_front() {
            if !self.matches[x] || self.condition(g, x) {
                continue;
            }
            self.matches[x] = false;
            let (v, u) = (x / nq, x % nq);
            for &(vp, _) in g.in_neighbors(v as NodeId) {
                for &up in self.q.in_neighbors(u) {
                    let y = vp as usize * nq + up;
                    if self.matches[y] {
                        queue.push_back(y);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    fn reference(g: &DynamicGraph, q: &Pattern) -> Vec<bool> {
        IncMatch::new(g, q.clone()).matches
    }

    fn tri_pattern() -> Pattern {
        Pattern::new(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 1)])
    }

    #[test]
    fn fresh_computation_matches_naive() {
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2, 1, 2]);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 3)] {
            g.insert_edge(u, v, 1);
        }
        let s = IncMatch::new(&g, tri_pattern());
        assert!(s.matches(0, 0));
        assert!(s.matches(3, 1) && s.matches(4, 2));
    }

    #[test]
    fn deletion_phase_retracts_chains() {
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2, 1]);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 2)] {
            g.insert_edge(u, v, 1);
        }
        let mut s = IncMatch::new(&g, tri_pattern());
        assert!(s.matches(0, 0));
        let mut batch = UpdateBatch::new();
        batch.delete(1, 2);
        let applied = batch.apply(&mut g);
        s.apply_batch(&g, &applied);
        assert_eq!(s.relation(), reference(&g, &tri_pattern()).as_slice());
        assert!(!s.matches(0, 0));
        assert!(s.matches(2, 2), "self-sustaining cycle survives");
    }

    #[test]
    fn insertion_phase_discovers_new_matches() {
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2, 1]);
        g.insert_edge(0, 1, 1);
        g.insert_edge(2, 3, 1);
        g.insert_edge(3, 2, 1);
        let mut s = IncMatch::new(&g, tri_pattern());
        assert!(!s.matches(0, 0));
        let mut batch = UpdateBatch::new();
        batch.insert(1, 2, 1);
        let applied = batch.apply(&mut g);
        s.apply_batch(&g, &applied);
        assert_eq!(s.relation(), reference(&g, &tri_pattern()).as_slice());
        assert!(s.matches(0, 0));
    }

    #[test]
    fn mixed_random_batches_match_reference() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(60, 240, true, 1, 3, 91);
        let q = tri_pattern();
        let mut s = IncMatch::new(&g, q.clone());
        let mut rng = SplitMix64::seed_from_u64(6);
        for round in 0..25 {
            let mut batch = UpdateBatch::new();
            for _ in 0..8 {
                let u = rng.gen_range(0..60) as NodeId;
                let v = rng.gen_range(0..60) as NodeId;
                if rng.gen_bool(0.5) {
                    batch.insert(u, v, 1);
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            s.apply_batch(&g, &applied);
            assert_eq!(
                s.relation(),
                reference(&g, &q).as_slice(),
                "divergence at round {round}"
            );
        }
    }

    #[test]
    fn cyclic_pattern_cyclic_data() {
        use incgraph_graph::rng::SplitMix64;
        let q = Pattern::new(vec![1, 2], &[(0, 1), (1, 0)]);
        let mut g = DynamicGraph::with_labels(true, (0..30).map(|i| 1 + (i % 2) as u32).collect());
        for i in 0..30u32 {
            g.insert_edge(i, (i + 1) % 30, 1);
        }
        let mut s = IncMatch::new(&g, q.clone());
        let mut rng = SplitMix64::seed_from_u64(18);
        for round in 0..20 {
            let mut batch = UpdateBatch::new();
            for _ in 0..4 {
                let u = rng.gen_range(0..30) as NodeId;
                let v = rng.gen_range(0..30) as NodeId;
                if rng.gen_bool(0.5) {
                    batch.insert(u, v, 1);
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            s.apply_batch(&g, &applied);
            assert_eq!(
                s.relation(),
                reference(&g, &q).as_slice(),
                "divergence at round {round}"
            );
        }
    }

    /// The vertex set is fixed at construction: node 2, labelled `c`, is
    /// isolated until the first batch attaches it and the second cuts it
    /// loose again; node 3, labelled `b`, is touched by neither.
    #[test]
    fn isolated_nodes_track_batch() {
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2, 1]);
        g.insert_edge(0, 1, 1);
        let q = tri_pattern();
        let mut s = IncMatch::new(&g, q.clone());
        assert!(!s.matches(0, 0));
        let mut attach = UpdateBatch::new();
        attach.insert(1, 2, 1).insert(2, 1, 1);
        let mut detach = UpdateBatch::new();
        detach.delete(2, 1);
        for (batch, matched) in [(attach, true), (detach, false)] {
            let applied = batch.apply(&mut g);
            s.apply_batch(&g, &applied);
            assert_eq!(s.relation(), reference(&g, &q).as_slice());
            assert_eq!(s.matches(0, 0), matched, "b has a c-successor cycle");
        }
    }
}
