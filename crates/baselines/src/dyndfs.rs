//! `DynDFS`: dynamic DFS-tree maintenance in the style of Yang, Wen, Qin,
//! Zhang, Wang and Lin \[50\] — the paper's DFS baseline.
//!
//! The state is *some* valid DFS forest (unlike the deduced `IncDFS`,
//! which must reproduce the canonical batch traversal). Each unit update
//! is classified:
//!
//! * deleting a **non-tree** edge, or inserting an edge that creates no
//!   forward-cross violation (`¬(u.last < v.first)`), leaves the forest
//!   valid — an `O(1)` no-op;
//! * anything else (tree-edge deletion, violating insertion) triggers a
//!   **suffix rebuild**: the forest is re-traversed from the earliest
//!   affected forest root onward, keeping the closed prefix.
//!
//! This simplifies \[50\] — the original maintains the tree with finer
//! subtree surgery — but preserves the behaviour the paper's experiments
//! exercise: insertions are mostly free, structural deletions cost a
//! large fraction of a full traversal, and on one giant component the
//! rebuild approaches batch cost (which is why the deduced `IncDFS` beats
//! it by a wide margin there).

use incgraph_graph::{DynamicGraph, NodeId};

/// Parent sentinel for forest roots.
pub const ROOT: NodeId = NodeId::MAX;

/// A maintained (valid, not canonical) DFS forest.
pub struct DynDfs {
    first: Vec<u32>,
    last: Vec<u32>,
    parent: Vec<NodeId>,
    visited_mark: Vec<u32>,
    epoch: u32,
}

impl DynDfs {
    /// Builds a DFS forest of `g` from scratch.
    pub fn new(g: &DynamicGraph) -> Self {
        let n = g.node_count();
        let mut s = DynDfs {
            first: vec![0; n],
            last: vec![0; n],
            parent: vec![ROOT; n],
            visited_mark: vec![0; n],
            epoch: 0,
        };
        s.rebuild_from(g, 0);
        s
    }

    /// Entry timestamp of `v`.
    pub fn first(&self, v: NodeId) -> u32 {
        self.first[v as usize]
    }

    /// Exit timestamp of `v`.
    pub fn last(&self, v: NodeId) -> u32 {
        self.last[v as usize]
    }

    /// DFS-tree parent of `v` ([`ROOT`] for forest roots).
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// Applies one unit update; `g` must already reflect it. Returns the
    /// number of nodes re-traversed (0 for the no-op cases).
    pub fn apply_unit(&mut self, g: &DynamicGraph, inserted: bool, u: NodeId, v: NodeId) -> usize {
        if inserted {
            // Valid unless the new edge is forward-cross: for directed
            // graphs `u.last < v.first`; for undirected graphs any
            // disjointness of the two intervals (an undirected DFS leaves
            // only back edges).
            let fwd = self.last[u as usize] < self.first[v as usize];
            let bwd = self.last[v as usize] < self.first[u as usize];
            if fwd || (!g.is_directed() && bwd) {
                let anchor = if fwd { u } else { v };
                let t = self.root_time_of(anchor);
                return self.rebuild_from(g, t);
            }
            0
        } else {
            if self.parent[v as usize] == u || (!g.is_directed() && self.parent[u as usize] == v) {
                let anchor = if self.parent[v as usize] == u { u } else { v };
                let t = self.root_time_of(anchor);
                return self.rebuild_from(g, t);
            }
            0
        }
    }

    /// Resident bytes (Fig. 8).
    pub fn space_bytes(&self) -> usize {
        (self.first.capacity() + self.last.capacity() + self.visited_mark.capacity()) * 4
            + self.parent.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Entry time of the forest root whose subtree contains `v`.
    fn root_time_of(&self, v: NodeId) -> u32 {
        let mut x = v;
        while self.parent[x as usize] != ROOT {
            x = self.parent[x as usize];
        }
        self.first[x as usize]
    }

    /// Re-traverses every subtree entered at time `>= t0`, keeping the
    /// closed prefix. Returns the number of nodes re-traversed.
    fn rebuild_from(&mut self, g: &DynamicGraph, t0: u32) -> usize {
        let n = g.node_count();
        self.epoch += 1;
        let epoch = self.epoch;
        // Mark the kept prefix as visited.
        for x in 0..n {
            if self.first[x] < t0 && self.last[x] < t0 {
                self.visited_mark[x] = epoch;
            }
        }
        let mut time = t0;
        let mut redone = 0usize;
        let mut stack: Vec<(NodeId, usize)> = Vec::new();
        for r in 0..n as NodeId {
            if self.visited_mark[r as usize] == epoch {
                continue;
            }
            self.enter(r, ROOT, &mut time, epoch);
            redone += 1;
            stack.push((r, 0));
            'frames: while let Some(&(x, idx0)) = stack.last() {
                let adj = g.out_neighbors(x);
                let mut idx = idx0;
                while idx < adj.len() {
                    let w = adj[idx].0;
                    idx += 1;
                    if self.visited_mark[w as usize] == epoch {
                        continue;
                    }
                    stack.last_mut().expect("frame").1 = idx;
                    self.enter(w, x, &mut time, epoch);
                    redone += 1;
                    stack.push((w, 0));
                    continue 'frames;
                }
                self.last[x as usize] = time;
                time += 1;
                stack.pop();
            }
        }
        redone
    }

    fn enter(&mut self, v: NodeId, p: NodeId, time: &mut u32, epoch: u32) {
        self.first[v as usize] = *time;
        self.parent[v as usize] = p;
        self.visited_mark[v as usize] = epoch;
        *time += 1;
    }
}

/// Validates that a `(first, last, parent)` labelling is a genuine DFS
/// forest of `g`: timestamps form a permutation, intervals nest along
/// tree edges that exist in the graph, and no graph edge is
/// forward-cross. Shared with the integration tests.
pub fn is_valid_dfs_forest(g: &DynamicGraph, s: &DynDfs) -> Result<(), String> {
    let n = g.node_count();
    let mut seen = vec![false; 2 * n];
    for v in 0..n as NodeId {
        let (f, l) = (s.first(v), s.last(v));
        if f >= l || l as usize >= 2 * n {
            return Err(format!("bad interval [{f},{l}] at {v}"));
        }
        for t in [f, l] {
            if std::mem::replace(&mut seen[t as usize], true) {
                return Err(format!("timestamp {t} reused at {v}"));
            }
        }
        let p = s.parent(v);
        if p != ROOT {
            if !g.has_edge(p, v) {
                return Err(format!("tree edge ({p},{v}) not in graph"));
            }
            if !(s.first(p) < f && l < s.last(p)) {
                return Err(format!("child {v} not nested in parent {p}"));
            }
        }
    }
    for (x, y, _) in g.edges() {
        if s.last(x) < s.first(y) {
            return Err(format!("forward-cross edge ({x},{y})"));
        }
        if !g.is_directed() && s.last(y) < s.first(x) {
            return Err(format!("forward-cross edge ({y},{x})"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    #[test]
    fn initial_forest_is_valid() {
        let g = incgraph_graph::gen::uniform(120, 500, true, 1, 1, 3);
        let s = DynDfs::new(&g);
        is_valid_dfs_forest(&g, &s).expect("valid");
    }

    #[test]
    fn non_violating_insert_is_noop() {
        let mut g = DynamicGraph::new(true, 4);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        let mut s = DynDfs::new(&g);
        // Back edge 2 -> 0: 0.first < 2.last, never forward-cross.
        g.insert_edge(2, 0, 1);
        assert_eq!(s.apply_unit(&g, true, 2, 0), 0);
        is_valid_dfs_forest(&g, &s).expect("valid");
    }

    #[test]
    fn violating_insert_triggers_rebuild() {
        let mut g = DynamicGraph::new(true, 4);
        g.insert_edge(0, 1, 1);
        // Components {0,1}, {2}, {3}: 2 and 3 are later roots.
        let mut s = DynDfs::new(&g);
        assert!(s.last(1) < s.first(3));
        g.insert_edge(1, 3, 1);
        let redone = s.apply_unit(&g, true, 1, 3);
        assert!(redone > 0, "forward-cross edge must force a rebuild");
        is_valid_dfs_forest(&g, &s).expect("valid");
        assert_eq!(s.parent(3), 1);
    }

    #[test]
    fn tree_edge_deletion_triggers_rebuild() {
        let mut g = DynamicGraph::new(true, 5);
        for i in 0..4u32 {
            g.insert_edge(i, i + 1, 1);
        }
        let mut s = DynDfs::new(&g);
        g.delete_edge(1, 2);
        let redone = s.apply_unit(&g, false, 1, 2);
        assert!(redone > 0);
        is_valid_dfs_forest(&g, &s).expect("valid");
        assert_eq!(s.parent(2), ROOT, "2 becomes a new forest root");
    }

    #[test]
    fn random_stream_stays_valid() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(80, 300, true, 1, 1, 44);
        let mut s = DynDfs::new(&g);
        let mut rng = SplitMix64::seed_from_u64(9);
        for step in 0..150 {
            let u = rng.gen_range(0..80) as NodeId;
            let v = rng.gen_range(0..80) as NodeId;
            if u == v {
                continue;
            }
            let mut batch = UpdateBatch::new();
            if rng.gen_bool(0.5) {
                batch.insert(u, v, 1);
            } else {
                batch.delete(u, v);
            }
            let applied = batch.apply(&mut g);
            for op in applied.ops() {
                s.apply_unit(&g, op.inserted, op.src, op.dst);
            }
            is_valid_dfs_forest(&g, &s).unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
    }

    #[test]
    fn undirected_stream_stays_valid() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::grid(6, 6, 1, 1);
        let mut s = DynDfs::new(&g);
        let mut rng = SplitMix64::seed_from_u64(10);
        for step in 0..100 {
            let u = rng.gen_range(0..36) as NodeId;
            let v = rng.gen_range(0..36) as NodeId;
            if u == v {
                continue;
            }
            let mut batch = UpdateBatch::new();
            if rng.gen_bool(0.5) {
                batch.insert(u, v, 1);
            } else {
                batch.delete(u, v);
            }
            let applied = batch.apply(&mut g);
            for op in applied.ops() {
                s.apply_unit(&g, op.inserted, op.src, op.dst);
            }
            is_valid_dfs_forest(&g, &s).unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
    }
}
