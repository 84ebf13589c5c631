//! Mutable adjacency-list graph storage.
//!
//! [`DynamicGraph`] is the substrate every batch and incremental algorithm
//! in this workspace runs on. It is designed for the workload mix of the
//! paper's experiments: full scans (batch algorithms), point updates
//! (`ΔG` edge insertions/deletions), and neighbor iteration (step
//! functions). Adjacency lists are kept **sorted by target id** so that
//! `has_edge`/`edge_weight` are `O(log d)` binary searches and point
//! updates are `O(d)` insertions, while neighbor iteration stays a cache
//! friendly slice scan. A whole graph (a generated dataset, a parsed file,
//! a checkpoint) is built in one pass by
//! [`from_edges`](DynamicGraph::from_edges).

use crate::ids::{Label, NodeId, Weight};

/// A mutable, labeled, weighted graph, directed or undirected.
///
/// Undirected edges are mirrored into both endpoints' adjacency lists but
/// counted once by [`edge_count`](Self::edge_count). Parallel edges are not
/// representable: inserting an existing edge is a no-op (returns `false`),
/// matching the simple-graph model of the paper.
///
/// The vertex set and its labels are fixed when the graph is built
/// ([`new`](Self::new), [`with_labels`](Self::with_labels),
/// [`from_edges`](Self::from_edges)); afterwards only edges change. `ΔG`
/// is a batch of edge insertions and deletions (paper §2), so every
/// class state is sized once, at its batch run.
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    directed: bool,
    labels: Vec<Label>,
    /// Outgoing adjacency, sorted by target id. For undirected graphs this
    /// holds the full neighbor set.
    out: Vec<Vec<(NodeId, Weight)>>,
    /// Incoming adjacency (directed graphs only), sorted by source id.
    inn: Vec<Vec<(NodeId, Weight)>>,
    num_edges: usize,
}

impl DynamicGraph {
    /// Creates a graph with `n` nodes, all labeled `0`, and no edges.
    pub fn new(directed: bool, n: usize) -> Self {
        Self::with_labels(directed, vec![0; n])
    }

    /// Creates a graph whose `i`-th node carries `labels[i]`.
    pub fn with_labels(directed: bool, labels: Vec<Label>) -> Self {
        let n = labels.len();
        DynamicGraph {
            directed,
            labels,
            out: vec![Vec::new(); n],
            inn: if directed {
                vec![Vec::new(); n]
            } else {
                Vec::new()
            },
            num_edges: 0,
        }
    }

    /// Builds a whole graph in one pass. The result is the graph that
    /// calling [`insert_edge`](Self::insert_edge) for each of `edges` in
    /// order would leave: the first occurrence of an edge wins (for
    /// undirected graphs `(u, v)` and `(v, u)` are one edge) and undirected
    /// self-loops are dropped. Also returns how many of `edges` were
    /// dropped.
    ///
    /// The edges are sorted once by `(u, v)` (stably, so a duplicate's
    /// first occurrence comes first; sorted input costs one pass), degrees
    /// are counted, and every adjacency list is allocated at its exact
    /// size and filled in sorted order: `O(m log m)` overall, where the
    /// insert loop pays `O(d)` per edge. Panics if an endpoint is out of
    /// range.
    pub fn from_edges(
        directed: bool,
        labels: Vec<Label>,
        mut edges: Vec<(NodeId, NodeId, Weight)>,
    ) -> (Self, usize) {
        let n = labels.len();
        let given = edges.len();
        if !directed {
            edges.retain(|&(u, v, _)| u != v);
            for e in &mut edges {
                if e.0 > e.1 {
                    (e.0, e.1) = (e.1, e.0);
                }
            }
        }
        edges.sort_by_key(|&(u, v, _)| (u, v));
        edges.dedup_by_key(|&mut (u, v, _)| (u, v));

        let mut out_deg = vec![0usize; n];
        let mut in_deg = vec![0usize; if directed { n } else { 0 }];
        for &(u, v, _) in &edges {
            assert!((u as usize) < n, "node {u} out of range");
            assert!((v as usize) < n, "node {v} out of range");
            out_deg[u as usize] += 1;
            if directed {
                in_deg[v as usize] += 1;
            } else {
                out_deg[v as usize] += 1;
            }
        }
        let lists = |deg: Vec<usize>| -> Vec<Vec<(NodeId, Weight)>> {
            deg.into_iter().map(Vec::with_capacity).collect()
        };
        let mut out = lists(out_deg);
        let mut inn = lists(in_deg);
        // Edges arrive sorted by `(u, v)`, so each push lands at the end of
        // a sorted list: `out[u]` gets its targets in `v` order, `inn[v]`
        // its sources in `u` order, and an undirected `out[v]` gets every
        // mirrored `u < v` before its own `(v, x)` with `x > v`.
        for &(u, v, w) in &edges {
            out[u as usize].push((v, w));
            if directed {
                inn[v as usize].push((u, w));
            } else {
                out[v as usize].push((u, w));
            }
        }
        let g = DynamicGraph {
            directed,
            labels,
            out,
            inn,
            num_edges: edges.len(),
        };
        (g, given - edges.len())
    }

    /// Whether edges are directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges (each undirected edge counted once).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.num_edges
    }

    /// `|G| = |V| + |E|`, the graph size measure used throughout the
    /// paper's experiments (e.g. `|ΔG| = 1%|G|`).
    #[inline]
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.labels.len() as NodeId
    }

    /// Label of node `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        self.labels[v as usize]
    }

    /// Outgoing neighbors of `v` as `(target, weight)`, sorted by target.
    /// For undirected graphs this is the full neighbor set.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[(NodeId, Weight)] {
        &self.out[v as usize]
    }

    /// Incoming neighbors of `v` as `(source, weight)`, sorted by source.
    /// For undirected graphs this is the same slice as
    /// [`out_neighbors`](Self::out_neighbors).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[(NodeId, Weight)] {
        if self.directed {
            &self.inn[v as usize]
        } else {
            &self.out[v as usize]
        }
    }

    /// Out-degree of `v` (degree, for undirected graphs).
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out[v as usize].len()
    }

    /// In-degree of `v` (degree, for undirected graphs).
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Degree of `v` in an undirected graph. Panics in debug builds if the
    /// graph is directed (use `out_degree`/`in_degree` there).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        debug_assert!(!self.directed, "degree() is for undirected graphs");
        self.out[v as usize].len()
    }

    /// Whether edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Weight of edge `(u, v)`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        let adj = &self.out[u as usize];
        adj.binary_search_by_key(&v, |&(t, _)| t)
            .ok()
            .map(|i| adj[i].1)
    }

    /// Inserts edge `(u, v)` with weight `w`. Returns `false` (and leaves
    /// the graph unchanged) if the edge already exists. Self-loops are
    /// permitted on directed graphs and rejected on undirected ones (they
    /// would double-insert into one adjacency list).
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, w: Weight) -> bool {
        matches!(self.try_insert_edge(u, v, w), Ok(true))
    }

    /// Inserts edge `(u, v)` with weight `w`, reporting the weight of an
    /// already-present edge instead of silently refusing.
    ///
    /// One binary search on `out[u]` resolves everything: `Ok(i)` is the
    /// existing edge (returned as `Err(weight)`), `Err(pos)` is the
    /// insertion point. Returns `Ok(true)` on insertion and `Ok(false)`
    /// for a rejected undirected self-loop. Callers that need to
    /// distinguish "already there with which weight" (batch validation)
    /// get it without a separate `edge_weight` probe.
    pub fn try_insert_edge(&mut self, u: NodeId, v: NodeId, w: Weight) -> Result<bool, Weight> {
        assert!((u as usize) < self.labels.len(), "node {u} out of range");
        assert!((v as usize) < self.labels.len(), "node {v} out of range");
        if !self.directed && u == v {
            return Ok(false);
        }
        let adj = &mut self.out[u as usize];
        match adj.binary_search_by_key(&v, |&(t, _)| t) {
            Ok(i) => return Err(adj[i].1),
            Err(pos) => adj.insert(pos, (v, w)),
        }
        if self.directed {
            let ok = Self::insert_sorted(&mut self.inn[v as usize], u, w);
            debug_assert!(ok, "out/in adjacency diverged");
        } else {
            let ok = Self::insert_sorted(&mut self.out[v as usize], u, w);
            debug_assert!(ok, "mirrored adjacency diverged");
        }
        self.num_edges += 1;
        Ok(true)
    }

    /// Deletes edge `(u, v)`, returning its weight if it was present.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Option<Weight> {
        let w = Self::remove_sorted(&mut self.out[u as usize], v)?;
        if self.directed {
            let w2 = Self::remove_sorted(&mut self.inn[v as usize], u);
            debug_assert_eq!(w2, Some(w), "out/in adjacency diverged");
        } else {
            let w2 = Self::remove_sorted(&mut self.out[v as usize], u);
            debug_assert_eq!(w2, Some(w), "mirrored adjacency diverged");
        }
        self.num_edges -= 1;
        Some(w)
    }

    /// All edges as `(u, v, w)`. Undirected edges are reported once with
    /// `u <= v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.out.iter().enumerate().flat_map(move |(u, adj)| {
            let u = u as NodeId;
            adj.iter()
                .filter(move |&&(v, _)| self.directed || u <= v)
                .map(move |&(v, w)| (u, v, w))
        })
    }

    /// Heap bytes held by the adjacency structure; used for the space-cost
    /// experiment (paper Fig. 8).
    pub fn space_bytes(&self) -> usize {
        use std::mem::size_of;
        let entry = size_of::<(NodeId, Weight)>();
        let adj: usize = self
            .out
            .iter()
            .chain(self.inn.iter())
            .map(|v| v.capacity() * entry + size_of::<Vec<(NodeId, Weight)>>())
            .sum();
        adj + self.labels.capacity() * size_of::<Label>()
    }

    fn insert_sorted(adj: &mut Vec<(NodeId, Weight)>, t: NodeId, w: Weight) -> bool {
        match adj.binary_search_by_key(&t, |&(x, _)| x) {
            Ok(_) => false,
            Err(pos) => {
                adj.insert(pos, (t, w));
                true
            }
        }
    }

    fn remove_sorted(adj: &mut Vec<(NodeId, Weight)>, t: NodeId) -> Option<Weight> {
        match adj.binary_search_by_key(&t, |&(x, _)| x) {
            Ok(pos) => Some(adj.remove(pos).1),
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_insert_delete_roundtrip() {
        let mut g = DynamicGraph::new(true, 4);
        assert!(g.insert_edge(0, 1, 5));
        assert!(!g.insert_edge(0, 1, 7), "duplicate insert must be a no-op");
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(1, 0), None, "directed edge is one-way");
        assert_eq!(g.in_neighbors(1), &[(0, 5)]);
        assert_eq!(g.delete_edge(0, 1), Some(5));
        assert_eq!(g.delete_edge(0, 1), None);
        assert_eq!(g.edge_count(), 0);
        assert!(g.in_neighbors(1).is_empty());
    }

    #[test]
    fn undirected_edges_are_mirrored_and_counted_once() {
        let mut g = DynamicGraph::new(false, 3);
        assert!(g.insert_edge(2, 0, 1));
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(0, 2) && g.has_edge(2, 0));
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 1);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 2, 1)]);
        assert_eq!(g.delete_edge(0, 2), Some(1));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn undirected_self_loop_rejected() {
        let mut g = DynamicGraph::new(false, 2);
        assert!(!g.insert_edge(1, 1, 1));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn directed_self_loop_allowed() {
        let mut g = DynamicGraph::new(true, 2);
        assert!(g.insert_edge(1, 1, 3));
        assert_eq!(g.out_neighbors(1), &[(1, 3)]);
        assert_eq!(g.in_neighbors(1), &[(1, 3)]);
    }

    #[test]
    fn try_insert_reports_existing_weight() {
        let mut g = DynamicGraph::new(true, 3);
        assert_eq!(g.try_insert_edge(0, 1, 5), Ok(true));
        assert_eq!(g.try_insert_edge(0, 1, 9), Err(5));
        assert_eq!(g.edge_weight(0, 1), Some(5), "losing insert is a no-op");
        let mut u = DynamicGraph::new(false, 3);
        assert_eq!(u.try_insert_edge(2, 2, 1), Ok(false), "self-loop rejected");
        assert_eq!(u.edge_count(), 0);
    }

    #[test]
    fn adjacency_stays_sorted() {
        let mut g = DynamicGraph::new(true, 5);
        for v in [3u32, 1, 4, 2] {
            g.insert_edge(0, v, v);
        }
        let targets: Vec<_> = g.out_neighbors(0).iter().map(|&(t, _)| t).collect();
        assert_eq!(targets, vec![1, 2, 3, 4]);
    }

    #[test]
    fn size_is_nodes_plus_edges() {
        let mut g = DynamicGraph::new(false, 10);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        assert_eq!(g.size(), 12);
    }

    #[test]
    fn from_edges_equals_the_insert_loop() {
        use crate::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(0xb01d);
        for case in 0..200 {
            let directed = case % 2 == 0;
            let n = rng.gen_range(1..12usize);
            let labels: Vec<Label> = (0..n).map(|_| rng.gen_range(0..4u32)).collect();
            // Few nodes and many draws: duplicates, reversed duplicates
            // and self-loops all turn up.
            let edges: Vec<_> = (0..rng.gen_range(0..40))
                .map(|_| {
                    let u = rng.gen_range(0..n) as NodeId;
                    let v = rng.gen_range(0..n) as NodeId;
                    (u, v, rng.gen_range(1..=9u32))
                })
                .collect();
            let mut looped = DynamicGraph::with_labels(directed, labels.clone());
            let refused = edges
                .iter()
                .filter(|&&(u, v, w)| !looped.insert_edge(u, v, w))
                .count();
            let (built, dropped) = DynamicGraph::from_edges(directed, labels, edges.clone());
            assert_eq!(dropped, refused, "case {case}: {edges:?}");
            assert_eq!(built.edge_count(), looped.edge_count());
            for v in looped.nodes() {
                assert_eq!(built.label(v), looped.label(v));
                assert_eq!(
                    built.out_neighbors(v),
                    looped.out_neighbors(v),
                    "case {case}"
                );
                assert_eq!(built.in_neighbors(v), looped.in_neighbors(v), "case {case}");
            }
            // Exact capacity: every edge is stored twice (out and in, or
            // mirrored), with no spare slot.
            let entry = std::mem::size_of::<(NodeId, Weight)>();
            let lists = if directed { 2 * n } else { n };
            let min = 2 * built.edge_count() * entry
                + lists * std::mem::size_of::<Vec<(NodeId, Weight)>>()
                + n * std::mem::size_of::<Label>();
            assert_eq!(built.space_bytes(), min, "case {case}");
        }
    }

    #[test]
    fn space_bytes_grows_with_edges() {
        let mut g = DynamicGraph::new(true, 100);
        let before = g.space_bytes();
        for i in 0..99u32 {
            g.insert_edge(i, i + 1, 1);
        }
        assert!(g.space_bytes() > before);
    }
}
