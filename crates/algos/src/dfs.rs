//! Depth-first search: the `DFS_fp` interval fixpoint (paper §5.2) and
//! its **deducible** incremental algorithm `IncDFS`.
//!
//! Each node's status variable is the interval `x_v = [v.first, v.last]`
//! of its entry/exit timestamps in the DFS traversal from a virtual root
//! `r` connected to every node (so the result is an ordered spanning
//! forest covering all of `V`). The batch traversal is deterministic:
//! root children are attempted in node-id order and out-neighbors in
//! adjacency (id) order, which pins down a unique DFS tree — the paper's
//! correctness equation `Q(G ⊕ ΔG) = Q(G) ⊕ A_Δ(…)` then means the
//! incremental algorithm must reproduce *exactly* the intervals and
//! parents the batch run would produce on the updated graph.
//!
//! `IncDFS` follows the paper's `h`-plus-resume recipe with the order
//! `<_C` given by `v.first` and anchor set = the parent: the scope phase
//! marks the nodes whose input sets evolved (endpoints of `ΔG`) and the
//! old-tree ancestors whose subtrees contain them; the resume phase
//! re-runs the traversal but **skips over any subtree whose replay is
//! provably identical** (entered at the same timestamp from the same
//! parent, with no affected node inside, while the traversal prefix is
//! still identical to the old run). Skipped subtrees keep their old
//! intervals untouched, so the re-traversal cost tracks the affected
//! area — which for DFS is everything after the first divergence point,
//! exactly the behaviour the paper reports (IncDFS wins for small `ΔG`
//! and loses to batch beyond ~4%).
//!
//! The traversal reports its events to a `Visit` hook, so a fixpoint
//! layered on the forest (BC's lowpoints) is evaluated inside the same
//! pass, in batch and in replay alike; the DFS class passes `()`.
//!
//! The replay takes no snapshot of the old run, and its two write sites —
//! entering a node and closing it — journal the node's old
//! `(first, last, parent)` when a session owes a delta. Every decision that
//! consults it — "was `w` inside a skipped subtree", "is this entry
//! identical", "does `v` close at its old time" — is made about a node
//! the current replay has not yet (re-)entered, or at the moment it
//! closes, so the live `first`/`last`/`parent` arrays still hold the old
//! run's values exactly where they are read. The affected-subtree set is
//! an epoch bitmap and the skip list and stack are kept between updates,
//! so a steady-state update allocates nothing and pays only for the
//! nodes it re-enters.
//!
//! DFS's update functions are not pure functions of a static input set
//! (a node's interval depends on how many timestamps its earlier siblings
//! consumed), so this module implements the step function directly rather
//! than through the generic [`incgraph_core::FixpointSpec`]; the two-phase
//! structure and the accounting are the same.

use crate::output::{ClassOutput, OutputChange};
use incgraph_core::engine::RunStats;
use incgraph_core::epoch::VisitEpoch;
use incgraph_core::metrics::{vec_bytes, BoundednessReport};
use incgraph_core::scope::ScopeStats;
use incgraph_core::Journal;
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId};

/// Parent sentinel for roots of the DFS forest (children of the virtual
/// root `r`).
pub const ROOT: NodeId = NodeId::MAX;

/// DFS state: the interval labelling and tree of the previous run, plus
/// the scratch needed to replay updates cheaply.
pub struct DfsState {
    first: Vec<u32>,
    last: Vec<u32>,
    parent: Vec<NodeId>,
    /// Nodes (re-)entered by the current replay.
    visited: VisitEpoch,
    /// `h`'s output: nodes on the old-tree ancestor chain of a structural
    /// op's endpoint — a subtree rooted at one may replay differently.
    aff_sub: VisitEpoch,
    /// Sorted, disjoint old-time intervals of the subtrees the current
    /// replay skipped.
    skipped: Vec<(u32, u32)>,
    /// The replay's explicit stack of (node, next-out-neighbor index).
    stack: Vec<(NodeId, usize)>,
    /// Old `(first, last, parent)` of every node written since the last
    /// drain (off unless a session started it).
    pub(crate) journal: Journal<Row>,
}

/// A node's `(first, last, parent)`: its row of the output.
pub(crate) type Row = (u32, u32, NodeId);

/// What a fixpoint layered on the forest sees of a traversal, in the
/// order Tarjan's algorithm consumes it: each event concerns the node on
/// top of the DFS stack, and every timestamp is the new run's.
pub(crate) trait Visit {
    /// `false` compiles out every call and the reads that only feed one.
    const ON: bool;
    /// A node is entered at `first`; it is now on top.
    fn open(&mut self, _first: u32) {}
    /// The earliest visited neighbour but the parent the top scanned
    /// (`u32::MAX`: none), reported before the top opens a child or closes.
    fn back(&mut self, _first_w: u32) {}
    /// The top kept child `c`'s old subtree without entering it.
    fn child(&mut self, _c: NodeId) {}
    /// `v` closes below `parent`, entered at `first_parent` (a root: below
    /// [`ROOT`], at 0).
    fn close(&mut self, _v: NodeId, _parent: NodeId, _first_parent: u32) {}
}

/// The plain DFS: no layer.
impl Visit for () {
    const ON: bool = false;
}

impl DfsState {
    /// Runs batch `DFS_fp` on `g`.
    pub fn batch(g: &DynamicGraph) -> (Self, RunStats) {
        Self::batch_visiting(g, &mut ())
    }

    /// Batch `DFS_fp` reporting its traversal to `hook`.
    pub(crate) fn batch_visiting<H: Visit>(g: &DynamicGraph, hook: &mut H) -> (Self, RunStats) {
        let n = g.node_count();
        let mut state = DfsState::with_labelling(vec![0; n], vec![0; n], vec![ROOT; n]);
        let stats = state.traverse(g, false, hook);
        (state, stats)
    }

    /// A state over the given labelling with empty replay scratch.
    fn with_labelling(first: Vec<u32>, last: Vec<u32>, parent: Vec<NodeId>) -> Self {
        let n = first.len();
        DfsState {
            first,
            last,
            parent,
            visited: VisitEpoch::new(n),
            aff_sub: VisitEpoch::new(n),
            skipped: Vec::new(),
            stack: Vec::new(),
            journal: Journal::default(),
        }
    }

    /// Entry (preorder) timestamp of `v`.
    pub fn first(&self, v: NodeId) -> u32 {
        self.first[v as usize]
    }

    /// Exit (postorder) timestamp of `v`.
    pub fn last(&self, v: NodeId) -> u32 {
        self.last[v as usize]
    }

    /// Parent of `v` in the DFS tree ([`ROOT`] for forest roots).
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// The intervals `[first, last]` of every node.
    pub fn intervals(&self) -> Vec<(u32, u32)> {
        self.first
            .iter()
            .zip(&self.last)
            .map(|(&f, &l)| (f, l))
            .collect()
    }

    /// `(first, last, parent)` of `v`: its row of the output.
    pub(crate) fn row(&self, v: usize) -> Row {
        (self.first[v], self.last[v], self.parent[v])
    }

    /// Whether `u` is an ancestor of `v` in the DFS tree (interval
    /// nesting; a node is its own ancestor).
    pub fn is_ancestor(&self, u: NodeId, v: NodeId) -> bool {
        self.first[u as usize] <= self.first[v as usize]
            && self.last[v as usize] <= self.last[u as usize]
    }

    /// `IncDFS`: adjust via the affected-subtree scope phase, then resume
    /// the traversal with identical-subtree skipping.
    pub fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        self.update_visiting(g, applied, &mut ())
    }

    /// [`update`](Self::update) reporting the resumed traversal to `hook`,
    /// timed as the `dfs.forest` span: it ends once the forest is current,
    /// where the DFS class's output is fresh and BC goes on working.
    pub(crate) fn update_visiting<H: Visit>(
        &mut self,
        g: &DynamicGraph,
        applied: &AppliedBatch,
        hook: &mut H,
    ) -> BoundednessReport {
        let _span = incgraph_obs::span("dfs.forest");
        let mut scope_stats = ScopeStats::default();

        // h phase: classify each op against the old traversal. An op is
        // *inert* — provably replayed identically — when it is an inserted
        // back/cross edge to an earlier-visited target (the scan finds the
        // target already visited, exactly as not scanning it at all) or a
        // deleted non-tree edge (the scan simply no longer sees an edge it
        // skipped anyway). Structural ops mark the old-tree ancestor
        // chains of both endpoints: any subtree containing one may replay
        // differently.
        let (first, last, parent) = (&self.first, &self.last, &self.parent);
        let aff_sub = &mut self.aff_sub;
        aff_sub.clear();
        {
            let mut mark_chain = |v: NodeId| {
                let mut cur = v;
                loop {
                    scope_stats.pops += 1;
                    if !aff_sub.insert(cur as usize) {
                        break;
                    }
                    scope_stats.raised += 1;
                    let p = parent[cur as usize];
                    if p == ROOT {
                        break;
                    }
                    cur = p;
                }
            };
            // An inserted edge (u, v) with v inside u's old subtree only
            // changes the traversal if u's scan reaches the new target
            // before the branch that already leads to v. The scan walks
            // the sorted adjacency, so with c = the child of u whose
            // subtree contains v: structural iff v < c in id order.
            let insert_structural = |u: NodeId, v: NodeId| -> bool {
                let (fu, lu) = (first[u as usize], last[u as usize]);
                let fv = first[v as usize];
                if fv < fu {
                    return false; // back/cross to an earlier node: inert
                }
                if fv > lu {
                    return true; // forward-cross past u's subtree
                }
                // Descendant: locate the branch child.
                for &(c, _) in g.out_neighbors(u) {
                    if parent[c as usize] == u && first[c as usize] <= fv && fv <= last[c as usize]
                    {
                        return v < c;
                    }
                }
                true // branch child not in current adjacency: be conservative
            };
            for op in applied.ops() {
                let (u, v) = (op.src, op.dst);
                let structural = if op.inserted {
                    insert_structural(u, v) || (!g.is_directed() && insert_structural(v, u))
                } else {
                    parent[v as usize] == u || (!g.is_directed() && parent[u as usize] == v)
                };
                if structural {
                    mark_chain(u);
                    mark_chain(v);
                }
            }
        }
        let scope_size = aff_sub.count();

        // Every op inert ⇒ the replay is provably identical; skip the
        // traversal entirely. This is what makes the common unit update —
        // a back/cross insertion or a non-tree deletion — effectively
        // free.
        if scope_size == 0 {
            return BoundednessReport::new(g.node_count(), 0, scope_stats, RunStats::default());
        }

        let run = self.traverse(g, true, hook);
        BoundednessReport::new(g.node_count(), scope_size, scope_stats, run)
    }

    /// Resident bytes of the algorithm's state (Fig. 8). No timestamps
    /// beyond the intervals themselves — IncDFS is deducible.
    pub fn space_bytes(&self) -> usize {
        vec_bytes(&self.first)
            + vec_bytes(&self.last)
            + vec_bytes(&self.parent)
            + self.visited.space_bytes()
            + self.aff_sub.space_bytes()
            + vec_bytes(&self.skipped)
            + vec_bytes(&self.stack)
            + self.journal.space_bytes()
    }

    /// Audit helper shared with BC: compare this forest against the
    /// canonical batch forest on `g`, one violation per diverging node.
    /// DFS intervals are not pure functions of a static input set, so the
    /// generic `σ_x` re-check does not apply; determinism of the batch
    /// traversal makes recompute-and-compare an exact substitute.
    pub(crate) fn audit_against_batch(
        &self,
        g: &DynamicGraph,
        audit: &incgraph_core::audit::FixpointAudit,
    ) -> incgraph_core::audit::AuditReport {
        let (fresh, _) = DfsState::batch(g);
        audit.check(g.node_count(), "batch DFS", |x| (self.row(x), fresh.row(x)))
    }

    /// The step function: a DFS replay. With `resume` set, subtrees
    /// whose replay is provably identical to the previous run (none of
    /// their nodes in `aff_sub`) are skipped in O(1) (plus an
    /// O(log #skips) membership structure).
    ///
    /// The old run is read from the live arrays — see the module docs:
    /// `first`/`parent` of a node are overwritten when it is entered and
    /// `last` when it closes, and nothing below reads them later than
    /// that.
    fn traverse<H: Visit>(&mut self, g: &DynamicGraph, resume: bool, hook: &mut H) -> RunStats {
        let n = g.node_count();
        let mut stats = RunStats::default();
        self.visited.clear();

        let mut skipped = std::mem::take(&mut self.skipped);
        skipped.clear();
        let in_skipped = |skipped: &[(u32, u32)], of: u32| -> bool {
            let i = skipped.partition_point(|&(_, l)| l < of);
            i < skipped.len() && skipped[i].0 <= of
        };

        let mut time: u32 = 0;
        // `identical` = every timestamp assigned so far equals the old
        // run's; the precondition for any further skipping.
        let mut identical = resume;
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();

        // The epoch mark short-circuits: an entered node's `first` is
        // already the new one and is never consulted as an old time.
        macro_rules! visited {
            ($w:expr) => {
                self.visited.contains($w as usize)
                    || (resume && in_skipped(&skipped, self.first[$w as usize]))
            };
        }

        for r in 0..n as NodeId {
            if visited!(r) {
                continue;
            }
            // Try to skip the whole old subtree rooted at this forest root.
            if identical
                && self.first[r as usize] == time
                && self.parent[r as usize] == ROOT
                && !self.aff_sub.contains(r as usize)
            {
                skipped.push((self.first[r as usize], self.last[r as usize]));
                time = self.last[r as usize] + 1;
                continue;
            }
            // Normal entry.
            if identical && (self.first[r as usize] != time || self.parent[r as usize] != ROOT) {
                identical = false;
            }
            self.enter(r, ROOT, &mut time, &mut stats);
            hook.open(time - 1);
            stack.push((r, 0));

            'frames: while let Some(&(v, idx0)) = stack.last() {
                let adj = g.out_neighbors(v);
                let parent = if H::ON { self.parent[v as usize] } else { ROOT };
                let mut back = u32::MAX; // for `Visit::back`
                let mut idx = idx0;
                while idx < adj.len() {
                    let w = adj[idx].0;
                    idx += 1;
                    stats.reads += 1;
                    if visited!(w) {
                        if H::ON && w != parent {
                            back = back.min(self.first[w as usize]);
                        }
                        continue;
                    }
                    if identical
                        && self.first[w as usize] == time
                        && self.parent[w as usize] == v
                        && !self.aff_sub.contains(w as usize)
                    {
                        skipped.push((self.first[w as usize], self.last[w as usize]));
                        time = self.last[w as usize] + 1;
                        hook.child(w);
                        continue;
                    }
                    if identical && (self.first[w as usize] != time || self.parent[w as usize] != v)
                    {
                        identical = false;
                    }
                    stack.last_mut().expect("frame exists").1 = idx;
                    self.enter(w, v, &mut time, &mut stats);
                    hook.back(back);
                    hook.open(time - 1);
                    stack.push((w, 0));
                    continue 'frames;
                }
                // Out-neighbors exhausted: close v.
                hook.back(back);
                if self.last[v as usize] != time {
                    identical = false;
                    self.journal.record(v as usize, self.row(v as usize));
                }
                self.last[v as usize] = time;
                time += 1;
                stack.pop();
                if H::ON {
                    let p = self.parent[v as usize];
                    hook.close(v, p, self.first.get(p as usize).map_or(0, |&f| f));
                }
            }
        }
        self.skipped = skipped;
        self.stack = stack;
        stats
    }

    /// Enters `v` from `p` at `time`.
    fn enter(&mut self, v: NodeId, p: NodeId, time: &mut u32, stats: &mut RunStats) {
        if self.first[v as usize] != *time || self.parent[v as usize] != p {
            self.journal.record(v as usize, self.row(v as usize));
            stats.changes += 1;
        }
        self.first[v as usize] = *time;
        self.parent[v as usize] = p;
        self.visited.insert(v as usize);
        *time += 1;
        stats.pops += 1;
        stats.evals += 1;
        stats.distinct_vars += 1;
    }

    /// Writes the durable payload (intervals + parents); everything else
    /// is replay scratch and restarts empty. Shared with BC, whose blob
    /// embeds its DFS substrate.
    pub(crate) fn save_payload(&self, out: &mut Vec<u8>) {
        crate::persist::put_u64(out, self.first.len() as u64);
        for &f in &self.first {
            crate::persist::put_u32(out, f);
        }
        for &l in &self.last {
            crate::persist::put_u32(out, l);
        }
        for &p in &self.parent {
            crate::persist::put_u32(out, p);
        }
    }

    /// Reads a payload written by [`save_payload`](Self::save_payload).
    pub(crate) fn restore_payload(
        r: &mut crate::persist::ByteReader<'_>,
        n: usize,
    ) -> Result<Self, crate::persist::StateLoadError> {
        let stored = r.len(12)?;
        if stored != n {
            return Err(crate::persist::StateLoadError::SizeMismatch {
                expected: n,
                found: stored,
            });
        }
        let read_vec = |r: &mut crate::persist::ByteReader<'_>| {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.u32()?);
            }
            Ok::<_, crate::persist::StateLoadError>(v)
        };
        let first = read_vec(r)?;
        let last = read_vec(r)?;
        let parent = read_vec(r)?;
        Ok(DfsState::with_labelling(first, last, parent))
    }

    /// Serializes the durable essence (`SaveState`): the interval
    /// labelling and the tree. Deducible — the preorder numbers *are* the
    /// order `<_C`.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = crate::persist::header("dfs");
        self.save_payload(&mut out);
        out
    }

    /// Rebuilds a state from [`save_state`](Self::save_state) bytes
    /// without re-traversing (`LoadState`).
    pub fn restore(g: &DynamicGraph, bytes: &[u8]) -> Result<Self, crate::persist::StateLoadError> {
        let mut r = crate::persist::expect_header("dfs", bytes)?;
        let state = Self::restore_payload(&mut r, g.node_count())?;
        r.finish()?;
        Ok(state)
    }
}

impl crate::IncrementalState for DfsState {
    fn name(&self) -> &'static str {
        "dfs"
    }

    fn total_vars(&self, g: &DynamicGraph) -> usize {
        g.node_count()
    }

    fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        DfsState::update(self, g, applied)
    }

    fn recompute(&mut self, g: &DynamicGraph) -> RunStats {
        let (fresh, stats) = DfsState::batch(g);
        self.replace(fresh);
        stats
    }

    fn audit(
        &self,
        g: &DynamicGraph,
        audit: &incgraph_core::audit::FixpointAudit,
    ) -> incgraph_core::audit::AuditReport {
        self.audit_against_batch(g, audit)
    }

    fn space_bytes(&self) -> usize {
        DfsState::space_bytes(self)
    }

    fn save_state(&self) -> Vec<u8> {
        DfsState::save_state(self)
    }

    fn load_state(
        &mut self,
        g: &DynamicGraph,
        bytes: &[u8],
    ) -> Result<(), crate::persist::StateLoadError> {
        self.replace(DfsState::restore(g, bytes)?);
        Ok(())
    }
}

/// Three digest entries per node: `first`, `last`, `parent`.
impl ClassOutput for DfsState {
    fn nodes(&self) -> usize {
        self.first.len()
    }

    fn stride(&self) -> usize {
        3
    }

    fn entry(&self, i: usize) -> u64 {
        let (f, l, p) = self.row(i / 3);
        [f, l, p][i % 3] as u64
    }

    fn set_journal(&mut self, on: bool) {
        self.journal.switch(on, self.first.len());
    }

    fn journal_bytes(&self) -> usize {
        self.journal.space_bytes()
    }

    fn drain(&mut self, changes: &mut Vec<OutputChange>) -> bool {
        self.journal.sort();
        changes.reserve_exact(3 * self.journal.entries().len());
        for &(v, (f, l, p)) in self.journal.entries() {
            let (nf, nl, np) = self.row(v as usize);
            for (slot, (old, new)) in [(f, nf), (l, nl), (p, np)].into_iter().enumerate() {
                if old != new {
                    let (old, new) = (old as u64, new as u64);
                    changes.push(OutputChange {
                        index: 3 * v + slot as u32,
                        old,
                        new,
                    });
                }
            }
        }
        self.journal.clear();
        false
    }

    /// Records every row the replacement changed.
    fn carry_journal(&mut self, mut prev: DfsState) {
        let mut journal = std::mem::take(&mut prev.journal);
        let before = (0..prev.first.len()).map(|v| prev.row(v));
        journal.record_changes(before, (0..self.first.len()).map(|v| self.row(v)));
        self.journal = journal;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    fn assert_same_as_batch(state: &DfsState, g: &DynamicGraph) {
        let (fresh, _) = DfsState::batch(g);
        assert_eq!(state.first, fresh.first, "first timestamps diverge");
        assert_eq!(state.last, fresh.last, "last timestamps diverge");
        assert_eq!(state.parent, fresh.parent, "parents diverge");
    }

    #[test]
    fn batch_on_a_path_numbers_sequentially() {
        let mut g = DynamicGraph::new(true, 4);
        for i in 0..3u32 {
            g.insert_edge(i, i + 1, 1);
        }
        let (s, _) = DfsState::batch(&g);
        assert_eq!(s.intervals(), vec![(0, 7), (1, 6), (2, 5), (3, 4)]);
        assert_eq!(s.parent(0), ROOT);
        assert_eq!(s.parent(3), 2);
    }

    #[test]
    fn forest_roots_follow_id_order() {
        let mut g = DynamicGraph::new(true, 5);
        g.insert_edge(3, 4, 1);
        let (s, _) = DfsState::batch(&g);
        // Components {0},{1},{2},{3,4} visited in id order.
        assert_eq!(s.intervals(), vec![(0, 1), (2, 3), (4, 5), (6, 9), (7, 8)]);
    }

    #[test]
    fn dfs_invariant_no_forward_cross_edges() {
        // Tarjan's invariant: for every edge (u,v), NOT(u.last < v.first)
        // — i.e. no edge jumps forward across finished subtrees.
        let g = incgraph_graph::gen::uniform(150, 700, true, 1, 1, 4);
        let (s, _) = DfsState::batch(&g);
        for (u, v, _) in g.edges() {
            assert!(
                s.last(u) > s.first(v) || s.first(v) <= s.first(u),
                "forward-cross edge ({u},{v})"
            );
        }
    }

    #[test]
    fn interval_nesting_is_laminar() {
        let g = incgraph_graph::gen::uniform(100, 400, true, 1, 1, 9);
        let (s, _) = DfsState::batch(&g);
        for v in 0..100u32 {
            assert!(s.first(v) < s.last(v));
            let p = s.parent(v);
            if p != ROOT {
                assert!(s.is_ancestor(p, v), "child interval not nested");
            }
        }
    }

    #[test]
    fn incremental_equals_batch_on_paper_style_update() {
        let mut g = crate::sssp::tests::paper_graph();
        let (mut s, _) = DfsState::batch(&g);
        let mut batch = UpdateBatch::new();
        batch.delete(5, 6).insert(5, 3, 1);
        let applied = batch.apply(&mut g);
        s.update(&g, &applied);
        assert_same_as_batch(&s, &g);
    }

    #[test]
    fn untouched_prefix_subtrees_are_skipped() {
        // 100 disjoint 10-node chains; an update inside the last chain
        // must skip the 99 earlier subtrees wholesale.
        let mut g = DynamicGraph::new(true, 1000);
        for k in 0..100u32 {
            for i in 0..9u32 {
                g.insert_edge(k * 10 + i, k * 10 + i + 1, 1);
            }
        }
        let (mut s, _) = DfsState::batch(&g);
        let mut batch = UpdateBatch::new();
        batch.delete(990, 991);
        let applied = batch.apply(&mut g);
        let report = s.update(&g, &applied);
        assert_same_as_batch(&s, &g);
        assert!(
            report.run_stats.distinct_vars <= 20,
            "re-traversed {} nodes",
            report.run_stats.distinct_vars
        );
    }

    #[test]
    fn single_chain_update_reaches_everything() {
        // The pathological flip side: on one long chain, deleting a late
        // edge changes every node's exit time — the affected area IS the
        // whole graph, and the replay must still be exactly right.
        let mut g = DynamicGraph::new(true, 300);
        for i in 0..299u32 {
            g.insert_edge(i, i + 1, 1);
        }
        let (mut s, _) = DfsState::batch(&g);
        let mut batch = UpdateBatch::new();
        batch.delete(290, 291);
        let applied = batch.apply(&mut g);
        s.update(&g, &applied);
        assert_same_as_batch(&s, &g);
        // 291 is now a forest root, entered after the prefix closes.
        assert_eq!(s.parent(291), ROOT);
    }

    #[test]
    fn early_update_forces_wide_replay_but_stays_correct() {
        let mut g = DynamicGraph::new(true, 200);
        for i in 0..199u32 {
            g.insert_edge(i, i + 1, 1);
        }
        let (mut s, _) = DfsState::batch(&g);
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        let applied = batch.apply(&mut g);
        s.update(&g, &applied);
        assert_same_as_batch(&s, &g);
    }

    #[test]
    fn random_rounds_equal_batch() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(120, 500, true, 1, 1, 21);
        let (mut s, _) = DfsState::batch(&g);
        let mut rng = SplitMix64::seed_from_u64(77);
        for round in 0..20 {
            let mut batch = UpdateBatch::new();
            for _ in 0..6 {
                let u = rng.gen_range(0..120) as NodeId;
                let v = rng.gen_range(0..120) as NodeId;
                if u == v {
                    continue;
                }
                if rng.gen_bool(0.5) {
                    batch.insert(u, v, 1);
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            s.update(&g, &applied);
            let (fresh, _) = DfsState::batch(&g);
            assert_eq!(s.first, fresh.first, "round {round}");
            assert_eq!(s.last, fresh.last, "round {round}");
            assert_eq!(s.parent, fresh.parent, "round {round}");
        }
    }

    #[test]
    fn noop_update_skips_everything() {
        let mut g = DynamicGraph::new(true, 500);
        for i in 0..499u32 {
            g.insert_edge(i, i + 1, 1);
        }
        let (mut s, _) = DfsState::batch(&g);
        let applied = UpdateBatch::new().apply(&mut g);
        let report = s.update(&g, &applied);
        assert_eq!(report.run_stats.distinct_vars, 0, "everything skipped");
        assert_same_as_batch(&s, &g);
    }

    /// The vertex set is fixed at construction: node 3 is unreached
    /// until the batch attaches it below node 1.
    #[test]
    fn vertex_insertion_extends_state() {
        let mut g = DynamicGraph::new(true, 4);
        g.insert_edge(0, 1, 1);
        let (mut s, _) = DfsState::batch(&g);
        let mut batch = UpdateBatch::new();
        batch.insert(1, 3, 1);
        let applied = batch.apply(&mut g);
        s.update(&g, &applied);
        assert_same_as_batch(&s, &g);
    }
}
