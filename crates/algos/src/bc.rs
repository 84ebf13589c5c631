//! Biconnectivity: the sixth query class the paper names as
//! fixpoint-expressible (§3: "SSSP, CC, Sim, DFS, LCC, and
//! biconnectivity (BC) \[43\]").
//!
//! BC is the canonical *layered* fixpoint: it runs on top of the DFS
//! substrate. Given the DFS forest of an undirected graph, each node
//! carries the **lowpoint** status variable
//!
//! ```text
//! low_v = min( first_v,
//!              first_w  for every back edge (v, w),
//!              low_c    for every tree child c )
//! ```
//!
//! — a contracting, monotonic min-fixpoint over the tree (`⊥ = first_v`,
//! values only decrease, `dependents(v) = {parent(v)}`). Articulation
//! points and bridges are read off `low` and the tree:
//!
//! * `v` is an articulation point iff it is a root with ≥ 2 tree
//!   children, or a non-root with a child `c` such that `low_c ≥ first_v`;
//! * tree edge `(parent(c), c)` is a bridge iff `low_c > first_{parent}`.
//!
//! Both flags are functions of exactly what `f_v` reads — its children's
//! lowpoints, its own DFS constants — so the step function returns them
//! with the lowpoint ([`Low`]): the status *is* the output, and a
//! session's delta is drained from the status journal like any deduced
//! class's (only a bridge's tail entry also names the parent, which
//! IncDFS's own journal keeps).
//!
//! Batch BC is Tarjan's algorithm: each node's `Fold` of `f_low` opens
//! when the DFS traversal enters it, takes its inputs as the traversal
//! meets them and closes into `low` in post-order. [`LowSpec::eval`] is
//! the same fold over the finished forest.
//!
//! `IncBC` is the same traversal resumed: `IncDFS`'s replay re-lowers
//! every node it re-enters, and a child subtree it skips contributes its
//! stored lowpoint. An inert op inside a skipped subtree moves no interval
//! but can move a lowpoint, so a cut-off pass follows: it re-evaluates
//! `ΔG`'s endpoints deepest-first (largest `first`), pushing a node's
//! parent only when its lowpoint changed. Children pop before parents, so
//! each node is evaluated at most once.

use crate::dfs::{DfsState, Visit, ROOT};
use crate::output::{ClassOutput, OutputChange};
use crate::persist::{self, StateLoadError, Word};
use incgraph_core::engine::RunStats;
use incgraph_core::metrics::{vec_bytes, BoundednessReport};
use incgraph_core::spec::FixpointSpec;
use incgraph_core::status::Status;
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId};
use std::collections::BinaryHeap;

/// A node's lowpoint with the two flags its evaluation reads off:
/// `low << 2 | articulation << 1 | bridge`. The digest entry is the word
/// without its bridge bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Low(u64);

impl Low {
    fn new(low: u32, art: bool, bridge: bool) -> Self {
        Low(((low as u64) << 2) | ((art as u64) << 1) | bridge as u64)
    }

    /// The lowpoint.
    pub fn low(self) -> u32 {
        (self.0 >> 2) as u32
    }

    fn art(self) -> bool {
        self.0 & 2 != 0
    }

    fn bridge(self) -> bool {
        self.0 & 1 != 0
    }

    /// The digest entry: `low << 1 | articulation bit`.
    fn entry(self) -> u64 {
        self.0 >> 1
    }
}

/// A node no traversal has closed yet: no lowpoint, no flag.
const UNSET: Low = Low((u32::MAX as u64) << 2);

/// Persisted as the bare lowpoint, so the essence keeps its bytes; a
/// load re-derives the flags.
impl Word for Low {
    fn enc(self) -> u64 {
        self.low() as u64
    }

    fn dec(bits: u64) -> Result<Self, StateLoadError> {
        u32::dec(bits).map(|low| Low::new(low, false, false))
    }
}

/// The step function `f_low` as an accumulator over a node's inputs.
#[derive(Clone, Copy, Debug)]
struct Fold {
    first: u32,
    low: u32,
    children: u32,
    cut: bool,
}

impl Fold {
    fn open(first: u32) -> Self {
        Fold {
            first,
            low: first,
            children: 0,
            cut: false,
        }
    }

    /// A neighbour but the parent or a child, entered at `first_w`: an
    /// ancestor, or a descendant, which cannot lower (no cross edges).
    fn back(&mut self, first_w: u32) {
        self.low = self.low.min(first_w);
    }

    /// A tree child: the node cuts it off unless it climbs above.
    fn child(&mut self, low: u32) {
        self.low = self.low.min(low);
        self.children += 1;
        self.cut |= low >= self.first;
    }

    /// The value, given the parent's entry time (`None`: a root).
    fn close(self, first_parent: Option<u32>) -> Low {
        match first_parent {
            None => Low::new(self.low, self.children >= 2, false),
            Some(f) => Low::new(self.low, self.cut, self.low > f),
        }
    }
}

/// The lowpoint fixpoint specification over a graph + DFS-forest snapshot.
pub struct LowSpec<'a> {
    g: &'a DynamicGraph,
    dfs: &'a DfsState,
}

impl<'a> LowSpec<'a> {
    /// Specification over `g` (undirected) and its DFS forest.
    pub fn new(g: &'a DynamicGraph, dfs: &'a DfsState) -> Self {
        assert!(!g.is_directed(), "BC is defined on undirected graphs");
        LowSpec { g, dfs }
    }
}

impl FixpointSpec for LowSpec<'_> {
    type Value = Low;

    fn num_vars(&self) -> usize {
        self.g.node_count()
    }

    fn bottom(&self, x: usize) -> Low {
        Low::new(self.dfs.first(x as NodeId), false, false)
    }

    /// The `Fold` over `x`'s adjacency in the finished forest.
    fn eval<R: FnMut(usize) -> Low>(&self, x: usize, read: &mut R) -> Low {
        let v = x as NodeId;
        let parent = self.dfs.parent(v);
        let mut fold = Fold::open(self.dfs.first(v));
        for &(w, _) in self.g.out_neighbors(v) {
            if self.dfs.parent(w) == v {
                fold.child(read(w as usize).low());
            } else if w != parent {
                fold.back(self.dfs.first(w));
            }
        }
        fold.close((parent != ROOT).then(|| self.dfs.first(parent)))
    }

    fn dependents<P: FnMut(usize)>(&self, x: usize, push: &mut P) {
        let p = self.dfs.parent(x as NodeId);
        if p != ROOT {
            push(p as usize);
        }
    }

    /// Lowpoints only: the flags are not ordered.
    fn preceq(&self, a: &Low, b: &Low) -> bool {
        a.low() <= b.low()
    }
}

/// Tarjan's lowpoint step inside the DFS traversal: the lowpoint status
/// and a stack of the open nodes' [`Fold`]s.
struct Lowering<'a>(&'a mut Status<Low>, &'a mut Vec<Fold>);

impl Visit for Lowering<'_> {
    const ON: bool = true;

    fn open(&mut self, first: u32) {
        self.1.push(Fold::open(first));
    }

    fn back(&mut self, first_w: u32) {
        self.1.last_mut().expect("an open node").back(first_w);
    }

    /// A skipped child's stored lowpoint, which the cut-off pass corrects.
    fn child(&mut self, c: NodeId) {
        let low = self.0.get(c as usize).low();
        self.1.last_mut().expect("an open node").child(low);
    }

    /// Writes any value that differs and any set bridge bit: a bridge
    /// whose parent moved must be journaled even when its word did not.
    fn close(&mut self, v: NodeId, parent: NodeId, first_parent: u32) {
        let fold = self.1.pop().expect("an open node");
        let new = fold.close((parent != ROOT).then_some(first_parent));
        if new.bridge() || self.0.get(v as usize) != new {
            self.0.set(v as usize, new);
        }
        if let Some(up) = self.1.last_mut() {
            up.child(new.low());
        }
    }
}

/// BC state: the DFS substrate plus the lowpoint fixpoint, whose values
/// carry the articulation and bridge flags.
pub struct BcState {
    dfs: DfsState,
    low: Status<Low>,
    /// The open nodes' folds during a traversal.
    folds: Vec<Fold>,
    /// The cut-off pass's worklist of `(first, node)`, deepest first.
    heap: BinaryHeap<(u32, NodeId)>,
}

/// The tail entry of bridge `(parent, child)`.
fn tail_entry(parent: NodeId, child: NodeId) -> u64 {
    ((parent as u64) << 32) | child as u64
}

impl BcState {
    /// Runs batch BC: one DFS traversal, lowering each node as it closes.
    pub fn batch(g: &DynamicGraph) -> (Self, RunStats) {
        assert!(!g.is_directed(), "BC is defined on undirected graphs");
        let mut low = Status::from_values(vec![UNSET; g.node_count()]);
        let lowering = &mut Lowering(&mut low, &mut Vec::new());
        let (dfs, stats) = DfsState::batch_visiting(g, lowering);
        (BcState::assemble(dfs, low), stats)
    }

    /// A state over the given layers with empty scratch.
    fn assemble(dfs: DfsState, low: Status<Low>) -> Self {
        BcState {
            dfs,
            low,
            folds: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// The underlying DFS forest.
    pub fn dfs(&self) -> &DfsState {
        &self.dfs
    }

    /// Lowpoint of `v`.
    pub fn low(&self, v: NodeId) -> u32 {
        self.low.get(v as usize).low()
    }

    /// Whether `v` is an articulation (cut) point.
    pub fn is_articulation(&self, _g: &DynamicGraph, v: NodeId) -> bool {
        self.low.get(v as usize).art()
    }

    /// All articulation points, ascending.
    pub fn articulation_points(&self, g: &DynamicGraph) -> Vec<NodeId> {
        (0..g.node_count() as NodeId)
            .filter(|&v| self.is_articulation(g, v))
            .collect()
    }

    /// All bridges as `(parent, child)` tree edges with `low_child >
    /// first_parent`, ascending by child.
    pub fn bridges(&self, _g: &DynamicGraph) -> Vec<(NodeId, NodeId)> {
        let edge = |e: u64| ((e >> 32) as NodeId, e as NodeId);
        self.tail().map(edge).collect()
    }

    /// The digest's tail: the bridges as tail entries, ascending by child.
    fn tail(&self) -> impl Iterator<Item = u64> + '_ {
        let bridged = (0..self.low.len()).filter(|&c| self.low.get(c).bridge());
        bridged.map(|c| tail_entry(self.dfs.parent(c as NodeId), c as NodeId))
    }

    /// `IncBC`: `IncDFS`'s replay, lowering every node it re-enters, then
    /// the cut-off pass. Over the 2n variables of both layers, the scope
    /// is the DFS layer's plus the lowpoints the cut-off pass evaluated.
    pub fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        let lowering = &mut Lowering(&mut self.low, &mut self.folds);
        let dfs = self.dfs.update_visiting(g, applied, lowering);
        let cut = self.cut_off(g, applied);
        let (mut run, scope) = (dfs.run_stats, dfs.scope_size + cut.distinct_vars as usize);
        run.merge(&cut);
        BoundednessReport::new(2 * g.node_count(), scope, dfs.scope_stats, run)
    }

    /// Re-evaluates `ΔG`'s endpoints deepest-first, pushing a node's
    /// parent only when its lowpoint changed.
    fn cut_off(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> RunStats {
        let (dfs, heap, mut stats) = (&self.dfs, &mut self.heap, RunStats::default());
        let ends = applied.ops().iter().flat_map(|op| [op.src, op.dst]);
        heap.clear();
        heap.extend(ends.map(|v| (dfs.first(v), v)));
        let spec = LowSpec::new(g, dfs);
        let mut last = None; // entry times are unique: duplicates pop in a row
        while let Some((_, x)) = heap.pop() {
            if last.replace(x) == Some(x) {
                continue;
            }
            let old = self.low.get(x as usize);
            let new = spec.eval(x as usize, &mut |c| self.low.get(c));
            stats.evals += 1;
            stats.reads += g.out_neighbors(x).len() as u64;
            if new != old {
                self.low.set(x as usize, new);
                stats.changes += 1;
            }
            let p = dfs.parent(x);
            if new.low() != old.low() && p != ROOT {
                heap.push((dfs.first(p), p));
            }
        }
        stats.distinct_vars = stats.evals;
        stats
    }

    /// Resident bytes (no timestamps: BC is deducible).
    pub fn space_bytes(&self) -> usize {
        self.dfs.space_bytes()
            + self.low.space_bytes()
            + vec_bytes(&self.folds)
            + self.heap.capacity() * std::mem::size_of::<(u32, NodeId)>()
    }

    /// Serializes the durable essence (`SaveState`): the DFS substrate
    /// plus the lowpoint status. Deducible — no timestamps.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = persist::header("bc");
        self.dfs.save_payload(&mut out);
        persist::put_status(&mut out, &self.low);
        out
    }

    /// Rebuilds a state from [`save_state`](Self::save_state) bytes
    /// without re-traversing or re-lowering (`LoadState`).
    pub fn restore(g: &DynamicGraph, bytes: &[u8]) -> Result<Self, StateLoadError> {
        if g.is_directed() {
            return Err(StateLoadError::Malformed(
                "BC is defined on undirected graphs".into(),
            ));
        }
        let n = g.node_count();
        let mut r = persist::expect_header("bc", bytes)?;
        let dfs = DfsState::restore_payload(&mut r, n)?;
        let low = persist::read_status(&mut r)?;
        r.finish()?;
        if low.len() != n {
            return Err(StateLoadError::SizeMismatch {
                expected: n,
                found: low.len(),
            });
        }
        if low.tracks_stamps() {
            return Err(StateLoadError::Malformed(
                "bc is deducible and stores no timestamps".into(),
            ));
        }
        // Only the lowpoints were stored: read the flags off them.
        let spec = LowSpec::new(g, &dfs);
        let flagged = (0..n).map(|x| {
            let flags = spec.eval(x, &mut |w| low.get(w));
            Low(low.get(x).0 | flags.0 & 3)
        });
        let low = Status::from_values(flagged.collect());
        Ok(BcState::assemble(dfs, low))
    }
}

impl crate::IncrementalState for BcState {
    fn name(&self) -> &'static str {
        "bc"
    }

    fn total_vars(&self, g: &DynamicGraph) -> usize {
        2 * g.node_count()
    }

    fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        BcState::update(self, g, applied)
    }

    fn recompute(&mut self, g: &DynamicGraph) -> RunStats {
        let (fresh, stats) = BcState::batch(g);
        self.replace(fresh);
        stats
    }

    fn audit(
        &self,
        g: &DynamicGraph,
        audit: &incgraph_core::audit::FixpointAudit,
    ) -> incgraph_core::audit::AuditReport {
        // Both layers: the DFS substrate by recompute-and-compare, the
        // lowpoint fixpoint by the generic σ_x re-check. Lowpoint
        // violations keep their variable index; DFS interval variables
        // are reported shifted by n into the second half of the 2n
        // universe.
        let n = g.node_count();
        let mut report = audit.run(&LowSpec::new(g, &self.dfs), &self.low);
        let dfs_report = self.dfs.audit_against_batch(g, audit);
        report.checked += dfs_report.checked;
        report.total_vars = 2 * n;
        report.truncated |= dfs_report.truncated;
        for mut v in dfs_report.violations {
            if report.violations.len() >= audit.max_violations {
                report.truncated = true;
                break;
            }
            v.var += n;
            report.violations.push(v);
        }
        report
    }

    fn space_bytes(&self) -> usize {
        BcState::space_bytes(self)
    }

    fn save_state(&self) -> Vec<u8> {
        BcState::save_state(self)
    }

    fn load_state(&mut self, g: &DynamicGraph, bytes: &[u8]) -> Result<(), StateLoadError> {
        self.replace(BcState::restore(g, bytes)?);
        Ok(())
    }

    fn forest(&self) -> Option<&DfsState> {
        Some(&self.dfs)
    }
}

/// One entry per node, `low << 1 | articulation bit`, then the bridges.
impl ClassOutput for BcState {
    fn nodes(&self) -> usize {
        self.low.len()
    }

    fn entry(&self, v: usize) -> u64 {
        self.low.get(v).entry()
    }

    fn tail_len(&self) -> usize {
        self.tail().count()
    }

    fn render(&self, out: &mut Vec<u64>) {
        out.extend(self.low.values().iter().map(|l| l.entry()));
        out.extend(self.tail());
    }

    fn set_journal(&mut self, on: bool) {
        self.dfs.set_journal(on);
        self.low.set_journal(on);
    }

    fn journal_bytes(&self) -> usize {
        self.dfs.journal_bytes() + self.low.journal().space_bytes()
    }

    fn drain(&mut self, changes: &mut Vec<OutputChange>) -> bool {
        self.low.journal_mut().sort();
        self.dfs.journal.sort();
        let (low, dfs) = (&self.low, &self.dfs);
        let old_parent = |c: NodeId| dfs.journal.old(c as usize).map_or(dfs.parent(c), |r| r.2);
        // Every node whose value moved was written. A bridge whose parent
        // moved was too: the replay entered it, its close writes a set
        // bridge bit, and a replacement journals every node.
        let written = low.journal().entries();
        let (mut tail_moved, mut grown) = (false, 0i64);
        for &(c, old) in written {
            let new = low.get(c as usize);
            tail_moved |=
                old.bridge() != new.bridge() || new.bridge() && old_parent(c) != dfs.parent(c);
            grown += new.bridge() as i64 - old.bridge() as i64;
        }
        // A tail of the same length changes position by position.
        let n = self.nodes();
        let old_tail = (0..n as NodeId).filter_map(|c| {
            let old = low.journal().old(c as usize).unwrap_or(low.get(c as usize));
            old.bridge().then(|| tail_entry(old_parent(c), c))
        });
        let tail = || {
            let pairs = old_tail.clone().zip(self.tail()).enumerate();
            pairs
                .filter(|(_, (old, new))| old != new)
                .map(move |(k, (old, new))| {
                    let index = (n + k) as u32;
                    OutputChange { index, old, new }
                })
        };
        let tail_changes = if tail_moved && grown == 0 {
            tail().count()
        } else {
            0
        };
        changes.reserve_exact(written.len() + tail_changes);
        for &(v, old) in written {
            let (old, new) = (old.entry(), low.get(v as usize).entry());
            if old != new {
                changes.push(OutputChange { index: v, old, new });
            }
        }
        if tail_changes > 0 {
            changes.extend(tail());
        }
        self.low.journal_mut().clear();
        self.dfs.journal.clear();
        grown != 0
    }

    /// Also journals every node: a bridge's tail entry can move with its
    /// parent alone.
    fn carry_journal(&mut self, prev: BcState) {
        self.dfs.carry_journal(prev.dfs);
        let mut low = prev.low;
        for x in 0..low.len() {
            let old = low.get(x);
            low.journal_mut().record(x, old);
        }
        self.low.carry_journal(low);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;
    use std::collections::HashSet;

    /// Reference: recursive Tarjan articulation points / bridges.
    fn reference(g: &DynamicGraph) -> (Vec<NodeId>, Vec<(NodeId, NodeId)>) {
        let n = g.node_count();
        let mut first = vec![u32::MAX; n];
        let mut low = vec![u32::MAX; n];
        let mut parent = vec![ROOT; n];
        let mut time = 0u32;
        let mut aps: HashSet<NodeId> = HashSet::new();
        let mut bridges: Vec<(NodeId, NodeId)> = Vec::new();

        // Iterative Tarjan with explicit stack.
        for r in 0..n as NodeId {
            if first[r as usize] != u32::MAX {
                continue;
            }
            let mut root_children = 0usize;
            let mut stack: Vec<(NodeId, usize)> = Vec::new();
            first[r as usize] = time;
            low[r as usize] = time;
            time += 1;
            stack.push((r, 0));
            'frames: while let Some(&(v, i0)) = stack.last() {
                let adj = g.out_neighbors(v);
                let mut i = i0;
                while i < adj.len() {
                    let w = adj[i].0;
                    i += 1;
                    if first[w as usize] == u32::MAX {
                        parent[w as usize] = v;
                        if v == r {
                            root_children += 1;
                        }
                        first[w as usize] = time;
                        low[w as usize] = time;
                        time += 1;
                        stack.last_mut().expect("frame").1 = i;
                        stack.push((w, 0));
                        continue 'frames;
                    } else if w != parent[v as usize] {
                        low[v as usize] = low[v as usize].min(first[w as usize]);
                    }
                }
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                    if p != r && low[v as usize] >= first[p as usize] {
                        aps.insert(p);
                    }
                    if low[v as usize] > first[p as usize] {
                        bridges.push((p, v));
                    }
                }
            }
            if root_children >= 2 {
                aps.insert(r);
            }
        }
        let mut aps: Vec<NodeId> = aps.into_iter().collect();
        aps.sort_unstable();
        bridges.sort_unstable_by_key(|&(_, c)| c);
        (aps, bridges)
    }

    fn assert_matches_reference(state: &BcState, g: &DynamicGraph) {
        let (aps, bridges) = reference(g);
        assert_eq!(state.articulation_points(g), aps, "articulation points");
        let mut got = state.bridges(g);
        got.sort_unstable_by_key(|&(_, c)| c);
        assert_eq!(got, bridges, "bridges");
    }

    #[test]
    fn path_graph_interior_nodes_are_cuts() {
        let mut g = DynamicGraph::new(false, 5);
        for i in 0..4u32 {
            g.insert_edge(i, i + 1, 1);
        }
        let (bc, _) = BcState::batch(&g);
        assert_eq!(bc.articulation_points(&g), vec![1, 2, 3]);
        assert_eq!(bc.bridges(&g).len(), 4, "every path edge is a bridge");
    }

    #[test]
    fn cycle_has_no_cuts_or_bridges() {
        let mut g = DynamicGraph::new(false, 6);
        for i in 0..6u32 {
            g.insert_edge(i, (i + 1) % 6, 1);
        }
        let (bc, _) = BcState::batch(&g);
        assert!(bc.articulation_points(&g).is_empty());
        assert!(bc.bridges(&g).is_empty());
    }

    #[test]
    fn barbell_center_is_a_cut() {
        // Two triangles joined by a bridge through node 2-3.
        let mut g = DynamicGraph::new(false, 6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            g.insert_edge(u, v, 1);
        }
        let (bc, _) = BcState::batch(&g);
        assert_eq!(bc.articulation_points(&g), vec![2, 3]);
        assert_eq!(bc.bridges(&g), vec![(2, 3)]);
        assert_matches_reference(&bc, &g);
    }

    #[test]
    fn batch_matches_reference_on_random_graphs() {
        for seed in 0..5 {
            let g = incgraph_graph::gen::uniform(60, 120, false, 1, 1, seed);
            let (bc, _) = BcState::batch(&g);
            assert_matches_reference(&bc, &g);
        }
    }

    #[test]
    fn insertion_closes_a_cycle_and_clears_cuts() {
        let mut g = DynamicGraph::new(false, 4);
        for i in 0..3u32 {
            g.insert_edge(i, i + 1, 1);
        }
        let (mut bc, _) = BcState::batch(&g);
        assert_eq!(bc.articulation_points(&g), vec![1, 2]);
        let mut b = UpdateBatch::new();
        b.insert(3, 0, 1);
        let applied = b.apply(&mut g);
        bc.update(&g, &applied);
        assert!(bc.articulation_points(&g).is_empty());
        assert_matches_reference(&bc, &g);
    }

    #[test]
    fn deletion_creates_bridges() {
        let mut g = DynamicGraph::new(false, 5);
        for i in 0..5u32 {
            g.insert_edge(i, (i + 1) % 5, 1);
        }
        let (mut bc, _) = BcState::batch(&g);
        assert!(bc.bridges(&g).is_empty());
        let mut b = UpdateBatch::new();
        b.delete(2, 3);
        let applied = b.apply(&mut g);
        bc.update(&g, &applied);
        assert_eq!(bc.bridges(&g).len(), 4);
        assert_matches_reference(&bc, &g);
    }

    #[test]
    fn random_rounds_match_reference() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(50, 110, false, 1, 1, 77);
        let (mut bc, _) = BcState::batch(&g);
        let mut rng = SplitMix64::seed_from_u64(31);
        for round in 0..20 {
            let mut batch = UpdateBatch::new();
            for _ in 0..5 {
                let u = rng.gen_range(0..50) as NodeId;
                let v = rng.gen_range(0..50) as NodeId;
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
            bc.update(&g, &applied);
            let (aps, bridges) = reference(&g);
            assert_eq!(
                bc.articulation_points(&g),
                aps,
                "articulation points diverged at round {round}"
            );
            let mut got = bc.bridges(&g);
            got.sort_unstable_by_key(|&(_, c)| c);
            assert_eq!(got, bridges, "bridges diverged at round {round}");
        }
    }

    #[test]
    fn lowpoints_match_fresh_batch_after_updates() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(40, 90, false, 1, 1, 5);
        let (mut bc, _) = BcState::batch(&g);
        let mut rng = SplitMix64::seed_from_u64(8);
        for round in 0..15 {
            let mut batch = UpdateBatch::new();
            for _ in 0..4 {
                let u = rng.gen_range(0..40) as NodeId;
                let v = rng.gen_range(0..40) as NodeId;
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
            bc.update(&g, &applied);
            let (fresh, _) = BcState::batch(&g);
            for v in 0..40u32 {
                assert_eq!(bc.low(v), fresh.low(v), "low_{v} diverged at round {round}");
            }
        }
    }

    /// [`BcState::update`] with its cut-off pass checked: the pass
    /// evaluates each node at most once, so its evaluations are exactly
    /// the endpoints of `ΔG` and the parents of the lowpoints it moved.
    fn update_counting_cut_off(
        bc: &mut BcState,
        g: &DynamicGraph,
        applied: &AppliedBatch,
    ) -> BoundednessReport {
        let lowering = &mut Lowering(&mut bc.low, &mut bc.folds);
        let mut report = bc.dfs.update_visiting(g, applied, lowering);
        let n = g.node_count() as NodeId;
        let replayed: Vec<u32> = (0..n).map(|v| bc.low(v)).collect();
        let cut = bc.cut_off(g, applied);
        let ends = applied.ops().iter().flat_map(|op| [op.src, op.dst]);
        let mut evaluated: HashSet<NodeId> = ends.collect();
        for v in 0..n {
            let p = bc.dfs.parent(v);
            if bc.low(v) != replayed[v as usize] && p != ROOT {
                evaluated.insert(p);
            }
        }
        assert_eq!(cut.evals, evaluated.len() as u64, "cut-off evaluations");
        report.run_stats.merge(&cut);
        report
    }

    /// After every random round a Full-mode audit finds no violation,
    /// and the cut-off pass evaluates each node at most once.
    #[test]
    fn the_cut_off_pass_evaluates_each_node_at_most_once() {
        use crate::IncrementalState;
        use incgraph_core::audit::FixpointAudit;
        use incgraph_graph::rng::SplitMix64;
        for (n, m, seed) in [(300usize, 700usize, 3u64), (3000, 6500, 4)] {
            let mut g = incgraph_graph::gen::uniform(n, m, false, 1, 1, seed);
            let (mut bc, _) = BcState::batch(&g);
            let mut rng = SplitMix64::seed_from_u64(seed ^ 0xBC);
            for round in 0..25 {
                let mut batch = UpdateBatch::new();
                for _ in 0..4 {
                    let u = rng.gen_range(0..n as u64) as NodeId;
                    let v = rng.gen_range(0..n as u64) as NodeId;
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
                update_counting_cut_off(&mut bc, &g, &applied);
                let audit = IncrementalState::audit(&bc, &g, &FixpointAudit::full());
                assert!(audit.is_clean(), "n={n} round {round}: {audit:?}");
            }
        }
    }

    /// Ten-node blocks: `a = 10k` roots a tree edge to `a + 1`, which
    /// branches into the path `a + 2 … a + 6` and the path `a + 7 … a + 9`.
    fn forked_blocks(blocks: u32) -> DynamicGraph {
        let mut g = DynamicGraph::new(false, 10 * blocks as usize);
        for a in (0..blocks).map(|k| 10 * k) {
            for (u, v) in [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (1, 7),
                (7, 8),
                (8, 9),
            ] {
                g.insert_edge(a + u, a + v, 1);
            }
        }
        g
    }

    /// IncDFS skips a block whose only ops are inert, so only the cut-off
    /// pass sees them move its lowpoints. The structural op that makes the
    /// replay run sits after the block (first round: the block is a
    /// skipped forest root) or in its other branch (second round: a
    /// skipped child subtree, folded with its stale lowpoint).
    #[test]
    fn an_inert_op_inside_a_skipped_subtree_moves_a_lowpoint() {
        let mut g = forked_blocks(100);
        let (mut bc, _) = BcState::batch(&g);
        let (a, z) = (980, 990);
        let cuts = |bc: &BcState, g: &DynamicGraph| -> Vec<NodeId> {
            let aps = bc.articulation_points(g);
            aps.into_iter().filter(|v| (a..z).contains(v)).collect()
        };
        assert_eq!(
            cuts(&bc, &g),
            [a + 1, a + 2, a + 3, a + 4, a + 5, a + 7, a + 8]
        );
        let check = |bc: &BcState, g: &DynamicGraph, report: BoundednessReport, what: &str| {
            assert_matches_reference(bc, g);
            let (fresh, _) = BcState::batch(g);
            assert_eq!(bc.low.values(), fresh.low.values(), "{what}");
            assert!(
                report.run_stats.distinct_vars <= 40,
                "{what}: entered or evaluated {}",
                report.run_stats.distinct_vars
            );
        };
        // An inserted back edge closes the first branch into a cycle
        // through the block's root: its bridges and its inner
        // articulation points go.
        let mut b = UpdateBatch::new();
        b.insert(a + 6, a, 1).delete(z + 7, z + 8);
        let applied = b.apply(&mut g);
        let report = update_counting_cut_off(&mut bc, &g, &applied);
        check(&bc, &g, report, "inserted back edge");
        assert!(bc
            .bridges(&g)
            .iter()
            .all(|&(_, c)| !(a + 1..=a + 6).contains(&c)));
        assert_eq!(cuts(&bc, &g), [a + 1, a + 7, a + 8]);
        // Deleting it again, a non-tree edge, brings the bridges back.
        let mut b = UpdateBatch::new();
        b.delete(a + 6, a).delete(a + 8, a + 9);
        let applied = b.apply(&mut g);
        let report = update_counting_cut_off(&mut bc, &g, &applied);
        check(&bc, &g, report, "deleted non-tree edge");
        assert!((a + 1..=a + 6).all(|c| bc.bridges(&g).contains(&(c - 1, c))));
        assert_eq!(cuts(&bc, &g), [a + 1, a + 2, a + 3, a + 4, a + 5, a + 7]);
    }

    /// The worst `ΔG` for IncDFS on the 8k-node graph of
    /// `session::tests::dfs_bc_inc_vs_batch`: deleting the tree edge under
    /// the first forest root moves every interval after it. BC's update
    /// then reads at most 1.25× what its batch run reads.
    #[test]
    fn deleting_the_tree_edge_under_the_root_reads_at_most_a_quarter_more_than_batch() {
        let mut g = incgraph_graph::gen::power_law(8_000, 114_000, 2.4, false, 100, 5, 0x11);
        let (mut bc, _) = BcState::batch(&g);
        let dfs = bc.dfs();
        let c = (0..g.node_count() as NodeId)
            .filter(|&v| dfs.parent(v) != ROOT && dfs.parent(dfs.parent(v)) == ROOT)
            .min_by_key(|&v| dfs.first(v))
            .expect("a root with a child");
        let mut b = UpdateBatch::new();
        b.delete(dfs.parent(c), c);
        let applied = b.apply(&mut g);
        let report = bc.update(&g, &applied);
        let (fresh, batch) = BcState::batch(&g);
        assert_eq!(bc.low.values(), fresh.low.values());
        let ratio = report.run_stats.reads as f64 / batch.reads as f64;
        assert!(ratio <= 1.25, "update/batch reads {ratio:.3}");
    }

    #[test]
    fn localized_update_stays_local() {
        // A forest of 100 disjoint 10-node triangles-with-tails; an
        // update inside the last tree must skip the 99 earlier subtrees
        // (IncDFS) and re-lower only that tree's lowpoints.
        let mut g = DynamicGraph::new(false, 1000);
        for k in 0..100u32 {
            let base = k * 10;
            g.insert_edge(base, base + 1, 1);
            g.insert_edge(base + 1, base + 2, 1);
            g.insert_edge(base + 2, base, 1); // triangle
            for i in 2..9 {
                g.insert_edge(base + i, base + i + 1, 1); // tail
            }
        }
        let (mut bc, _) = BcState::batch(&g);
        let mut b = UpdateBatch::new();
        b.delete(997, 998);
        let applied = b.apply(&mut g);
        let report = bc.update(&g, &applied);
        assert_matches_reference(&bc, &g);
        assert!(
            report.inspected_vars < 100,
            "inspected {}",
            report.inspected_vars
        );
    }

    /// The vertex set is fixed at construction: node 3 is isolated until
    /// the batch attaches it and closes the path into a cycle.
    #[test]
    fn vertex_insertion_extends_state() {
        let mut g = DynamicGraph::new(false, 4);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        let (mut bc, _) = BcState::batch(&g);
        let v = 3;
        let mut b = UpdateBatch::new();
        b.insert(2, v, 1).insert(v, 0, 1);
        let applied = b.apply(&mut g);
        bc.update(&g, &applied);
        assert!(bc.articulation_points(&g).is_empty());
        assert_matches_reference(&bc, &g);
    }
}
