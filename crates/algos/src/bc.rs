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
//! `IncBC` composes the deduced `IncDFS` (which keeps the canonical DFS
//! forest fresh) with a Theorem 1 PE-phase for `low`: the variables whose
//! *constants* changed (DFS numbers, adjacency) are reset to `⊥` together
//! with their new-tree ancestor chains, and the unchanged step function
//! re-lowers them — bottom-up, children before parents: a variable's
//! rank, as a seed and as a pushed dependent alike, is `2n − first` (entry
//! timestamps are `< 2n`), and the scope is handed to the engine
//! deepest-first, so within one rank bucket (FIFO) a child still pops
//! before its parent. The PE scope is closed under tree ancestors, hence a
//! changed child's parent is always a queued seed of higher rank: each
//! scope variable is evaluated exactly once.
//!
//! The PE seeds come from the changed-node list `IncDFS` records as it
//! re-enters nodes (no before/after snapshot of the forest); the scope
//! set is an epoch bitmap and the scope and closure stack are kept
//! between updates, so a steady-state update allocates nothing.

use crate::dfs::{DfsState, ROOT};
use crate::output::{ClassOutput, OutputChange};
use crate::persist::{self, StateLoadError, Word};
use incgraph_core::engine::{Engine, RunStats};
use incgraph_core::epoch::VisitEpoch;
use incgraph_core::metrics::{vec_bytes, BoundednessReport};
use incgraph_core::scope::ScopeStats;
use incgraph_core::spec::FixpointSpec;
use incgraph_core::status::Status;
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId};

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

    /// Children before parents: deeper preorder numbers rank lower.
    fn depth_rank(&self, x: usize) -> u64 {
        (2 * self.g.node_count() as u64).saturating_sub(self.dfs.first(x as NodeId) as u64)
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

    fn eval<R: FnMut(usize) -> Low>(&self, x: usize, read: &mut R) -> Low {
        let v = x as NodeId;
        let first = self.dfs.first(v);
        let (mut low, mut children, mut cut) = (first, 0, false);
        let parent = self.dfs.parent(v);
        for &(w, _) in self.g.out_neighbors(v) {
            if self.dfs.parent(w) == v {
                // Tree child: take its lowpoint; v cuts it off unless it
                // climbs above v.
                let child = read(w as usize).low();
                low = low.min(child);
                children += 1;
                cut |= child >= first;
            } else if w != parent {
                // Back edge (undirected DFS leaves no cross edges).
                low = low.min(self.dfs.first(w));
            }
        }
        let art = if parent == ROOT { children >= 2 } else { cut };
        Low::new(low, art, parent != ROOT && low > self.dfs.first(parent))
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

    fn rank(&self, x: usize, _v: &Low) -> u64 {
        self.depth_rank(x)
    }

    fn push_rank(&self, z: usize, _zv: &Low, _t: usize, _tv: &Low) -> u64 {
        self.depth_rank(z)
    }
}

/// BC state: the DFS substrate plus the lowpoint fixpoint, whose values
/// carry the articulation and bridge flags.
pub struct BcState {
    dfs: DfsState,
    low: Status<Low>,
    engine: Engine,
    /// Membership of the current PE scope.
    pe: VisitEpoch,
    /// The PE scope, in discovery order until sorted deepest-first.
    scope: Vec<usize>,
    /// Worklist of the upward (ancestor) closure.
    stack: Vec<usize>,
}

/// The tail entry of bridge `(parent, child)`.
fn tail_entry(parent: NodeId, child: NodeId) -> u64 {
    ((parent as u64) << 32) | child as u64
}

impl BcState {
    /// Runs batch BC: DFS forest, then the lowpoint fixpoint.
    pub fn batch(g: &DynamicGraph) -> (Self, RunStats) {
        let (dfs, mut stats) = DfsState::batch(g);
        let (low, engine, low_stats) = Self::low_from_scratch(g, &dfs);
        stats.merge(&low_stats);
        (BcState::assemble(dfs, low, engine), stats)
    }

    /// A state over the given layers with empty PE scratch.
    fn assemble(dfs: DfsState, low: Status<Low>, engine: Engine) -> Self {
        let pe = VisitEpoch::new(low.len());
        BcState {
            dfs,
            low,
            engine,
            pe,
            scope: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn low_from_scratch(g: &DynamicGraph, dfs: &DfsState) -> (Status<Low>, Engine, RunStats) {
        let spec = LowSpec::new(g, dfs);
        let mut low = Status::init(&spec, false);
        let mut engine = Engine::new(spec.num_vars());
        // Seed bottom-up so every lowpoint settles in one evaluation.
        let mut order: Vec<usize> = (0..spec.num_vars()).collect();
        order.sort_unstable_by_key(|&x| std::cmp::Reverse(dfs.first(x as NodeId)));
        let stats = engine.run(&spec, &mut low, order.iter().copied());
        (low, engine, stats)
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

    /// `IncBC`: refresh the DFS forest with `IncDFS`, then re-lower the
    /// lowpoints of the affected region (PE reset over the new-tree
    /// ancestor closure).
    pub fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        let n = g.node_count();
        self.ensure_size(g);
        let dfs_report = self.dfs.update(g, applied);
        let (scope_stats, mut run) = self.relower(g, applied);
        run.merge(&dfs_report.run_stats);
        let scope_len = self.scope.len().max(dfs_report.scope_size);
        // The variable universe spans both layers: n interval variables
        // (DFS) plus n lowpoint variables.
        BoundednessReport::new(2 * n, scope_len, scope_stats, run)
    }

    /// The lowpoint half of [`update`](Self::update), run after `IncDFS`
    /// refreshed the forest: builds the PE scope into `self.scope`,
    /// resets it to `⊥` and resumes the step function on it.
    fn relower(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> (ScopeStats, RunStats) {
        let n = g.node_count();
        // PE seeds: nodes whose DFS assignment changed (their constants
        // moved), their neighbors (who read those constants), and the
        // endpoints of ΔG (whose back-edge sets changed).
        let (pe, scope, stack) = (&mut self.pe, &mut self.scope, &mut self.stack);
        pe.clear();
        scope.clear();
        let mut seed = |x: usize| {
            if pe.insert(x) {
                scope.push(x);
                stack.push(x);
            }
        };
        let ends = applied.ops().iter().flat_map(|op| [op.src, op.dst]);
        for v in self.dfs.changed().iter().copied().chain(ends) {
            if (v as usize) < n {
                seed(v as usize);
                for &(w, _) in g.out_neighbors(v) {
                    seed(w as usize);
                }
            }
        }
        // Upward closure: a changed lowpoint can raise every new-tree
        // ancestor, and the contracting engine cannot raise — so reset
        // the whole chain.
        let mut scope_stats = ScopeStats::default();
        while let Some(x) = stack.pop() {
            scope_stats.pops += 1;
            let p = self.dfs.parent(x as NodeId);
            if p != ROOT && pe.insert(p as usize) {
                scope.push(p as usize);
                stack.push(p as usize);
            }
        }

        let spec = LowSpec::new(g, &self.dfs);
        // Deepest-first: see the module docs.
        scope.sort_unstable_by_key(|&x| std::cmp::Reverse(self.dfs.first(x as NodeId)));
        for &x in scope.iter() {
            let bot = spec.bottom(x);
            if self.low.get(x) != bot {
                self.low.set_unstamped(x, bot);
                scope_stats.raised += 1;
            }
        }
        let run = self.engine.run(&spec, &mut self.low, scope.iter().copied());
        (scope_stats, run)
    }

    /// Resident bytes (no timestamps: BC is deducible).
    pub fn space_bytes(&self) -> usize {
        self.dfs.space_bytes()
            + self.low.space_bytes()
            + self.engine.space_bytes()
            + self.pe.space_bytes()
            + vec_bytes(&self.scope)
            + vec_bytes(&self.stack)
    }

    fn ensure_size(&mut self, g: &DynamicGraph) {
        self.dfs.ensure_size(g);
        let n = g.node_count();
        if n > self.low.len() {
            self.low.extend_to(n, |_| Low::new(u32::MAX, false, false));
            self.engine = Engine::new(n);
            self.pe.grow_to(n);
        }
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
        Ok(BcState::assemble(dfs, low, Engine::new(n)))
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

    fn set_work_budget(&mut self, budget: Option<u64>) {
        self.engine.set_work_budget(budget);
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
        // moved was too: the re-lowering reset it (a set bridge bit is
        // never `⊥`), and a replacement journals every node.
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
    fn vertex_insertion_extends_state() {
        // Regression: the pre-update snapshot read the DFS numbers of the
        // fresh node before the DFS substrate had grown to it.
        let mut g = DynamicGraph::new(false, 3);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        let (mut bc, _) = BcState::batch(&g);
        let v = g.add_node(0);
        let mut b = UpdateBatch::new();
        b.insert(2, v, 1).insert(v, 0, 1);
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

    /// The schedule the module docs promise: ranked by depth and seeded
    /// deepest-first, a lowpoint run evaluates each scope variable once —
    /// no re-evaluation, no superseded queue entry — on scopes wide
    /// enough that many variables share a rank bucket.
    #[test]
    fn lowpoint_run_evaluates_each_scope_variable_exactly_once() {
        use incgraph_graph::rng::SplitMix64;
        for (n, m, seed) in [(300usize, 700usize, 3u64), (3000, 6500, 4)] {
            let mut g = incgraph_graph::gen::uniform(n, m, false, 1, 1, seed);
            let (mut bc, _) = BcState::batch(&g);
            let (_, _, scratch_run) = BcState::low_from_scratch(&g, &bc.dfs);
            assert_eq!(scratch_run.evals, n as u64, "batch lowpoints, n={n}");
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
                bc.dfs.update(&g, &applied);
                let (_, run) = bc.relower(&g, &applied);
                assert_eq!(
                    (run.evals, run.stale_pops),
                    (bc.scope.len() as u64, 0),
                    "n={n} round {round}"
                );
                let (fresh, _) = BcState::batch(&g);
                assert_eq!(bc.low.values(), fresh.low.values(), "n={n} round {round}");
            }
        }
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
}
