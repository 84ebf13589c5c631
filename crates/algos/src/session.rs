//! One construction path for the seven query classes.
//!
//! Every driver in the repo — the CLI, the differential oracle, the
//! crash oracle, durable recovery — used to carry its own seven-way
//! `match` over the class enum to pick the right `batch` constructor
//! and thread the policy/audit arguments through. This module
//! centralizes that: [`QueryClass`] names the class,
//! [`Session::builder`] collects the query parameters (source, pattern)
//! and the execution options ([`ExecOptions`]: policy, audit), and
//! [`Session::build`] produces a ready state holding its own options.
//! One seven-way match remains, in the CLI's class subcommand
//! (`incgraph <class>`), and only for rendering: each class prints its
//! own rows from its concrete state, so that match calls the class's
//! `batch` constructor itself instead of building a session.
//!
//! A [`Session`] is itself an [`IncrementalState`] (by delegation to the
//! concrete state), and it is the one handle that holds a class state
//! outside this crate: registered views, the durable store, recovery
//! ([`Session::restore`]) and the oracles. Its durable essence is
//! byte-identical to the bare state's. On top of the trait it exposes
//! the class-aware extras the oracles need: [`Session::update_guarded`]
//! (the hardened path under the stored options), [`Session::output`]
//! and [`Session::digest`] (the canonical value stream the differential
//! oracle compares) and [`Session::take_delta`].
//!
//! # Where a delta comes from
//!
//! A session owns its class state and nothing else. Building one starts
//! the state's write journal ([`incgraph_core::Journal`]; a restored
//! session's is off, and [`Session::stop_journal`] stops it), and
//! [`Session::take_delta`] drains it into the [`OutputDelta`]: first old
//! value per entry against the current one, dropped when equal — so a
//! self-cancelling update drains empty, and a fallback inside
//! [`update_with`] (whose recompute journals what it replaced) nets out
//! exactly. The output ([`OutputSnapshot`]) is rendered from the state.

use crate::output::{ClassOutput, NodeChange, OutputDelta, OutputSnapshot, TrackedUpdate};
use crate::{
    update_with, BcState, CcState, DfsState, ExecOptions, IncrementalState, LccState, ReachState,
    SimState, SsspState, StateLoadError,
};
use incgraph_core::audit::{AuditReport, FixpointAudit};
use incgraph_core::engine::RunStats;
use incgraph_core::fallback::FallbackPolicy;
use incgraph_core::metrics::BoundednessReport;
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId, Pattern};

/// The seven query classes, in canonical order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryClass {
    /// Single-source shortest paths.
    Sssp,
    /// Connected components.
    Cc,
    /// Graph simulation.
    Sim,
    /// Source reachability.
    Reach,
    /// Local clustering coefficient.
    Lcc,
    /// Depth-first search forest.
    Dfs,
    /// Biconnectivity (lowpoints, articulation points, bridges).
    Bc,
}

impl QueryClass {
    /// All seven classes, canonical order.
    pub const ALL: [QueryClass; 7] = [
        QueryClass::Sssp,
        QueryClass::Cc,
        QueryClass::Sim,
        QueryClass::Reach,
        QueryClass::Lcc,
        QueryClass::Dfs,
        QueryClass::Bc,
    ];

    /// Short lowercase name, matching the CLI class argument.
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Sssp => "sssp",
            QueryClass::Cc => "cc",
            QueryClass::Sim => "sim",
            QueryClass::Reach => "reach",
            QueryClass::Lcc => "lcc",
            QueryClass::Dfs => "dfs",
            QueryClass::Bc => "bc",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<QueryClass> {
        QueryClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Whether the class runs through the generic worklist engine, whose
    /// work accounting supports the strict `|AFF_diff| ≤ inspected`
    /// boundedness check (DFS/BC traverse outside the engine and report
    /// coarser counters).
    pub fn engine_backed(self) -> bool {
        !matches!(self, QueryClass::Dfs | QueryClass::Bc)
    }

    /// Whether the class is only defined on undirected graphs (LCC's
    /// triangle counting and BC's biconnectivity both are).
    pub fn requires_undirected(self) -> bool {
        matches!(self, QueryClass::Lcc | QueryClass::Bc)
    }

    /// Whether the class is rooted at a source node (and so needs the
    /// builder's `source` to name a real node).
    pub fn source_rooted(self) -> bool {
        matches!(self, QueryClass::Sssp | QueryClass::Reach)
    }

    /// Whether the class is weakly deducible: its state keeps the
    /// timestamps that linearize `<_C` ([`Deducible::STAMPS`]
    /// (crate::Deducible::STAMPS)), and those record how the history was
    /// split into batches. A deducible class's fixpoint is a function of
    /// `G` alone, so one update over the net `ΔG` of several batches
    /// leaves the same essence as one update per batch.
    pub fn weakly_deducible(self) -> bool {
        matches!(self, QueryClass::Cc | QueryClass::Sim | QueryClass::Reach)
    }
}

/// Why a [`SessionBuilder`] refused to build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// [`QueryClass::Sim`] needs a pattern; none was supplied.
    MissingPattern,
    /// The class is only defined on undirected graphs
    /// ([`QueryClass::requires_undirected`]) but the graph is directed.
    /// Every driver used to carry this gate itself; the builder now
    /// refuses instead of silently computing a meaningless answer.
    RequiresUndirected(QueryClass),
    /// A [`source_rooted`](QueryClass::source_rooted) class was given a
    /// source beyond the graph's node range. The per-class specs assert
    /// on this; the builder turns it into a typed refusal so a remote
    /// `REGISTER` with a bad source cannot panic the server.
    SourceOutOfRange { source: NodeId, nodes: usize },
    /// A builder option was supplied that the class does not consume —
    /// `source` on a class that is not [`source_rooted`]
    /// (QueryClass::source_rooted), or `pattern` on anything but
    /// [`QueryClass::Sim`]. The builder used to ignore these silently,
    /// which let a caller believe a parameter was in effect when it
    /// wasn't; it now refuses.
    OptionNotApplicable {
        /// The class being built.
        class: QueryClass,
        /// The offending option (`"source"` or `"pattern"`).
        option: &'static str,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::MissingPattern => write!(f, "sim session built without a pattern"),
            SessionError::RequiresUndirected(c) => write!(
                f,
                "{} is only defined on undirected graphs, but the graph is directed",
                c.name()
            ),
            SessionError::SourceOutOfRange { source, nodes } => write!(
                f,
                "source {source} is out of range for a graph of {nodes} node(s)"
            ),
            SessionError::OptionNotApplicable { class, option } => {
                write!(f, "{} does not take a `{option}` option", class.name())
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Collects a class's query parameters and execution options before the
/// batch fixpoint is run. See the module docs; obtained from
/// [`Session::builder`].
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    class: QueryClass,
    source: Option<NodeId>,
    pattern: Option<Pattern>,
    policy: FallbackPolicy,
    audit: Option<FixpointAudit>,
}

impl SessionBuilder {
    /// Source node for SSSP/Reach. Only valid on a
    /// [`source_rooted`](QueryClass::source_rooted) class — [`build`]
    /// (Self::build) refuses with [`SessionError::OptionNotApplicable`]
    /// otherwise. Source-rooted classes default to node 0 when unset.
    pub fn source(mut self, source: NodeId) -> Self {
        self.source = Some(source);
        self
    }

    /// Pattern for Sim (required for that class). Only valid on
    /// [`QueryClass::Sim`] — [`build`](Self::build) refuses with
    /// [`SessionError::OptionNotApplicable`] otherwise.
    pub fn pattern(mut self, pattern: Pattern) -> Self {
        self.pattern = Some(pattern);
        self
    }

    /// Degradation policy for guarded updates (default
    /// [`FallbackPolicy::default`]).
    pub fn policy(mut self, policy: FallbackPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Post-update fixpoint audit for guarded updates (default: none).
    pub fn audit(mut self, audit: FixpointAudit) -> Self {
        self.audit = Some(audit);
        self
    }

    /// Runs the batch fixpoint on `g` and returns the live session.
    pub fn build(self, g: &DynamicGraph) -> Result<Session, SessionError> {
        if self.source.is_some() && !self.class.source_rooted() {
            return Err(SessionError::OptionNotApplicable {
                class: self.class,
                option: "source",
            });
        }
        if self.pattern.is_some() && self.class != QueryClass::Sim {
            return Err(SessionError::OptionNotApplicable {
                class: self.class,
                option: "pattern",
            });
        }
        if self.class.requires_undirected() && g.is_directed() {
            return Err(SessionError::RequiresUndirected(self.class));
        }
        let source = self.source.unwrap_or(0);
        if self.class.source_rooted() && source as usize >= g.node_count() {
            return Err(SessionError::SourceOutOfRange {
                source,
                nodes: g.node_count(),
            });
        }
        let mut state: Box<dyn ClassOutput> = match self.class {
            QueryClass::Sssp => Box::new(SsspState::batch(g, source).0),
            QueryClass::Cc => Box::new(CcState::batch(g).0),
            QueryClass::Sim => {
                let p = self.pattern.ok_or(SessionError::MissingPattern)?;
                Box::new(SimState::batch(g, p).0)
            }
            QueryClass::Reach => Box::new(ReachState::batch(g, source).0),
            QueryClass::Lcc => Box::new(LccState::batch(g).0),
            QueryClass::Dfs => Box::new(DfsState::batch(g).0),
            QueryClass::Bc => Box::new(BcState::batch(g).0),
        };
        state.set_journal(true);
        let drained_nodes = state.nodes();
        Ok(Session {
            class: self.class,
            exec: ExecOptions {
                policy: self.policy,
                audit: self.audit,
            },
            state,
            drained_nodes,
        })
    }
}

/// A live query-class state plus the [`ExecOptions`] it runs under.
/// Built by [`Session::builder`]; see the module docs.
///
/// Every mutation routes through the [`IncrementalState`] impl into the
/// class state, whose write journal collects the changes for the next
/// [`take_delta`](Session::take_delta).
pub struct Session {
    class: QueryClass,
    exec: ExecOptions,
    state: Box<dyn ClassOutput>,
    /// Node count at the last drain point; nodes past it are new.
    drained_nodes: usize,
}

impl Session {
    /// Starts a builder for `class` with the defaults: no source, no
    /// pattern, default policy, no audit.
    pub fn builder(class: QueryClass) -> SessionBuilder {
        SessionBuilder {
            class,
            source: None,
            pattern: None,
            policy: FallbackPolicy::default(),
            audit: None,
        }
    }

    /// The session's query class.
    pub fn class(&self) -> QueryClass {
        self.class
    }

    /// One hardened incremental step under the stored options — the
    /// session-flavored [`update_with`](crate::update_with) — returning
    /// both the boundedness report and the typed [`OutputDelta`] of the
    /// step. Fallback paths (budget abort → recompute, failed audit →
    /// recompute) still produce the correct *net* delta: each inner
    /// mutation journals its writes, the recompute journals what it
    /// replaced, and the drain compares first-old against last-new.
    pub fn update_guarded(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> TrackedUpdate {
        let exec = self.exec;
        let report = update_with(self, g, applied, &exec);
        TrackedUpdate {
            report,
            delta: self.take_delta(),
        }
    }

    /// The output, rendered on demand from the class state.
    pub fn output(&self) -> OutputSnapshot<'_> {
        OutputSnapshot::new(self.class, &*self.state)
    }

    /// Heap bytes of the write journal the deltas are drained from; part
    /// of [`space_bytes`](IncrementalState::space_bytes), which is the
    /// class state's and nothing else.
    pub fn journal_bytes(&self) -> usize {
        self.state.journal_bytes()
    }

    /// Restores a session from a `save_state` essence, routed on the
    /// class name the blob carries. No fixpoint is run: the blob *is*
    /// the fixpoint. This is the recovery path's entry point — a
    /// checkpointed `D^r` comes back ready for incremental WAL replay,
    /// under the default options and with its journal off.
    pub fn restore(g: &DynamicGraph, bytes: &[u8]) -> Result<Session, StateLoadError> {
        let name = crate::persist::peek_class(bytes)?;
        let class = QueryClass::from_name(&name)
            .ok_or_else(|| StateLoadError::Malformed(format!("unknown class `{name}`")))?;
        let state: Box<dyn ClassOutput> = match class {
            QueryClass::Sssp => Box::new(SsspState::restore(g, bytes)?),
            QueryClass::Cc => Box::new(CcState::restore(g, bytes)?),
            QueryClass::Sim => Box::new(SimState::restore(g, bytes)?),
            QueryClass::Reach => Box::new(ReachState::restore(g, bytes)?),
            QueryClass::Lcc => Box::new(LccState::restore(g, bytes)?),
            QueryClass::Dfs => Box::new(DfsState::restore(g, bytes)?),
            QueryClass::Bc => Box::new(BcState::restore(g, bytes)?),
        };
        Ok(Session {
            class,
            exec: ExecOptions::default(),
            drained_nodes: state.nodes(),
            state,
        })
    }

    /// Stops the write journal and releases it, for a holder that never
    /// reads a delta (the durable store's states). A stopped journal
    /// drains empty.
    pub fn stop_journal(&mut self) {
        self.state.set_journal(false);
    }

    /// Drains the changes journaled since the previous drain point
    /// (session construction, the last `take_delta`, or the last
    /// [`update_guarded`](Self::update_guarded), which drains internally)
    /// into one net [`OutputDelta`]. Entries and nodes whose value
    /// returned to the drained-point value are filtered out, so a
    /// self-cancelling update yields an empty delta.
    pub fn take_delta(&mut self) -> OutputDelta {
        let mut changes = Vec::new();
        let tail_resized = self.state.drain(&mut changes);
        let out = self.output();
        let (now, stride) = (out.nodes(), out.stride());
        let known = self.drained_nodes.min(now);
        // The changes, a run per node that existed at the drain point.
        let mut rest = &changes[..changes.partition_point(|c| (c.index as usize) < known * stride)];
        let mut nodes = Vec::with_capacity(rest.len().min(known) + now - known);
        let rows = std::iter::from_fn(move || {
            let v = rest.first()?.index as usize / stride;
            let end = rest
                .iter()
                .position(|c| c.index as usize >= (v + 1) * stride);
            let (row, tail) = rest.split_at(end.unwrap_or(rest.len()));
            rest = tail;
            Some((v, row))
        });
        for (v, row) in rows {
            let (old, new) = out.node_change(v, row);
            if old != new {
                nodes.push(NodeChange {
                    node: v as u32,
                    old: Some(old),
                    new,
                });
            }
        }
        nodes.extend((known..now).map(|v| NodeChange {
            node: v as u32,
            old: None,
            new: out.node_value(v),
        }));
        let resync = (known < now || tail_resized).then(|| out.digest_len());
        if resync.is_some() {
            changes = Vec::new();
        }
        self.drained_nodes = now;
        OutputDelta {
            changes,
            nodes,
            resync,
        }
    }

    /// Canonical value digest: one `u64` stream, index-aligned to the
    /// class's status variables where the class is engine-backed (the
    /// basis of the differential oracle's AFF diff), value-complete for
    /// all seven. The [`output`](Self::output) rendering, byte-identical
    /// to the historical per-call computation.
    pub fn digest(&self, _g: &DynamicGraph) -> Vec<u64> {
        self.output().to_digest()
    }
}

impl IncrementalState for Session {
    fn name(&self) -> &'static str {
        self.class.name()
    }

    fn total_vars(&self, g: &DynamicGraph) -> usize {
        self.state.total_vars(g)
    }

    fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        self.state.update(g, applied)
    }

    fn recompute(&mut self, g: &DynamicGraph) -> RunStats {
        self.state.recompute(g)
    }

    fn audit(&self, g: &DynamicGraph, audit: &FixpointAudit) -> AuditReport {
        self.state.audit(g, audit)
    }

    fn set_work_budget(&mut self, budget: Option<u64>) {
        self.state.set_work_budget(budget);
    }

    fn space_bytes(&self) -> usize {
        self.state.space_bytes()
    }

    fn save_state(&self) -> Vec<u8> {
        self.state.save_state()
    }

    fn load_state(&mut self, g: &DynamicGraph, bytes: &[u8]) -> Result<(), StateLoadError> {
        self.state.load_state(g, bytes)
    }

    fn forest(&self) -> Option<&DfsState> {
        self.state.forest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Deducible;
    use incgraph_graph::UpdateBatch;

    /// The class property and the engine's status layout say the same:
    /// a weakly deducible class is one whose status keeps stamps, and the
    /// three classes outside `Deducible` keep none.
    #[test]
    fn weakly_deducible_is_the_classes_that_keep_stamps() {
        let stamps = |c: QueryClass| match c {
            QueryClass::Sssp => crate::sssp::Sssp::STAMPS,
            QueryClass::Cc => crate::cc::Cc::STAMPS,
            QueryClass::Sim => crate::sim::Sim::STAMPS,
            QueryClass::Reach => crate::reach::Reach::STAMPS,
            QueryClass::Lcc | QueryClass::Dfs | QueryClass::Bc => false,
        };
        for c in QueryClass::ALL {
            assert_eq!(c.weakly_deducible(), stamps(c), "{}", c.name());
        }
    }

    fn ring(n: usize) -> DynamicGraph {
        let mut g = DynamicGraph::new(false, n);
        for v in 0..n as u32 {
            g.insert_edge(v, (v + 1) % n as u32, 1);
        }
        g.insert_edge(0, n as u32 / 2, 3);
        g
    }

    /// Builder with exactly the options `class` consumes.
    fn builder_for(class: QueryClass) -> SessionBuilder {
        let mut b = Session::builder(class);
        if class.source_rooted() {
            b = b.source(0);
        }
        if class == QueryClass::Sim {
            b = b.pattern(Pattern::new(vec![0], &[]));
        }
        b
    }

    #[test]
    fn builder_covers_all_seven_classes() {
        let g = ring(12);
        for class in QueryClass::ALL {
            let session = builder_for(class).build(&g).expect("build");
            assert_eq!(session.class(), class);
            assert_eq!(session.name(), class.name());
            assert!(!session.digest(&g).is_empty());
            assert!(session.space_bytes() > 0);
        }
    }

    #[test]
    fn inapplicable_options_are_refused() {
        let g = ring(8);
        for class in QueryClass::ALL {
            if !class.source_rooted() {
                assert_eq!(
                    Session::builder(class).source(0).build(&g).err(),
                    Some(SessionError::OptionNotApplicable {
                        class,
                        option: "source"
                    }),
                    "{}",
                    class.name()
                );
            }
            if class != QueryClass::Sim {
                assert_eq!(
                    Session::builder(class)
                        .pattern(Pattern::new(vec![0], &[]))
                        .build(&g)
                        .err(),
                    Some(SessionError::OptionNotApplicable {
                        class,
                        option: "pattern"
                    }),
                    "{}",
                    class.name()
                );
            }
        }
    }

    #[test]
    fn sim_without_pattern_is_rejected() {
        let g = ring(8);
        assert_eq!(
            Session::builder(QueryClass::Sim).build(&g).err(),
            Some(SessionError::MissingPattern)
        );
    }

    #[test]
    fn guarded_update_through_the_session_stays_incremental() {
        let g0 = ring(16);
        let mut g = g0.clone();
        let mut batch = UpdateBatch::new();
        batch.insert(2, 10, 2).delete(5, 6);
        let applied = batch.apply(&mut g);
        for class in QueryClass::ALL {
            let mut session = builder_for(class)
                .audit(FixpointAudit::full())
                .build(&g0)
                .unwrap();
            let tracked = session.update_guarded(&g, &applied);
            assert!(
                !tracked.report.fell_back(),
                "{}: {:?}",
                class.name(),
                tracked.report.fallback
            );
        }
    }

    /// The delta contract, pinned against the ground truth the old
    /// callers computed by hand: applying the entry-level changes to the
    /// previous digest must reproduce the new digest exactly, for every
    /// class, across a multi-round churn schedule.
    #[test]
    fn output_delta_replays_the_digest_diff_for_all_classes() {
        use incgraph_graph::rng::SplitMix64;
        let g0 = ring(14);
        for class in QueryClass::ALL {
            let mut g = g0.clone();
            let mut session = builder_for(class).build(&g).unwrap();
            let mut prev = session.digest(&g);
            let mut rng = SplitMix64::seed_from_u64(0xD1F7 + class as u64);
            for round in 0..12 {
                let mut batch = UpdateBatch::new();
                for _ in 0..3 {
                    let u = rng.gen_range(0..14) as u32;
                    let v = rng.gen_range(0..14) as u32;
                    if rng.gen_bool(0.5) {
                        batch.insert(u, v, 1 + rng.gen_range(0..4) as u32);
                    } else {
                        batch.delete(u, v);
                    }
                }
                let applied = batch.apply(&mut g);
                let tracked = session.update_guarded(&g, &applied);
                let now = session.digest(&g);
                let delta = &tracked.delta;
                if let Some(len) = delta.resync {
                    assert_eq!(len, now.len(), "{} round {round}", class.name());
                } else {
                    assert_eq!(prev.len(), now.len());
                    let mut replay = prev.clone();
                    for c in &delta.changes {
                        assert_eq!(replay[c.index as usize], c.old, "{}", class.name());
                        replay[c.index as usize] = c.new;
                    }
                    assert_eq!(replay, now, "{} round {round}", class.name());
                }
                // Node-level changes must agree with the snapshot's
                // per-node values on both ends.
                let snap = session.output();
                for nc in &delta.nodes {
                    assert_eq!(nc.new, snap.node_value(nc.node as usize));
                }
                assert_eq!(session.output().to_digest(), now);
                prev = now;
            }
        }
    }

    /// A self-cancelling guarded update (insert then delete of the same
    /// edge in one batch) produces an empty delta — the behavior DELTA
    /// consumers relied on when they compared digests.
    #[test]
    fn self_cancelling_update_yields_an_empty_delta() {
        let g0 = ring(10);
        for class in QueryClass::ALL {
            let mut g = g0.clone();
            let mut session = builder_for(class).build(&g).unwrap();
            let mut batch = UpdateBatch::new();
            batch.insert(1, 4, 2).delete(1, 4);
            let applied = batch.apply(&mut g);
            let tracked = session.update_guarded(&g, &applied);
            assert!(
                tracked.delta.is_empty(),
                "{}: {:?}",
                class.name(),
                tracked.delta
            );
        }
    }

    /// A bridge-list change that keeps its length, drained only after a
    /// recompute (or a load) rebuilt the state — following an update, or
    /// in its place — still reaches the tail: pendant `0–1` off triangle
    /// `1–2–3` moves to `0–2`, so the one bridge `(0, 1)` becomes
    /// `(0, 2)`.
    #[test]
    fn bc_tail_change_survives_a_replacement_before_the_drain() {
        let mut g0 = DynamicGraph::new(false, 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 1)] {
            g0.insert_edge(u, v, 1);
        }
        for (update, load) in [(true, false), (true, true), (false, false), (false, true)] {
            let mut g = g0.clone();
            let mut session = Session::builder(QueryClass::Bc).build(&g).unwrap();
            let prev = session.digest(&g);
            let mut batch = UpdateBatch::new();
            batch.delete(0, 1).insert(0, 2, 1);
            let applied = batch.apply(&mut g);
            if update {
                session.update(&g, &applied);
            }
            if load {
                let essence = BcState::batch(&g).0.save_state();
                session.load_state(&g, &essence).unwrap();
            } else {
                session.recompute(&g);
            }
            let now = session.digest(&g);
            assert_eq!((prev[4], now[4]), (1, 2), "the one bridge moved");
            let delta = session.take_delta();
            assert_eq!(delta.resync, None);
            let mut replay = prev.clone();
            for c in &delta.changes {
                assert_eq!(replay[c.index as usize], c.old);
                replay[c.index as usize] = c.new;
            }
            assert_eq!(replay, now, "update: {update}, load: {load}");
        }
    }

    /// A bridge whose tail entry moves with its parent alone. Pendant 1
    /// hangs off node 2 of a 4-cycle `0–3–2–4` with chord `0–2`; the
    /// batch drops the chord and moves the pendant to 3. DFS from 0 then
    /// enters 3 where it entered 2, so the pendant keeps its entry time
    /// and its lowpoint value (low, articulation bit, bridge bit), while
    /// the one bridge `(2, 1)` becomes `(3, 1)`. A replacement before the
    /// drain must still journal node 1, or the tail change is lost.
    #[test]
    fn bc_tail_follows_a_bridge_whose_parent_alone_moved() {
        let mut g0 = DynamicGraph::new(false, 5);
        for (u, v) in [(0, 2), (0, 3), (0, 4), (2, 3), (2, 4), (2, 1)] {
            g0.insert_edge(u, v, 1);
        }
        for (update, load) in [(true, false), (true, true), (false, false), (false, true)] {
            let mut g = g0.clone();
            let mut session = Session::builder(QueryClass::Bc).build(&g).unwrap();
            let prev = session.digest(&g);
            let mut batch = UpdateBatch::new();
            batch.delete(0, 2).delete(2, 1).insert(3, 1, 1);
            let applied = batch.apply(&mut g);
            if update {
                session.update(&g, &applied);
            }
            if load {
                let essence = BcState::batch(&g).0.save_state();
                session.load_state(&g, &essence).unwrap();
            } else {
                session.recompute(&g);
            }
            let now = session.digest(&g);
            assert_eq!(now[1], prev[1], "the pendant keeps its value");
            assert_eq!(
                (prev[5], now[5]),
                (2 << 32 | 1, 3 << 32 | 1),
                "the bridge moved"
            );
            let delta = session.take_delta();
            assert_eq!(delta.resync, None);
            let mut replay = prev.clone();
            for c in &delta.changes {
                assert_eq!(replay[c.index as usize], c.old);
                replay[c.index as usize] = c.new;
            }
            assert_eq!(replay, now, "update: {update}, load: {load}");
        }
    }

    /// The rendering is the historical digest formula, byte for byte:
    /// deduced classes `enc()` their status, LCC packs degree and
    /// triangles, DFS lists first/last/parent, BC packs lowpoint and
    /// articulation bit and then lists its bridges.
    #[test]
    fn rendering_is_the_historical_digest() {
        use crate::persist::Word;
        let mut g = ring(12);
        let mut sessions: Vec<Session> = QueryClass::ALL
            .into_iter()
            .map(|c| builder_for(c).build(&g).unwrap())
            .collect();
        let mut batch = UpdateBatch::new();
        batch.delete(3, 4).insert(2, 9, 1).delete(0, 6);
        let applied = batch.apply(&mut g);
        for s in &mut sessions {
            s.update_guarded(&g, &applied);
        }
        let n = g.node_count() as NodeId;
        fn enc<V: Word>(vals: &[V]) -> Vec<u64> {
            vals.iter().map(|v| v.enc()).collect()
        }
        let (lcc, dfs, bc) = (
            LccState::batch(&g).0,
            DfsState::batch(&g).0,
            BcState::batch(&g).0,
        );
        let pack = |(a, b): (NodeId, NodeId)| ((a as u64) << 32) | b as u64;
        let expected: [Vec<u64>; 7] = [
            enc(SsspState::batch(&g, 0).0.values()),
            enc(CcState::batch(&g).0.values()),
            enc(SimState::batch(&g, Pattern::new(vec![0], &[])).0.values()),
            enc(ReachState::batch(&g, 0).0.values()),
            (0..n)
                .map(|v| (lcc.degree(v) << 32) | (lcc.triangles(v) & 0xffff_ffff))
                .collect(),
            (0..n)
                .flat_map(|v| [dfs.first(v), dfs.last(v), dfs.parent(v)].map(u64::from))
                .collect(),
            (0..n)
                .map(|v| ((bc.low(v) as u64) << 1) | bc.is_articulation(&g, v) as u64)
                .chain(bc.bridges(&g).into_iter().map(pack))
                .collect(),
        ];
        for (s, want) in sessions.iter().zip(expected) {
            let out = s.output();
            assert_eq!(s.digest(&g), want, "{}", s.name());
            assert_eq!(out.digest_len(), want.len(), "{}", s.name());
            for (i, &e) in want.iter().enumerate() {
                assert_eq!(out.entry(i), e, "{} entry {i}", s.name());
            }
        }
    }

    /// A node's value: Sim's match bitmask over its pattern nodes, DFS's
    /// preorder rank, every other class's one entry.
    #[test]
    fn node_values_read_the_row() {
        let mut g = DynamicGraph::with_labels(false, vec![0, 1, 0, 1]);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        let sim = Session::builder(QueryClass::Sim)
            .pattern(Pattern::new(vec![0, 1], &[(0, 1)]))
            .build(&g)
            .unwrap();
        let masks: Vec<u64> = (0..4).map(|v| sim.output().node_value(v)).collect();
        assert_eq!(masks, [0b01, 0b10, 0b01, 0b10]);
        let dfs = Session::builder(QueryClass::Dfs).build(&g).unwrap();
        let ranks: Vec<u64> = (0..4).map(|v| dfs.output().node_value(v)).collect();
        assert_eq!(ranks, [0, 1, 2, 6]);
    }

    #[test]
    fn session_essence_matches_the_bare_state() {
        // A session's checkpointed essence is the class state's own, so
        // it restores through either.
        let g = ring(10);
        let session = Session::builder(QueryClass::Cc).build(&g).unwrap();
        let bare = CcState::batch(&g).0;
        assert_eq!(session.save_state(), IncrementalState::save_state(&bare));
    }

    /// DFS and BC, incremental against batch, as the durable commit runs
    /// them (journal off, the batch made net first) and as a
    /// journaled [`Session`] runs them. The graph is the LiveJournal
    /// stand-in at scale 1 (`Dataset::LiveJournal.graph(false, 1.0)`,
    /// durable-repl's graph), the batches 16 stationary units each: a
    /// delete moves a random live edge to a pool, an insert puts a random
    /// pooled edge back, and the pool hovers at 32 batches' worth. Prints
    /// the p50s, the share of batches that re-ran the traversal (a
    /// non-empty scope), the mean share of status variables such a
    /// batch entered, and for BC the mean evaluations of its cut-off pass
    /// per batch: BC's replay is the DFS class's, so its evaluations
    /// beyond the DFS session's are the cut-off pass's.
    /// Run with `cargo test --release -p incgraph-algos --lib
    /// dfs_bc_inc_vs_batch -- --ignored --nocapture`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn dfs_bc_inc_vs_batch() {
        use crate::{update_with, BcState, DfsState, ExecOptions};
        use incgraph_graph::gen::power_law;
        use incgraph_graph::rng::SplitMix64;
        use std::time::Instant;
        const BATCHES: usize = 300;
        const UNITS: usize = 16;
        let mut g = power_law(8_000, 114_000, 2.4, false, 100, 5, 0x11);
        let mut live: Vec<(NodeId, NodeId, u32)> = g.edges().collect();
        let mut pool = Vec::new();
        let mut rng = SplitMix64::seed_from_u64(1);
        let target = 32 * UNITS;
        type BatchRun = fn(&DynamicGraph);
        let classes: [(QueryClass, BatchRun); 2] = [
            (QueryClass::Dfs, |g| drop(DfsState::batch(g))),
            (QueryClass::Bc, |g| drop(BcState::batch(g))),
        ];
        let mut bare: Vec<_> = classes
            .iter()
            .map(|&(c, _)| {
                let mut s = Session::builder(c).build(&g).unwrap();
                s.stop_journal();
                s
            })
            .collect();
        let mut journaled: Vec<_> = classes
            .iter()
            .map(|&(c, _)| Session::builder(c).build(&g).unwrap())
            .collect();
        // Per class: bare, journaled and batch µs; resumed batches and
        // the summed entered share.
        let mut us = vec![[Vec::new(), Vec::new(), Vec::new()]; 2];
        let (mut resumed, mut entered, mut evals) = ([0usize; 2], [0.0f64; 2], [0u64; 2]);
        let exec = ExecOptions::default();
        for _ in 0..BATCHES {
            let mut batch = UpdateBatch::new();
            for _ in 0..UNITS {
                let delete = rng.gen_range(0..target + pool.len()) < target;
                if delete || pool.is_empty() {
                    let (u, v, w) = live.swap_remove(rng.gen_range(0..live.len()));
                    batch.delete(u, v);
                    pool.push((u, v, w));
                } else {
                    let (u, v, w) = pool.swap_remove(rng.gen_range(0..pool.len()));
                    batch.insert(u, v, w);
                    live.push((u, v, w));
                }
            }
            let applied = batch.apply(&mut g);
            let net = incgraph_core::coalesce::net(false, std::slice::from_ref(&applied));
            for (i, &(_, batch_run)) in classes.iter().enumerate() {
                let t = Instant::now();
                let report = update_with(&mut bare[i], &g, &net, &exec);
                us[i][0].push(t.elapsed().as_secs_f64() * 1e6);
                resumed[i] += (report.scope_size > 0) as usize;
                entered[i] += report.aff_fraction();
                evals[i] += report.run_stats.evals;
                let t = Instant::now();
                journaled[i].update_guarded(&g, &applied);
                us[i][1].push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                batch_run(&g);
                us[i][2].push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        println!(
            "class  bare_us  journaled_us  batch_us  bare/batch  journaled/batch  resumed  entered  cut_off"
        );
        let cut_off = [0.0, (evals[1] - evals[0]) as f64 / BATCHES as f64];
        for (i, &(c, _)) in classes.iter().enumerate() {
            let [b, j, full] = us[i].clone().map(|mut v| {
                v.sort_by(f64::total_cmp);
                v[v.len() / 2]
            });
            println!(
                "{:<5}  {b:>7.0}  {j:>12.0}  {full:>8.0}  {:>10.2}  {:>15.2}  {:>7.2}  {:>7.2}  {:>7.1}",
                c.name(),
                b / full,
                j / full,
                resumed[i] as f64 / BATCHES as f64,
                entered[i] / resumed[i].max(1) as f64,
                cut_off[i]
            );
        }
    }

    #[test]
    fn class_names_roundtrip() {
        for c in QueryClass::ALL {
            assert_eq!(QueryClass::from_name(c.name()), Some(c));
        }
        assert_eq!(QueryClass::from_name("nope"), None);
    }
}
