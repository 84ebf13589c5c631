//! The shared store behind the service: named graphs, standing queries,
//! and the single-writer commit path with exactly-once client retries.
//!
//! One process hosts one [`Store`]. A store holds **named graphs**, each
//! either in-memory (created over the wire with `GRAPH`) or WAL-durable
//! (the store the server was launched on). All mutation — graph
//! creation, standing-query registration, `ΔG` application — happens on
//! the server's single writer thread holding `&mut Store`, which is what
//! makes the WAL commit protocol and the ack bookkeeping race-free by
//! construction; reads (`QUERY`, `STATUS`) take the shared lock.
//!
//! **Standing queries** subscribe to *maintained views*: each graph keeps
//! one live [`Session`] per canonical `(class, source, pattern)` with a
//! reference count, held by every `REGISTER` and every plan member that
//! asks for that fixpoint. After every committed batch the writer runs
//! each view's incremental update once (the paper's `A_Δ`, bounded by
//! `|AFF|`), however many subscribe to it, and pushes each subscriber a
//! `DELTA` carrying only the digest entries that changed — the wire
//! analogue of the incremental contract: notification cost tracks the
//! affected area, not `|G|`. No view reads another's state, so a large
//! batch's updates also run on scoped helper threads. A subscriber is a
//! reference to its view and nothing more: it keeps no copy of the
//! output, and `QUERY` renders the shared view under the read lock.
//!
//! **Read sequence.** A graph records the sequence its views reflect,
//! which is the last notify pass, and a `RESULT` or `VIEW` is stamped
//! with it. The server's writer pushes a batch's `ACK` and runs its
//! notify pass under one write guard, so a read taken after that `ACK`
//! answers at its sequence or later. Only a caller of this API that
//! defers [`notify_queries`](Store::notify_queries) past a commit (see
//! [`apply_update_deferred`](Store::apply_update_deferred)) can make a
//! read trail an ack; it still carries the sequence of its state.
//!
//! **Exactly-once**: clients stamp each batch with a per-token sequence
//! number. The store acks `seq == last` as a duplicate (the retry case)
//! without re-applying, admits `seq == last + 1`, and rejects anything
//! else as a gap. For durable graphs the `(token, seq → WAL seq)` intent
//! is fsynced through [`DedupLog`] *before* the WAL commit (via
//! [`DurableSession::apply_with`]), so the ack table survives crashes
//! with the same once-only semantics — see the [`dedup`](crate::dedup)
//! module docs for the crash analysis.

use crate::dedup::{self, AckRecord, DedupEntry, DedupLog};
use crate::outbound::Outbound;
use crate::protocol::{format_view_rows, ErrCode, ViewRow};
use incgraph_algos::{IncrementalState, OutputDelta, QueryClass, Session, SessionError};
use incgraph_dataflow::{Plan, PlanDag};
use incgraph_durable::{
    encode_record, recover, scan_records, CrashPoint, DurableError, DurableOptions, DurableSession,
    ScannedRecord, WAL_NAME,
};
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId, UpdateBatch};
use incgraph_workloads::random_pattern;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread;

/// Effective `|ΔG|` from which a notify pass fans a graph's views out
/// over the host's cores: the measured crossover (docs/PERFORMANCE.md).
/// Below it a helper's spawn, join and cold start cost more than the
/// share of the pass it takes over.
const FAN_OUT_UNITS: usize = 512;

/// Resource caps guarding the store against a hostile or buggy client.
#[derive(Clone, Debug)]
pub struct StoreLimits {
    /// Max unit updates per `UPDATE` batch.
    pub max_batch_units: usize,
    /// Max nodes per `GRAPH`.
    pub max_nodes: usize,
    /// Max named graphs in the store.
    pub max_graphs: usize,
    /// Max standing queries per session.
    pub max_queries_per_session: usize,
    /// Max changed entries enumerated in one `DELTA`; wider changes (and
    /// digest-length changes) send the `resync` form instead.
    pub max_delta_entries: usize,
}

impl Default for StoreLimits {
    fn default() -> Self {
        StoreLimits {
            max_batch_units: 4096,
            max_nodes: 1 << 20,
            max_graphs: 4096,
            max_queries_per_session: 64,
            max_delta_entries: 256,
        }
    }
}

/// A wire-typed refusal: the `ERR` code plus a human detail.
pub type WireError = (ErrCode, String);

/// How an `UPDATE` failed.
#[derive(Debug)]
pub enum UpdateError {
    /// Refused; reply `ERR` and keep the session.
    Wire(ErrCode, String),
    /// An armed [`CrashPoint`] fired mid-commit: the store is dead and
    /// the server must simulate process death (no replies, no drain).
    Crashed(CrashPoint),
}

impl From<WireError> for UpdateError {
    fn from((code, detail): WireError) -> Self {
        UpdateError::Wire(code, detail)
    }
}

/// A successful `UPDATE`: what the `ACK` line carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ack {
    /// Echo of the client sequence.
    pub client_seq: u64,
    /// Store sequence the batch committed under (WAL sequence for
    /// durable graphs).
    pub wal_seq: u64,
    /// Unit updates in the batch.
    pub units: usize,
    /// `true` when this acked a retry without re-applying.
    pub dup: bool,
}

/// The per-class states a durable store tracks from creation, in
/// [`QueryClass::ALL`] order, skipping the undirected-only classes on
/// directed graphs. Shared with the chaos harness so its full-replay
/// reference builds *identical* states (same pattern seed, same source)
/// and essence comparison is byte-exact. Nobody reads a delta from them:
/// [`DurableSession::create`] stops their journals.
pub fn standing_states(g: &DynamicGraph, pattern_seed: u64) -> Vec<Session> {
    QueryClass::ALL
        .into_iter()
        .filter(|c| !(c.requires_undirected() && g.is_directed()))
        .map(|c| {
            let view = ViewKey::new(c, 0, pattern_seed);
            view.build(g).expect("direction-filtered class builds")
        })
        .collect()
}

/// The canonical identity of a maintained class view: the class plus the
/// parameters its fixpoint reads, with the ones it ignores zeroed, so
/// every `REGISTER` and plan member asking for the same fixpoint names
/// the same view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct ViewKey {
    class: QueryClass,
    /// The source of a source-rooted class, else 0.
    source: NodeId,
    /// The Sim pattern seed, else 0.
    pattern_seed: u64,
}

impl ViewKey {
    fn new(class: QueryClass, source: NodeId, pattern_seed: u64) -> ViewKey {
        ViewKey {
            class,
            source: if class.source_rooted() { source } else { 0 },
            pattern_seed: if class == QueryClass::Sim {
                pattern_seed
            } else {
                0
            },
        }
    }

    /// Runs the view's batch fixpoint on `g`. The Sim pattern is a
    /// function of the seed and the graph's labels, which never change
    /// while the graph lives, so one key always names one pattern.
    fn build(self, g: &DynamicGraph) -> Result<Session, SessionError> {
        let mut builder = Session::builder(self.class);
        if self.class.source_rooted() {
            builder = builder.source(self.source);
        }
        if self.class == QueryClass::Sim {
            builder = builder.pattern(random_pattern(g, 4, 6, self.pattern_seed));
        }
        builder.build(g)
    }
}

/// One maintained class view and how many subscriptions hold it: one per
/// `REGISTER`, one per plan member.
struct View {
    session: Session,
    refs: usize,
}

/// One registered standing query: the view it reads and the owner's
/// outbound queue.
struct StandingQuery {
    view: ViewKey,
    out: Arc<Outbound>,
}

/// One registered standing *dataflow* plan (`PLAN`): its operator DAG,
/// fed by the views of its class sources (in [`PlanDag::members`] order).
struct StandingPlan {
    dag: PlanDag,
    members: Vec<ViewKey>,
    out: Arc<Outbound>,
}

// One Backend exists per named graph for the life of the process, so
// the Memory/Durable size asymmetry never multiplies across a
// collection — boxing would only add a pointer chase to the hot path.
#[allow(clippy::large_enum_variant)]
enum Backend {
    /// Wire-created, lives and dies with the process.
    Memory { graph: DynamicGraph, seq: u64 },
    /// WAL-durable with an exactly-once intent log.
    Durable {
        session: DurableSession,
        dedup: DedupLog,
    },
}

impl Backend {
    fn graph(&self) -> &DynamicGraph {
        match self {
            Backend::Memory { graph, .. } => graph,
            Backend::Durable { session, .. } => session.graph(),
        }
    }

    fn seq(&self) -> u64 {
        match self {
            Backend::Memory { seq, .. } => *seq,
            Backend::Durable { session, .. } => session.last_seq(),
        }
    }
}

struct GraphEntry {
    backend: Backend,
    /// token → last acked batch.
    acks: HashMap<String, AckRecord>,
    /// The maintained class views the subscriptions below hold.
    views: BTreeMap<ViewKey, View>,
    /// The sequence `views` (and the plans' DAGs) reflect: the last
    /// notify pass, which trails `backend.seq()` while a caller defers
    /// [`Store::notify_queries`] past a commit.
    views_seq: u64,
    /// `(session id, qid)` → standing query.
    queries: BTreeMap<(u64, String), StandingQuery>,
    /// `(session id, qid)` → standing dataflow plan. Plans share the
    /// per-session query cap and the store-wide qid namespace with
    /// `queries`.
    plans: BTreeMap<(u64, String), StandingPlan>,
}

impl GraphEntry {
    fn new(backend: Backend, acks: HashMap<String, AckRecord>) -> GraphEntry {
        GraphEntry {
            views_seq: backend.seq(),
            backend,
            acks,
            views: BTreeMap::new(),
            queries: BTreeMap::new(),
            plans: BTreeMap::new(),
        }
    }

    /// Takes one reference on the view `key`, running its batch fixpoint
    /// only if nobody holds it yet.
    fn subscribe(&mut self, key: ViewKey) -> Result<(), SessionError> {
        match self.views.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().refs += 1,
            Entry::Vacant(e) => {
                let session = key.build(self.backend.graph())?;
                e.insert(View { session, refs: 1 });
            }
        }
        self.view_gauges();
        Ok(())
    }

    /// Drops one reference on the view `key`; the view goes with its last.
    fn release(&mut self, key: ViewKey) {
        if let Entry::Occupied(mut e) = self.views.entry(key) {
            e.get_mut().refs -= 1;
            if e.get().refs == 0 {
                e.remove();
            }
        }
        self.view_gauges();
    }

    /// Sets the view registry's gauges: how many views the graph keeps
    /// and their resident bytes.
    fn view_gauges(&self) {
        if incgraph_obs::enabled() {
            incgraph_obs::gauge("service.views", self.views.len() as u64);
            let bytes = self.views.values().map(|v| v.session.space_bytes());
            incgraph_obs::gauge("space.views", bytes.sum::<usize>() as u64);
        }
    }
}

/// Primes a plan's `dag` on `g` from the current outputs of its member
/// views.
fn prime(
    dag: &mut PlanDag,
    members: &[ViewKey],
    views: &BTreeMap<ViewKey, View>,
    g: &DynamicGraph,
) {
    let outputs: Vec<_> = members.iter().map(|k| views[k].session.output()).collect();
    dag.prime(g, &outputs);
}

/// Runs every view's incremental update once over `applied` and returns
/// each view's delta by key, on `workers` threads: the caller plus
/// `workers − 1` scoped helpers that live for this call only. Each thread
/// starts on a view of its own, in key order, so every helper runs at
/// least one; the rest form one queue that whichever thread frees up
/// first takes from. No view's fixpoint reads another's state and each
/// delta lands under its key, so the result is the same for every
/// `workers`; with 1 nothing is spawned.
fn update_views(
    views: &mut BTreeMap<ViewKey, View>,
    g: &DynamicGraph,
    applied: &AppliedBatch,
    workers: usize,
) -> BTreeMap<ViewKey, OutputDelta> {
    let mut rest = views.iter_mut();
    let firsts: Vec<_> = rest.by_ref().take(workers).collect();
    let queue = Mutex::new(rest);
    let drain = |first: Option<(&ViewKey, &mut View)>| {
        let mut done = Vec::new();
        let mut next = first;
        while let Some((&key, view)) = next {
            done.push((key, view.session.update_guarded(g, applied).delta));
            // The queue is locked only to take the next view, which
            // cannot panic, so the lock is never poisoned.
            next = queue.lock().expect("queue lock is never poisoned").next();
        }
        done
    };
    let mut firsts = firsts.into_iter();
    let mine = firsts.next();
    if firsts.as_slice().is_empty() {
        return drain(mine).into_iter().collect();
    }
    thread::scope(|s| {
        let helpers: Vec<_> = firsts
            .map(|first| s.spawn(move || drain(Some(first))))
            .collect();
        let mut deltas: BTreeMap<_, _> = drain(mine).into_iter().collect();
        for helper in helpers {
            let done = helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            deltas.extend(done);
        }
        deltas
    })
}

/// A class session's refusal as a wire error; `other` is the code for
/// refusals without one of their own.
fn session_refusal(e: SessionError, other: ErrCode) -> WireError {
    match e {
        SessionError::RequiresUndirected(c) => (
            ErrCode::UndirectedRequired,
            format!("{} needs an undirected graph", c.name()),
        ),
        e => (other, e.to_string()),
    }
}

/// Enters degraded read-only mode (see [`Store`]'s `degraded`) after the
/// durable-layer failure `why`.
fn degrade(degraded: &mut bool, why: &dyn fmt::Display) {
    *degraded = true;
    if incgraph_obs::enabled() {
        incgraph_obs::event("service.degraded", &why.to_string());
    }
}

/// The retained WAL tail's records, read back from disk.
fn wal_tail(session: &DurableSession) -> std::io::Result<Vec<ScannedRecord>> {
    let bytes = std::fs::read(session.dir().join(WAL_NAME))?;
    let body = bytes.get(8..).unwrap_or(&[]);
    Ok(scan_records(body, session.base_seq() + 1).records)
}

/// A durable graph's session, dedup log and ack table, lent apart.
type DurableParts<'a> = (
    &'a mut DurableSession,
    &'a mut DedupLog,
    &'a mut HashMap<String, AckRecord>,
);

/// The service's shared state. See the module docs.
pub struct Store {
    graphs: BTreeMap<String, GraphEntry>,
    limits: StoreLimits,
    /// Set on the first real WAL I/O failure; durable writes are refused
    /// (`ERR readonly`) for the life of the process while reads keep
    /// working. Process-lifetime by design: it also guarantees an
    /// orphaned intent's WAL sequence is never reused (see [`DedupLog`]).
    degraded: bool,
    /// Cores a notify pass may fan its views out over, read once here:
    /// `available_parallelism` reads cgroup files, which costs as much
    /// as a small pass. It honours the building thread's affinity, so a
    /// server pinned to one core reads 1.
    cores: usize,
}

impl Store {
    /// An empty store holding only wire-created in-memory graphs.
    pub fn new(limits: StoreLimits) -> Self {
        Store {
            graphs: BTreeMap::new(),
            limits,
            degraded: false,
            cores: thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Recovers the durable store in `dir` and mounts it as graph `name`
    /// of a fresh store, reopening its intent log; `nodes`/`directed` are
    /// then ignored. Without a store in `dir`, this is
    /// [`create_durable`](Self::create_durable) over the empty graph.
    pub fn open_durable(
        dir: &Path,
        name: &str,
        nodes: usize,
        directed: bool,
        options: DurableOptions,
        limits: StoreLimits,
    ) -> Result<Self, DurableError> {
        if !dir.join("MANIFEST").exists() {
            let graph = DynamicGraph::new(directed, nodes);
            return Self::create_durable(dir, name, graph, options, limits);
        }
        let (session, report) = recover(dir, options)?;
        if incgraph_obs::enabled() {
            let (seq, replayed) = (session.last_seq(), report.wal_records_replayed);
            let detail = format!("graph={name} seq={seq} replayed={replayed}");
            incgraph_obs::event("service.recovered", &detail);
        }
        Self::mount_durable(name, session, limits)
    }

    /// Initializes `dir` as a durable store over `graph`, tracking the
    /// built-in [`standing_states`] at [`DURABLE_PATTERN_SEED`], and mounts
    /// it as graph `name` of a fresh store. Refuses a `dir` holding a store.
    pub fn create_durable(
        dir: &Path,
        name: &str,
        graph: DynamicGraph,
        options: DurableOptions,
        limits: StoreLimits,
    ) -> Result<Self, DurableError> {
        let states = standing_states(&graph, DURABLE_PATTERN_SEED);
        let session = DurableSession::create(dir, graph, states, options)?;
        Self::mount_durable(name, session, limits)
    }

    /// Mounts an already-open durable session as graph `name` of a fresh
    /// store, opening the exactly-once intent log that lives beside its
    /// WAL. [`open_durable`](Self::open_durable) ends here; callers that
    /// build the session themselves choose the states it tracks.
    pub fn mount_durable(
        name: &str,
        session: DurableSession,
        limits: StoreLimits,
    ) -> Result<Self, DurableError> {
        let (dedup, index) = DedupLog::open(session.dir(), session.last_seq())?;
        let mut store = Store::new(limits);
        store.graphs.insert(
            name.to_string(),
            GraphEntry::new(
                Backend::Durable { session, dedup },
                index.into_iter().collect(),
            ),
        );
        Ok(store)
    }

    /// Creates the in-memory graph `name`, or attaches to an existing
    /// graph of the **same shape** (idempotent, so clients can `GRAPH`
    /// unconditionally after reconnecting).
    pub fn open_graph(
        &mut self,
        name: &str,
        nodes: usize,
        directed: bool,
    ) -> Result<(), WireError> {
        if let Some(entry) = self.graphs.get(name) {
            let g = entry.backend.graph();
            return if g.node_count() == nodes && g.is_directed() == directed {
                Ok(())
            } else {
                Err((
                    ErrCode::GraphMismatch,
                    format!(
                        "{name} exists with {} nodes ({})",
                        g.node_count(),
                        if g.is_directed() {
                            "directed"
                        } else {
                            "undirected"
                        }
                    ),
                ))
            };
        }
        if nodes == 0 || nodes > self.limits.max_nodes {
            return Err((
                ErrCode::TooLarge,
                format!("nodes must be in 1..={}", self.limits.max_nodes),
            ));
        }
        if self.graphs.len() >= self.limits.max_graphs {
            return Err((
                ErrCode::TooLarge,
                format!("store caps at {} graphs", self.limits.max_graphs),
            ));
        }
        self.graphs.insert(
            name.to_string(),
            GraphEntry::new(
                Backend::Memory {
                    graph: DynamicGraph::new(directed, nodes),
                    seq: 0,
                },
                HashMap::new(),
            ),
        );
        incgraph_obs::counter("service.graphs_created", 1);
        Ok(())
    }

    /// Refuses a `(sid, qid)` that is taken on any graph, or a session
    /// at its standing-query cap across all graphs: the qid namespace
    /// and the cap are the session's, not a graph's.
    fn check_slot(&self, sid: u64, qid: &str) -> Result<(), WireError> {
        let key = (sid, qid.to_string());
        let mut owned = 0;
        for entry in self.graphs.values() {
            if entry.queries.contains_key(&key) || entry.plans.contains_key(&key) {
                return Err((
                    ErrCode::DupQuery,
                    format!("{qid} is already registered on this session"),
                ));
            }
            let keys = entry.queries.keys().chain(entry.plans.keys());
            owned += keys.filter(|(s, _)| *s == sid).count();
        }
        if owned >= self.limits.max_queries_per_session {
            return Err((
                ErrCode::TooLarge,
                format!(
                    "session caps at {} standing queries",
                    self.limits.max_queries_per_session
                ),
            ));
        }
        Ok(())
    }

    /// Registers a standing query for session `sid`: a subscription to
    /// the graph's view of `(class, source, pattern)`, whose batch
    /// fixpoint runs now only if no other subscription holds it. Returns
    /// the digest length (what a `RESULT` for this query will carry).
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        &mut self,
        sid: u64,
        qid: &str,
        graph: &str,
        class_name: &str,
        source: NodeId,
        pattern_seed: u64,
        out: Arc<Outbound>,
    ) -> Result<usize, WireError> {
        let Some(class) = QueryClass::from_name(class_name) else {
            return Err((
                ErrCode::UnknownClass,
                format!("{class_name} is not one of the seven classes"),
            ));
        };
        if !self.graphs.contains_key(graph) {
            return Err((ErrCode::UnknownGraph, format!("no graph {graph}")));
        }
        self.check_slot(sid, qid)?;
        let entry = self.graphs.get_mut(graph).expect("checked above");
        if source as usize >= entry.backend.graph().node_count() {
            return Err((
                ErrCode::BadCommand,
                format!("source {source} out of range for {graph}"),
            ));
        }
        let _cls = incgraph_obs::class_scope(class.name());
        let _span = incgraph_obs::span("service.register");
        let view = ViewKey::new(class, source, pattern_seed);
        entry
            .subscribe(view)
            .map_err(|e| session_refusal(e, ErrCode::BadCommand))?;
        let len = entry.views[&view].session.output().digest_len();
        entry
            .queries
            .insert((sid, qid.to_string()), StandingQuery { view, out });
        incgraph_obs::counter("service.registers", 1);
        Ok(len)
    }

    /// Unregisters one standing query of session `sid`.
    pub fn unregister(&mut self, sid: u64, qid: &str) -> Result<(), WireError> {
        for entry in self.graphs.values_mut() {
            if let Some(q) = entry.queries.remove(&(sid, qid.to_string())) {
                entry.release(q.view);
                return Ok(());
            }
        }
        Err((ErrCode::UnknownQuery, format!("no query {qid}")))
    }

    /// Registers a standing dataflow plan (`PLAN`) for session `sid`:
    /// parses the `incgraph-plan/1` text, subscribes its class sources
    /// to the graph's views (building the ones nobody holds yet), and
    /// primes the plan's DAG from their outputs. Returns the initial
    /// view row count (what `PLANQ` will enumerate).
    pub fn register_plan(
        &mut self,
        sid: u64,
        qid: &str,
        graph: &str,
        pattern_seed: u64,
        text: &str,
        out: Arc<Outbound>,
    ) -> Result<usize, WireError> {
        if !self.graphs.contains_key(graph) {
            return Err((ErrCode::UnknownGraph, format!("no graph {graph}")));
        }
        self.check_slot(sid, qid)?;
        let entry = self.graphs.get_mut(graph).expect("checked above");
        let _span = incgraph_obs::span("service.plan");
        let plan = Plan::parse(text).map_err(|e| (ErrCode::BadPlan, e.to_string()))?;
        let mut dag = PlanDag::new(plan);
        let members: Vec<ViewKey> = dag
            .members()
            .map(|(class, source)| ViewKey::new(class, source.unwrap_or(0), pattern_seed))
            .collect();
        for (i, &key) in members.iter().enumerate() {
            if let Err(e) = entry.subscribe(key) {
                for &held in &members[..i] {
                    entry.release(held);
                }
                return Err(session_refusal(e, ErrCode::BadPlan));
            }
        }
        prime(&mut dag, &members, &entry.views, entry.backend.graph());
        let rows = dag.view().len();
        entry
            .plans
            .insert((sid, qid.to_string()), StandingPlan { dag, members, out });
        incgraph_obs::counter("service.plans", 1);
        Ok(rows)
    }

    /// Unregisters one standing plan of session `sid`.
    pub fn unregister_plan(&mut self, sid: u64, qid: &str) -> Result<(), WireError> {
        for entry in self.graphs.values_mut() {
            if let Some(p) = entry.plans.remove(&(sid, qid.to_string())) {
                for key in p.members {
                    entry.release(key);
                }
                return Ok(());
            }
        }
        Err((ErrCode::UnknownQuery, format!("no plan {qid}")))
    }

    /// Reads a standing plan's materialized view with the sequence it
    /// reflects (`PLANQ`, over the shared lock).
    pub fn plan_view(&self, sid: u64, qid: &str) -> Option<(Vec<ViewRow>, u64)> {
        self.graphs.values().find_map(|entry| {
            entry
                .plans
                .get(&(sid, qid.to_string()))
                .map(|p| (p.dag.view(), entry.views_seq))
        })
    }

    /// Drops every standing query and plan of a disconnected session,
    /// releasing their views; returns how many were removed.
    pub fn drop_session(&mut self, sid: u64) -> usize {
        let mut removed = 0;
        for entry in self.graphs.values_mut() {
            let before = entry.queries.len() + entry.plans.len();
            let mut held = Vec::new();
            entry.queries.retain(|(s, _), q| {
                let keep = *s != sid;
                if !keep {
                    held.push(q.view);
                }
                keep
            });
            entry.plans.retain(|(s, _), p| {
                let keep = *s != sid;
                if !keep {
                    held.extend(&p.members);
                }
                keep
            });
            removed += before - entry.queries.len() - entry.plans.len();
            for key in held {
                entry.release(key);
            }
        }
        removed
    }

    /// Renders a standing query's view with the sequence it reflects
    /// (`QUERY`, over the shared lock).
    pub fn query(&self, sid: u64, qid: &str) -> Option<(Vec<u64>, u64)> {
        self.graphs.values().find_map(|entry| {
            let q = entry.queries.get(&(sid, qid.to_string()))?;
            let digest = entry.views[&q.view].session.output().to_digest();
            Some((digest, entry.views_seq))
        })
    }

    /// Applies one client batch: dedup/gap check, commit (WAL-durable
    /// where the graph is), then incremental notification of every
    /// standing query on the graph. See the module docs for the
    /// exactly-once protocol.
    pub fn apply_update(
        &mut self,
        graph: &str,
        token: &str,
        client_seq: u64,
        batch: &UpdateBatch,
    ) -> Result<Ack, UpdateError> {
        let (ack, applied) = self.apply_update_deferred(graph, token, client_seq, batch)?;
        if let Some(applied) = applied {
            self.notify_queries(graph, std::slice::from_ref(&applied));
        }
        Ok(ack)
    }

    /// The commit half of [`apply_update`]: dedup/gap check, graph
    /// mutation, WAL + dedup-intent fsync, ack bookkeeping — everything
    /// the exactly-once protocol depends on — but **no** standing-query
    /// notification. The caller owns the returned effective ΔG and must
    /// eventually hand it (alone or merged with later batches) to
    /// [`notify_queries`](Self::notify_queries). Returns `None` ops for
    /// a deduplicated retry, which re-acks without re-applying.
    ///
    /// Until that call, `QUERY` and `PLANQ` answer at the last notified
    /// sequence, below this batch's ack. The server never leaves that
    /// gap open: its writer notifies each batch in the job that commits
    /// it. The split serves callers that time or batch the two halves
    /// apart.
    pub fn apply_update_deferred(
        &mut self,
        graph: &str,
        token: &str,
        client_seq: u64,
        batch: &UpdateBatch,
    ) -> Result<(Ack, Option<AppliedBatch>), UpdateError> {
        self.commit_update(graph, token, client_seq, batch, |_| {})
    }

    /// [`apply_update_deferred`](Self::apply_update_deferred) with a
    /// *commit-point hook*: `committed` receives the batch's store
    /// sequence the moment the batch is committed — for a durable graph
    /// right after the WAL fsync
    /// ([`DurableSession::apply_with`]'s hook of the same name), before
    /// the graph's built-in states are maintained; for an in-memory
    /// graph once it is applied. The server ships the
    /// record to its replicas from here, so a replica commits beside the
    /// primary's state maintenance instead of after it. The hook runs at
    /// most once and only for a batch that committed: never for a `dup`
    /// re-ack, a refused batch, or a failed or crashed WAL append.
    pub fn commit_update(
        &mut self,
        graph: &str,
        token: &str,
        client_seq: u64,
        batch: &UpdateBatch,
        committed: impl FnOnce(u64),
    ) -> Result<(Ack, Option<AppliedBatch>), UpdateError> {
        let wire = |c: ErrCode, d: String| UpdateError::Wire(c, d);
        let Some(entry) = self.graphs.get_mut(graph) else {
            return Err(wire(ErrCode::UnknownGraph, format!("no graph {graph}")));
        };
        if batch.len() > self.limits.max_batch_units {
            return Err(wire(
                ErrCode::TooLarge,
                format!("batch caps at {} units", self.limits.max_batch_units),
            ));
        }
        let last = entry.acks.get(token).copied().unwrap_or_default();
        if client_seq == last.client_seq {
            // The retry of an acked batch: re-ack, never re-apply.
            incgraph_obs::counter("service.dedup_hits", 1);
            return Ok((
                Ack {
                    client_seq,
                    wal_seq: last.wal_seq,
                    units: batch.len(),
                    dup: true,
                },
                None,
            ));
        }
        if client_seq != last.client_seq + 1 {
            return Err(wire(
                ErrCode::SeqGap,
                format!(
                    "expected seq {} or {}",
                    last.client_seq,
                    last.client_seq + 1
                ),
            ));
        }
        let _span = incgraph_obs::span("service.apply");
        let (wal_seq, applied) = match &mut entry.backend {
            Backend::Memory { graph: g, seq } => {
                let applied = batch
                    .apply_validated(g)
                    .map_err(|e| wire(ErrCode::InvalidBatch, e.to_string()))?;
                *seq += 1;
                committed(*seq);
                let wal_seq = *seq;
                let ack = AckRecord {
                    client_seq,
                    wal_seq,
                };
                entry.acks.insert(token.to_string(), ack);
                (wal_seq, applied)
            }
            Backend::Durable { .. } => {
                self.commit_durable(graph, Some((token, client_seq)), batch, committed)?
            }
        };
        incgraph_obs::counter("service.batches", 1);
        Ok((
            Ack {
                client_seq,
                wal_seq,
                units: batch.len(),
                dup: false,
            },
            Some(applied),
        ))
    }

    /// The durable commit client batches and shipped records share: the
    /// degraded check, then [`DurableSession::apply_with`] with the
    /// dedup intent of `identity` (the client's, or the one a ship
    /// carries) fsynced before the WAL record, then the ack-table entry.
    /// `committed` is `apply_with`'s commit-point hook. Returns the
    /// batch's WAL sequence and effective ΔG.
    fn commit_durable(
        &mut self,
        graph: &str,
        identity: Option<(&str, u64)>,
        batch: &UpdateBatch,
        committed: impl FnOnce(u64),
    ) -> Result<(u64, AppliedBatch), UpdateError> {
        if self.degraded {
            return Err(UpdateError::Wire(
                ErrCode::ReadOnly,
                "store is in degraded read-only mode after a WAL failure".into(),
            ));
        }
        let (session, dedup, acks) = self.durable_mut(graph)?;
        let pre_commit = |wal_seq| match identity {
            Some((token, client_seq)) => dedup.append(token, client_seq, wal_seq),
            None => Ok(()),
        };
        match session.apply_with(batch, pre_commit, committed) {
            Ok((_, applied)) => {
                let wal_seq = session.last_seq();
                if let Some((token, client_seq)) = identity {
                    let ack = AckRecord {
                        client_seq,
                        wal_seq,
                    };
                    acks.insert(token.to_string(), ack);
                }
                Ok((wal_seq, applied))
            }
            Err(DurableError::InvalidBatch(e)) => {
                Err(UpdateError::Wire(ErrCode::InvalidBatch, e.to_string()))
            }
            Err(DurableError::InjectedCrash(p)) => Err(UpdateError::Crashed(p)),
            Err(e) => {
                // Real I/O or corruption: the in-memory graph was rolled
                // back, but trust in the log is gone — degrade to
                // read-only for the process lifetime.
                degrade(&mut self.degraded, &e);
                Err(UpdateError::Wire(
                    ErrCode::Store,
                    format!("{e}; store degraded to read-only"),
                ))
            }
        }
    }

    /// The notification half of [`apply_update`]: runs every maintained
    /// view's incremental update once over the net ΔG of `batches`
    /// ([`coalesce::net`](incgraph_core::coalesce::net), the rule the
    /// durable state pass uses too), fanned out over the store's cores
    /// when that ΔG has at least [`FAN_OUT_UNITS`] units and the graph two
    /// views. It then pushes one `DELTA` per standing query whose view
    /// changed and ticks every plan from the same deltas, stamped with the
    /// graph's current committed sequence — from then on the sequence
    /// `QUERY` and `PLANQ` report. The result does not depend on the
    /// fan-out.
    /// `batches` must be the *effective* applied ops of consecutive
    /// committed batches, oldest first, with none skipped — their net
    /// batch is equivalent by construction, so each view does one bounded
    /// incremental step instead of one per batch, and cancelling units
    /// never reach it.
    pub fn notify_queries(&mut self, graph: &str, batches: &[AppliedBatch]) {
        let Some(entry) = self.graphs.get_mut(graph) else {
            return;
        };
        let wal_seq = entry.backend.seq();
        entry.views_seq = wal_seq;
        if batches.is_empty() || (entry.queries.is_empty() && entry.plans.is_empty()) {
            return;
        }
        let _notify = incgraph_obs::span("service.notify");
        let g = entry.backend.graph();
        let applied = incgraph_core::coalesce::net(g.is_directed(), batches);
        // One fixpoint per distinct view, however many subscribe to it.
        let workers = if applied.len() >= FAN_OUT_UNITS {
            self.cores.min(entry.views.len()).max(1)
        } else {
            1
        };
        incgraph_obs::observe("service.notify_workers", workers as u64);
        let deltas = update_views(&mut entry.views, g, &applied, workers);
        incgraph_obs::counter("service.view_updates", deltas.len() as u64);
        let max_entries = self.limits.max_delta_entries;
        for ((_, qid), q) in entry.queries.iter() {
            // The session's typed delta: O(|Δoutput|) per subscriber.
            let delta = &deltas[&q.view];
            if delta.resync.is_none() && delta.changes.is_empty() {
                continue;
            }
            let _cls = incgraph_obs::class_scope(q.view.class.name());
            let len = entry.views[&q.view].session.output().digest_len();
            if delta.resync.is_some() || delta.changes.len() > max_entries {
                // Digest geometry changed (BC's bridge list can grow) or
                // the diff is too large to ship: positional diffs are
                // meaningless or uneconomical, ask for a re-QUERY.
                q.out.push_delta(qid, wal_seq, None, len);
            } else {
                let changed: BTreeMap<u32, u64> =
                    delta.changes.iter().map(|c| (c.index, c.new)).collect();
                incgraph_obs::observe("service.delta_entries", changed.len() as u64);
                q.out.push_delta(qid, wal_seq, Some(changed), len);
            }
        }
        // Standing plans tick after the class queries: one DAG
        // propagation per plan from its members' deltas, notified as a
        // `VDELTA` of weighted view rows (empty ticks stay silent, like
        // unchanged digests).
        for ((_, qid), p) in entry.plans.iter_mut() {
            let delta = p.dag.tick(g, p.members.iter().map(|k| &deltas[k]));
            if delta.is_empty() {
                continue;
            }
            incgraph_obs::observe("service.vdelta_rows", delta.len() as u64);
            p.out
                .push_line(format_view_rows("VDELTA", qid, wal_seq, delta.rows()));
        }
    }

    /// Whether durable writes are refused.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Checkpoints every durable graph (graceful shutdown). Best-effort:
    /// failures degrade the store but the drain continues.
    pub fn checkpoint_all(&mut self) {
        for entry in self.graphs.values_mut() {
            if let Backend::Durable { session, .. } = &mut entry.backend {
                if let Err(e) = session.checkpoint() {
                    degrade(&mut self.degraded, &e);
                }
            }
        }
    }

    /// `(graphs, standing queries)` for `STATUS`.
    pub fn counts(&self) -> (usize, usize) {
        (
            self.graphs.len(),
            self.graphs
                .values()
                .map(|e| e.queries.len() + e.plans.len())
                .sum(),
        )
    }

    /// Arms a one-shot crash injection on the named durable graph (the
    /// chaos harness's in-process "kill -9 mid-commit").
    pub fn arm_crash(&mut self, graph: &str, point: Option<CrashPoint>) -> bool {
        match self.graphs.get_mut(graph) {
            Some(GraphEntry {
                backend: Backend::Durable { session, .. },
                ..
            }) => {
                session.arm_crash(point);
                true
            }
            _ => false,
        }
    }

    /// The store's resource caps.
    pub fn limits(&self) -> &StoreLimits {
        &self.limits
    }

    // --- replication -----------------------------------------------------

    /// The durable graph `graph`'s session and ack table, or the refusal
    /// of an unknown or in-memory name.
    pub(crate) fn durable(
        &self,
        graph: &str,
    ) -> Result<(&DurableSession, &HashMap<String, AckRecord>), WireError> {
        match self.graphs.get(graph) {
            Some(GraphEntry {
                backend: Backend::Durable { session, .. },
                acks,
                ..
            }) => Ok((session, acks)),
            Some(_) => Err((ErrCode::BadCommand, format!("{graph} is not durable"))),
            None => Err((ErrCode::UnknownGraph, format!("no graph {graph}"))),
        }
    }

    /// [`durable`](Self::durable) for writing, with the dedup log.
    fn durable_mut(&mut self, graph: &str) -> Result<DurableParts<'_>, WireError> {
        self.durable(graph)?;
        match self.graphs.get_mut(graph) {
            Some(GraphEntry {
                backend: Backend::Durable { session, dedup },
                acks,
                ..
            }) => Ok((session, dedup, acks)),
            _ => unreachable!("checked above"),
        }
    }

    /// Replication-facing view of the durable graph `name`; `None` for
    /// unknown or non-durable graphs.
    pub fn repl_info(&self, graph: &str) -> Option<ReplInfo> {
        self.durable(graph).ok().map(|(s, _)| ReplInfo::of(s))
    }

    /// `(last_seq, digest)` of the durable graph — the divergence probe's
    /// payload on both ends. A writer's call: the digest reads the
    /// built-in states, so it catches them up first
    /// ([`DurableSession::catch_up`]).
    pub fn repl_digest(&mut self, graph: &str) -> Option<(u64, String)> {
        let (session, ..) = self.durable_mut(graph).ok()?;
        Some((session.last_seq(), session.digest()))
    }

    /// Brings the durable graph's built-in states current
    /// ([`DurableSession::catch_up`]); a no-op for an in-memory or
    /// unknown graph.
    pub fn catch_up(&mut self, graph: &str) {
        if let Ok((session, ..)) = self.durable_mut(graph) {
            session.catch_up();
        }
    }

    /// CRC of the WAL record at `seq` (recomputed from the scanned
    /// batch), or `None` when `seq` precedes the retained tail or was
    /// never logged. Both the replica (announcing its position in `SYNC`)
    /// and the primary (validating that announcement) use this.
    pub fn record_crc(&self, graph: &str, seq: u64) -> Option<u32> {
        let (session, _) = self.durable(graph).ok()?;
        if seq <= session.base_seq() || seq > session.last_seq() {
            return None;
        }
        wal_tail(session)
            .ok()?
            .iter()
            .find(|r| r.seq == seq)
            .map(|r| record_crc_of(r.seq, &r.batch))
    }

    /// Promotion's commit point: durably bumps the durable graph's epoch.
    pub fn bump_epoch(&mut self, graph: &str) -> Result<u64, WireError> {
        let (session, ..) = self.durable_mut(graph)?;
        session
            .bump_epoch()
            .map_err(|e| (ErrCode::Store, e.to_string()))
    }

    /// Adopts a primary's (higher) epoch on a tailing replica.
    pub fn adopt_epoch(&mut self, graph: &str, epoch: u64) -> Result<(), WireError> {
        let (session, ..) = self.durable_mut(graph)?;
        session
            .adopt_epoch(epoch)
            .map_err(|e| (ErrCode::Store, e.to_string()))
    }

    /// Encodes the durable graph's live world as a bootstrap snapshot:
    /// the checkpoint payload covering `last_seq` plus the current ack
    /// table (latest entry per token, WAL order) for `SNAPACK` shipping.
    pub fn encode_snapshot(&mut self, graph: &str) -> Option<(u64, Vec<u8>, Vec<DedupEntry>)> {
        let (session, _, acks) = self.durable_mut(graph).ok()?;
        let mut acks: Vec<DedupEntry> = acks
            .iter()
            .map(|(token, rec)| DedupEntry {
                wal_seq: rec.wal_seq,
                client_seq: rec.client_seq,
                token: token.clone(),
            })
            .collect();
        acks.sort_by_key(|e| e.wal_seq);
        Some((session.last_seq(), session.encode_snapshot(), acks))
    }

    /// Reads the catch-up tail for a replica at `from_seq`: every
    /// retained WAL record with `seq > from_seq` (raw record bytes, ready
    /// for `SHIP`), each joined with the client identity its dedup intent
    /// recorded, plus the CRC of the record *at* `from_seq` so the caller
    /// can validate the replica's announced position.
    pub fn wal_catchup(
        &self,
        graph: &str,
        from_seq: u64,
    ) -> Result<(Option<u32>, Vec<ShipRecord>), WireError> {
        let (session, _) = self.durable(graph)?;
        let records = wal_tail(session).map_err(|e| (ErrCode::Store, format!("wal read: {e}")))?;
        let identities: HashMap<u64, (String, u64)> =
            dedup::scan_entries(session.dir(), session.last_seq())
                .map_err(|e| (ErrCode::Store, format!("dedup scan: {e}")))?
                .into_iter()
                .map(|e| (e.wal_seq, (e.token, e.client_seq)))
                .collect();
        let mut crc_at_from = None;
        let mut ships = Vec::new();
        for r in &records {
            if r.seq == from_seq {
                crc_at_from = Some(record_crc_of(r.seq, &r.batch));
            } else if r.seq > from_seq {
                ships.push(ShipRecord {
                    seq: r.seq,
                    identity: identities.get(&r.seq).cloned(),
                    record: encode_record(r.seq, &r.batch),
                });
            }
        }
        Ok((crc_at_from, ships))
    }

    /// Applies one shipped record on a replica, through the same
    /// validated/WAL-fsynced path client updates take. `seq` must be
    /// exactly the next expected sequence (ships arrive in order; a gap
    /// means the stream is broken and the replica must resync). The
    /// shipped client identity lands in the dedup log and ack table so
    /// client retries stay exactly-once across failover.
    pub fn apply_replicated(
        &mut self,
        graph: &str,
        seq: u64,
        identity: Option<(&str, u64)>,
        batch: &UpdateBatch,
    ) -> Result<AppliedBatch, UpdateError> {
        let last = self.durable(graph)?.0.last_seq();
        if seq != last + 1 {
            return Err(UpdateError::Wire(
                ErrCode::SeqGap,
                format!("replica at {last}, ship at {seq}"),
            ));
        }
        let _span = incgraph_obs::span("repl.apply");
        let (_, applied) = self.commit_durable(graph, identity, batch, |_| {})?;
        incgraph_obs::counter("repl.ship_records", 1);
        Ok(applied)
    }

    /// Replaces the durable graph's world with a shipped snapshot
    /// (bootstrap or divergence resync): installs the payload as the new
    /// base, adopts `epoch`, resets the dedup log and ack table to the
    /// shipped entries, and rebuilds every standing query from scratch
    /// over the new graph, pushing each a `resync` DELTA.
    ///
    /// On failure the graph is unmounted and the store degraded — the
    /// half-installed world must not serve.
    pub fn adopt_snapshot(
        &mut self,
        graph: &str,
        payload: &[u8],
        epoch: u64,
        acks: &[DedupEntry],
    ) -> Result<u64, WireError> {
        self.durable(graph)?;
        let mut entry = self.graphs.remove(graph).expect("checked above");
        let Backend::Durable { session, mut dedup } = entry.backend else {
            unreachable!("checked above");
        };
        let mut sorted: Vec<DedupEntry> = acks.to_vec();
        sorted.sort_by_key(|e| e.wal_seq);
        let session = match session
            .install_snapshot(payload, epoch)
            .and_then(|s| dedup.reset(&sorted).map(|()| s))
        {
            Ok(s) => s,
            Err(e) => {
                // The old session was consumed; there is no world to go
                // back to. Leave the graph unmounted and refuse writes.
                degrade(&mut self.degraded, &e);
                return Err((ErrCode::Store, format!("snapshot install failed: {e}")));
            }
        };
        let covered = session.last_seq();
        entry.acks = sorted
            .into_iter()
            .map(|e| {
                (
                    e.token,
                    AckRecord {
                        client_seq: e.client_seq,
                        wal_seq: e.wal_seq,
                    },
                )
            })
            .collect();
        // Rebuild every view once over the new world; its old incremental
        // state describes dead history. Each subscriber is then told to
        // resync: a query by a `resync` DELTA, a plan by its full view.
        let g = session.graph();
        let mut rebuilt = BTreeSet::new();
        for (&key, view) in entry.views.iter_mut() {
            if let Ok(s) = key.build(g) {
                view.session = s;
                rebuilt.insert(key);
            }
        }
        entry.views_seq = covered;
        for ((_, qid), q) in entry.queries.iter() {
            if rebuilt.contains(&q.view) {
                let len = entry.views[&q.view].session.output().digest_len();
                q.out.push_delta(qid, covered, None, len);
            }
        }
        for ((_, qid), p) in entry.plans.iter_mut() {
            if p.members.iter().all(|k| rebuilt.contains(k)) {
                let mut dag = PlanDag::new(p.dag.plan().clone());
                prime(&mut dag, &p.members, &entry.views, g);
                p.out
                    .push_line(format_view_rows("VIEW", qid, covered, &dag.view()));
                p.dag = dag;
            }
        }
        entry.backend = Backend::Durable { session, dedup };
        entry.view_gauges();
        self.graphs.insert(graph.to_string(), entry);
        Ok(covered)
    }
}

/// Replication-facing facts about a durable graph.
#[derive(Clone, Copy, Debug)]
pub struct ReplInfo {
    /// Durable replication epoch.
    pub epoch: u64,
    /// Sequence the retained WAL tail starts after.
    pub base_seq: u64,
    /// Last committed sequence.
    pub last_seq: u64,
    /// Graph directedness (shape validation in `SYNC`).
    pub directed: bool,
    /// Graph node count (shape validation in `SYNC`).
    pub nodes: usize,
}

impl ReplInfo {
    /// The facts of a durable graph's session.
    pub(crate) fn of(session: &DurableSession) -> ReplInfo {
        ReplInfo {
            epoch: session.epoch(),
            base_seq: session.base_seq(),
            last_seq: session.last_seq(),
            directed: session.graph().is_directed(),
            nodes: session.graph().node_count(),
        }
    }
}

/// One catch-up record ready to ship: raw WAL record bytes plus the
/// client identity its dedup intent recorded (if any).
#[derive(Clone, Debug)]
pub struct ShipRecord {
    /// WAL sequence.
    pub seq: u64,
    /// `(token, client_seq)` the batch committed under.
    pub identity: Option<(String, u64)>,
    /// Full encoded WAL record (self-validating).
    pub record: Vec<u8>,
}

/// CRC of the WAL record `(seq, batch)` as stored on disk — recomputed
/// through [`encode_record`], whose layout places it at bytes 12..16.
pub fn record_crc_of(seq: u64, batch: &UpdateBatch) -> u32 {
    let bytes = encode_record(seq, batch);
    u32::from_le_bytes(bytes[12..16].try_into().expect("record header"))
}

/// Pattern seed the durable store's built-in states use; the chaos
/// harness must build its reference with the same seed.
pub const DURABLE_PATTERN_SEED: u64 = 0x1A2B3C4D;

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_workloads::random_batch;
    use std::time::Duration;

    const GRAPH: &str = "g";
    const NODES: usize = 2_000;
    const NEAR: &str = "d = sssp(source=0); c = cc; j = join(d, c, val=left); \
                        near = filter(j, val < 40); n = count(near)";

    /// A store whose graph holds a seeded random graph, subscribed by
    /// sssp, cc, sim and reach plus plan `near` (four distinct views),
    /// with a 512-unit batch committed but not yet notified. Deltas of
    /// any width are enumerated, so the lines carry every change.
    fn fixture() -> (Store, Arc<Outbound>, AppliedBatch) {
        let limits = StoreLimits {
            max_delta_entries: usize::MAX,
            ..StoreLimits::default()
        };
        let mut store = Store::new(limits);
        store.open_graph(GRAPH, NODES, false).unwrap();
        let mut shadow = DynamicGraph::new(false, NODES);
        let load = random_batch(&shadow, 4_000, 1.0, 20, 1);
        load.apply(&mut shadow);
        store.apply_update(GRAPH, "w", 1, &load).unwrap();
        let out = Arc::new(Outbound::new(1 << 16, 1 << 17, usize::MAX));
        for (qid, class) in [("d", "sssp"), ("c", "cc"), ("s", "sim"), ("r", "reach")] {
            let out = Arc::clone(&out);
            store.register(1, qid, GRAPH, class, 0, 7, out).unwrap();
        }
        store
            .register_plan(1, "near", GRAPH, 7, NEAR, Arc::clone(&out))
            .unwrap();
        while out.pop(Duration::ZERO).is_some() {}
        let batch = random_batch(&shadow, 512, 0.5, 20, 2);
        let (_, applied) = store.apply_update_deferred(GRAPH, "w", 2, &batch).unwrap();
        let applied = applied.unwrap();
        assert!(applied.len() >= FAN_OUT_UNITS, "the batch opens the gate");
        assert_eq!(store.graphs[GRAPH].views.len(), 4);
        (store, out, applied)
    }

    /// What one notify pass on `k` workers produces: every view's delta
    /// and digest from [`update_views`], and every line a full pass
    /// pushes followed by each query's answer.
    fn pass(k: usize) -> (BTreeMap<ViewKey, OutputDelta>, Vec<Vec<u64>>, Vec<String>) {
        let (mut store, _, applied) = fixture();
        let entry = store.graphs.get_mut(GRAPH).unwrap();
        let deltas = update_views(&mut entry.views, entry.backend.graph(), &applied, k);
        let digests = entry
            .views
            .values()
            .map(|v| v.session.output().to_digest())
            .collect();

        let (mut store, out, applied) = fixture();
        store.cores = k;
        store.notify_queries(GRAPH, &[applied]);
        let mut lines = Vec::new();
        while let Some(msg) = out.pop(Duration::ZERO) {
            lines.push(msg.render());
        }
        for qid in ["d", "c", "s", "r"] {
            lines.push(format!("{:?}", store.query(1, qid).unwrap()));
        }
        (deltas, digests, lines)
    }

    /// The fan-out gate's crossover: the view updates of one notify
    /// pass ([`update_views`], the part the gate fans out), serial against
    /// fanned out over the host's cores, per effective `|ΔG|`. Two stores
    /// carry bulk-delta's graph (the LiveJournal stand-in at scale 2.5,
    /// loaded over the wire path) and views (sssp, cc, sim, reach) and
    /// take the same batches; which runs first alternates. Prints the
    /// medians. Run with `cargo test --release -p incgraph-service --lib
    /// notify_crossover -- --ignored --nocapture`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn notify_crossover() {
        use incgraph_workloads::Dataset;
        use std::time::Instant;
        const REPS: usize = 31;
        let base = Dataset::LiveJournal.graph(false, 2.5);
        let n = base.node_count();
        let edges: Vec<_> = base.edges().collect();
        let mut stores = [0, 1].map(|_| {
            let mut store = Store::new(StoreLimits::default());
            store.open_graph(GRAPH, n, false).unwrap();
            for (seq, chunk) in edges.chunks(4096).enumerate() {
                let mut load = UpdateBatch::new();
                for &(u, v, w) in chunk {
                    load.insert(u, v, w);
                }
                store
                    .apply_update(GRAPH, "w", seq as u64 + 1, &load)
                    .unwrap();
            }
            for (qid, class) in [("d", "sssp"), ("c", "cc"), ("s", "sim"), ("r", "reach")] {
                let out = Arc::new(Outbound::new(1, 1, 1));
                store.register(1, qid, GRAPH, class, 0, 1, out).unwrap();
            }
            store
        });
        let mut shadow = stores[0].graphs[GRAPH].backend.graph().clone();
        let mut seq = edges.len().div_ceil(4096) as u64;
        let cores = stores[0].cores;
        println!("|ΔG|  serial_us  fanned_us({cores})  ratio");
        for units in [16, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
            let mut us = [Vec::new(), Vec::new()];
            for rep in 0..REPS {
                let batch = random_batch(&shadow, units, 0.5, 100, seq);
                batch.apply(&mut shadow);
                seq += 1;
                for i in [rep % 2, 1 - rep % 2] {
                    let store = &mut stores[i];
                    let (_, applied) = store
                        .apply_update_deferred(GRAPH, "w", seq, &batch)
                        .unwrap();
                    let entry = store.graphs.get_mut(GRAPH).unwrap();
                    let workers = if i == 0 {
                        1
                    } else {
                        cores.min(entry.views.len())
                    };
                    let t = Instant::now();
                    update_views(
                        &mut entry.views,
                        entry.backend.graph(),
                        &applied.unwrap(),
                        workers,
                    );
                    us[i].push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            let [serial, fanned] = us.map(|mut v| {
                v.sort_by(f64::total_cmp);
                v[REPS / 2]
            });
            println!(
                "{units:>5}  {serial:>9.0}  {fanned:>12.0}  {:>5.2}",
                fanned / serial
            );
        }
    }

    /// A client batch with churn reaches a memory graph's views net: the
    /// `cc` view's essence equals, byte for byte, that of a session fed
    /// the batch's coalesced form. Fed the raw batch, the view's stamps
    /// would differ.
    #[test]
    fn a_memory_graphs_views_see_the_net_batch() {
        let mut store = Store::new(StoreLimits::default());
        store.open_graph(GRAPH, 11, false).unwrap();
        // Components {0, 3, 5, 7, 10}, {1, 4, 6, 8, 9} and {2}.
        let mut load = UpdateBatch::new();
        for (u, v) in [
            (0, 5),
            (0, 7),
            (1, 8),
            (1, 9),
            (3, 10),
            (4, 9),
            (6, 9),
            (7, 10),
        ] {
            load.insert(u, v, 1);
        }
        store.apply_update(GRAPH, "w", 1, &load).unwrap();
        let out = Arc::new(Outbound::new(1 << 10, 1 << 11, usize::MAX));
        store.register(1, "c", GRAPH, "cc", 0, 7, out).unwrap();
        let mut g = store.graphs[GRAPH].backend.graph().clone();
        let mut reference = Session::builder(QueryClass::Cc).build(&g).unwrap();

        // A bridge 6-0 comes and goes; 1-3 joins the two components.
        let mut churn = UpdateBatch::new();
        churn.insert(6, 0, 1).delete(6, 0).insert(1, 3, 1);
        store.apply_update(GRAPH, "w", 2, &churn).unwrap();
        let applied = churn.apply(&mut g);
        let net = incgraph_core::coalesce_batches(false, [&applied]);
        assert_eq!(net.len(), 1);
        reference.update_guarded(&g, &net);
        let view = store.graphs[GRAPH].views.values().next().unwrap();
        assert_eq!(view.session.save_state(), reference.save_state());
    }

    #[test]
    fn the_worker_count_does_not_change_a_notify_pass() {
        let serial = pass(1);
        let (deltas, _, lines) = &serial;
        assert_eq!(deltas.len(), 4);
        assert!(deltas.values().all(|d| !d.changes.is_empty()));
        assert_eq!(lines.iter().filter(|l| l.starts_with("DELTA ")).count(), 4);
        assert!(lines.iter().any(|l| l.starts_with("VDELTA near ")));
        for k in [2, 4] {
            assert!(pass(k) == serial, "{k} workers changed the pass");
        }
    }
}
