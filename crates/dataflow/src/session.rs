//! [`DataflowSession`]: a standing plan wired to live query-class
//! sessions.
//!
//! Building one instantiates a member [`Session`] per distinct class
//! source in the plan and primes every operator with the classes'
//! initial outputs. Each [`apply`](DataflowSession::apply) then runs one
//! **tick**: the committed ΔG is pushed through every member session
//! (`update_guarded`), the resulting typed [`OutputDelta`]s are lowered
//! to z-set deltas, and those propagate through the DAG in binding
//! order — shared sub-plans evaluate exactly once per tick because every
//! binding's output delta is computed once and read by all its
//! consumers. The returned root delta is what the wire layer ships as a
//! view notification; [`view`](DataflowSession::view) is the
//! consolidated root collection.
//!
//! [`OutputDelta`]: incgraph_algos::OutputDelta

use crate::ops::{expr_inputs, states_for, Coll, OpState, Rows};
use crate::plan::{Expr, Plan, PlanParseError, Source};
use incgraph_algos::{IncrementalState, QueryClass, Session, SessionError};
use incgraph_graph::{AppliedBatch, DynamicGraph, Pattern};
use std::fmt;

/// Ambient inputs a plan text cannot carry: the Sim pattern.
#[derive(Clone, Debug, Default)]
pub struct PlanContext {
    /// Pattern for `sim` sources; building a plan that mentions `sim`
    /// without one fails with [`DataflowError::Session`]
    /// (`MissingPattern`).
    pub pattern: Option<Pattern>,
    /// Ignored: there is one fixpoint engine and it is single-threaded.
    /// The field survives only because the frozen `benchmark/` package
    /// names it in a struct literal (see ROADMAP's deletion ledger).
    pub threads: usize,
}

/// Why a dataflow session could not be built.
#[derive(Debug)]
pub enum DataflowError {
    /// The plan text was rejected.
    Parse(PlanParseError),
    /// A member class session refused to build.
    Session(SessionError),
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::Parse(e) => write!(f, "{e}"),
            DataflowError::Session(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DataflowError {}

impl From<PlanParseError> for DataflowError {
    fn from(e: PlanParseError) -> Self {
        DataflowError::Parse(e)
    }
}

impl From<SessionError> for DataflowError {
    fn from(e: SessionError) -> Self {
        DataflowError::Session(e)
    }
}

/// Nodes per priming pass: the initial outputs stream through the DAG
/// in chunks of this many nodes, so building a plan holds one chunk of
/// rows per binding, not one `|V|`-row delta.
const PRIME_CHUNK: usize = 1024;

/// A standing dataflow query: the plan, its member class sessions, the
/// per-binding operator states, and the materialized root view.
pub struct DataflowSession {
    plan: Plan,
    /// One live session per distinct `Source::Class` in the plan, with
    /// the binding whose buffer receives its rows.
    members: Vec<(Session, usize)>,
    /// The binding whose buffer receives the `labels` rows, if the plan
    /// reads them.
    labels_at: Option<usize>,
    /// Nodes already emitted by the `labels` source.
    label_nodes: usize,
    states: Vec<OpState>,
    /// Binding → the buffer holding its output: its own, except that a
    /// source named by several bindings is held once, by the first.
    home: Vec<usize>,
    /// Per-binding output rows of the current tick. Kept across ticks,
    /// so a warm tick allocates nothing.
    bufs: Vec<Rows>,
    view: Coll,
    ticks: u64,
}

impl DataflowSession {
    /// Builds the member sessions and primes the DAG with the classes'
    /// initial outputs, so [`view`](Self::view) is correct before any
    /// update.
    pub fn build(
        plan: Plan,
        g: &DynamicGraph,
        ctx: &PlanContext,
    ) -> Result<DataflowSession, DataflowError> {
        let bindings = plan.bindings();
        let first_of = |expr: Expr| {
            let at = bindings.iter().position(|b| b.expr == expr);
            at.expect("the expression is one of the plan's bindings")
        };
        let mut members = Vec::new();
        let mut labels_at = None;
        for src in plan.sources() {
            let at = first_of(Expr::Source(src));
            match src {
                Source::Labels => labels_at = Some(at),
                Source::Class { class, source } => {
                    let mut b = Session::builder(class);
                    if let Some(s) = source {
                        b = b.source(s);
                    }
                    if class == QueryClass::Sim {
                        if let Some(p) = &ctx.pattern {
                            b = b.pattern(p.clone());
                        }
                    }
                    members.push((b.build(g)?, at));
                }
            }
        }
        let home = (0..bindings.len())
            .map(|i| match bindings[i].expr {
                src @ Expr::Source(_) => first_of(src),
                _ => i,
            })
            .collect();
        let mut df = DataflowSession {
            states: states_for(&plan),
            bufs: vec![Rows::new(); bindings.len()],
            plan,
            members,
            labels_at,
            label_nodes: 0,
            home,
            view: Coll::new(),
            ticks: 0,
        };
        // Prime: every initial row enters as a +1 delta, flowing through
        // the same propagation path updates will use, a chunk of nodes
        // at a time. An empty graph still takes one pass, so the
        // aggregates emit their initial row.
        let nodes = g.node_count();
        for lo in (0..nodes.max(1)).step_by(PRIME_CHUNK) {
            let hi = (lo + PRIME_CHUNK).min(nodes);
            for (session, at) in &df.members {
                let (out, rows) = (session.output(), &mut df.bufs[*at]);
                rows.clear();
                for v in lo..hi {
                    rows.push(v as u64, out.node_value(v), 1);
                }
            }
            df.label_rows(g, hi);
            df.propagate();
        }
        incgraph_obs::gauge("dataflow.state_bytes", df.state_bytes() as u64);
        Ok(df)
    }

    /// Parses and builds in one step (the wire `PLAN` / CLI path).
    pub fn from_text(
        text: &str,
        g: &DynamicGraph,
        ctx: &PlanContext,
    ) -> Result<DataflowSession, DataflowError> {
        DataflowSession::build(Plan::parse(text)?, g, ctx)
    }

    /// The plan this session stands for.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Ticks applied so far (excluding the priming pass).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// One tick: push a committed ΔG through every member session and
    /// the DAG; returns the root view's delta (empty when the update did
    /// not move the view), valid until the next tick.
    pub fn apply(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> &Rows {
        let _span = incgraph_obs::span("dataflow.tick");
        incgraph_obs::counter("dataflow.ticks", 1);
        self.ticks += 1;
        for (session, at) in &mut self.members {
            let delta = session.update_guarded(g, applied).delta;
            let rows = &mut self.bufs[*at];
            rows.clear();
            // One retraction and one insertion per changed node, nodes
            // ascending and the lower value first: canonical as pushed.
            for nc in &delta.nodes {
                let node = nc.node as u64;
                match nc.old {
                    Some(old) if old < nc.new => {
                        rows.push(node, old, -1);
                        rows.push(node, nc.new, 1);
                    }
                    Some(old) => {
                        rows.push(node, nc.new, 1);
                        rows.push(node, old, -1);
                    }
                    None => rows.push(node, nc.new, 1),
                }
            }
        }
        self.label_rows(g, g.node_count());
        self.propagate()
    }

    /// The materialized root view: sorted `(key, value, multiplicity)`
    /// rows.
    pub fn view(&self) -> Vec<(u64, u64, i64)> {
        self.view.to_rows()
    }

    /// Resident bytes of the standing plan: the member class states
    /// plus [`state_bytes`](Self::state_bytes) — the plan-layer twin of
    /// `IncrementalState::space_bytes` (Fig. 8).
    pub fn space_bytes(&self) -> usize {
        let members = self.members.iter().map(|(s, _)| s.space_bytes());
        members.sum::<usize>() + self.state_bytes()
    }

    /// Bytes the dataflow layer itself holds for the plan: operator
    /// states, the per-binding tick buffers and the root view.
    pub fn state_bytes(&self) -> usize {
        self.states.capacity() * size_of::<OpState>()
            + self.states.iter().map(OpState::space_bytes).sum::<usize>()
            + self.bufs.capacity() * size_of::<Rows>()
            + self.bufs.iter().map(Rows::space_bytes).sum::<usize>()
            + self.home.capacity() * size_of::<usize>()
            + self.view.space_bytes()
    }

    /// `labels` source delta: rows for the nodes below `upto` that
    /// appeared since the last pass (labels are fixed at node creation;
    /// ΔG is edge-only).
    fn label_rows(&mut self, g: &DynamicGraph, upto: usize) {
        let Some(at) = self.labels_at else { return };
        let rows = &mut self.bufs[at];
        rows.clear();
        for v in self.label_nodes..upto {
            rows.push(v as u64, g.label(v as u32) as u64, 1);
        }
        self.label_nodes = upto;
    }

    /// Evaluates every operator once over the source rows already in
    /// their buffers, in definition (= topological) order, folds the
    /// root's output delta into the view and returns it.
    fn propagate(&mut self) -> &Rows {
        for (i, b) in self.plan.bindings().iter().enumerate() {
            let Some((first, second)) = expr_inputs(&b.expr) else {
                continue;
            };
            let (done, rest) = self.bufs.split_at_mut(i);
            let second = second.map(|j| &done[self.home[j]]);
            self.states[i].eval(&done[self.home[first]], second, &mut rest[0]);
        }
        let root = &self.bufs[self.home[self.plan.root()]];
        self.view.apply(root);
        root
    }
}

/// One-shot evaluation: build the plan over `g` and return the root
/// view (the CLI `incgraph query --plan` path).
pub fn eval_once(
    text: &str,
    g: &DynamicGraph,
    ctx: &PlanContext,
) -> Result<Vec<(u64, u64, i64)>, DataflowError> {
    Ok(DataflowSession::from_text(text, g, ctx)?.view())
}
