//! [`PlanDag`]: a plan's operators, fed by class outputs it does not own.
//!
//! The DAG reads each distinct class source of its plan (its
//! [`members`](PlanDag::members)) from whoever maintains that class:
//! [`prime`](PlanDag::prime) streams the members' current outputs
//! through every operator once, and each [`tick`](PlanDag::tick) lowers
//! the members' typed [`OutputDelta`]s to z-set rows and propagates them
//! in binding order — shared sub-plans evaluate exactly once per tick
//! because every binding's output delta is computed once and read by all
//! its consumers. A [`DataflowSession`](crate::DataflowSession) feeds it
//! from member sessions of its own; the service's store feeds it from
//! the class views its subscribers share.

use crate::ops::{expr_inputs, states_for, Coll, OpState, Rows};
use crate::plan::{Expr, Plan, Source};
use incgraph_algos::{OutputDelta, OutputSnapshot, QueryClass};
use incgraph_graph::{DynamicGraph, NodeId};
use std::borrow::Borrow;

/// Nodes per priming pass: the initial outputs stream through the DAG
/// in chunks of this many nodes, so priming a plan holds one chunk of
/// rows per binding, not one `|V|`-row delta.
const PRIME_CHUNK: usize = 1024;

/// One class source of the plan and the binding whose buffer receives
/// its rows.
struct Member {
    class: QueryClass,
    source: Option<NodeId>,
    at: usize,
}

/// A plan's operator states, per-binding tick buffers and materialized
/// root view. See the module docs.
pub struct PlanDag {
    plan: Plan,
    /// One per distinct `Source::Class`, in [`Plan::sources`] order.
    members: Vec<Member>,
    /// The binding whose buffer receives the `labels` rows, if the plan
    /// reads them.
    labels_at: Option<usize>,
    states: Vec<OpState>,
    /// Binding → the buffer holding its output: its own, except that a
    /// source named by several bindings is held once, by the first.
    home: Vec<usize>,
    /// Per-binding output rows of the current tick. Kept across ticks,
    /// so a warm tick allocates nothing.
    bufs: Vec<Rows>,
    view: Coll,
}

impl PlanDag {
    /// The unprimed DAG of `plan`: empty operator states and view.
    pub fn new(plan: Plan) -> PlanDag {
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
                Source::Class { class, source } => members.push(Member { class, source, at }),
            }
        }
        let home = (0..bindings.len())
            .map(|i| match bindings[i].expr {
                src @ Expr::Source(_) => first_of(src),
                _ => i,
            })
            .collect();
        PlanDag {
            states: states_for(&plan),
            bufs: vec![Rows::new(); bindings.len()],
            plan,
            members,
            labels_at,
            home,
            view: Coll::new(),
        }
    }

    /// The plan this DAG evaluates.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The class sources the DAG reads, as `(class, source)` — `source`
    /// is `Some` exactly for the source-rooted classes. [`prime`]
    /// (Self::prime) and [`tick`](Self::tick) take one output or delta
    /// per member, in this order.
    pub fn members(&self) -> impl Iterator<Item = (QueryClass, Option<NodeId>)> + '_ {
        self.members.iter().map(|m| (m.class, m.source))
    }

    /// Primes a fresh DAG with the members' current outputs, so
    /// [`view`](Self::view) is correct before any tick: every row enters
    /// as a `+1` delta through the same propagation path ticks use, a
    /// chunk of nodes at a time. An empty graph still takes one pass, so
    /// the aggregates emit their initial row.
    pub fn prime(&mut self, g: &DynamicGraph, outputs: &[OutputSnapshot<'_>]) {
        assert_eq!(outputs.len(), self.members.len(), "one output per member");
        let nodes = g.node_count();
        for lo in (0..nodes.max(1)).step_by(PRIME_CHUNK) {
            let hi = (lo + PRIME_CHUNK).min(nodes);
            for (m, out) in self.members.iter().zip(outputs) {
                let rows = &mut self.bufs[m.at];
                rows.clear();
                for v in lo..hi {
                    rows.push(v as u64, out.node_value(v), 1);
                }
            }
            if let Some(at) = self.labels_at {
                let rows = &mut self.bufs[at];
                rows.clear();
                for v in lo..hi {
                    rows.push(v as u64, g.label(v as u32) as u64, 1);
                }
            }
            self.propagate();
        }
        // Labels are fixed when the graph is built: they enter once, here,
        // and no tick carries a `labels` row.
        if let Some(at) = self.labels_at {
            self.bufs[at].clear();
        }
        incgraph_obs::gauge("dataflow.state_bytes", self.state_bytes() as u64);
    }

    /// One tick: lowers each member's delta of the committed ΔG (one per
    /// member, in [`members`](Self::members) order) and propagates them
    /// through the DAG; returns the root view's delta (empty when the
    /// view did not move), valid until the next tick.
    pub fn tick<D: Borrow<OutputDelta>>(&mut self, deltas: impl IntoIterator<Item = D>) -> &Rows {
        let _span = incgraph_obs::span("dataflow.tick");
        incgraph_obs::counter("dataflow.ticks", 1);
        let mut fed = 0;
        for (m, delta) in self.members.iter().zip(deltas) {
            let rows = &mut self.bufs[m.at];
            rows.clear();
            // One retraction and one insertion per changed node, nodes
            // ascending and the lower value first: canonical as pushed.
            for nc in &delta.borrow().nodes {
                let node = nc.node as u64;
                if nc.old < nc.new {
                    rows.push(node, nc.old, -1);
                    rows.push(node, nc.new, 1);
                } else {
                    rows.push(node, nc.new, 1);
                    rows.push(node, nc.old, -1);
                }
            }
            fed += 1;
        }
        assert_eq!(fed, self.members.len(), "one delta per member");
        self.propagate()
    }

    /// The materialized root view: sorted `(key, value, multiplicity)`
    /// rows.
    pub fn view(&self) -> Vec<(u64, u64, i64)> {
        self.view.to_rows()
    }

    /// Bytes the dataflow layer itself holds for the plan: operator
    /// states, the per-binding tick buffers and the root view — the
    /// members' class states excluded.
    pub fn state_bytes(&self) -> usize {
        self.states.capacity() * size_of::<OpState>()
            + self.states.iter().map(OpState::space_bytes).sum::<usize>()
            + self.bufs.capacity() * size_of::<Rows>()
            + self.bufs.iter().map(Rows::space_bytes).sum::<usize>()
            + self.home.capacity() * size_of::<usize>()
            + self.view.space_bytes()
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
