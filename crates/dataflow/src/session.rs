//! [`DataflowSession`]: a standing plan wired to class sessions of its
//! own.
//!
//! A thin owner: building one instantiates a member [`Session`] per
//! distinct class source in the plan and primes a [`PlanDag`] with their
//! initial outputs. Each [`apply`](DataflowSession::apply) runs one
//! **tick**: the committed ΔG is pushed through every member session
//! (`update_guarded`) and the resulting typed [`OutputDelta`]s tick the
//! DAG. The returned root delta is what the wire layer ships as a view
//! notification; [`view`](DataflowSession::view) is the consolidated
//! root collection.
//!
//! [`OutputDelta`]: incgraph_algos::OutputDelta

use crate::dag::PlanDag;
use crate::ops::Rows;
use crate::plan::{Plan, PlanParseError};
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

/// A standing dataflow query: the plan's [`PlanDag`] plus one live class
/// session per member.
pub struct DataflowSession {
    dag: PlanDag,
    /// In [`PlanDag::members`] order.
    members: Vec<Session>,
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
        let mut dag = PlanDag::new(plan);
        let members = dag
            .members()
            .map(|(class, source)| {
                let mut b = Session::builder(class);
                if let Some(s) = source {
                    b = b.source(s);
                }
                if class == QueryClass::Sim {
                    if let Some(p) = &ctx.pattern {
                        b = b.pattern(p.clone());
                    }
                }
                b.build(g)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let outputs: Vec<_> = members.iter().map(Session::output).collect();
        dag.prime(g, &outputs);
        Ok(DataflowSession { dag, members })
    }

    /// Parses and builds in one step (the wire `PLAN` / CLI path).
    pub fn from_text(
        text: &str,
        g: &DynamicGraph,
        ctx: &PlanContext,
    ) -> Result<DataflowSession, DataflowError> {
        DataflowSession::build(Plan::parse(text)?, g, ctx)
    }

    /// One tick: push a committed ΔG through every member session and
    /// the DAG; returns the root view's delta (empty when the update did
    /// not move the view), valid until the next tick.
    pub fn apply(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> &Rows {
        let deltas = self
            .members
            .iter_mut()
            .map(|s| s.update_guarded(g, applied).delta);
        self.dag.tick(deltas)
    }

    /// The materialized root view: sorted `(key, value, multiplicity)`
    /// rows.
    pub fn view(&self) -> Vec<(u64, u64, i64)> {
        self.dag.view()
    }

    /// Resident bytes of the standing plan: the member class states
    /// plus [`state_bytes`](Self::state_bytes) — the plan-layer twin of
    /// `IncrementalState::space_bytes` (Fig. 8).
    pub fn space_bytes(&self) -> usize {
        let members = self.members.iter().map(Session::space_bytes);
        members.sum::<usize>() + self.state_bytes()
    }

    /// Bytes the dataflow layer itself holds for the plan:
    /// [`PlanDag::state_bytes`].
    pub fn state_bytes(&self) -> usize {
        self.dag.state_bytes()
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
