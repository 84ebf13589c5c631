//! Composable incremental dataflow over query-class outputs.
//!
//! The paper's deduced incremental algorithms maintain one relation per
//! query class — σ_x per node. This crate closes the loop *above* those
//! algorithms: class outputs become change streams ([`Delta`] /
//! [`DiffCollection`], §z-sets), a small operator algebra
//! (filter/map/join/count/sum/min/max/threshold) composes them into
//! views, and the `incgraph-plan/1` grammar ([`Plan`]) names such
//! compositions so they can stand on the wire (`PLAN`/`UNPLAN`/`PLANQ`),
//! in the CLI (`incgraph query --plan`), and under the differential
//! fuzzer (`incgraph fuzz --dataflow`).
//!
//! A plan's operators are a [`PlanDag`], primed from and ticked by the
//! outputs of class states it does not own; a [`DataflowSession`] owns
//! one class session per source and feeds its DAG from them, while the
//! service feeds standing plans from the class views its subscribers
//! share.
//!
//! The contract mirrors the engine's own: every operator's per-tick cost
//! is `O(|Δinput|)` (the extremum aggregates add a counted `O(n)` rescan
//! fallback when a retraction dethrones the cached extremum), and a
//! [`DataflowSession`]'s incrementally maintained view equals the view
//! built from scratch on the final graph — the property the dataflow
//! oracle checks across all seven classes.
//!
//! ```
//! use incgraph_dataflow::{DataflowSession, Plan, PlanContext};
//! use incgraph_graph::{DynamicGraph, UpdateBatch};
//!
//! let mut g = DynamicGraph::new(false, 5);
//! UpdateBatch::new().insert(0, 1, 1).insert(1, 2, 1).apply(&mut g);
//! let plan = Plan::parse("d = sssp(source=0); near = filter(d, val < 2); n = count(near)")
//!     .unwrap();
//! let mut df = DataflowSession::build(plan, &g, &PlanContext::default()).unwrap();
//! assert_eq!(df.view(), vec![(0, 2, 1)]); // two nodes within distance 2
//!
//! let mut g2 = g.clone();
//! let applied = UpdateBatch::new().insert(0, 4, 1).apply(&mut g2);
//! let delta = df.apply(&g2, &applied);
//! assert!(!delta.is_empty()); // node 4 entered the radius: count 2 → 3
//! assert_eq!(df.view(), vec![(0, 3, 1)]);
//! ```

mod dag;
mod delta;
mod ops;
mod plan;
mod session;

pub use dag::PlanDag;
pub use delta::{Delta, DiffCollection, Row};
pub use ops::{Coll, Rows};
pub use plan::{
    AggKind, ArithOp, Binding, Cmp, Expr, Field, JoinVal, MapExpr, Plan, PlanParseError, Pred,
    Source, PLAN_GRAMMAR,
};
pub use session::{eval_once, DataflowError, DataflowSession, PlanContext};
