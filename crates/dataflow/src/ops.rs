//! Operator states and their per-tick delta evaluation.
//!
//! Every operator consumes its input deltas and produces an output delta
//! touching `O(|Δinput|)` rows. The stateful operators (join, the
//! aggregates) carry exactly the auxiliary structures that bound makes
//! necessary: a join indexes both input collections by key; `count`/
//! `sum` keep one running total; `min`/`max` keep their full input
//! collection plus a cached extremum, falling back to an `O(n)` rescan
//! only when a retraction hits the cached extremum itself
//! (`dataflow.minmax.rescan` counts those).

use crate::delta::{Delta, DiffCollection};
use crate::plan::{AggKind, Expr, JoinVal, MapExpr, Plan, Pred};

/// The concrete row delta the plan interpreter flows: node-keyed `u64`
/// values.
pub type Rows = Delta<u64, u64>;
/// The concrete consolidated collection.
pub type Coll = DiffCollection<u64>;

/// Mutable evaluation state of one plan binding.
#[derive(Clone, Debug)]
pub(crate) enum OpState {
    /// Sources hold no state; their deltas come from the session.
    Source,
    Filter(Pred),
    Map(MapExpr),
    Join {
        val: JoinVal,
        left: Coll,
        right: Coll,
    },
    /// `count` / `sum`: one running total (wrapping), plus whether the
    /// initial row has been emitted yet.
    Total {
        kind: AggKind,
        total: u64,
        primed: bool,
    },
    /// `min` / `max`: the maintained input collection and the cached
    /// extremum.
    Extremum {
        max: bool,
        coll: Coll,
        cur: Option<u64>,
    },
    Threshold(Pred),
}

impl OpState {
    pub(crate) fn for_expr(expr: &Expr) -> OpState {
        match *expr {
            Expr::Source(_) => OpState::Source,
            Expr::Filter { pred, .. } => OpState::Filter(pred),
            Expr::Map { expr, .. } => OpState::Map(expr),
            Expr::Join { val, .. } => OpState::Join {
                val,
                left: Coll::new(),
                right: Coll::new(),
            },
            Expr::Agg { kind, .. } => match kind {
                AggKind::Count | AggKind::Sum => OpState::Total {
                    kind,
                    total: 0,
                    primed: false,
                },
                AggKind::Min => OpState::Extremum {
                    max: false,
                    coll: Coll::new(),
                    cur: None,
                },
                AggKind::Max => OpState::Extremum {
                    max: true,
                    coll: Coll::new(),
                    cur: None,
                },
            },
            Expr::Threshold { pred, .. } => OpState::Threshold(pred),
        }
    }

    /// Heap bytes of the maintained collections (a join's two sides, an
    /// extremum's input); the other operators hold none.
    pub(crate) fn space_bytes(&self) -> usize {
        match self {
            OpState::Join { left, right, .. } => left.space_bytes() + right.space_bytes(),
            OpState::Extremum { coll, .. } => coll.space_bytes(),
            _ => 0,
        }
    }

    /// One tick: consume the input deltas (`second` is a join's right
    /// input; sources take none and are never evaluated) and write the
    /// output delta into `out`, in canonical form. Inputs arrive
    /// canonical, so a filter's subset of them needs no consolidation.
    /// Rows in and out go to the operator kind's obs histograms.
    pub(crate) fn eval(&mut self, first: &Rows, second: Option<&Rows>, out: &mut Rows) {
        out.clear();
        let streams = match self {
            OpState::Source => return,
            OpState::Filter(_) => ("dataflow.filter.in", "dataflow.filter.out"),
            OpState::Map(_) => ("dataflow.map.in", "dataflow.map.out"),
            OpState::Join { .. } => ("dataflow.join.in", "dataflow.join.out"),
            OpState::Total { .. } | OpState::Extremum { .. } => {
                ("dataflow.agg.in", "dataflow.agg.out")
            }
            OpState::Threshold(_) => ("dataflow.threshold.in", "dataflow.threshold.out"),
        };
        match self {
            OpState::Source => unreachable!("returned above"),
            OpState::Filter(pred) => {
                for &(k, v, w) in first.rows() {
                    if pred.eval(k, v) {
                        out.push(k, v, w);
                    }
                }
            }
            OpState::Map(expr) => {
                for &(k, v, w) in first.rows() {
                    out.push(k, expr.eval(v), w);
                }
                out.consolidate();
            }
            OpState::Join { val, left, right } => {
                // Bilinear update: δ(A ⋈ B) = δA ⋈ B_pre + A_post ⋈ δB.
                let (da, db) = (first, second.expect("a join has two inputs"));
                for &(k, va, wa) in da.rows() {
                    for (vb, mb) in right.values_of(k) {
                        out.push(k, val.eval(va, vb), wa * mb);
                    }
                }
                left.apply(da);
                for &(k, vb, wb) in db.rows() {
                    for (va, ma) in left.values_of(k) {
                        out.push(k, val.eval(va, vb), ma * wb);
                    }
                }
                right.apply(db);
                out.consolidate();
            }
            OpState::Total {
                kind,
                total,
                primed,
            } => {
                let dt: u64 = first
                    .rows()
                    .iter()
                    .map(|&(_, v, w)| match kind {
                        AggKind::Count => w as u64,
                        _ => v.wrapping_mul(w as u64),
                    })
                    .fold(0u64, u64::wrapping_add);
                if !*primed {
                    *total = (*total).wrapping_add(dt);
                    out.push(0, *total, 1);
                    *primed = true;
                } else if dt != 0 {
                    out.push(0, *total, -1);
                    *total = (*total).wrapping_add(dt);
                    out.push(0, *total, 1);
                    out.consolidate();
                }
            }
            OpState::Extremum { max, coll, cur } => {
                let delta = first;
                coll.apply(delta);
                let better = |a: u64, b: u64| if *max { a.max(b) } else { a.min(b) };
                let mut next = *cur;
                for &(_, v, w) in delta.rows() {
                    if w > 0 {
                        next = Some(next.map_or(v, |c| better(c, v)));
                    }
                }
                // A retraction can only dethrone the extremum if it hits
                // it; anything strictly worse is irrelevant. Only then do
                // we pay the O(n) rescan — the documented fallback.
                let hit = next.is_some()
                    && delta
                        .rows()
                        .iter()
                        .any(|&(_, v, w)| w < 0 && Some(v) == next);
                if hit || (next.is_none() && !coll.is_empty()) {
                    incgraph_obs::counter("dataflow.minmax.rescan", 1);
                    next = coll.iter().map(|(_, v, _)| v).reduce(better);
                } else if coll.is_empty() {
                    next = None;
                }
                if next != *cur {
                    if let Some(old) = *cur {
                        out.push(0, old, -1);
                    }
                    if let Some(new) = next {
                        out.push(0, new, 1);
                    }
                    *cur = next;
                    out.consolidate();
                }
            }
            OpState::Threshold(pred) => {
                let mut alerts = 0u64;
                for &(k, v, w) in first.rows() {
                    if pred.eval(k, v) {
                        out.push(k, v, w);
                        if w > 0 {
                            alerts += w as u64;
                        }
                    }
                }
                if alerts > 0 {
                    incgraph_obs::counter("dataflow.threshold.alerts", alerts);
                }
            }
        }
        let rows_in = first.len() + second.map_or(0, Rows::len);
        incgraph_obs::observe(streams.0, rows_in as u64);
        incgraph_obs::observe(streams.1, out.len() as u64);
    }
}

/// The input binding indexes of one expression: `None` for a source,
/// otherwise the first input and — for a join — the second.
pub(crate) fn expr_inputs(expr: &Expr) -> Option<(usize, Option<usize>)> {
    match *expr {
        Expr::Source(_) => None,
        Expr::Filter { input, .. }
        | Expr::Map { input, .. }
        | Expr::Agg { input, .. }
        | Expr::Threshold { input, .. } => Some((input, None)),
        Expr::Join { left, right, .. } => Some((left, Some(right))),
    }
}

/// Builds the operator states for a plan, in binding order.
pub(crate) fn states_for(plan: &Plan) -> Vec<OpState> {
    plan.bindings()
        .iter()
        .map(|b| OpState::for_expr(&b.expr))
        .collect()
}
