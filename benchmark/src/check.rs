//! The correctness gate: what every view must hold at the end of a run,
//! recomputed from scratch on the generator's shadow graph, and the
//! client-side mirrors that replay `DELTA` / `VDELTA` notifications.

use crate::spec::{View, ViewKind, SIM_PATTERN};
use incgraph_algos::{QueryClass, Session};
use incgraph_dataflow::{eval_once, Coll, PlanContext};
use incgraph_graph::DynamicGraph;
use incgraph_service::protocol::{ViewRow, ViewRows};
use incgraph_service::Delta;
use incgraph_workloads::random_pattern;

/// A from-scratch session of `class` on `g`, with the parameters every
/// benchmark view uses (source 0, pattern seed [`SIM_PATTERN`]). The
/// pattern derives from `g`'s labels exactly as the store derives it.
pub fn build_session(class: QueryClass, g: &DynamicGraph, pattern_seed: u64) -> Session {
    let mut b = Session::builder(class);
    if class.source_rooted() {
        b = b.source(0);
    }
    if class == QueryClass::Sim {
        b = b.pattern(random_pattern(g, 4, 6, pattern_seed));
    }
    b.build(g)
        .expect("benchmark classes build on undirected graphs")
}

/// The plan context the store builds for `PLAN <qid> g <seed> …`.
pub fn plan_context(g: &DynamicGraph, pattern_seed: u64) -> PlanContext {
    PlanContext {
        pattern: Some(random_pattern(g, 4, 6, pattern_seed)),
        threads: 0,
    }
}

/// What a view must answer to `QUERY` / `PLANQ` when the server's graph
/// equals `shadow`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expected {
    /// A class digest.
    Digest(Vec<u64>),
    /// A plan's view rows.
    Rows(Vec<ViewRow>),
}

/// Batch-computes `view` on `shadow`.
pub fn expected(view: &View, shadow: &DynamicGraph) -> Expected {
    match &view.kind {
        ViewKind::Class(c) => {
            Expected::Digest(build_session(*c, shadow, SIM_PATTERN).digest(shadow))
        }
        ViewKind::Plan(text) => Expected::Rows(
            eval_once(text, shadow, &plan_context(shadow, SIM_PATTERN))
                .expect("benchmark plans parse and build"),
        ),
    }
}

/// Client-side copy of one view, moved forward by notifications only.
pub enum Mirror {
    /// A class digest patched by `DELTA`s. Once a `resync` arrives the
    /// positional replay is void and only the final `QUERY` is checked.
    Digest {
        /// Current values.
        values: Vec<u64>,
        /// Whether any `DELTA … resync` was seen.
        resynced: bool,
    },
    /// A plan view accumulated from `VDELTA` rows (weights sum, zeros drop).
    Rows(Coll),
}

impl Mirror {
    /// A mirror seeded from the view's initial `RESULT`.
    pub fn digest(values: Vec<u64>) -> Mirror {
        Mirror::Digest {
            values,
            resynced: false,
        }
    }

    /// A mirror seeded from the view's initial `VIEW`.
    pub fn rows(initial: &[ViewRow]) -> Mirror {
        let mut coll = Coll::new();
        for &(k, v, w) in initial {
            coll.apply_row(k, v, w);
        }
        Mirror::Rows(coll)
    }

    /// Applies one `DELTA`. Returns `false` if it does not fit the mirror.
    pub fn apply_delta(&mut self, d: &Delta) -> bool {
        let Mirror::Digest { values, resynced } = self else {
            return false;
        };
        match &d.changed {
            None => *resynced = true,
            Some(changed) if !*resynced => {
                for (&i, &v) in changed {
                    match values.get_mut(i as usize) {
                        Some(slot) => *slot = v,
                        None => return false,
                    }
                }
            }
            Some(_) => {}
        }
        true
    }

    /// Applies one `VDELTA`. Returns `false` if it does not fit the mirror.
    pub fn apply_vdelta(&mut self, v: &ViewRows) -> bool {
        let Mirror::Rows(coll) = self else {
            return false;
        };
        for &(k, val, w) in &v.rows {
            coll.apply_row(k, val, w);
        }
        true
    }

    /// Whether the replayed mirror equals the server's final answer.
    /// A resynced digest mirror is vacuously consistent.
    pub fn matches(&self, last: &Expected) -> bool {
        match (self, last) {
            (Mirror::Digest { resynced: true, .. }, Expected::Digest(_)) => true,
            (Mirror::Digest { values, .. }, Expected::Digest(d)) => values == d,
            (Mirror::Rows(coll), Expected::Rows(rows)) => &coll.to_rows() == rows,
            _ => false,
        }
    }
}
