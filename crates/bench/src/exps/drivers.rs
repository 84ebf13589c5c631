//! Shared measurement drivers: one "suite" times the batch algorithm, the
//! deduced incremental algorithm, its unit-at-a-time variant, and the
//! class's fine-tuned competitor on the same `(graph, ΔG)` instance; the
//! per-class entry points differ only in the state constructor and the
//! competitor they hand it.

use crate::report::measure;
use incgraph_algos::{CcState, DfsState, IncrementalState, LccState, SimState, SsspState};
use incgraph_baselines::{DynCc, DynDfs, DynDij, DynLcc, IncMatch};
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId, Pattern, UpdateBatch};

/// Wall-clock seconds for the four contenders on one instance.
#[derive(Clone, Copy, Debug)]
pub struct Timings {
    /// Batch recompute on the updated graph.
    pub batch: f64,
    /// The deduced incremental algorithm, whole batch at once.
    pub inc: f64,
    /// The deduced algorithm processing unit updates one by one.
    pub inc_n: f64,
    /// The class's fine-tuned competitor.
    pub competitor: f64,
}

/// Replays `batch` unit by unit over a copy of `g0`, handing each
/// effective unit update and the graph it produced to `step` (graph
/// application included — it is inherent to the method).
fn replay_units(
    g0: &DynamicGraph,
    batch: &UpdateBatch,
    mut step: impl FnMut(&DynamicGraph, &AppliedBatch),
) {
    let mut g = g0.clone();
    for unit in batch.as_units() {
        let applied = unit.apply(&mut g);
        if !applied.is_empty() {
            step(&g, &applied);
        }
    }
}

/// Times the four contenders of one class. `build` runs the batch
/// algorithm; the competitor is a fresh `competitor()` per repetition
/// (setup, untimed) advanced by `advance`, which receives the updated
/// graph and the effective `ΔG` for competitors that take the batch at
/// once.
pub fn suite<S: IncrementalState, C>(
    reps: usize,
    g0: &DynamicGraph,
    batch: &UpdateBatch,
    build: impl Fn(&DynamicGraph) -> S,
    competitor: impl FnMut() -> C,
    mut advance: impl FnMut(&mut C, &DynamicGraph, &AppliedBatch),
) -> Timings {
    let mut g1 = g0.clone();
    let applied = batch.apply(&mut g1);
    Timings {
        batch: measure(
            reps,
            || (),
            |_| {
                std::hint::black_box(build(&g1));
            },
        ),
        inc: measure(
            reps,
            || build(g0),
            |state| {
                state.update(&g1, &applied);
            },
        ),
        inc_n: measure(
            reps,
            || build(g0),
            |state| {
                replay_units(g0, batch, |g, a| {
                    state.update(g, a);
                })
            },
        ),
        competitor: measure(reps, competitor, |c| advance(c, &g1, &applied)),
    }
}

/// SSSP: Dijkstra / IncSSSP / IncSSSP_n / DynDij.
pub fn sssp_suite(reps: usize, g0: &DynamicGraph, batch: &UpdateBatch, src: NodeId) -> Timings {
    suite(
        reps,
        g0,
        batch,
        |g| SsspState::batch(g, src).0,
        || DynDij::new(g0, src),
        |dyn_dij, g1, applied| dyn_dij.apply_batch(g1, applied),
    )
}

/// CC: CC_fp / IncCC / IncCC_n / DynCC.
pub fn cc_suite(reps: usize, g0: &DynamicGraph, batch: &UpdateBatch) -> Timings {
    // DynCC processes unit updates one by one by construction; computing
    // the component labelling afterwards is part of answering the query.
    suite(
        reps,
        g0,
        batch,
        |g| CcState::batch(g).0,
        || DynCc::new(g0),
        |dyn_cc, _, _| {
            replay_units(g0, batch, |_, a| dyn_cc.apply_batch(a));
            std::hint::black_box(dyn_cc.components());
        },
    )
}

/// Sim: Sim_fp / IncSim / IncSim_n / IncMatch.
pub fn sim_suite(reps: usize, g0: &DynamicGraph, batch: &UpdateBatch, q: &Pattern) -> Timings {
    suite(
        reps,
        g0,
        batch,
        |g| SimState::batch(g, q.clone()).0,
        || IncMatch::new(g0, q.clone()),
        |inc_match, g1, applied| inc_match.apply_batch(g1, applied),
    )
}

/// DFS: DFS_fp / IncDFS / IncDFS_n / DynDFS.
pub fn dfs_suite(reps: usize, g0: &DynamicGraph, batch: &UpdateBatch) -> Timings {
    suite(
        reps,
        g0,
        batch,
        |g| DfsState::batch(g).0,
        || DynDfs::new(g0),
        |dyn_dfs, _, _| {
            replay_units(g0, batch, |g, a| {
                for op in a.ops() {
                    dyn_dfs.apply_unit(g, op.inserted, op.src, op.dst);
                }
            })
        },
    )
}

/// LCC: LCC_fp / IncLCC / IncLCC_n / DynLCC.
pub fn lcc_suite(reps: usize, g0: &DynamicGraph, batch: &UpdateBatch) -> Timings {
    suite(
        reps,
        g0,
        batch,
        |g| LccState::batch(g).0,
        || DynLcc::new(g0),
        |dyn_lcc, _, _| {
            replay_units(g0, batch, |g, a| {
                for op in a.ops() {
                    dyn_lcc.apply_unit(g, op.inserted, op.src, op.dst, op.weight);
                }
            })
        },
    )
}

/// Per-unit averages over a stream of unit updates, with the state and
/// graph evolving across the stream (the Exp-1 protocol). Returns average
/// seconds per unit update for each contender.
pub struct UnitSuite {
    /// The deduced incremental algorithm.
    pub inc: f64,
    /// The class's unit-update competitor.
    pub competitor: f64,
}

/// Average seconds `step` takes per effective unit update of `batch`
/// (graph application untimed).
fn unit_avg(
    g0: &DynamicGraph,
    batch: &UpdateBatch,
    mut step: impl FnMut(&DynamicGraph, &AppliedBatch),
) -> f64 {
    let (mut total, mut units) = (0.0, 0usize);
    replay_units(g0, batch, |g, applied| {
        let t = std::time::Instant::now();
        step(g, applied);
        total += t.elapsed().as_secs_f64();
        units += 1;
    });
    if units == 0 {
        0.0
    } else {
        total / units as f64
    }
}

/// Exp-1 unit averages of one class: the deduced algorithm of `state`
/// against `competitor`, advanced per unit update by `advance`.
pub fn units<S: IncrementalState, C>(
    g0: &DynamicGraph,
    batch: &UpdateBatch,
    mut state: S,
    mut competitor: C,
    mut advance: impl FnMut(&mut C, &DynamicGraph, &AppliedBatch),
) -> UnitSuite {
    UnitSuite {
        inc: unit_avg(g0, batch, |g, a| {
            state.update(g, a);
        }),
        competitor: unit_avg(g0, batch, |g, a| advance(&mut competitor, g, a)),
    }
}
