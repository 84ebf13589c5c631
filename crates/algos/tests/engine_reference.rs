//! The engine against a schedule-free reference.
//!
//! For contracting + monotonic specs the fixpoint is unique under any
//! schedule (paper Lemma 2), so the worklist order inside
//! [`incgraph_core::Engine`] is a performance hint only. This suite pins
//! the implementation to that: for the five monotone specs (SSSP, CC,
//! Reach, Sim, LCC) and BC's `LowSpec`, the engine-maintained status —
//! after the batch run and after every round of a seeded update stream —
//! must equal naive chaotic iteration (re-evaluate every `f_x` from `⊥`
//! until nothing changes), with the full fixpoint audit re-checking `σ_x`
//! after every round.

use incgraph_algos::bc::LowSpec;
use incgraph_algos::cc::CcSpec;
use incgraph_algos::lcc::LccSpec;
use incgraph_algos::reach::ReachSpec;
use incgraph_algos::sim::SimSpec;
use incgraph_algos::sssp::SsspSpec;
use incgraph_algos::{
    BcState, CcState, IncrementalState, LccState, ReachState, SimState, SsspState,
};
use incgraph_core::{Engine, FixpointAudit, FixpointSpec, Status};
use incgraph_graph::rng::SplitMix64;
use incgraph_graph::{DynamicGraph, NodeId, Pattern, UpdateBatch};

/// Chaotic iteration: sweep all variables from `⊥` until a sweep changes
/// nothing. No worklist, no ranks, no scope — nothing shared with the
/// engine but the spec.
fn chaotic_fixpoint<S: FixpointSpec>(spec: &S) -> Vec<S::Value> {
    let mut vals: Vec<S::Value> = (0..spec.num_vars()).map(|x| spec.bottom(x)).collect();
    loop {
        let mut changed = false;
        for x in 0..vals.len() {
            let v = spec.eval(x, &mut |y| vals[y]);
            if v != vals[x] {
                vals[x] = v;
                changed = true;
            }
        }
        if !changed {
            return vals;
        }
    }
}

/// Runs the raw engine over `spec` from `⊥` with every variable seeded
/// and checks values and the write journal against the reference.
fn assert_engine_matches<S: FixpointSpec>(name: &str, spec: &S) {
    let want = chaotic_fixpoint(spec);
    let mut status = Status::init(spec, false);
    status.set_journal(true);
    let mut engine = Engine::new(spec.num_vars());
    let stats = engine.run(spec, &mut status, 0..spec.num_vars());
    assert!(!stats.aborted);
    assert_eq!(status.values(), want.as_slice(), "{name}: batch fixpoint");
    status.journal_mut().sort();
    let journaled = status.journal().entries();
    for (x, v) in want.iter().enumerate() {
        if *v != spec.bottom(x) {
            let at = journaled.binary_search_by_key(&x, |e| e.0 as usize);
            assert_eq!(
                at.map(|i| journaled[i].1),
                Ok(spec.bottom(x)),
                "{name}: var {x} moved off ⊥ but the journal does not say so"
            );
        }
    }
}

/// A seeded stream of mixed insert/delete rounds over `n` nodes.
fn update_stream(
    n: usize,
    rounds: usize,
    per_round: usize,
    max_weight: u32,
    seed: u64,
) -> Vec<UpdateBatch> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..rounds)
        .map(|_| {
            let mut batch = UpdateBatch::new();
            for _ in 0..per_round {
                let u = rng.gen_range(0..n) as NodeId;
                let v = rng.gen_range(0..n) as NodeId;
                if rng.gen_bool(0.55) {
                    batch.insert(u, v, rng.gen_range(1..=max_weight));
                } else {
                    batch.delete(u, v);
                }
            }
            batch
        })
        .collect()
}

/// Drives one class through the stream and asserts that after the batch
/// run and after every incremental round the state's status (`values`)
/// equals the reference fixpoint over the current graph (`reference`),
/// with the audit clean.
fn assert_matches_reference<S, V>(
    name: &str,
    g0: &DynamicGraph,
    stream: &[UpdateBatch],
    init: impl FnOnce(&DynamicGraph) -> S,
    values: impl Fn(&S, &DynamicGraph) -> Vec<V>,
    reference: impl Fn(&S, &DynamicGraph) -> Vec<V>,
) where
    S: IncrementalState,
    V: PartialEq + std::fmt::Debug,
{
    let audit = FixpointAudit::full();
    let mut g = g0.clone();
    let mut state = init(&g);
    assert_eq!(
        values(&state, &g),
        reference(&state, &g),
        "{name}: batch fixpoint diverges from the reference"
    );
    for (round, batch) in stream.iter().enumerate() {
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        let report = state.audit(&g, &audit);
        assert!(
            report.is_clean(),
            "{name}: audit failed in round {round}: {report:?}"
        );
        assert_eq!(
            values(&state, &g),
            reference(&state, &g),
            "{name}: fixpoint diverges from the reference in round {round}"
        );
    }
}

fn check_sssp(name: &str, g: &DynamicGraph, stream: &[UpdateBatch]) {
    assert_matches_reference(
        name,
        g,
        stream,
        |g| SsspState::batch(g, 0).0,
        |s, _| s.distances().to_vec(),
        |_, g| chaotic_fixpoint(&SsspSpec::new(g, 0)),
    );
}

fn check_cc(name: &str, g: &DynamicGraph, stream: &[UpdateBatch]) {
    assert_matches_reference(
        name,
        g,
        stream,
        |g| CcState::batch(g).0,
        |s, _| s.components().to_vec(),
        |_, g| chaotic_fixpoint(&CcSpec::new(g)),
    );
}

fn check_reach(name: &str, g: &DynamicGraph, stream: &[UpdateBatch]) {
    assert_matches_reference(
        name,
        g,
        stream,
        |g| ReachState::batch(g, 0).0,
        |s, _| s.reached().to_vec(),
        |_, g| chaotic_fixpoint(&ReachSpec::new(g, 0)),
    );
}

fn check_sim(name: &str, g: &DynamicGraph, stream: &[UpdateBatch], pattern: &Pattern) {
    let nq = pattern.node_count();
    assert_matches_reference(
        name,
        g,
        stream,
        |g| SimState::batch(g, pattern.clone()).0,
        |s, g| {
            (0..g.node_count() * nq)
                .map(|x| s.matches(g, (x / nq) as NodeId, x % nq))
                .collect()
        },
        |_, g| chaotic_fixpoint(&SimSpec::new(g, pattern)),
    );
}

fn check_lcc(name: &str, g: &DynamicGraph, stream: &[UpdateBatch]) {
    assert_matches_reference(
        name,
        g,
        stream,
        |g| LccState::batch(g).0,
        |s, g| {
            (0..g.node_count() as NodeId)
                .flat_map(|v| [s.degree(v), s.triangles(v)])
                .collect()
        },
        |_, g| chaotic_fixpoint(&LccSpec::new(g)),
    );
}

#[test]
fn sssp_matches_reference() {
    let g = incgraph_graph::gen::uniform(300, 1400, true, 10, 4, 41);
    assert_engine_matches("sssp", &SsspSpec::new(&g, 0));
    check_sssp("sssp", &g, &update_stream(300, 6, 16, 10, 141));
}

#[test]
fn cc_matches_reference() {
    let g = incgraph_graph::gen::uniform(250, 500, false, 1, 1, 42);
    assert_engine_matches("cc", &CcSpec::new(&g));
    check_cc("cc", &g, &update_stream(250, 6, 12, 1, 142));
}

#[test]
fn reach_matches_reference() {
    let g = incgraph_graph::gen::uniform(300, 900, true, 1, 1, 43);
    assert_engine_matches("reach", &ReachSpec::new(&g, 0));
    check_reach("reach", &g, &update_stream(300, 6, 14, 1, 143));
}

#[test]
fn sim_matches_reference() {
    // Cyclic pattern on a labeled graph: the hardest anchor case.
    let pattern = Pattern::new(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 1)]);
    let g = incgraph_graph::gen::uniform(120, 500, true, 1, 3, 44);
    assert_engine_matches("sim", &SimSpec::new(&g, &pattern));
    check_sim("sim", &g, &update_stream(120, 6, 8, 1, 144), &pattern);
}

#[test]
fn lcc_matches_reference() {
    let g = incgraph_graph::gen::uniform(200, 900, false, 1, 1, 45);
    assert_engine_matches("lcc", &LccSpec::new(&g));
    check_lcc("lcc", &g, &update_stream(200, 6, 12, 1, 145));
}

#[test]
fn bc_lowpoints_match_reference() {
    // Lowpoints over the state's own DFS forest, which every update
    // patches: the state folds them into its traversal and never runs the
    // engine, so the engine run here checks the spec, and the rounds check
    // the fold against the schedule-free reference.
    let g = incgraph_graph::gen::uniform(150, 400, false, 1, 1, 49);
    assert_engine_matches("bc", &LowSpec::new(&g, BcState::batch(&g).0.dfs()));
    assert_matches_reference(
        "bc",
        &g,
        &update_stream(150, 6, 10, 1, 149),
        |g| BcState::batch(g).0,
        |s, g| (0..g.node_count() as NodeId).map(|v| s.low(v)).collect(),
        |s, g| {
            let reference = chaotic_fixpoint(&LowSpec::new(g, s.dfs()));
            reference.into_iter().map(|l| l.low()).collect()
        },
    );
}

/// A stream dominated by self-loop churn, with enough ordinary edges
/// mixed in that the fixpoints actually move between rounds.
fn self_loop_stream(n: usize, rounds: usize, seed: u64) -> Vec<UpdateBatch> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..rounds)
        .map(|_| {
            let mut batch = UpdateBatch::new();
            for _ in 0..8 {
                let v = rng.gen_range(0..n) as NodeId;
                if rng.gen_bool(0.6) {
                    batch.insert(v, v, rng.gen_range(1..=5u32));
                } else {
                    batch.delete(v, v);
                }
                let u = rng.gen_range(0..n) as NodeId;
                let w = rng.gen_range(0..n) as NodeId;
                if rng.gen_bool(0.5) {
                    batch.insert(u, w, rng.gen_range(1..=5u32));
                } else {
                    batch.delete(u, w);
                }
            }
            batch
        })
        .collect()
}

#[test]
fn zero_node_graph_matches_reference() {
    // No status variables at all: the empty scope must be a no-op.
    let g = DynamicGraph::new(false, 0);
    check_cc("cc/0-nodes", &g, &[]);
    check_lcc("lcc/0-nodes", &g, &[]);
}

#[test]
fn single_node_graph_matches_reference() {
    // One node, a stream that only churns its (directed) self-loop. The
    // undirected classes see every op rejected as a no-op.
    let stream = self_loop_stream(1, 4, 900);
    let gd = DynamicGraph::new(true, 1);
    check_sssp("sssp/1-node", &gd, &stream);
    check_reach("reach/1-node", &gd, &stream);
    check_sim("sim/1-node", &gd, &stream, &Pattern::new(vec![0], &[]));
    check_cc("cc/1-node", &DynamicGraph::new(false, 1), &stream);
}

#[test]
fn self_loop_churn_matches_reference() {
    // Directed graphs keep self-loops as real arcs; they must neither
    // shorten SSSP distances nor create spurious reachability.
    let g = incgraph_graph::gen::uniform(60, 150, true, 5, 2, 47);
    let stream = self_loop_stream(60, 6, 947);
    check_sssp("sssp/self-loops", &g, &stream);
    check_reach("reach/self-loops", &g, &stream);
}
