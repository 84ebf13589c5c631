//! Operator-algebra laws of the dataflow layer, checked as properties
//! over randomized graphs and update schedules (the same discipline as
//! the algos crate's `coalesce_equiv` suite):
//!
//! 1. **Incremental = batch.** For every operator shape, a standing
//!    [`DataflowSession`] driven through a churn schedule must land on
//!    exactly the view a fresh plan evaluation computes on the final
//!    graph. This subsumes "aggregates match batch recompute".
//! 2. **Insert-then-delete cancellation.** A batch applied and then
//!    exactly undone leaves every view — through filters, maps, joins,
//!    and aggregates — where it started.
//! 3. **Join delta-order symmetry.** A symmetric join combine
//!    (`val=sum`) makes `join(a, b)` and `join(b, a)` indistinguishable,
//!    whichever side's delta the bilinear update feeds first.

use incgraph_dataflow::{eval_once, DataflowSession, Plan, PlanContext};
use incgraph_graph::rng::SplitMix64;
use incgraph_graph::{DynamicGraph, NodeId, Pattern, UpdateBatch};

const N: usize = 24;
const ROUNDS: usize = 8;
const OPS_PER_BATCH: usize = 4;

/// Undirected random graph with alternating labels (so `sim` and
/// `labels` sources are non-trivial).
fn base_graph(rng: &mut SplitMix64) -> DynamicGraph {
    let labels = (0..N).map(|v| (v % 3) as u32).collect();
    let mut g = DynamicGraph::with_labels(false, labels);
    for _ in 0..2 * N {
        let u = rng.gen_range(0..N) as NodeId;
        let v = rng.gen_range(0..N) as NodeId;
        if u != v {
            g.insert_edge(u, v, rng.gen_range(1u32..=6));
        }
    }
    g
}

fn random_batch(rng: &mut SplitMix64) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for _ in 0..OPS_PER_BATCH {
        let u = rng.gen_range(0..N) as NodeId;
        let v = rng.gen_range(0..N) as NodeId;
        if u == v {
            continue;
        }
        if rng.gen_bool(0.5) {
            batch.insert(u, v, rng.gen_range(1u32..=6));
        } else {
            batch.delete(u, v);
        }
    }
    batch
}

fn ctx() -> PlanContext {
    PlanContext {
        pattern: Some(Pattern::new(vec![0, 1], &[(0, 1)])),
        ..Default::default()
    }
}

/// Plans covering every operator and every class source.
const PLANS: &[&str] = &[
    "d = sssp(source=0); near = filter(d, val < 6); n = count(near)",
    "d = sssp(source=2); m = map(d, val + 1); s = sum(m)",
    "c = cc; l = labels; j = join(c, l, val=left); n = count(j)",
    "r = reach(source=1); t = threshold(r, val == 1); n = count(t)",
    "a = lcc; m = map(a, val & 4294967295); mx = max(m)",
    "d = dfs; mn = min(d)",
    "b = bc; f = filter(b, val != 0); n = count(f)",
    "s = sim; n = count(s)",
    // A shared sub-plan read by two consumers, then re-joined.
    "d = sssp(source=0); a = filter(d, val < 4); b = map(d, val * 2); \
     j = join(a, b, val=right); n = sum(j)",
    "d = sssp(source=0); near = filter(d, val < 5); t = threshold(near, key > 10); n = count(t)",
];

#[test]
fn incremental_view_equals_batch_recompute() {
    for (pi, text) in PLANS.iter().enumerate() {
        let mut rng = SplitMix64::seed_from_u64(0xA15E ^ pi as u64);
        let mut g = base_graph(&mut rng);
        let plan = Plan::parse(text).unwrap();
        let mut df = DataflowSession::build(plan, &g, &ctx()).unwrap();
        for round in 0..ROUNDS {
            let applied = random_batch(&mut rng).apply(&mut g);
            df.apply(&g, &applied);
            let fresh = eval_once(text, &g, &ctx()).unwrap();
            assert_eq!(
                df.view(),
                fresh,
                "plan {pi} diverged from batch recompute at round {round}: {text}"
            );
        }
    }
}

#[test]
fn insert_then_delete_cancels_through_every_operator() {
    for (pi, text) in PLANS.iter().enumerate() {
        let mut rng = SplitMix64::seed_from_u64(0xCA9C ^ pi as u64);
        let g0 = base_graph(&mut rng);
        let plan = Plan::parse(text).unwrap();
        let mut df = DataflowSession::build(plan, &g0, &ctx()).unwrap();
        let before = df.view();
        // Insert a handful of fresh edges…
        let mut g = g0.clone();
        let mut fwd = UpdateBatch::new();
        let mut undo = UpdateBatch::new();
        let mut added = 0;
        for _ in 0..64 {
            if added == 3 {
                break;
            }
            let u = rng.gen_range(0..N) as NodeId;
            let v = rng.gen_range(0..N) as NodeId;
            if u != v && !g0.has_edge(u, v) && !g0.has_edge(v, u) {
                fwd.insert(u, v, 3);
                undo.delete(u, v);
                added += 1;
            }
        }
        let applied = fwd.apply(&mut g);
        df.apply(&g, &applied);
        // …then take them out again: the view must return exactly.
        let applied = undo.apply(&mut g);
        df.apply(&g, &applied);
        assert_eq!(df.view(), before, "plan {pi} did not cancel: {text}");
    }
}

#[test]
fn symmetric_join_commutes_with_operand_order() {
    let left_first = "d = sssp(source=0); c = cc; j = join(d, c, val=sum); s = sum(j)";
    let right_first = "c = cc; d = sssp(source=0); j = join(c, d, val=sum); s = sum(j)";
    let mut rng = SplitMix64::seed_from_u64(0x10E7);
    let mut g = base_graph(&mut rng);
    let mut a = DataflowSession::from_text(left_first, &g, &ctx()).unwrap();
    let mut b = DataflowSession::from_text(right_first, &g, &ctx()).unwrap();
    assert_eq!(a.view(), b.view());
    for _ in 0..ROUNDS {
        let applied = random_batch(&mut rng).apply(&mut g);
        a.apply(&g, &applied);
        b.apply(&g, &applied);
        assert_eq!(a.view(), b.view(), "join order became observable");
    }
}

#[test]
fn minmax_rescan_fallback_stays_correct_under_retractions() {
    // Drive max(sssp) through churn that repeatedly deletes edges on the
    // current shortest-path frontier, forcing extremum retractions (the
    // rescan path), and pin the result to batch recompute.
    let text = "d = sssp(source=0); f = filter(d, val != 18446744073709551615); m = max(f)";
    let mut rng = SplitMix64::seed_from_u64(0x3E5C);
    let mut g = base_graph(&mut rng);
    let mut df = DataflowSession::from_text(text, &g, &ctx()).unwrap();
    for round in 0..2 * ROUNDS {
        let applied = random_batch(&mut rng).apply(&mut g);
        df.apply(&g, &applied);
        assert_eq!(
            df.view(),
            eval_once(text, &g, &ctx()).unwrap(),
            "extremum maintenance diverged at round {round}"
        );
    }
}
