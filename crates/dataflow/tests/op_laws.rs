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
//! 4. **The representation is not observable.** The slot-column
//!    [`Coll`] and the in-place `consolidate` agree, row for row and in
//!    order, with the nested-map forms they replaced — kept here as the
//!    model — on multi-valued, vanishing, re-entering, sparse and
//!    `u64::MAX` keys.
//! 5. **A standing plan costs its rows.** Exact footprint bounds on a
//!    collection and on the benchmark's `near` plan, and a warm tick
//!    that leaves the view alone allocates nothing (a counting
//!    allocator, as in the algos crate's `alloc_count`).

use incgraph_dataflow::{eval_once, Coll, DataflowSession, Plan, PlanContext, Rows};
use incgraph_graph::rng::SplitMix64;
use incgraph_graph::{DynamicGraph, NodeId, Pattern, UpdateBatch};
use incgraph_workloads::Dataset;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

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

// ---------------------------------------------------------------------
// 4. The representation is not observable.
// ---------------------------------------------------------------------

/// The nested-map collection the slot column replaced: the model.
#[derive(Default)]
struct ModelColl {
    by_key: BTreeMap<u64, BTreeMap<u64, i64>>,
}

impl ModelColl {
    fn apply_row(&mut self, key: u64, val: u64, weight: i64) {
        let vals = self.by_key.entry(key).or_default();
        *vals.entry(val).or_insert(0) += weight;
        vals.retain(|_, m| *m != 0);
        if vals.is_empty() {
            self.by_key.remove(&key);
        }
    }

    fn multiplicity(&self, key: u64, val: u64) -> i64 {
        let vals = self.by_key.get(&key);
        vals.and_then(|vals| vals.get(&val)).copied().unwrap_or(0)
    }

    fn values_of(&self, key: u64) -> Vec<(u64, i64)> {
        let vals = self.by_key.get(&key);
        vals.map_or(Vec::new(), |vals| {
            vals.iter().map(|(&v, &m)| (v, m)).collect()
        })
    }

    fn to_rows(&self) -> Vec<(u64, u64, i64)> {
        let rows = self.by_key.iter();
        rows.flat_map(|(&k, vals)| vals.iter().map(move |(&v, &m)| (k, v, m)))
            .collect()
    }
}

/// Keys from every regime the column distinguishes: dense node ids,
/// ids far past the live rows, and hostile extremes.
fn random_key(rng: &mut SplitMix64) -> u64 {
    match rng.gen_range(0u32..10) {
        0..=5 => rng.gen_range(0u64..48),
        6..=7 => rng.gen_range(0u64..6_000),
        8 => (1 << 40) + rng.gen_range(0u64..3),
        _ => u64::MAX - rng.gen_range(0u64..2),
    }
}

#[test]
fn collection_equals_the_nested_map_model() {
    for seed in 0..12u64 {
        let mut rng = SplitMix64::seed_from_u64(0xC011 ^ seed);
        let (mut coll, mut model) = (Coll::new(), ModelColl::default());
        for step in 0..1_500 {
            let key = random_key(&mut rng);
            let val = rng.gen_range(0u64..4);
            // Mostly small weights of either sign; every fourth step
            // retracts the row exactly, so keys vanish and re-enter.
            let weight = match model.multiplicity(key, val) {
                m if m != 0 && step % 4 == 0 => -m,
                _ => rng.gen_range(-2i32..=2) as i64,
            };
            coll.apply_row(key, val, weight);
            if weight != 0 {
                model.apply_row(key, val, weight);
            }
            let rows = model.to_rows();
            assert_eq!(coll.len(), rows.len(), "seed {seed} step {step}");
            assert_eq!(coll.is_empty(), rows.is_empty());
            assert_eq!(coll.multiplicity(key, val), model.multiplicity(key, val));
            assert_eq!(
                coll.values_of(key).collect::<Vec<_>>(),
                model.values_of(key)
            );
            if step % 16 == 0 {
                assert_eq!(coll.iter().collect::<Vec<_>>(), rows, "seed {seed}");
                assert_eq!(coll.to_rows(), rows, "seed {seed} step {step}");
            }
        }
        assert_eq!(coll.to_rows(), model.to_rows(), "seed {seed}");
    }
}

#[test]
fn hostile_keys_do_not_grow_the_column() {
    let mut coll = Coll::new();
    for key in [u64::MAX, u64::MAX - 1, 1 << 50, 7] {
        coll.apply_row(key, 1, 1);
    }
    assert_eq!(
        coll.to_rows(),
        vec![
            (7, 1, 1),
            (1 << 50, 1, 1),
            (u64::MAX - 1, 1, 1),
            (u64::MAX, 1, 1)
        ]
    );
    assert!(coll.space_bytes() < 4096, "{} bytes", coll.space_bytes());
}

#[test]
fn consolidate_equals_the_map_model() {
    for seed in 0..40u64 {
        let mut rng = SplitMix64::seed_from_u64(0xC0DE ^ seed);
        let n = rng.gen_range(0usize..60);
        let mut rows = Rows::new();
        let mut model: BTreeMap<(u64, u64), i64> = BTreeMap::new();
        for _ in 0..n {
            let (k, v) = (rng.gen_range(0u64..6), rng.gen_range(0u64..3));
            let w = rng.gen_range(-2i32..=2) as i64;
            rows.push(k, v, w);
            *model.entry((k, v)).or_insert(0) += w;
            // Half the seeds cancel most rows outright.
            if seed % 2 == 0 && rng.gen_bool(0.6) {
                rows.push(k, v, -w);
                *model.entry((k, v)).or_insert(0) -= w;
            }
        }
        let want: Vec<_> = model
            .into_iter()
            .filter(|&(_, w)| w != 0)
            .map(|((k, v), w)| (k, v, w))
            .collect();
        rows.consolidate();
        assert_eq!(rows.rows(), want, "seed {seed}");
        // Canonical input is a fixed point.
        rows.consolidate();
        assert_eq!(rows.rows(), want, "seed {seed}: already-sorted input");
    }
}

// ---------------------------------------------------------------------
// 5. A standing plan costs its rows.
// ---------------------------------------------------------------------

/// The benchmark's two standing plans (`benchmark/src/spec.rs`).
const PLAN_NEAR: &str = "d = sssp(source=0); c = cc; j = join(d, c, val=left); \
                         near = filter(j, val < 40); n = count(near)";
const PLAN_FAR: &str = "d = sssp(source=0); far = filter(d, val > 60); n = count(far)";

#[test]
fn single_valued_rows_cost_one_slot_each() {
    let n = 100_000u64;
    let mut coll = Coll::new();
    for k in 0..n {
        coll.apply_row(k, k.wrapping_mul(7), 1);
    }
    // 24-byte slots, capacity at most doubled by the column's growth.
    let bytes = coll.space_bytes();
    assert!(bytes >= 24 * n as usize, "{bytes}");
    assert!(bytes <= 48 * n as usize + 128, "{bytes}");
}

#[test]
fn near_plan_state_is_bounded_per_node() {
    let g = Dataset::LiveJournal.graph(false, 0.25);
    let df = DataflowSession::from_text(PLAN_NEAR, &g, &ctx()).unwrap();
    let per_node = df.state_bytes() / g.node_count();
    // Two join sides of one slot per node, plus the chunk-sized tick
    // buffers; the nested-map form measured 550–650 B per node.
    assert!(per_node <= 128, "{per_node} B/node of operator state");
    assert!(df.space_bytes() > df.state_bytes(), "members are counted");
}

/// Counts heap acquisitions on the calling thread while armed (frees
/// and shrinking reallocs are not acquisitions).
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if ARMED.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are thread-local `Cell`s with const initializers, so touching them
// allocates nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note_alloc();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCS.set(0);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    (ALLOCS.get(), out)
}

#[test]
fn warm_tick_on_an_unchanged_view_allocates_nothing() {
    let mut g = Dataset::LiveJournal.graph(false, 0.05);
    let n = g.node_count() as NodeId;
    let mut df = DataflowSession::from_text(PLAN_NEAR, &g, &ctx()).unwrap();
    let mut rng = SplitMix64::seed_from_u64(0xA110C);
    // Warm-up: real churn, so every buffer — the members' scratch and
    // the plan's — reaches its working size.
    for _ in 0..8 {
        let mut batch = UpdateBatch::new();
        for _ in 0..8 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u == v {
                continue;
            }
            if rng.gen_bool(0.5) {
                batch.insert(u, v, rng.gen_range(1u32..=100));
            } else {
                batch.delete(u, v);
            }
        }
        let applied = batch.apply(&mut g);
        df.apply(&g, &applied);
    }
    // Batches that change no class output, hence no view row: an edge
    // inside the source's component, too heavy to shorten any path,
    // comes and goes.
    let comp = eval_once("c = cc", &g, &ctx()).unwrap();
    let inside: Vec<NodeId> = comp
        .iter()
        .filter(|&&(_, c, _)| c == comp[0].1)
        .map(|&(v, _, _)| v as NodeId)
        .collect();
    let before = df.view();
    let mut idle_ticks = 0;
    while idle_ticks < 12 {
        let u = inside[rng.gen_range(0..inside.len())];
        let v = inside[rng.gen_range(0..inside.len())];
        if u == v || g.has_edge(u, v) {
            continue;
        }
        for batch in [
            UpdateBatch::new().insert(u, v, 1 << 30),
            UpdateBatch::new().delete(u, v),
        ] {
            let applied = batch.apply(&mut g);
            let (allocs, rows) = count_allocs(|| df.apply(&g, &applied).len());
            // The first rounds warm the members on this batch shape.
            if idle_ticks >= 4 {
                assert_eq!((allocs, rows), (0, 0), "a warm, idle tick hit the heap");
            }
            idle_ticks += 1;
        }
    }
    assert_eq!(df.view(), before);
}

/// Every `plan` line of the fuzz corpus (`tests/corpus/*.case`), found
/// from whichever package this file is compiled into.
fn corpus_plans() -> Vec<String> {
    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    while !dir.join("tests/corpus").is_dir() {
        assert!(dir.pop(), "tests/corpus not found above the manifest");
    }
    let mut plans = Vec::new();
    for entry in std::fs::read_dir(dir.join("tests/corpus")).unwrap() {
        let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        plans.extend(
            text.lines()
                .filter_map(|l| l.strip_prefix("plan "))
                .map(str::to_string),
        );
    }
    plans.sort();
    assert!(!plans.is_empty(), "the corpus carries a dataflow case");
    plans
}

#[test]
fn view_and_integrated_root_deltas_equal_batch_evaluation() {
    let mut plans = corpus_plans();
    plans.extend([PLAN_NEAR.to_string(), PLAN_FAR.to_string()]);
    for (pi, text) in plans.iter().enumerate() {
        let mut g = Dataset::LiveJournal.graph(false, 0.05);
        let n = g.node_count() as NodeId;
        let mut rng = SplitMix64::seed_from_u64(0xE2E ^ pi as u64);
        let mut df = DataflowSession::from_text(text, &g, &ctx()).unwrap();
        assert_eq!(df.view(), eval_once(text, &g, &ctx()).unwrap(), "{text}");
        // What a `VDELTA` subscriber holds: the initial view plus every
        // tick's root delta.
        let mut mirror = Coll::new();
        for (k, v, w) in df.view() {
            mirror.apply_row(k, v, w);
        }
        for round in 0..12 {
            let mut batch = UpdateBatch::new();
            for _ in 0..16 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u == v {
                    continue;
                }
                if rng.gen_bool(0.5) {
                    batch.insert(u, v, rng.gen_range(1u32..=100));
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            mirror.apply(df.apply(&g, &applied));
            let fresh = eval_once(text, &g, &ctx()).unwrap();
            assert_eq!(df.view(), fresh, "round {round}: {text}");
            assert_eq!(mirror.to_rows(), fresh, "round {round} deltas: {text}");
        }
    }
}
