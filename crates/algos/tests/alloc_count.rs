//! Proof that the steady-state incremental hot path is allocation-free.
//!
//! A counting `#[global_allocator]` wraps `System`; the counter is armed
//! only around the `state.update(&g, &applied)` call under test, so
//! graph mutation (`batch.apply`), batch construction, and test
//! bookkeeping never pollute the count. A warmup phase first runs the
//! same update shapes so every scratch structure (the `ScopeScratch`
//! arena, per-class `touched` buffers, the engine's persistent heap and
//! dependency buffers, IncDFS's skip list and stack, IncBC's scope)
//! grows to its working capacity; after that, a ΔG update must not touch
//! the heap at all.
//!
//! The same holds one layer up: a warm [`Session::update_guarded`]
//! allocates only the [`OutputDelta`](incgraph_algos::OutputDelta) it
//! returns — its `changes` and `nodes` vectors — however many entries
//! moved, because the delta is drained from the state's write journal
//! rather than assembled in per-entry maps.
//!
//! Gated behind the `alloc-count` feature because the wrapper
//! intercepts every allocation in the test binary:
//!
//! ```text
//! cargo test -p incgraph-algos --features alloc-count --test alloc_count
//! ```
#![cfg(feature = "alloc-count")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use incgraph_algos::{
    BcState, CcState, DfsState, IncrementalState, QueryClass, ReachState, Session, SimState,
    SsspState,
};
use incgraph_graph::{AppliedBatch, DynamicGraph, Pattern, UpdateBatch};

/// Counts heap acquisitions (`alloc`, `alloc_zeroed`, `realloc`) while
/// armed. Frees are not counted: releasing memory is cheap and the
/// claim under test is "no new heap memory per steady-state update".
struct CountingAlloc;

// Per-thread, so the tests (one thread each under the default harness)
// cannot pollute each other's counts. `const` initializers: no lazy
// init and no destructor, hence no allocation from inside the allocator.
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if ARMED.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

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
        // A shrinking realloc releases memory (the scratch buffers'
        // 4× overshoot policy); only growth acquires heap.
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

/// Runs `f` with the counter armed and returns how many heap
/// acquisitions it performed.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.set(0);
    ARMED.set(true);
    f();
    ARMED.set(false);
    ALLOCS.get()
}

/// Undirected ring of `n` nodes (unit weights) with `(i, i + n/2)`
/// chords — enough structure that edge churn moves SSSP distances and
/// forces CC reconfirmation walks.
fn chord_ring(n: usize) -> DynamicGraph {
    labelled_chord_ring(vec![0; n])
}

/// [`chord_ring`] over one node per label.
fn labelled_chord_ring(labels: Vec<u32>) -> DynamicGraph {
    let n = labels.len();
    let mut g = DynamicGraph::with_labels(false, labels);
    for i in 0..n {
        g.insert_edge(i as u32, ((i + 1) % n) as u32, 1);
    }
    for i in 0..n / 2 {
        g.insert_edge(i as u32, (i + n / 2) as u32, 3);
    }
    g
}

/// One steady-state round: delete a fixed ring edge and re-insert it at
/// a parity-toggled weight, so distances genuinely move every round but
/// the affected region — and therefore every scratch high-water mark —
/// is the same from round to round. (A workload whose scope sizes swing
/// by more than 4× between rounds would legitimately trip the scratch
/// buffers' 4× overshoot shrink-and-regrow policy; that is capacity
/// management, not steady state.) Returns the applied ΔG; the graph
/// mutation happens here, outside any armed region.
fn churn_round(g: &mut DynamicGraph, round: usize) -> AppliedBatch {
    let (u, v) = (16u32, 17u32);
    let mut batch = UpdateBatch::new();
    batch.delete(u, v).insert(u, v, 1 + (round % 2) as u32);
    batch.apply(g)
}

const N: usize = 64;
const WARMUP_ROUNDS: usize = 16;
const MEASURE_ROUNDS: usize = 8;

/// The body every class shares: warm the scratch structures up with
/// `churn`'s rounds, then a steady-state `update` must not touch the
/// heap.
fn steady_state_is_allocation_free(
    mut g: DynamicGraph,
    mut state: impl IncrementalState,
    churn: fn(&mut DynamicGraph, usize) -> AppliedBatch,
) {
    for round in 0..WARMUP_ROUNDS {
        let applied = churn(&mut g, round);
        state.update(&g, &applied);
    }
    for round in WARMUP_ROUNDS..WARMUP_ROUNDS + MEASURE_ROUNDS {
        let applied = churn(&mut g, round);
        let allocs = count_allocs(|| {
            state.update(&g, &applied);
        });
        assert_eq!(
            allocs,
            0,
            "{} steady-state update allocated {allocs} times in round {round}",
            state.name()
        );
    }
}

#[test]
fn sssp_steady_state_update_is_allocation_free() {
    let g = chord_ring(N);
    let (state, _) = SsspState::batch(&g, 0);
    steady_state_is_allocation_free(g, state, churn_round);
}

#[test]
fn cc_steady_state_update_is_allocation_free() {
    let g = chord_ring(N);
    let (state, _) = CcState::batch(&g);
    steady_state_is_allocation_free(g, state, churn_round);
}

#[test]
fn reach_steady_state_update_is_allocation_free() {
    let g = chord_ring(N);
    let (state, _) = ReachState::batch(&g, 0);
    steady_state_is_allocation_free(g, state, churn_round);
}

/// Fails at fda8e74: `SimState::update` cloned its `Pattern` (three
/// `Vec`s plus `2·|V_Q|` inner ones) on every call.
#[test]
fn sim_steady_state_update_is_allocation_free() {
    // A cyclic pattern over the ring's alternating labels, so the churned
    // edge (16, 17) retracts and restores matches around it every round.
    let g = labelled_chord_ring((0..N as u32).map(|v| v % 2).collect());
    let q = Pattern::new(vec![0, 1], &[(0, 1), (1, 0)]);
    let (state, _) = SimState::batch(&g, q);
    steady_state_is_allocation_free(g, state, churn_round);
}

/// Two path components, `0..N/2` and `N/2..N`, the second with a chord
/// `(40, 50)`: cutting the tree edge `(45, 46)` re-routes the DFS of the
/// second component through the chord (a structural change that moves
/// the timestamps, parents and lowpoints of `46..N`), while the first
/// component replays identically and is skipped.
fn two_paths_with_a_chord() -> DynamicGraph {
    let mut g = DynamicGraph::new(false, N);
    for i in (0..N as u32 - 1).filter(|&i| i + 1 != N as u32 / 2) {
        g.insert_edge(i, i + 1, 1);
    }
    g.insert_edge(40, 50, 1);
    g
}

/// Cuts `(45, 46)` on even rounds and restores it on odd ones, so every
/// round changes the forest and the two shapes repeat.
fn cut_and_restore_round(g: &mut DynamicGraph, round: usize) -> AppliedBatch {
    let mut batch = UpdateBatch::new();
    if round.is_multiple_of(2) {
        batch.delete(45, 46);
    } else {
        batch.insert(45, 46, 1);
    }
    batch.apply(g)
}

/// Fails at 880b14d: every structural `DfsState::update` cloned the three
/// label arrays and built a `HashSet` of affected subtrees.
#[test]
fn dfs_steady_state_update_is_allocation_free() {
    let g = two_paths_with_a_chord();
    let (state, _) = DfsState::batch(&g);
    steady_state_is_allocation_free(g, state, cut_and_restore_round);
}

/// Fails at 880b14d: `BcState::update` took two `O(n)` snapshots of the
/// forest and collected its PE scope through a `HashSet`.
#[test]
fn bc_steady_state_update_is_allocation_free() {
    let g = two_paths_with_a_chord();
    let (state, _) = BcState::batch(&g);
    steady_state_is_allocation_free(g, state, cut_and_restore_round);
}

/// Entries a warm session batch below must move, at least.
const MIN_DELTA: usize = 64;

/// The session body: warm up, then every guarded update must allocate
/// at most the two vectors of the delta it returns, while moving at
/// least [`MIN_DELTA`] digest entries.
fn warm_session_update_allocates_only_its_delta(
    mut g: DynamicGraph,
    mut session: Session,
    churn: fn(&mut DynamicGraph, usize) -> AppliedBatch,
) {
    for round in 0..WARMUP_ROUNDS {
        let applied = churn(&mut g, round);
        session.update_guarded(&g, &applied);
    }
    for round in WARMUP_ROUNDS..WARMUP_ROUNDS + MEASURE_ROUNDS {
        let applied = churn(&mut g, round);
        let mut moved = 0;
        let allocs = count_allocs(|| {
            moved = session.update_guarded(&g, &applied).delta.changes.len();
        });
        let name = session.name();
        assert!(
            moved >= MIN_DELTA,
            "{name} round {round}: only {moved} entries moved"
        );
        assert!(
            allocs <= 2,
            "{name} warm update_guarded allocated {allocs} times for {moved} entries in round {round}"
        );
    }
}

/// Arm length of [`seesaw`].
const ARM: u32 = 128;

/// Two undirected paths hanging off node 0 — the left arm `1..=ARM`, the
/// right arm `ARM+1..=2·ARM` — each attached through its first edge, then
/// `isolated` nodes with no edge.
fn seesaw(isolated: usize) -> DynamicGraph {
    let mut g = DynamicGraph::new(false, 2 * ARM as usize + 1 + isolated);
    for v in (1..ARM).chain(ARM + 1..2 * ARM) {
        g.insert_edge(v, v + 1, 1);
    }
    g.insert_edge(0, 1, 1);
    g
}

/// Detaches one arm from node 0 and attaches the other, alternately: the
/// two rounds mirror each other, so every scratch high-water mark
/// repeats, and each moves the distance, component and reachability of
/// both arms' nodes.
fn seesaw_round(g: &mut DynamicGraph, round: usize) -> AppliedBatch {
    let (cut, join) = if round.is_multiple_of(2) {
        (1, ARM + 1)
    } else {
        (ARM + 1, 1)
    };
    let mut batch = UpdateBatch::new();
    batch.delete(0, cut).insert(0, join, 1);
    batch.apply(g)
}

/// Two directed cycles of [`ARM`] nodes with alternating labels, the
/// second missing its closing arc.
fn two_cycles() -> DynamicGraph {
    let n = 2 * ARM;
    let mut g = DynamicGraph::with_labels(true, (0..n).map(|v| v % 2).collect());
    for base in [0, ARM] {
        for i in 0..ARM - 1 {
            g.insert_edge(base + i, base + i + 1, 1);
        }
    }
    g.insert_edge(ARM - 1, 0, 1);
    g
}

/// Opens one cycle and closes the other, alternately: under a cyclic
/// pattern, every node of one cycle loses its match and every node of
/// the other regains it.
fn two_cycles_round(g: &mut DynamicGraph, round: usize) -> AppliedBatch {
    let (open, close) = if round.is_multiple_of(2) {
        (0, ARM)
    } else {
        (ARM, 0)
    };
    let mut batch = UpdateBatch::new();
    batch
        .delete(open + ARM - 1, open)
        .insert(close + ARM - 1, close, 1);
    batch.apply(g)
}

/// An undirected ladder — rails `0..ARM` and `ARM..2·ARM`, a rung
/// `(i, ARM + i)` at every step — whose first rail is closed into a
/// cycle. Removing one rail edge leaves it 2-edge-connected, so BC's
/// bridge list (the digest's tail) stays empty. One more, isolated node
/// keeps BC's lowpoint scope short of the whole graph: a whole-graph run
/// is a batch run, after which the engine hands its queue back.
fn ladder() -> DynamicGraph {
    let mut g = DynamicGraph::new(false, 2 * ARM as usize + 1);
    for i in 0..ARM {
        if i + 1 < ARM {
            g.insert_edge(i, i + 1, 1);
            g.insert_edge(ARM + i, ARM + i + 1, 1);
        }
        g.insert_edge(i, ARM + i, 1);
    }
    g.insert_edge(0, ARM - 1, 1);
    g
}

/// Cuts an early edge of the first rail on even rounds and restores it
/// on odd ones: the DFS then turns onto the second rail there instead of
/// at the end, moving the timestamps, parents and lowpoints of most
/// nodes.
fn ladder_round(g: &mut DynamicGraph, round: usize) -> AppliedBatch {
    let (u, v) = (ARM / 4, ARM / 4 + 1);
    let mut batch = UpdateBatch::new();
    if round.is_multiple_of(2) {
        batch.delete(u, v);
    } else {
        batch.insert(u, v, 1);
    }
    batch.apply(g)
}

fn session(class: QueryClass, g: &DynamicGraph) -> Session {
    let mut b = Session::builder(class);
    if class.source_rooted() {
        b = b.source(0);
    }
    if class == QueryClass::Sim {
        b = b.pattern(Pattern::new(vec![0, 1], &[(0, 1), (1, 0)]));
    }
    b.build(g).expect("session builds")
}

/// Fails at 15e63b7: the session re-read its candidates into two
/// `BTreeMap`s, one node allocation per changed entry.
#[test]
fn sssp_warm_session_update_allocates_only_its_delta() {
    let g = seesaw(0);
    let s = session(QueryClass::Sssp, &g);
    warm_session_update_allocates_only_its_delta(g, s, seesaw_round);
}

#[test]
fn cc_warm_session_update_allocates_only_its_delta() {
    let g = seesaw(0);
    let s = session(QueryClass::Cc, &g);
    warm_session_update_allocates_only_its_delta(g, s, seesaw_round);
}

#[test]
fn reach_warm_session_update_allocates_only_its_delta() {
    let g = seesaw(0);
    let s = session(QueryClass::Reach, &g);
    warm_session_update_allocates_only_its_delta(g, s, seesaw_round);
}

#[test]
fn sim_warm_session_update_allocates_only_its_delta() {
    let g = two_cycles();
    let s = session(QueryClass::Sim, &g);
    warm_session_update_allocates_only_its_delta(g, s, two_cycles_round);
}

/// Fails at 15e63b7: the session rebuilt and diffed the whole output.
#[test]
fn dfs_warm_session_update_allocates_only_its_delta() {
    let g = ladder();
    let s = session(QueryClass::Dfs, &g);
    warm_session_update_allocates_only_its_delta(g, s, ladder_round);
}

#[test]
fn bc_warm_session_update_allocates_only_its_delta() {
    let g = ladder();
    let s = session(QueryClass::Bc, &g);
    warm_session_update_allocates_only_its_delta(g, s, ladder_round);
}

/// The seesaw is a forest: every edge a bridge, and swapping the arms
/// keeps their number while moving most of the tail's positions. An
/// isolated node keeps the lowpoint scope short of the whole graph, as in
/// [`ladder`].
#[test]
fn bc_warm_session_tail_update_allocates_only_its_delta() {
    let g = seesaw(1);
    let s = session(QueryClass::Bc, &g);
    warm_session_update_allocates_only_its_delta(g, s, seesaw_round);
}
