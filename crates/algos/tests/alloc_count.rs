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
    BcState, CcState, DfsState, IncrementalState, ReachState, SimState, SsspState,
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
    let mut g = DynamicGraph::new(false, n);
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
    let mut g = chord_ring(N);
    for v in 0..N as u32 {
        g.set_label(v, v % 2);
    }
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
    if round % 2 == 0 {
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
