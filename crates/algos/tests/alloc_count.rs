//! Proof that the steady-state incremental hot path is allocation-free.
//!
//! A counting `#[global_allocator]` wraps `System`; the counter is armed
//! only around the `state.update(&g, &applied)` call under test, so
//! graph mutation (`batch.apply`), batch construction, and test
//! bookkeeping never pollute the count. A warmup phase first runs the
//! same update shapes so every scratch structure (the `ScopeScratch`
//! arena, per-class `touched` buffers, the engine's persistent heap and
//! dependency buffers) grows to its working capacity; after that, a ΔG
//! update must not touch the heap at all.
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

use incgraph_algos::{CcState, Deduced, Deducible, ReachState, SimState, SsspState};
use incgraph_graph::{DynamicGraph, Pattern, UpdateBatch};

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
fn churn_round(g: &mut DynamicGraph, round: usize) -> incgraph_graph::AppliedBatch {
    let (u, v) = (16u32, 17u32);
    let mut batch = UpdateBatch::new();
    batch.delete(u, v).insert(u, v, 1 + (round % 2) as u32);
    batch.apply(g)
}

const N: usize = 64;
const WARMUP_ROUNDS: usize = 16;
const MEASURE_ROUNDS: usize = 8;

/// The body every class shares: warm the scratch structures up, then a
/// steady-state `Deduced::update` must not touch the heap.
fn steady_state_is_allocation_free<C: Deducible>(mut g: DynamicGraph, mut state: Deduced<C>) {
    for round in 0..WARMUP_ROUNDS {
        let applied = churn_round(&mut g, round);
        state.update(&g, &applied);
    }
    for round in WARMUP_ROUNDS..WARMUP_ROUNDS + MEASURE_ROUNDS {
        let applied = churn_round(&mut g, round);
        let allocs = count_allocs(|| {
            state.update(&g, &applied);
        });
        assert_eq!(
            allocs,
            0,
            "{} steady-state update allocated {allocs} times in round {round}",
            C::NAME
        );
    }
}

#[test]
fn sssp_steady_state_update_is_allocation_free() {
    let g = chord_ring(N);
    let (state, _) = SsspState::batch(&g, 0);
    steady_state_is_allocation_free(g, state);
}

#[test]
fn cc_steady_state_update_is_allocation_free() {
    let g = chord_ring(N);
    let (state, _) = CcState::batch(&g);
    steady_state_is_allocation_free(g, state);
}

#[test]
fn reach_steady_state_update_is_allocation_free() {
    let g = chord_ring(N);
    let (state, _) = ReachState::batch(&g, 0);
    steady_state_is_allocation_free(g, state);
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
    steady_state_is_allocation_free(g, state);
}
