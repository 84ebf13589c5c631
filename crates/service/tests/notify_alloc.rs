//! A notify pass allocates for what changed, not for `|G|`.
//!
//! Eight duplicate `REGISTER sssp source=0` subscribe to one shared view
//! of a graph at two sizes, and a 1-unit batch changes one distance. The
//! bytes allocated by one warm `notify_queries` pass — the view's update
//! plus eight `DELTA` pushes — must not grow with the graph: a subscriber
//! is a reference to its view, so nothing in the pass renders or copies
//! the view's output.
//!
//! Its own test binary because it installs a counting
//! `#[global_allocator]`. The count is armed per thread, so tests running
//! beside it on other threads do not show up in it.

use incgraph_graph::{NodeId, UpdateBatch};
use incgraph_service::{Outbound, Store, StoreLimits};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            BYTES.with(|b| b.set(b.get() + bytes));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only touches two
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated on this thread while `f` runs.
fn allocated(f: impl FnOnce()) -> usize {
    BYTES.with(|b| b.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    BYTES.with(|b| b.get())
}

const GRAPH: &str = "g";
const SUBSCRIBERS: usize = 8;

/// Bytes one warm notify pass allocates on an `n`-node graph: a path
/// `0 – 1 – … – n-2` plus a node `n-1` hung off node 0 at weight 5, whose
/// distance the 1-unit batch `+ 1 n-1` lowers to 2 and nothing else.
fn notify_bytes(n: usize) -> usize {
    let limits = StoreLimits {
        max_batch_units: n,
        ..StoreLimits::default()
    };
    let mut store = Store::new(limits);
    store.open_graph(GRAPH, n, false).unwrap();
    let last = (n - 1) as NodeId;
    let mut path = UpdateBatch::new();
    for v in 1..last {
        path.insert(v - 1, v, 1);
    }
    path.insert(0, last, 5);
    store.apply_update(GRAPH, "w", 1, &path).unwrap();
    let out = Arc::new(Outbound::new(1 << 16, 1 << 17, 256));
    for i in 0..SUBSCRIBERS {
        let qid = format!("q{i}");
        let len = store
            .register(1, &qid, GRAPH, "sssp", 0, 0, Arc::clone(&out))
            .unwrap();
        assert_eq!(len, n);
    }
    let mut shortcut = UpdateBatch::new();
    shortcut.insert(1, last, 1);
    let mut cut = UpdateBatch::new();
    cut.delete(1, last);
    // Warm the view's update path and the outbound queue.
    store.apply_update(GRAPH, "w", 2, &shortcut).unwrap();
    store.apply_update(GRAPH, "w", 3, &cut).unwrap();
    let (_, applied) = store
        .apply_update_deferred(GRAPH, "w", 4, &shortcut)
        .unwrap();
    let applied = applied.expect("a fresh batch commits");
    let bytes = allocated(|| store.notify_queries(GRAPH, std::slice::from_ref(&applied)));
    let (digest, seq) = store.query(1, "q0").unwrap();
    assert_eq!((digest[last as usize], seq), (2, 4));
    bytes
}

#[test]
fn a_notify_pass_allocates_independently_of_the_graph_size() {
    let small = notify_bytes(2_000);
    let large = notify_bytes(50_000);
    assert!(
        small == large || (small < 64 << 10 && large < 64 << 10),
        "one notify pass allocated {small} B at n = 2 000 and {large} B at n = 50 000"
    );
}
