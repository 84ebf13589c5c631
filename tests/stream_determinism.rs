//! Virtual-time determinism oracle for the sustained-stream harness:
//! with `--virtual-time`, the same seeded workload, the same rate and
//! the same flush policy must produce a **byte-identical final store
//! digest** and identical accounting — the flush partition is a pure
//! function of `(arrivals, policy)` when processing takes zero virtual
//! time, and the engine under it is deterministic.
//!
//! Everything lives in one `#[test]` on purpose: the obs recorder is
//! process-global, and the `registry: None` path (the one the CLI uses
//! without `--metrics`) installs/uninstalls it — parallel tests would
//! race. Within the single test, latencies are deliberately *excluded*
//! from the determinism assertions (they are wall-clock even in virtual
//! mode); digests, op counts, flush partitions, miss counts, and
//! coalescing totals are the deterministic surface.

use incgraph_bench::stream::{run_stream, StreamConfig, StreamReport};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("incgraph-streamdet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn virtual_cfg(store: PathBuf, rate: f64, flush_ops: usize) -> StreamConfig {
    let mut cfg = StreamConfig::new(store);
    cfg.scale = 0.05;
    cfg.virtual_time = true;
    cfg.rate_ops_s = rate;
    cfg.flush_ops = flush_ops;
    cfg.checkpoint_every = Some(8);
    cfg
}

fn run(tag: &str, rate: f64, flush_ops: usize) -> StreamReport {
    let dir = scratch(tag);
    // `None`: exercise the real local-registry install/uninstall path,
    // so the reported per-class histograms are live too.
    let report = run_stream(&virtual_cfg(dir.clone(), rate, flush_ops), None)
        .expect("virtual stream replay must succeed");
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[test]
fn same_seed_and_schedule_is_byte_identical() {
    let a = run("a1", 20_000.0, 16);
    let b = run("a2", 20_000.0, 16);

    // The invariant: the same seeded workload and schedule ⇒ identical
    // final store digest.
    assert_eq!(a.digest, b.digest, "virtual-time digests must match");

    // And identical accounting, field by field.
    assert_eq!(a.ops_total, b.ops_total);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.coalesced_ops, b.coalesced_ops);
    assert_eq!(a.deadline_misses, b.deadline_misses);
    assert_eq!(a.miss_rate, b.miss_rate);
    assert_eq!(a.backpressure_events, 0, "virtual mode never backpressures");
    assert_eq!(b.backpressure_events, 0);

    // The run was substantive: several flushes, all seven classes
    // standing (undirected base), every op observed by every class.
    assert!(
        a.batches >= 4,
        "want a multi-flush partition, got {}",
        a.batches
    );
    assert_eq!(a.classes.len(), 7);
    for c in &a.classes {
        assert_eq!(
            c.updates, a.ops_total as u64,
            "{}: every op must be observed by the standing query",
            c.class
        );
    }

    // A different flush policy changes the partition (so the
    // accounting gate has teeth) but never the final store: the same
    // ops flow through, just batched differently.
    let c = run("a3", 20_000.0, 64);
    assert_eq!(c.ops_total, a.ops_total);
    assert_ne!(c.batches, a.batches, "coarser flushes ⇒ fewer batches");
    assert_eq!(
        c.digest, a.digest,
        "the final store is schedule-partition independent"
    );

    // A different rate rescales the arrival schedule; op totals are
    // workload-determined and unchanged.
    let e = run("a5", 5_000.0, 16);
    assert_eq!(e.ops_total, a.ops_total);
    assert_eq!(e.digest, a.digest);
}
