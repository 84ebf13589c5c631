//! Recovery-time-objective oracle for the sustained-stream harness:
//! kill the server's store mid-replay at **every** injectable crash
//! point, reopen it, retry the in-flight flush under its `(token, seq)`
//! as a client would, and demand
//!
//! 1. every acked flush is applied exactly once after the reopen — the
//!    WAL audit (`incgraph_oracle::walcheck`) runs inside the harness
//!    after the recovery *and* at end of run, and the harness errors
//!    (`StreamError::Audit`) if either fails;
//! 2. the final store digest is byte-identical to an uninterrupted run
//!    of the same virtual-time schedule — recovery is *verifiable*,
//!    not just plausible;
//! 3. an RTO was actually measured and recorded (the crash fired), and
//!    recovery replayed only a checkpoint-bounded WAL suffix.
//!
//! One `#[test]` because the harness's `registry: None` path owns the
//! process-global obs recorder.

use incgraph_bench::stream::{run_stream, StreamConfig, StreamCrash};
use incgraph_durable::CrashPoint;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("incgraph-streamrto-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(store: PathBuf) -> StreamConfig {
    let mut cfg = StreamConfig::new(store);
    cfg.scale = 0.05;
    cfg.virtual_time = true;
    cfg.flush_ops = 16;
    // Tight cadence so the checkpoint-path crash points (mid-checkpoint,
    // post-rename) fire soon after arming, and so recovery replays a
    // short, checkpoint-bounded WAL suffix.
    cfg.checkpoint_every = Some(2);
    cfg
}

#[test]
fn kill_at_every_crash_point_recovers_exactly_once() {
    let clean_dir = scratch("clean");
    let clean = run_stream(&cfg(clean_dir.clone()), None).expect("clean run");
    let _ = std::fs::remove_dir_all(&clean_dir);
    assert!(clean.rto_ms.is_none());
    assert_eq!(clean.committed_unacked, 0);

    for point in CrashPoint::ALL {
        let dir = scratch(point.name());
        let mut c = cfg(dir.clone());
        c.crash = Some(StreamCrash {
            point,
            at_frac: 0.5,
        });
        let crashed =
            run_stream(&c, None).unwrap_or_else(|e| panic!("{}: stream failed: {e}", point.name()));
        let _ = std::fs::remove_dir_all(&dir);

        // The kill fired and recovery was measured.
        let rto = crashed
            .rto_ms
            .unwrap_or_else(|| panic!("{}: crash never fired", point.name()));
        assert!(rto > 0.0, "{}: RTO must be positive", point.name());
        assert_eq!(crashed.crash_point.as_deref(), Some(point.name()));

        // Checkpoint-bounded recovery: the WAL suffix replayed is capped
        // by the checkpoint cadence, not the stream length.
        let replayed = crashed
            .recovered_replayed
            .unwrap_or_else(|| panic!("{}: no recovery report", point.name()));
        assert!(
            replayed <= 2,
            "{}: replayed {replayed} records despite checkpoint_every=2",
            point.name()
        );

        // Exactly-once held (the in-harness audits passed — the run
        // would have errored otherwise) and the stranded in-flight tail
        // is at most the single flush a kill can orphan.
        assert!(
            crashed.committed_unacked <= 1,
            "{}: {} committed-unacked records",
            point.name(),
            crashed.committed_unacked
        );

        // The recovered world converges to the uninterrupted one.
        assert_eq!(crashed.ops_total, clean.ops_total, "{}", point.name());
        assert_eq!(crashed.batches, clean.batches, "{}", point.name());
        assert_eq!(
            crashed.digest,
            clean.digest,
            "{}: kill+recover must be value-identical to the clean run",
            point.name()
        );
    }
}
