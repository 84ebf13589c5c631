//! Smoke runs of the network-fault oracle (`incgraph_oracle::chaos`):
//! one quiet restart run, one chaotic restart run, and one failover
//! cycle. Each drives real servers over real sockets and audits the
//! surviving store — exactly-once against the clients' ack ledger, the
//! dedup table, and every class essence against genesis replay.

use incgraph_durable::CrashPoint;
use incgraph_oracle::{run_chaos, ChaosConfig, Schedule};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("incgraph-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn quiet_network_run_is_clean() {
    let dir = temp_dir("quiet");
    let report = run_chaos(
        &dir,
        &ChaosConfig {
            seed: 11,
            clients: 3,
            batches_per_client: 4,
            schedule: Schedule::Restarts {
                kills: 0,
                proxy_faults: false,
            },
        },
    )
    .unwrap_or_else(|f| panic!("quiet run must be clean: {f}"));
    assert_eq!(report.acked, 12);
    assert_eq!(report.wal_batches, 12);
    assert!(report.acked_at_deaths.is_empty());
    assert_eq!(report.classes_verified, 7);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaotic_run_survives_and_audits_clean() {
    let dir = temp_dir("full");
    let report = run_chaos(
        &dir,
        &ChaosConfig {
            seed: 0xFEED,
            clients: 4,
            batches_per_client: 8,
            schedule: Schedule::Restarts {
                kills: 3,
                proxy_faults: true,
            },
        },
    )
    .unwrap_or_else(|f| panic!("chaos audit failed: {f}"));
    assert_eq!(report.acked, 32, "{report:?}");
    assert_eq!(report.wal_batches, 32, "{report:?}");
    // Every kill lands, keyed to progress rather than to the clock.
    assert_eq!(report.acked_at_deaths.len(), 3, "{report:?}");
    assert_eq!(report.classes_verified, 7, "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failover_at_post_fsync_audits_clean() {
    let dir = temp_dir("failover");
    let report = run_chaos(
        &dir,
        &ChaosConfig {
            seed: 0xF1,
            clients: 3,
            batches_per_client: 6,
            schedule: Schedule::Failover {
                points: vec![CrashPoint::WalPostFsync],
            },
        },
    )
    .unwrap_or_else(|f| panic!("failover audit failed: {f}"));
    assert_eq!(report.stores, 1);
    assert_eq!(report.acked, 18, "{report:?}");
    // The primary died with batches still unacked, so retries crossed
    // the failover.
    assert_eq!(report.acked_at_deaths.len(), 1, "{report:?}");
    assert!(report.acked_at_deaths[0] < 18, "{report:?}");
    assert_eq!(report.classes_verified, 7, "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
