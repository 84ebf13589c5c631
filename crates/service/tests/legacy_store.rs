//! A store written while exactly-once intents lived in a sidecar
//! `dedup.log` opens into the one-log layout: origin-less WAL records, a
//! checkpoint without an ack section and the intent log are migrated
//! once, and the store answers retries as it did before — also when the
//! migration dies at either checkpoint crash point.

use incgraph_durable::{recover, CrashPoint, DurableError, DurableOptions, DurableSession};
use incgraph_graph::{DynamicGraph, UpdateBatch};
use incgraph_service::dedup::{self, DedupLog, DEDUP_NAME};
use incgraph_service::store::{standing_states, Ack, UpdateError, DURABLE_PATTERN_SEED};
use incgraph_service::{ErrCode, Store, StoreLimits};
use std::path::{Path, PathBuf};

const GRAPH: &str = "g0";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("incgraph-legacy-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch(k: u32) -> UpdateBatch {
    let mut b = UpdateBatch::new();
    b.insert(k, k + 1, 1);
    b
}

/// Writes the old layout: per batch an intent through `DedupLog`, then
/// an origin-less WAL record; a section-less checkpoint after the second
/// batch; and last an orphan intent whose WAL record never landed.
/// alice's last committed batch is her seq 2 at WAL seq 3, bob's his
/// seq 1 at WAL seq 2.
fn legacy_store(dir: &Path) {
    let g = DynamicGraph::new(false, 16);
    let states = standing_states(&g, DURABLE_PATTERN_SEED);
    let mut session = DurableSession::create(dir, g, states, DurableOptions::default()).unwrap();
    let (mut log, acks) = DedupLog::open(dir, 0).unwrap();
    assert!(acks.is_empty());
    for (k, (token, client_seq)) in [("alice", 1), ("bob", 1), ("alice", 2)]
        .into_iter()
        .enumerate()
    {
        let wal_seq = k as u64 + 1;
        log.append(token, client_seq, wal_seq).unwrap();
        session.apply(&batch(k as u32)).unwrap();
        if wal_seq == 2 {
            session.checkpoint().unwrap();
        }
    }
    log.append("alice", 3, 4).unwrap();
}

fn open(dir: &Path) -> Store {
    let options = DurableOptions::default();
    Store::open_durable(dir, GRAPH, 16, false, options, StoreLimits::default()).unwrap()
}

/// The store answers the last acked `(token, seq)` as a `dup` at its WAL
/// sequence, and the seq after the next one as a gap.
fn assert_answers(store: &mut Store) {
    for (token, last, wal_seq) in [("alice", 2, 3), ("bob", 1, 2)] {
        let ack = store.apply_update(GRAPH, token, last, &batch(9)).unwrap();
        let want = Ack {
            client_seq: last,
            wal_seq,
            units: 1,
            dup: true,
        };
        assert_eq!(ack, want, "{token}");
        match store.apply_update(GRAPH, token, last + 2, &batch(9)) {
            Err(UpdateError::Wire(ErrCode::SeqGap, _)) => {}
            Err(UpdateError::Wire(code, detail)) => panic!("{token}: {code} {detail}"),
            other => panic!("{token}: expected seq-gap, got {other:?}"),
        }
    }
}

#[test]
fn a_store_with_an_intent_log_migrates_once_and_keeps_its_acks() {
    let dir = temp_dir("migrate");
    legacy_store(&dir);
    let mut store = open(&dir);
    assert!(
        !dir.join(DEDUP_NAME).exists(),
        "the log is gone after the open"
    );
    assert_answers(&mut store);
    drop(store);
    let mut store = open(&dir);
    assert_answers(&mut store);
    // The next commit continues the client's sequence on the one log.
    let ack = store.apply_update(GRAPH, "alice", 3, &batch(5)).unwrap();
    assert_eq!((ack.wal_seq, ack.dup), (4, false));
    drop(store);
    assert!(!dir.join(DEDUP_NAME).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_migration_killed_at_either_checkpoint_point_reopens_to_the_same_table() {
    for point in [CrashPoint::MidCheckpoint, CrashPoint::PostRename] {
        let dir = temp_dir(point.name());
        legacy_store(&dir);
        let (mut session, _) = recover(&dir, DurableOptions::default()).unwrap();
        session.arm_crash(Some(point));
        match dedup::migrate(&mut session) {
            Err(DurableError::InjectedCrash(p)) => assert_eq!(p, point),
            other => panic!("{point}: expected the injected crash, got {other:?}"),
        }
        drop(session);
        assert!(
            dir.join(DEDUP_NAME).exists(),
            "{point}: the log outlives the crash"
        );
        let mut store = open(&dir);
        assert_answers(&mut store);
        assert!(!dir.join(DEDUP_NAME).exists(), "{point}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
