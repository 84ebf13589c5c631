//! Property tests of the legacy intent log's fold, in the style of the
//! WAL's `prop_wal.rs`: seeded entry streams through append → mutilate
//! → reopen.
//!
//! A store written while exactly-once intents lived in a sidecar
//! `dedup.log` is migrated once on open, and its ack table is what
//! `DedupLog::open` folds from that log, bounded by the WAL's last
//! sequence. The fold's contract is *longest valid committed prefix*:
//! whatever happened to the byte stream — a torn tail from a crash
//! mid-append, a flipped bit from storage rot, intents past the
//! committed WAL frontier — it must fold exactly the unharmed committed
//! leading entries into its index, physically truncate the rest, and
//! leave a log that clean appends extend. These tests check that
//! contract over every truncation boundary and every single-byte
//! corruption of the file.

use incgraph_service::dedup::{DedupLog, DEDUP_NAME};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "incgraph-dedup-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds a log of `n` intents (unique tokens, wal_seq 1..=n) and
/// returns the raw file bytes plus the file offset where each entry
/// ends (first element: end of the magic).
fn build_log(dir: &Path, n: u64) -> (Vec<u8>, Vec<usize>) {
    let (mut log, index) = DedupLog::open(dir, 0).unwrap();
    assert!(index.is_empty());
    let path = dir.join(DEDUP_NAME);
    let mut ends = vec![8usize];
    for i in 1..=n {
        log.append(&format!("tok{i:02}"), i * 10, i).unwrap();
        ends.push(std::fs::metadata(&path).unwrap().len() as usize);
    }
    drop(log);
    (std::fs::read(&path).unwrap(), ends)
}

fn write_log(dir: &Path, bytes: &[u8]) {
    std::fs::write(dir.join(DEDUP_NAME), bytes).unwrap();
}

/// Asserts that reopening recovers exactly the first `expect` entries,
/// that the file is truncated to that boundary, and that the log still
/// accepts appends afterwards.
fn assert_recovers(dir: &Path, committed: u64, expect: usize, ends: &[usize], ctx: &str) {
    let (mut log, index) = DedupLog::open(dir, committed).unwrap();
    assert_eq!(index.len(), expect, "index size: {ctx}");
    for i in 1..=expect as u64 {
        let rec = index
            .get(&format!("tok{i:02}"))
            .unwrap_or_else(|| panic!("entry {i} lost: {ctx}"));
        assert_eq!((rec.client_seq, rec.wal_seq), (i * 10, i), "{ctx}");
    }
    let truncated = std::fs::metadata(dir.join(DEDUP_NAME)).unwrap().len() as usize;
    assert_eq!(truncated, ends[expect], "file not cut at boundary: {ctx}");
    // A post-recovery append must extend the clean prefix.
    log.append("fresh", 1, committed + 1).unwrap();
    drop(log);
    let (_, again) = DedupLog::open(dir, committed + 1).unwrap();
    assert_eq!(again.len(), expect + 1, "append after recovery: {ctx}");
    assert_eq!(again["fresh"].wal_seq, committed + 1, "{ctx}");
}

#[test]
fn truncation_at_every_boundary_recovers_longest_valid_prefix() {
    let dir = temp_dir("trunc");
    let (bytes, ends) = build_log(&dir, 8);
    let n = ends.len() - 1;
    for cut in 0..=bytes.len() {
        write_log(&dir, &bytes[..cut]);
        if cut > 0 && cut < 8 {
            // A torn magic is corruption, not an empty log: refuse.
            assert!(
                DedupLog::open(&dir, n as u64).is_err(),
                "cut {cut}: partial magic must not open"
            );
            continue;
        }
        let expect = ends[1..].iter().filter(|&&e| e <= cut).count();
        assert_recovers(&dir, n as u64, expect, &ends, &format!("cut at byte {cut}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_byte_corruption_cuts_the_log_at_the_damaged_entry() {
    let dir = temp_dir("flip");
    let (bytes, ends) = build_log(&dir, 6);
    let n = ends.len() - 1;
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        write_log(&dir, &bad);
        if pos < 8 {
            assert!(
                DedupLog::open(&dir, n as u64).is_err(),
                "flip {pos}: damaged magic must not open"
            );
            continue;
        }
        // The entry the damaged byte falls in dies; everything before
        // it survives.
        let hit = ends[1..].iter().filter(|&&e| e <= pos).count();
        assert_recovers(&dir, n as u64, hit, &ends, &format!("flip at byte {pos}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn intents_past_the_committed_frontier_are_discarded() {
    let dir = temp_dir("uncommitted");
    let (_, ends) = build_log(&dir, 8);
    // Only 5 of the 8 intents ever committed to the WAL: recovery must
    // drop the uncommitted suffix — an orphan kept in the file could
    // alias into a false ack once its WAL sequence is reused.
    for committed in 0..=8usize {
        let (bytes, _) = (std::fs::read(dir.join(DEDUP_NAME)).unwrap(), ());
        write_log(&dir, &bytes); // restore full log each round
        assert_recovers(
            &dir,
            committed as u64,
            committed,
            &ends,
            &format!("committed={committed}"),
        );
        // assert_recovers appended one "fresh" entry; rebuild.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        build_log(&dir, 8);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_token_retries_keep_the_latest_ack() {
    let dir = temp_dir("latest");
    let (mut log, _) = DedupLog::open(&dir, 0).unwrap();
    log.append("alice", 1, 1).unwrap();
    log.append("bob", 1, 2).unwrap();
    log.append("alice", 2, 3).unwrap();
    drop(log);
    let (_, index) = DedupLog::open(&dir, 3).unwrap();
    assert_eq!(index.len(), 2);
    let a = index.get("alice").unwrap();
    assert_eq!((a.client_seq, a.wal_seq), (2, 3));
    let b = index.get("bob").unwrap();
    assert_eq!((b.client_seq, b.wal_seq), (1, 2));
    let _ = std::fs::remove_dir_all(&dir);
}
