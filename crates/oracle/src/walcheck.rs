//! Exactly-once WAL audit for ingest schedulers.
//!
//! The stream harness (crates/bench `stream`) acks a flush only after
//! [`DurableSession::apply`](incgraph_durable::DurableSession) returns,
//! i.e. after the WAL fsync that commits it. The paper-level invariant a
//! kill-and-recover run must preserve is therefore *exactly-once for every
//! acked flush*: each acked batch occupies exactly one WAL record whose
//! content matches what the scheduler admitted, and the only records
//! without an ack are the bounded in-flight tail a crash can strand
//! (committed by fsync, died before the ack made it back).
//!
//! The ingest side records `(WAL sequence, content fingerprint)` per ack
//! and [`audit_wal`] replays the log against that ledger. The RTO test
//! (`tests/stream_rto.rs`) and the `incgraph stream --crash-at` path run
//! it after every recovery, and the network-fault oracle
//! [`chaos`](crate::chaos) runs it on every store its restart and
//! failover schedules leave behind: there each client records its `ACK`s,
//! a dup `ACK` names the original sequence, and clients retry until
//! acked, so it audits with no committed-unacked record allowed.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;

use incgraph_durable::crc::crc32;
use incgraph_durable::{encode_record, ScannedRecord, Wal, FIRST_SEQ, WAL_NAME};
use incgraph_graph::UpdateBatch;

/// Sequence-independent content fingerprint of a batch: the CRC of its
/// canonical WAL encoding under a fixed placeholder sequence. Ingest
/// records this per acked flush; [`audit_wal`] recomputes it per WAL
/// record — a match proves the record holds the acked ΔG, not merely a
/// record at the acked sequence.
pub fn batch_fingerprint(batch: &UpdateBatch) -> u32 {
    crc32(&encode_record(0, batch))
}

/// One acknowledged flush, as the ingest side saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckedBatch {
    /// WAL sequence the store assigned at the commit point.
    pub seq: u64,
    /// [`batch_fingerprint`] of the admitted ΔG.
    pub fingerprint: u32,
}

/// Clean-audit accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalAuditReport {
    /// Records decoded from the WAL.
    pub wal_batches: usize,
    /// Acked flushes verified present exactly once with matching content.
    pub acked: usize,
    /// Logged-but-unacked records (the crash-stranded in-flight tail).
    pub committed_unacked: usize,
}

/// An exactly-once violation (or a harness bug surfacing as one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalAuditFailure {
    /// The WAL could not be opened or decoded.
    Io(String),
    /// WAL sequences are not strictly contiguous from [`FIRST_SEQ`].
    NonContiguous { expected: u64, found: u64 },
    /// Two acks in the ledger name the same sequence: a harness bug if
    /// one ingest side acked it twice, a server aliasing bug if two
    /// clients each got it for their own batch.
    DuplicateAck { seq: u64 },
    /// An acked flush has no WAL record: an acknowledged op was lost.
    AckedButLost { seq: u64 },
    /// The record at an acked sequence holds different content.
    ContentMismatch { seq: u64, expected: u32, found: u32 },
    /// More unacked records than crashes could have stranded in flight.
    ExcessUnacked { count: usize, limit: usize },
}

impl fmt::Display for WalAuditFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalAuditFailure::Io(e) => write!(f, "wal audit i/o: {e}"),
            WalAuditFailure::NonContiguous { expected, found } => {
                write!(f, "wal seq gap: expected {expected}, found {found}")
            }
            WalAuditFailure::DuplicateAck { seq } => {
                write!(f, "two acks in the ledger name wal seq {seq}")
            }
            WalAuditFailure::AckedButLost { seq } => {
                write!(f, "acked batch at seq {seq} missing from the wal")
            }
            WalAuditFailure::ContentMismatch {
                seq,
                expected,
                found,
            } => write!(
                f,
                "wal record {seq} content crc {found:#010x} != acked {expected:#010x}"
            ),
            WalAuditFailure::ExcessUnacked { count, limit } => write!(
                f,
                "{count} committed-unacked wal records exceed the in-flight limit {limit}"
            ),
        }
    }
}

impl std::error::Error for WalAuditFailure {}

/// Audits the WAL under `dir` against the ingest-side ack ledger:
///
/// 1. sequences are strictly contiguous from [`FIRST_SEQ`] (no gap, no
///    duplicate, no reordering);
/// 2. every acked flush is present **exactly once** — guaranteed by
///    contiguity plus a per-seq lookup — and its content fingerprint
///    matches the admitted ΔG;
/// 3. records without an ack number at most `max_committed_unacked`
///    (one per kill for a single-writer scheduler: the batch whose fsync
///    landed but whose ack never returned).
pub fn audit_wal(
    dir: &Path,
    acked: &[AckedBatch],
    max_committed_unacked: usize,
) -> Result<WalAuditReport, WalAuditFailure> {
    let records = wal_records(dir)?;

    let mut by_seq: HashMap<u64, u32> = HashMap::with_capacity(records.len());
    for (expected, rec) in (FIRST_SEQ..).zip(records.iter()) {
        if rec.seq != expected {
            return Err(WalAuditFailure::NonContiguous {
                expected,
                found: rec.seq,
            });
        }
        by_seq.insert(rec.seq, batch_fingerprint(&rec.batch));
    }

    let mut report = WalAuditReport {
        wal_batches: records.len(),
        ..WalAuditReport::default()
    };
    let mut acked_seqs: HashMap<u64, ()> = HashMap::with_capacity(acked.len());
    for a in acked {
        if acked_seqs.insert(a.seq, ()).is_some() {
            return Err(WalAuditFailure::DuplicateAck { seq: a.seq });
        }
        match by_seq.get(&a.seq) {
            None => return Err(WalAuditFailure::AckedButLost { seq: a.seq }),
            Some(&found) if found != a.fingerprint => {
                return Err(WalAuditFailure::ContentMismatch {
                    seq: a.seq,
                    expected: a.fingerprint,
                    found,
                })
            }
            Some(_) => report.acked += 1,
        }
    }

    report.committed_unacked = records
        .iter()
        .filter(|r| !acked_seqs.contains_key(&r.seq))
        .count();
    if report.committed_unacked > max_committed_unacked {
        return Err(WalAuditFailure::ExcessUnacked {
            count: report.committed_unacked,
            limit: max_committed_unacked,
        });
    }
    Ok(report)
}

/// The valid records of the WAL under `dir`, in sequence order (a torn
/// tail is cut, as recovery would).
pub(crate) fn wal_records(dir: &Path) -> Result<Vec<ScannedRecord>, WalAuditFailure> {
    let opened = Wal::open(&dir.join(WAL_NAME)).map_err(|e| WalAuditFailure::Io(e.to_string()))?;
    Ok(opened.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_durable::{DurableOptions, DurableSession};
    use incgraph_graph::DynamicGraph;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "incgraph-walcheck-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn batch(u: u32, v: u32, w: u32) -> UpdateBatch {
        let mut b = UpdateBatch::new();
        b.insert(u, v, w);
        b
    }

    /// Writes `n` single-insert batches through a real durable session and
    /// returns the ledger of acks.
    fn write_store(dir: &Path, n: u64) -> Vec<AckedBatch> {
        let g = DynamicGraph::new(true, 64);
        let mut s = DurableSession::create(dir, g, Vec::new(), DurableOptions::default()).unwrap();
        let mut acked = Vec::new();
        for k in 0..n {
            let b = batch(k as u32, (k + 1) as u32, 1 + k as u32);
            s.apply(&b).unwrap();
            acked.push(AckedBatch {
                seq: s.last_seq(),
                fingerprint: batch_fingerprint(&b),
            });
        }
        acked
    }

    #[test]
    fn clean_ledger_audits_clean() {
        let dir = scratch("clean");
        let acked = write_store(&dir, 5);
        let report = audit_wal(&dir, &acked, 0).unwrap();
        assert_eq!(report.wal_batches, 5);
        assert_eq!(report.acked, 5);
        assert_eq!(report.committed_unacked, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unacked_tail_is_tolerated_within_limit_only() {
        let dir = scratch("tail");
        let mut acked = write_store(&dir, 4);
        // Pretend the last flush's ack never came back.
        acked.pop();
        let report = audit_wal(&dir, &acked, 1).unwrap();
        assert_eq!(report.acked, 3);
        assert_eq!(report.committed_unacked, 1);
        assert!(matches!(
            audit_wal(&dir, &acked, 0),
            Err(WalAuditFailure::ExcessUnacked { count: 1, limit: 0 })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lost_ack_and_wrong_content_are_caught() {
        let dir = scratch("lost");
        let mut acked = write_store(&dir, 3);
        acked.push(AckedBatch {
            seq: 99,
            fingerprint: 0,
        });
        assert!(matches!(
            audit_wal(&dir, &acked, 0),
            Err(WalAuditFailure::AckedButLost { seq: 99 })
        ));
        acked.pop();
        acked[1].fingerprint ^= 1;
        assert!(matches!(
            audit_wal(&dir, &acked, 0),
            Err(WalAuditFailure::ContentMismatch { seq: 2, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_ack_is_a_harness_bug() {
        let dir = scratch("dup");
        let mut acked = write_store(&dir, 2);
        acked.push(acked[0]);
        assert!(matches!(
            audit_wal(&dir, &acked, 0),
            Err(WalAuditFailure::DuplicateAck { seq: 1 })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
