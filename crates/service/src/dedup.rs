//! The exactly-once intent log of stores written before WAL records
//! carried their client origin, and the one-time migration off it.
//!
//! Such a store kept a sidecar `dedup.log` beside its WAL: one
//! CRC-framed intent `(wal_seq, client_seq, token)` per committed client
//! batch, appended and fsynced *before* the WAL record. An intent whose
//! WAL sequence never committed (a crash between the two fsyncs) is an
//! orphan, and [`DedupLog::open`] physically truncates the log at the
//! first one: its WAL sequence is reused by the next commit, so a kept
//! orphan would alias into a false ack on a later open.
//!
//! A WAL record carries its batch's origin itself
//! ([`incgraph_durable::Origin`]), and the durable session folds the ack
//! table from the log ([`DurableSession::acks`]). [`migrate`] moves an
//! old store over once, when it is opened: it folds the intent log up to
//! the WAL's last sequence, checkpoints the table, and removes the log
//! before any new commit.

use incgraph_durable::crc::crc32;
use incgraph_durable::{AckRecord, Acks, DurableError, DurableSession};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File name of the intent log inside a graph's durable directory.
pub const DEDUP_NAME: &str = "dedup.log";

/// File magic.
pub const DEDUP_MAGIC: &[u8; 8] = b"IDUP0001";

/// An open, append-position intent log.
pub struct DedupLog {
    file: File,
}

/// Folds the valid committed prefix of a dedup-log *body* (the bytes
/// after the magic) into a token → last-ack index, plus the byte length
/// of that prefix. Stops at the first torn/corrupt record or the first
/// intent past `committed_wal_seq`.
fn parse_body(body: &[u8], committed_wal_seq: u64) -> (Acks, usize) {
    let mut index = Acks::new();
    let mut pos = 0usize;
    while body.len() - pos >= 8 {
        let len = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(body[pos + 4..pos + 8].try_into().unwrap());
        let Some(end) = pos.checked_add(8 + len).filter(|&e| e <= body.len()) else {
            break; // torn tail
        };
        let payload = &body[pos + 8..end];
        if crc32(payload) != crc || len < 18 {
            break;
        }
        let wal_seq = u64::from_le_bytes(payload[..8].try_into().unwrap());
        let client_seq = u64::from_le_bytes(payload[8..16].try_into().unwrap());
        let tlen = u16::from_le_bytes(payload[16..18].try_into().unwrap()) as usize;
        if 18 + tlen != len {
            break;
        }
        let Ok(token) = std::str::from_utf8(&payload[18..]) else {
            break;
        };
        if wal_seq > committed_wal_seq {
            break;
        }
        let rec = index.entry(token.to_string()).or_default();
        if client_seq >= rec.client_seq {
            *rec = AckRecord {
                client_seq,
                wal_seq,
            };
        }
        pos = end;
    }
    (index, pos)
}

fn encode_entry(token: &str, client_seq: u64, wal_seq: u64) -> Vec<u8> {
    let t = token.as_bytes();
    let mut payload = Vec::with_capacity(18 + t.len());
    payload.extend_from_slice(&wal_seq.to_le_bytes());
    payload.extend_from_slice(&client_seq.to_le_bytes());
    payload.extend_from_slice(&(t.len() as u16).to_le_bytes());
    payload.extend_from_slice(t);
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

impl DedupLog {
    /// Opens (or creates) the intent log in `dir`, folding its valid
    /// prefix into a token → last-ack index. Intents beyond
    /// `committed_wal_seq` were never committed and are discarded; a torn
    /// tail is truncated so subsequent appends extend a clean log.
    pub fn open(dir: &Path, committed_wal_seq: u64) -> Result<(DedupLog, Acks), DurableError> {
        let path = dir.join(DEDUP_NAME);
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let fresh = bytes.is_empty();
        if fresh {
            file.write_all(DEDUP_MAGIC)?;
            file.sync_data()?;
        } else if bytes.len() < 8 || &bytes[..8] != DEDUP_MAGIC {
            return Err(DurableError::Corrupt(format!(
                "{}: bad dedup log magic",
                path.display()
            )));
        }
        let body = if fresh { &[][..] } else { &bytes[8..] };
        // `parse_body` stops at the first torn record *or* the first
        // intent past `committed_wal_seq` — intents are appended in
        // WAL-sequence order, so uncommitted ones are a suffix. The
        // truncation below physically discards that suffix: an orphan
        // merely skipped but kept in the file could alias into a false
        // ack once its WAL sequence is reused by a later batch.
        let (index, pos) = parse_body(body, committed_wal_seq);
        let valid_end = 8 + pos as u64;
        file.set_len(valid_end)?;
        file.sync_data()?;
        file.seek(SeekFrom::Start(valid_end))?;
        Ok((DedupLog { file }, index))
    }

    /// Appends and fsyncs one intent.
    pub fn append(
        &mut self,
        token: &str,
        client_seq: u64,
        wal_seq: u64,
    ) -> Result<(), DurableError> {
        let entry = encode_entry(token, client_seq, wal_seq);
        self.file.write_all(&entry)?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// Moves the store `session` holds off its intent log, if it still has
/// one: folds the log up to the WAL's last sequence (which discards
/// orphan intents) into the session's ack table, writes a checkpoint
/// that carries the table, then removes the log and makes the removal
/// durable. A crash before the removal leaves the log in place and the
/// next open folds it again to the same table, since no commit ran in
/// between; a crash after it finds the table in the checkpoint. A store
/// without a log is left as it is.
pub fn migrate(session: &mut DurableSession) -> Result<(), DurableError> {
    let path = session.dir().join(DEDUP_NAME);
    if !path.exists() {
        return Ok(());
    }
    let (log, acks) = DedupLog::open(session.dir(), session.last_seq())?;
    drop(log);
    session.adopt_acks(acks);
    session.checkpoint()?;
    std::fs::remove_file(&path)?;
    File::open(session.dir())?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("incgraph-dedup-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_reload_folds_to_latest_ack() {
        let dir = temp_dir("fold");
        {
            let (mut log, index) = DedupLog::open(&dir, 0).unwrap();
            assert!(index.is_empty());
            log.append("alice", 1, 10).unwrap();
            log.append("bob", 1, 11).unwrap();
            log.append("alice", 2, 12).unwrap();
        }
        let (_, index) = DedupLog::open(&dir, 12).unwrap();
        assert_eq!(
            index["alice"],
            AckRecord {
                client_seq: 2,
                wal_seq: 12
            }
        );
        assert_eq!(
            index["bob"],
            AckRecord {
                client_seq: 1,
                wal_seq: 11
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_intents_are_discarded_on_open() {
        let dir = temp_dir("uncommitted");
        {
            let (mut log, _) = DedupLog::open(&dir, 0).unwrap();
            log.append("alice", 1, 10).unwrap();
            // Intent for WAL seq 11 whose commit never happened.
            log.append("alice", 2, 11).unwrap();
        }
        let (_, index) = DedupLog::open(&dir, 10).unwrap();
        assert_eq!(
            index["alice"],
            AckRecord {
                client_seq: 1,
                wal_seq: 10
            },
            "the uncommitted intent must not count as acked"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphaned_intent_is_physically_discarded_not_just_skipped() {
        let dir = temp_dir("orphan-alias");
        {
            let (mut log, _) = DedupLog::open(&dir, 0).unwrap();
            log.append("alice", 1, 10).unwrap();
            // Crash between intent fsync and WAL append: seq 11 is an
            // orphan whose WAL slot the next committed batch will reuse.
            log.append("alice", 2, 11).unwrap();
        }
        {
            // Restart: the orphan must be cut out of the file, not
            // merely excluded from the index.
            let (mut log, index) = DedupLog::open(&dir, 10).unwrap();
            assert_eq!(index["alice"].client_seq, 1);
            // A different client commits under the recycled WAL seq 11.
            log.append("bob", 1, 11).unwrap();
        }
        // Second restart, WAL now committed through 11. If the orphan
        // had survived the first open, alice's seq 2 would now alias in
        // as acked and her retry would be swallowed as a dup.
        let (_, index) = DedupLog::open(&dir, 11).unwrap();
        assert_eq!(
            index["alice"],
            AckRecord {
                client_seq: 1,
                wal_seq: 10
            },
            "orphaned intent must not resurrect once its wal_seq is recycled"
        );
        assert_eq!(
            index["bob"],
            AckRecord {
                client_seq: 1,
                wal_seq: 11
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_appendable() {
        let dir = temp_dir("torn");
        {
            let (mut log, _) = DedupLog::open(&dir, 0).unwrap();
            log.append("alice", 1, 10).unwrap();
        }
        // Tear the tail: append half a record's worth of garbage.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(DEDUP_NAME))
                .unwrap();
            f.write_all(&[0x55; 11]).unwrap();
        }
        let (mut log, index) = DedupLog::open(&dir, 10).unwrap();
        assert_eq!(index["alice"].client_seq, 1);
        log.append("alice", 2, 11).unwrap();
        let (_, index) = DedupLog::open(&dir, 11).unwrap();
        assert_eq!(index["alice"].client_seq, 2, "append after tear works");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
