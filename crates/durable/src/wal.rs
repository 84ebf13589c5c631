//! Write-ahead log of applied [`UpdateBatch`]es.
//!
//! Layout: an 8-byte file magic, then a sequence of records
//!
//! ```text
//! [len: u32][seq: u64][crc: u32][payload: len bytes]      (little-endian)
//! ```
//!
//! where `crc` is the CRC-32 of `seq || payload` and `payload` encodes the
//! batch's unit updates, optionally followed by the batch's client
//! [`Origin`]:
//!
//! ```text
//! [count: u32][update]*  [client_seq: u64][token_len: u16][token]     (origin optional)
//! ```
//!
//! A record without an origin is the batch alone, so records written
//! without one keep their bytes. Trailing bytes that are not exactly one
//! well-formed origin make the record invalid, like any other damage.
//! The origins along the log are the exactly-once ack table's history:
//! recovery folds them over the newest checkpoint's table.
//!
//! Records carry strictly consecutive sequence numbers starting at 1;
//! the log is append-only and never compacted (the genesis checkpoint
//! plus a full replay must always be able to reconstruct the present —
//! see the recovery ladder in [`recover`](crate::recover)).
//!
//! **Commit protocol**: a batch is durable once its record is fully
//! written *and* fsynced. [`Wal::append`] does exactly that before
//! returning, so the in-memory state machine may only advance past a batch
//! the log already owns. A crash mid-append leaves a *torn tail* — a
//! partial record, or a complete-looking record whose CRC fails —
//! which [`Wal::open`] detects and truncates, recovering the longest
//! valid prefix. Anything after the first invalid boundary is discarded
//! even if later bytes happen to look like records: ordering is part of
//! the contract, and a hole means the tail is garbage.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use incgraph_graph::{Update, UpdateBatch};

use crate::bytes::{put_u16, put_u32, put_u64, put_u8, Reader};
use crate::crc::crc32;
use crate::{CrashPoint, DurableError};

/// Magic prefix of a WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"IWAL0001";

/// First sequence number a log hands out.
pub const FIRST_SEQ: u64 = 1;

/// The client identity a batch committed under: its retry token and the
/// client's sequence number. A record that carries one makes a retry of
/// `(token, client_seq)` a duplicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Origin {
    /// Client retry identity, at most `u16::MAX` bytes.
    pub token: String,
    /// Client-supplied sequence number.
    pub client_seq: u64,
}

/// Appends an origin as `client_seq, token_len: u16, token`.
pub(crate) fn put_origin(out: &mut Vec<u8>, token: &str, client_seq: u64) {
    let len = u16::try_from(token.len()).expect("an origin token is at most u16::MAX bytes");
    put_u64(out, client_seq);
    put_u16(out, len);
    out.extend_from_slice(token.as_bytes());
}

/// Reads an origin written by [`put_origin`].
pub(crate) fn read_origin(r: &mut Reader<'_>) -> Result<Origin, DurableError> {
    let client_seq = r.u64()?;
    let len = r.u16()? as usize;
    let token = std::str::from_utf8(r.take(len)?)
        .map_err(|_| DurableError::Corrupt("origin token is not UTF-8".into()))?;
    Ok(Origin {
        token: token.to_string(),
        client_seq,
    })
}

/// Encodes a record payload: unit count, tagged unit updates, then the
/// origin if there is one.
fn encode_payload(batch: &UpdateBatch, origin: Option<&Origin>) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, batch.len() as u32);
    for u in batch.updates() {
        match *u {
            Update::Insert { src, dst, weight } => {
                put_u8(&mut out, 0);
                put_u32(&mut out, src);
                put_u32(&mut out, dst);
                put_u32(&mut out, weight);
            }
            Update::Delete { src, dst } => {
                put_u8(&mut out, 1);
                put_u32(&mut out, src);
                put_u32(&mut out, dst);
            }
        }
    }
    if let Some(o) = origin {
        put_origin(&mut out, &o.token, o.client_seq);
    }
    out
}

fn decode_payload(payload: &[u8]) -> Result<(UpdateBatch, Option<Origin>), DurableError> {
    let mut r = Reader::new(payload);
    let count = r.u32()? as usize;
    let mut updates = Vec::with_capacity(count.min(payload.len()));
    for _ in 0..count {
        match r.u8()? {
            0 => {
                let src = r.u32()?;
                let dst = r.u32()?;
                let weight = r.u32()?;
                updates.push(Update::Insert { src, dst, weight });
            }
            1 => {
                let src = r.u32()?;
                let dst = r.u32()?;
                updates.push(Update::Delete { src, dst });
            }
            t => return Err(DurableError::Corrupt(format!("unknown update tag {t}"))),
        }
    }
    let origin = if r.at_end() {
        None
    } else {
        Some(read_origin(&mut r)?)
    };
    r.finish()?;
    Ok((UpdateBatch::from_updates(updates), origin))
}

/// Encodes one full WAL record for `batch` with sequence number `seq`
/// and no origin.
pub fn encode_record(seq: u64, batch: &UpdateBatch) -> Vec<u8> {
    encode_record_with(seq, batch, None)
}

/// [`encode_record`] with the batch's client origin, if any.
pub fn encode_record_with(seq: u64, batch: &UpdateBatch, origin: Option<&Origin>) -> Vec<u8> {
    let payload = encode_payload(batch, origin);
    let mut sum = Vec::with_capacity(8 + payload.len());
    put_u64(&mut sum, seq);
    sum.extend_from_slice(&payload);
    let crc = crc32(&sum);

    let mut out = Vec::with_capacity(16 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u64(&mut out, seq);
    put_u32(&mut out, crc);
    out.extend_from_slice(&payload);
    out
}

/// One decoded record with its byte offset inside the scanned body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScannedRecord {
    /// Sequence number.
    pub seq: u64,
    /// Offset of the record's first byte within the scanned body.
    pub offset: usize,
    /// The decoded batch.
    pub batch: UpdateBatch,
    /// The client origin the batch committed under, if it carries one.
    pub origin: Option<Origin>,
}

impl ScannedRecord {
    /// The record's bytes, as the log holds them.
    pub fn encode(&self) -> Vec<u8> {
        encode_record_with(self.seq, &self.batch, self.origin.as_ref())
    }
}

/// Result of scanning a WAL body (the bytes after the file magic).
#[derive(Clone, Debug, Default)]
pub struct Scan {
    /// Records of the longest valid prefix, in order.
    pub records: Vec<ScannedRecord>,
    /// Length of that prefix in bytes; everything after it is torn tail.
    pub valid_len: usize,
}

/// Scans `body` for records, expecting the first sequence number to be
/// `first_seq` and each following record to be its predecessor plus one.
/// Stops at the first torn, corrupt, or out-of-sequence boundary and
/// reports the longest valid prefix — this is the total function the
/// recovery path and the property tests share.
pub fn scan_records(body: &[u8], first_seq: u64) -> Scan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut expected = first_seq;
    loop {
        let rest = &body[pos..];
        if rest.len() < 16 {
            break; // header torn (or clean EOF at rest.is_empty())
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let seq = u64::from_le_bytes(rest[4..12].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[12..16].try_into().unwrap());
        let Some(total) = len.checked_add(16).filter(|&t| t <= rest.len()) else {
            break; // payload torn
        };
        let payload = &rest[16..total];
        let mut sum = Vec::with_capacity(8 + payload.len());
        put_u64(&mut sum, seq);
        sum.extend_from_slice(payload);
        if crc32(&sum) != crc {
            break; // bit rot or a torn write that still filled the length
        }
        if seq != expected {
            break; // hole or replayed tail: ordering is part of validity
        }
        let Ok((batch, origin)) = decode_payload(payload) else {
            break; // CRC-clean but semantically malformed: treat as tail
        };
        records.push(ScannedRecord {
            seq,
            offset: pos,
            batch,
            origin,
        });
        pos += total;
        expected += 1;
    }
    Scan {
        records,
        valid_len: pos,
    }
}

/// An open, append-position WAL file.
pub struct Wal {
    file: File,
    path: PathBuf,
    end: u64,
}

/// Result of [`Wal::open`]: the log, its valid records, and how many torn
/// bytes were truncated away.
pub struct WalOpen {
    /// The log, positioned for appends.
    pub wal: Wal,
    /// Valid records, in sequence order.
    pub records: Vec<ScannedRecord>,
    /// Torn-tail bytes discarded by recovery truncation.
    pub truncated_bytes: u64,
}

impl Wal {
    /// Opens (or creates) the log at `path`, scanning and truncating any
    /// torn tail so the file ends at a record boundary. Records are
    /// expected to start at [`FIRST_SEQ`]; a store whose history begins
    /// after a shipped snapshot opens with [`Wal::open_from`] instead.
    pub fn open(path: &Path) -> Result<WalOpen, DurableError> {
        Self::open_from(path, FIRST_SEQ)
    }

    /// [`Wal::open`] with an explicit first expected sequence number —
    /// `base + 1` for a replica whose log begins after a snapshot's
    /// covered sequence. Records that do not start at `first_seq` are
    /// treated like any other out-of-sequence tail and truncated.
    pub fn open_from(path: &Path, first_seq: u64) -> Result<WalOpen, DurableError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut contents = Vec::new();
        file.read_to_end(&mut contents)?;

        let mut truncated = 0u64;
        if contents.len() < WAL_MAGIC.len() || &contents[..WAL_MAGIC.len()] != WAL_MAGIC {
            // A short prefix of the magic is a crash during creation —
            // recover to an empty log. Anything else is not a WAL.
            if !contents.is_empty() && !WAL_MAGIC.starts_with(contents.as_slice()) {
                return Err(DurableError::Corrupt(format!(
                    "{} is not a WAL file",
                    path.display()
                )));
            }
            truncated += contents.len() as u64;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
            let end = WAL_MAGIC.len() as u64;
            return Ok(WalOpen {
                wal: Wal {
                    file,
                    path: path.to_path_buf(),
                    end,
                },
                records: Vec::new(),
                truncated_bytes: truncated,
            });
        }

        let body = &contents[WAL_MAGIC.len()..];
        let scan = scan_records(body, first_seq);
        let valid_end = (WAL_MAGIC.len() + scan.valid_len) as u64;
        truncated += contents.len() as u64 - valid_end;
        if truncated > 0 {
            file.set_len(valid_end)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_end))?;
        let mut records = scan.records;
        for r in &mut records {
            r.offset += WAL_MAGIC.len(); // report absolute file offsets
        }
        Ok(WalOpen {
            wal: Wal {
                file,
                path: path.to_path_buf(),
                end: valid_end,
            },
            records,
            truncated_bytes: truncated,
        })
    }

    /// File path of the log.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current append offset (= file length).
    pub fn end_offset(&self) -> u64 {
        self.end
    }

    /// Appends and fsyncs one record of `batch` and its `origin`. On
    /// success the batch is durable: the record is fully on stable
    /// storage before this returns.
    ///
    /// `crash` injects a failure for the crash-recovery harness:
    /// [`CrashPoint::WalPreFsync`] writes a torn prefix of the record and
    /// skips the fsync (the batch must *not* survive recovery);
    /// [`CrashPoint::WalPostFsync`] completes the append and fsync, then
    /// dies (the batch *must* survive recovery). Either way the in-process
    /// `Wal` is dead — the harness drops it and recovers from disk.
    pub fn append(
        &mut self,
        seq: u64,
        batch: &UpdateBatch,
        origin: Option<&Origin>,
        crash: Option<CrashPoint>,
    ) -> Result<(), DurableError> {
        let record = encode_record_with(seq, batch, origin);
        match crash {
            Some(CrashPoint::WalPreFsync) => {
                // Torn write: half the record reaches the file, no fsync.
                let torn = &record[..record.len() / 2];
                self.file.write_all(torn)?;
                self.file.flush()?;
                return Err(DurableError::InjectedCrash(CrashPoint::WalPreFsync));
            }
            _ => {
                // The fsync-latency seam: `wal.commit` is the time one
                // committed record spends reaching stable storage.
                let _span = incgraph_obs::span("wal.commit");
                self.file.write_all(&record)?;
                self.file.sync_data()?;
            }
        }
        self.end += record.len() as u64;
        incgraph_obs::counter("wal.records", 1);
        incgraph_obs::counter("wal.bytes", record.len() as u64);
        if crash == Some(CrashPoint::WalPostFsync) {
            return Err(DurableError::InjectedCrash(CrashPoint::WalPostFsync));
        }
        Ok(())
    }

    /// Truncates the log at an absolute file offset (a record boundary
    /// reported by [`Wal::open`]) — used when replay rejects a CRC-clean
    /// but semantically impossible suffix.
    pub fn truncate_to(&mut self, offset: u64) -> Result<(), DurableError> {
        self.file.set_len(offset)?;
        self.file.sync_data()?;
        self.file.seek(SeekFrom::Start(offset))?;
        self.end = offset;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: u32) -> UpdateBatch {
        let mut b = UpdateBatch::new();
        b.insert(n, n + 1, 2 * n + 1).delete(n, n + 2);
        b
    }

    #[test]
    fn record_roundtrip_via_scan() {
        let mut body = Vec::new();
        for seq in 1..=3u64 {
            body.extend_from_slice(&encode_record(seq, &batch(seq as u32)));
        }
        let scan = scan_records(&body, FIRST_SEQ);
        assert_eq!(scan.valid_len, body.len());
        assert_eq!(scan.records.len(), 3);
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.batch, batch(r.seq as u32));
        }
    }

    #[test]
    fn out_of_sequence_record_truncates() {
        let mut body = encode_record(1, &batch(0));
        let first_len = body.len();
        body.extend_from_slice(&encode_record(3, &batch(1))); // hole: 2 missing
        let scan = scan_records(&body, FIRST_SEQ);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, first_len);
    }

    #[test]
    fn open_truncates_torn_tail_and_recovers_prefix() {
        let dir = std::env::temp_dir().join(format!("incgraph-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let _ = std::fs::remove_file(&path);

        {
            let mut open = Wal::open(&path).unwrap();
            open.wal.append(1, &batch(0), None, None).unwrap();
            open.wal.append(2, &batch(1), None, None).unwrap();
        }
        // Simulate a crash mid-append: a third record, half-written.
        let torn = encode_record(3, &batch(2));
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&torn[..torn.len() / 2]).unwrap();
        }
        let open = Wal::open(&path).unwrap();
        assert_eq!(open.records.len(), 2);
        assert!(open.truncated_bytes > 0);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            open.wal.end_offset()
        );
        // The recovered log accepts the next append cleanly.
        let mut wal = open.wal;
        wal.append(3, &batch(2), None, None).unwrap();
        let reopened = Wal::open(&path).unwrap();
        assert_eq!(reopened.records.len(), 3);
        assert_eq!(reopened.truncated_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_wal_file_is_rejected() {
        let dir = std::env::temp_dir().join(format!("incgraph-wal-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not-a.wal");
        std::fs::write(&path, b"definitely not a log").unwrap();
        assert!(matches!(Wal::open(&path), Err(DurableError::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }
}
