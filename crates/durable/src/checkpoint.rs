//! Checkpoints of the full incremental state, and the manifest that
//! points at the newest one.
//!
//! A checkpoint file is
//!
//! ```text
//! [magic: 8 bytes][payload][crc: u32 over payload]
//! ```
//!
//! whose payload captures everything recovery needs: the WAL sequence
//! number the checkpoint covers, the graph at that point (direction flag,
//! labels, edges), and one self-describing `SaveState` blob per tracked
//! query class (see `incgraph_algos::persist`), then the exactly-once ack
//! table when it is non-empty: a count and, per token in byte order,
//! `wal_seq: u64` followed by the WAL's origin encoding
//! (`client_seq: u64, token_len: u16, token`). A payload that ends after
//! the blobs holds the empty table, so a store no client token ever
//! wrote to checkpoints the same bytes it did before the table existed,
//! and with the WAL suffix's origins this section is all recovery needs
//! to answer retries. The CRC is over the whole
//! payload, so *any* corruption — graph bytes, a single state blob —
//! invalidates the file as a unit and the recovery ladder moves on to an
//! older checkpoint rather than trusting a half-good one.
//!
//! **Atomicity**: checkpoints are written to a `.tmp` sibling, fsynced,
//! and atomically renamed into place, then the directory is fsynced so
//! the rename itself is durable. The manifest (`MANIFEST`) is replaced
//! the same way. A crash at any point leaves either the old world or the
//! new world, never a half-written visible file; a crash between rename
//! and manifest update leaves a valid checkpoint the manifest does not
//! know about, which recovery finds anyway by scanning the directory.
//!
//! Checkpoint 0 — the *genesis* checkpoint written when a durable
//! directory is created — is never rotated out: together with the
//! append-only WAL it guarantees full replay remains possible even if
//! every later checkpoint is lost.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use incgraph_algos::Session;
use incgraph_graph::DynamicGraph;

use crate::bytes::{put_bytes, put_u32, put_u64, put_u8, Reader};
use crate::crc::crc32;
use crate::wal::{put_origin, read_origin};
use crate::{record_ack, Acks, CrashPoint, DurableError};

/// Magic prefix of a checkpoint file.
pub const CKPT_MAGIC: &[u8; 8] = b"ICKP0001";
/// Magic prefix of the manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"IMAN0001";
/// File name of the manifest inside a durable directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Path of the checkpoint covering WAL sequence `seq`.
pub fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:020}.ckpt"))
}

/// Sequence numbers of all well-named checkpoint files in `dir`, sorted
/// descending (newest first). Purely name-based; validity is decided by
/// [`load_checkpoint`].
pub fn list_checkpoints(dir: &Path) -> Vec<u64> {
    let mut seqs = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return seqs;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(rest) = name
            .strip_prefix("checkpoint-")
            .and_then(|r| r.strip_suffix(".ckpt"))
        {
            if let Ok(seq) = rest.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    seqs.dedup();
    seqs
}

/// Serializes the checkpoint payload (everything between magic and CRC).
/// `blobs` are the tracked classes' essences in creation order
/// ([`DurableSession::essences`](crate::DurableSession::essences)); each
/// names its own class. `acks` is the ack table as of `covered_seq`.
pub fn encode_payload(
    covered_seq: u64,
    g: &DynamicGraph,
    blobs: impl ExactSizeIterator<Item = Vec<u8>>,
    acks: &Acks,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, covered_seq);
    put_u8(&mut out, g.is_directed() as u8);
    put_u64(&mut out, g.node_count() as u64);
    for v in g.nodes() {
        put_u32(&mut out, g.label(v));
    }
    put_u64(&mut out, g.edge_count() as u64);
    for (u, v, w) in g.edges() {
        put_u32(&mut out, u);
        put_u32(&mut out, v);
        put_u32(&mut out, w);
    }
    put_u32(&mut out, blobs.len() as u32);
    for blob in blobs {
        put_bytes(&mut out, &blob);
    }
    if !acks.is_empty() {
        let mut tokens: Vec<_> = acks.iter().collect();
        tokens.sort_unstable_by_key(|&(token, _)| token);
        put_u64(&mut out, tokens.len() as u64);
        for (token, ack) in tokens {
            put_u64(&mut out, ack.wal_seq);
            put_origin(&mut out, token, ack.client_seq);
        }
    }
    out
}

/// A fully validated checkpoint: the WAL sequence it covers, the graph,
/// one restored session per saved blob ([`Session::restore`]), and the
/// ack table.
pub type LoadedCheckpoint = (u64, DynamicGraph, Vec<Session>, Acks);

/// Deserializes a checkpoint payload back into a [`LoadedCheckpoint`].
/// Every structural or semantic violation is an error — the ladder
/// treats the file as a unit.
pub fn decode_payload(payload: &[u8]) -> Result<LoadedCheckpoint, DurableError> {
    let mut r = Reader::new(payload);
    let covered_seq = r.u64()?;
    let directed = match r.u8()? {
        0 => false,
        1 => true,
        b => return Err(DurableError::Corrupt(format!("direction flag {b}"))),
    };
    let n = r.len(4)?;
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        labels.push(r.u32()?);
    }
    let m = r.len(12)?;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = r.u32()?;
        let v = r.u32()?;
        let w = r.u32()?;
        if (u as usize) >= n || (v as usize) >= n {
            return Err(DurableError::Corrupt(format!(
                "edge ({u}, {v}) out of range for {n} nodes"
            )));
        }
        edges.push((u, v, w));
    }
    // `encode_payload` writes each edge once and no undirected self-loop,
    // so any unit the build drops marks the payload corrupt.
    let (g, dropped) = DynamicGraph::from_edges(directed, labels, edges);
    if dropped > 0 {
        return Err(DurableError::Corrupt(format!(
            "duplicate edge: {dropped} of {m} edges repeat another"
        )));
    }
    let k = r.u32()? as usize;
    let mut states = Vec::with_capacity(k.min(64));
    for _ in 0..k {
        let blob = r.bytes()?;
        states.push(Session::restore(&g, blob)?);
    }
    let mut acks = Acks::new();
    if !r.at_end() {
        // Each entry is at least a wal_seq, a client_seq and a length.
        for _ in 0..r.len(18)? {
            let wal_seq = r.u64()?;
            let origin = read_origin(&mut r)?;
            if wal_seq > covered_seq {
                return Err(DurableError::Corrupt(format!(
                    "ack of {} at seq {wal_seq} beyond the covered seq {covered_seq}",
                    origin.token
                )));
            }
            record_ack(&mut acks, origin, wal_seq);
        }
    }
    r.finish()?;
    Ok((covered_seq, g, states, acks))
}

fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Writes the checkpoint covering `covered_seq` via temp-file + fsync +
/// atomic rename + directory fsync, returning the final path.
///
/// `crash` injects a failure for the recovery harness:
/// [`CrashPoint::MidCheckpoint`] dies with a half-written temp file (no
/// rename — the previous checkpoint world is untouched);
/// [`CrashPoint::PostRename`] completes the rename, then dies before the
/// caller can update the manifest (the new checkpoint is on disk but
/// unannounced). Other crash points are ignored here.
pub fn write_checkpoint(
    dir: &Path,
    covered_seq: u64,
    g: &DynamicGraph,
    blobs: impl ExactSizeIterator<Item = Vec<u8>>,
    acks: &Acks,
    crash: Option<CrashPoint>,
) -> Result<PathBuf, DurableError> {
    let payload = encode_payload(covered_seq, g, blobs, acks);
    let mut bytes = Vec::with_capacity(12 + payload.len());
    bytes.extend_from_slice(CKPT_MAGIC);
    bytes.extend_from_slice(&payload);
    put_u32(&mut bytes, crc32(&payload));

    let final_path = checkpoint_path(dir, covered_seq);
    let tmp_path = final_path.with_extension("ckpt.tmp");
    let mut tmp = File::create(&tmp_path)?;
    if crash == Some(CrashPoint::MidCheckpoint) {
        // Torn temp file, never renamed: the visible world is unchanged.
        tmp.write_all(&bytes[..bytes.len() / 2])?;
        tmp.flush()?;
        return Err(DurableError::InjectedCrash(CrashPoint::MidCheckpoint));
    }
    tmp.write_all(&bytes)?;
    tmp.sync_all()?;
    drop(tmp);
    fs::rename(&tmp_path, &final_path)?;
    fsync_dir(dir)?;
    if crash == Some(CrashPoint::PostRename) {
        // Checkpoint durable, manifest stale: recovery must find it by
        // directory scan.
        return Err(DurableError::InjectedCrash(CrashPoint::PostRename));
    }
    Ok(final_path)
}

/// Loads and fully validates the checkpoint at `path`: magic, whole-file
/// CRC, then payload decoding (which itself restores every state blob).
pub fn load_checkpoint(path: &Path) -> Result<LoadedCheckpoint, DurableError> {
    let bytes = fs::read(path)?;
    if bytes.len() < CKPT_MAGIC.len() + 4 || &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return Err(DurableError::Corrupt(format!(
            "{} is not a checkpoint",
            path.display()
        )));
    }
    let payload = &bytes[CKPT_MAGIC.len()..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(payload) != stored {
        return Err(DurableError::Corrupt(format!(
            "{}: checksum mismatch",
            path.display()
        )));
    }
    decode_payload(payload)
}

/// Atomically (re)writes the manifest to point at checkpoint `seq`,
/// stamped with the store's replication `epoch`.
///
/// Wire layout (v2, 28 bytes): magic, `seq: u64`, `epoch: u64`, CRC-32
/// over `seq || epoch`. [`read_manifest`] also accepts the 20-byte v1
/// form (no epoch field) from stores written before replication existed,
/// reading it as epoch 1.
pub fn write_manifest(dir: &Path, seq: u64, epoch: u64) -> Result<(), DurableError> {
    let mut bytes = Vec::with_capacity(28);
    bytes.extend_from_slice(MANIFEST_MAGIC);
    put_u64(&mut bytes, seq);
    put_u64(&mut bytes, epoch);
    let mut sum = Vec::with_capacity(16);
    sum.extend_from_slice(&seq.to_le_bytes());
    sum.extend_from_slice(&epoch.to_le_bytes());
    put_u32(&mut bytes, crc32(&sum));
    let final_path = dir.join(MANIFEST_NAME);
    let tmp_path = dir.join(format!("{MANIFEST_NAME}.tmp"));
    let mut tmp = File::create(&tmp_path)?;
    tmp.write_all(&bytes)?;
    tmp.sync_all()?;
    drop(tmp);
    fs::rename(&tmp_path, &final_path)?;
    fsync_dir(dir)?;
    Ok(())
}

/// Reads the manifest's `(checkpoint seq, epoch)` pointer. `None` means
/// missing or unusable — recovery then falls back to a directory scan,
/// so a corrupt manifest costs a scan, never the data. Legacy 20-byte
/// manifests (written before replication) read as epoch 1.
pub fn read_manifest(dir: &Path) -> Option<(u64, u64)> {
    let bytes = fs::read(dir.join(MANIFEST_NAME)).ok()?;
    if &bytes[..8.min(bytes.len())] != MANIFEST_MAGIC {
        return None;
    }
    match bytes.len() {
        20 => {
            let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
            let stored = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
            (crc32(&seq.to_le_bytes()) == stored).then_some((seq, crate::meta::FIRST_EPOCH))
        }
        28 => {
            let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
            let epoch = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
            let stored = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
            (crc32(&bytes[8..24]) == stored).then_some((seq, epoch))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AckRecord;
    use incgraph_algos::{IncrementalState, QueryClass};

    fn ring(n: usize) -> DynamicGraph {
        let mut g = DynamicGraph::new(false, n);
        for v in 0..n as u32 {
            g.insert_edge(v, (v + 1) % n as u32, 1);
        }
        g
    }

    fn states_for(g: &DynamicGraph) -> Vec<Session> {
        vec![
            Session::builder(QueryClass::Sssp)
                .source(0)
                .build(g)
                .unwrap(),
            Session::builder(QueryClass::Cc).build(g).unwrap(),
        ]
    }

    fn blobs(states: &[Session]) -> impl ExactSizeIterator<Item = Vec<u8>> + '_ {
        states.iter().map(|s| s.save_state())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("incgraph-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpoint_roundtrip() {
        let dir = temp_dir("roundtrip");
        let g = ring(12);
        let states = states_for(&g);
        let path = write_checkpoint(&dir, 7, &g, blobs(&states), &Acks::new(), None).unwrap();
        let (seq, g2, states2, acks) = load_checkpoint(&path).unwrap();
        assert!(acks.is_empty());
        assert_eq!(seq, 7);
        assert_eq!(g2.node_count(), 12);
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
        assert_eq!(states2.len(), 2);
        for (a, b) in states.iter().zip(&states2) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.save_state(), b.save_state());
        }
        assert_eq!(list_checkpoints(&dir), vec![7]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn any_corrupted_byte_invalidates_the_file() {
        let dir = temp_dir("corrupt");
        let g = ring(8);
        let acks = Acks::from([(
            "alice".to_string(),
            AckRecord {
                client_seq: 2,
                wal_seq: 3,
            },
        )]);
        let path = write_checkpoint(&dir, 3, &g, blobs(&states_for(&g)), &acks, None).unwrap();
        let clean = fs::read(&path).unwrap();
        // Flip a byte in several regions: graph bytes, state blob, CRC.
        for &i in &[10usize, clean.len() / 2, clean.len() - 2] {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            assert!(
                load_checkpoint(&path).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
        fs::write(&path, &clean).unwrap();
        assert!(load_checkpoint(&path).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A payload carrying a stateless graph of 3 nodes with `edges`.
    fn payload_with(directed: bool, edges: &[(u32, u32, u32)]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, 5);
        put_u8(&mut out, directed as u8);
        put_u64(&mut out, 3);
        for l in [0, 1, 2] {
            put_u32(&mut out, l);
        }
        put_u64(&mut out, edges.len() as u64);
        for &(u, v, w) in edges {
            put_u32(&mut out, u);
            put_u32(&mut out, v);
            put_u32(&mut out, w);
        }
        put_u32(&mut out, 0);
        out
    }

    #[test]
    fn a_repeated_edge_is_corrupt() {
        let (_, g, _, _) = decode_payload(&payload_with(false, &[(0, 1, 4), (1, 2, 5)])).unwrap();
        assert_eq!(g.edge_weight(2, 1), Some(5));
        assert_eq!(g.label(2), 2);
        for (directed, edges) in [
            (true, [(0, 1, 4), (0, 1, 4)]),
            (false, [(0, 1, 4), (1, 0, 7)]),
            (false, [(0, 1, 4), (2, 2, 1)]),
        ] {
            match decode_payload(&payload_with(directed, &edges)) {
                Err(DurableError::Corrupt(msg)) => {
                    assert!(msg.starts_with("duplicate edge"), "{msg}")
                }
                Err(other) => panic!("{edges:?}: expected Corrupt, got {other}"),
                Ok(_) => panic!("{edges:?}: a repeated edge was accepted"),
            }
        }
    }

    #[test]
    fn the_ack_section_round_trips_and_is_absent_when_empty() {
        let g = ring(5);
        let states = states_for(&g);
        let bare = encode_payload(9, &g, blobs(&states), &Acks::new());
        let mut acks = Acks::new();
        for (token, client_seq, wal_seq) in [("bob", 4, 9), ("alice", 1, 2)] {
            let ack = AckRecord {
                client_seq,
                wal_seq,
            };
            acks.insert(token.to_string(), ack);
        }
        let full = encode_payload(9, &g, blobs(&states), &acks);
        // The table is a suffix: the tokenless payload is a prefix of it.
        assert_eq!(&full[..bare.len()], &bare[..]);
        assert_eq!(decode_payload(&full).unwrap().3, acks);
        assert!(decode_payload(&bare).unwrap().3.is_empty());
        // An ack past the covered sequence cannot be part of its history.
        let beyond = encode_payload(8, &g, blobs(&states), &acks);
        assert!(matches!(
            decode_payload(&beyond),
            Err(DurableError::Corrupt(_))
        ));
        // Every cut inside the section is a corrupt payload.
        for cut in bare.len() + 1..full.len() {
            assert!(decode_payload(&full[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let dir = temp_dir("manifest");
        assert_eq!(read_manifest(&dir), None);
        write_manifest(&dir, 42, 3).unwrap();
        assert_eq!(read_manifest(&dir), Some((42, 3)));
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = fs::read(&path).unwrap();
        bytes[12] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_manifest(&dir),
            None,
            "corrupt manifest must be ignored"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_v1_manifest_reads_as_epoch_one() {
        let dir = temp_dir("manifest-v1");
        // Hand-build the 20-byte pre-replication form.
        let seq = 9u64;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MANIFEST_MAGIC);
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(&crate::crc::crc32(&seq.to_le_bytes()).to_le_bytes());
        fs::write(dir.join(MANIFEST_NAME), &bytes).unwrap();
        assert_eq!(read_manifest(&dir), Some((9, 1)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_checkpoint_crash_leaves_old_world_intact() {
        let dir = temp_dir("midckpt");
        let g = ring(8);
        let states = states_for(&g);
        let acks = Acks::new();
        write_checkpoint(&dir, 1, &g, blobs(&states), &acks, None).unwrap();
        let err = write_checkpoint(
            &dir,
            2,
            &g,
            blobs(&states),
            &acks,
            Some(CrashPoint::MidCheckpoint),
        );
        assert!(matches!(
            err,
            Err(DurableError::InjectedCrash(CrashPoint::MidCheckpoint))
        ));
        // Only the torn temp file exists for seq 2; the scan sees seq 1.
        assert_eq!(list_checkpoints(&dir), vec![1]);
        assert!(load_checkpoint(&checkpoint_path(&dir, 1)).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }
}
