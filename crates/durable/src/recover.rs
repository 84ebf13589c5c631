//! Verified recovery: checkpoint + incremental WAL replay.
//!
//! The decision tree, from cheapest to last resort:
//!
//! 1. **Manifest pointer.** If `MANIFEST` is readable and its checkpoint
//!    loads (magic, whole-file CRC, every state blob restores), use it.
//! 2. **Directory scan.** Otherwise try every `checkpoint-*.ckpt` newest
//!    first — this is what makes the post-rename/pre-manifest crash
//!    window safe, and what tolerates bit rot in any single checkpoint.
//!    The genesis checkpoint (sequence 0) is always a candidate because
//!    it is never rotated out.
//! 3. **Unrecoverable.** No checkpoint loads — there is no base state to
//!    replay from, and the caller is told so explicitly rather than being
//!    handed a silently empty world.
//!
//! The chosen checkpoint's states are then folded ([`Tracked`]): a `dfs`
//! blob beside BC must equal BC's forest. A CRC-clean checkpoint where
//! the two disagree is not stepped over to an older one — the open fails
//! as [`DurableError::Corrupt`], because the same canonical forest was
//! saved twice with different bytes.
//!
//! From the chosen base, the WAL suffix (records with sequence numbers
//! beyond the checkpoint's coverage) is replayed through the *normal*
//! incremental pipeline — `apply_validated` on the graph, then the live
//! commit's state pass ([`update_states`](crate::update_states) under its
//! one policy) — so replay cost is the paper's bounded incremental cost,
//! and a replayed batch that turns out unbounded degrades to batch
//! recompute exactly like a live one would. As in a live commit, the
//! weakly deducible states take each record and the deducible ones
//! queue it; they catch up once, over the suffix's net `ΔG`, before the
//! session is handed out. The ack table is folded the same way: the
//! checkpoint's table, then each replayed record's origin in log order.
//! Torn WAL tails were already truncated by
//! [`Wal::open`]; a CRC-clean record that nonetheless fails validation
//! against its deterministic predecessor state is impossible in a sane
//! history, so it is treated as corruption: the log is truncated there
//! and the drop is reported.

use std::path::Path;

use crate::checkpoint::{
    checkpoint_path, list_checkpoints, load_checkpoint, read_manifest, LoadedCheckpoint,
};
use crate::wal::Wal;
use crate::{record_ack, DurableError, DurableOptions, DurableSession, Tracked, WAL_NAME};

/// What recovery did, for logs, the CLI, and the crash oracle's asserts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL sequence covered by the checkpoint recovery started from.
    pub checkpoint_seq: u64,
    /// Whether that checkpoint came via the manifest pointer (`false`
    /// means the manifest was missing, stale, or corrupt and the
    /// directory scan found the base).
    pub used_manifest: bool,
    /// Checkpoint files that were tried and rejected as invalid.
    pub checkpoints_skipped: usize,
    /// WAL records replayed incrementally on top of the checkpoint.
    pub wal_records_replayed: usize,
    /// Torn-tail bytes truncated from the WAL on open.
    pub wal_truncated_bytes: u64,
    /// CRC-clean records dropped because they failed semantic validation
    /// during replay (0 in any history produced by this crate).
    pub wal_records_dropped: usize,
    /// Replayed state updates (one per weakly deducible state and record,
    /// one per deducible state and catch-up) that fell back to batch
    /// recompute under [`update_states`](crate::update_states)' policy.
    pub fallbacks: usize,
}

/// Recovers the durable store in `dir` into a live [`DurableSession`].
pub fn recover(
    dir: &Path,
    options: DurableOptions,
) -> Result<(DurableSession, RecoveryReport), DurableError> {
    let mut report = RecoveryReport::default();

    // The lock first: recovery mutates the store (tail truncation,
    // subsequent appends), so it needs the same exclusivity as a live
    // session. A recover racing a running server fails fast with
    // `StoreBusy` instead of corrupting the WAL under it.
    let lock = crate::StoreLock::acquire(dir)?;

    // Replication metadata: `base` is the sequence the retained WAL
    // starts after (nonzero only on snapshot-bootstrapped replicas), and
    // the epoch is the store's fencing term. A corrupt EPOCH file is a
    // hard error — defaulting it could un-fence a deposed primary.
    let base = crate::meta::read_base(dir)?;
    let epoch = crate::meta::read_epoch(dir)?;

    // The log next: its valid prefix bounds which checkpoints are
    // trustworthy (a checkpoint claiming to cover more history than the
    // log holds cannot be reconciled with full-replay semantics).
    let opened = Wal::open_from(&dir.join(WAL_NAME), base + 1)?;
    let mut wal = opened.wal;
    let records = opened.records;
    report.wal_truncated_bytes = opened.truncated_bytes;
    let last_logged = records.last().map_or(base, |r| r.seq);

    // Candidate checkpoints, newest first. The manifest is a hint, not
    // an authority: a crash between checkpoint rename and manifest update
    // leaves a perfectly valid checkpoint the manifest does not know
    // about, and the directory scan must still prefer it.
    let manifest = read_manifest(dir).map(|(seq, _)| seq);
    let mut candidates = list_checkpoints(dir);
    if let Some(seq) = manifest {
        if !candidates.contains(&seq) {
            candidates.push(seq);
            candidates.sort_unstable_by(|a, b| b.cmp(a));
        }
    }

    let mut chosen: Option<LoadedCheckpoint> = None;
    for seq in candidates {
        if seq > last_logged || seq < base {
            // Ahead of the log's proof, or behind the snapshot base
            // (whose pre-base WAL records no longer exist, so an older
            // checkpoint could never be replayed up to the present).
            report.checkpoints_skipped += 1;
            continue;
        }
        match load_checkpoint(&checkpoint_path(dir, seq)) {
            Ok(loaded) => {
                report.used_manifest = manifest == Some(seq);
                chosen = Some(loaded);
                break;
            }
            Err(_) => report.checkpoints_skipped += 1,
        }
    }
    let Some((covered, mut graph, states, mut acks)) = chosen else {
        return Err(DurableError::Unrecoverable(format!(
            "{}: no valid checkpoint (genesis included) to recover from",
            dir.display()
        )));
    };
    report.checkpoint_seq = covered;
    let mut states = Tracked::fold(states).map_err(|e| match e {
        DurableError::Corrupt(d) => {
            DurableError::Corrupt(format!("{}: {d}", checkpoint_path(dir, covered).display()))
        }
        e => e,
    })?;

    // Incremental replay of the suffix through the normal engine.
    let replay_span = incgraph_obs::span("recover.replay");
    let mut next_seq = covered + 1;
    for record in &records {
        if record.seq <= covered {
            continue;
        }
        let applied = match record.batch.apply_validated(&mut graph) {
            Ok(applied) => applied,
            Err(_) => {
                // A logged batch invalid against its own deterministic
                // predecessor state: the suffix is garbage. Cut it at
                // this record boundary and keep the valid history.
                report.wal_records_dropped = records.iter().filter(|r| r.seq >= record.seq).count();
                wal.truncate_to(record.offset as u64)?;
                break;
            }
        };
        let reports = states.update(&graph, &applied);
        report.fallbacks += reports.iter().filter(|r| r.fell_back()).count();
        if let Some(origin) = &record.origin {
            record_ack(&mut acks, origin.clone(), record.seq);
        }
        report.wal_records_replayed += 1;
        next_seq = record.seq + 1;
    }
    let reports = states.catch_up(&graph);
    report.fallbacks += reports.iter().filter(|r| r.fell_back()).count();
    drop(replay_span);
    if incgraph_obs::enabled() {
        incgraph_obs::gauge("recover.checkpoint_seq", report.checkpoint_seq);
        incgraph_obs::counter("recover.replayed", report.wal_records_replayed as u64);
        incgraph_obs::counter("recover.fallbacks", report.fallbacks as u64);
        incgraph_obs::counter(
            "recover.skipped_checkpoints",
            report.checkpoints_skipped as u64,
        );
    }

    Ok((
        DurableSession {
            dir: dir.to_path_buf(),
            wal,
            graph,
            states,
            acks,
            options,
            next_seq,
            epoch,
            base_seq: base,
            crash: None,
            lock,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MANIFEST_NAME;
    use incgraph_algos::{IncrementalState, QueryClass, Session};
    use incgraph_graph::{DynamicGraph, UpdateBatch};
    use std::fs;
    use std::path::PathBuf;

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
            Session::builder(QueryClass::Lcc).build(g).unwrap(),
        ]
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("incgraph-recover-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seeded_store(dir: &Path) -> Vec<Vec<u8>> {
        let g0 = ring(10);
        let mut session =
            DurableSession::create(dir, g0.clone(), states_for(&g0), DurableOptions::default())
                .unwrap();
        let mut b = UpdateBatch::new();
        b.insert(0, 4, 2).delete(1, 2);
        session.apply(&b).unwrap();
        session.checkpoint().unwrap();
        let mut b = UpdateBatch::new();
        b.insert(1, 2, 5).delete(0, 4);
        session.apply(&b).unwrap();
        blobs(&mut session)
    }

    fn blobs(session: &mut DurableSession) -> Vec<Vec<u8>> {
        session.essences().map(|(_, b)| b).collect()
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older_plus_full_replay() {
        let dir = temp_dir("ladder");
        let live = seeded_store(&dir);
        // Rot the newest checkpoint (seq 1); recovery must step down to
        // genesis and replay the whole log.
        let newest = checkpoint_path(&dir, 1);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();

        let (mut session, report) = recover(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.checkpoint_seq, 0, "fell back to genesis");
        assert_eq!(report.checkpoints_skipped, 1, "the rotten newest one");
        assert!(!report.used_manifest, "manifest points at the rotten one");
        assert_eq!(report.wal_records_replayed, 2, "full replay");
        assert_eq!(blobs(&mut session), live);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_recovers_by_directory_scan() {
        let dir = temp_dir("noman");
        let live = seeded_store(&dir);
        fs::remove_file(dir.join(MANIFEST_NAME)).unwrap();
        let (mut session, report) = recover(&dir, DurableOptions::default()).unwrap();
        assert!(!report.used_manifest);
        assert_eq!(report.checkpoint_seq, 1);
        assert_eq!(blobs(&mut session), live);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_checkpoints_gone_is_unrecoverable() {
        let dir = temp_dir("gone");
        seeded_store(&dir);
        for seq in [0u64, 1] {
            fs::remove_file(checkpoint_path(&dir, seq)).unwrap();
        }
        assert!(matches!(
            recover(&dir, DurableOptions::default()),
            Err(DurableError::Unrecoverable(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_ahead_of_truncated_wal_is_skipped() {
        let dir = temp_dir("ahead");
        seeded_store(&dir);
        // Lop off the whole log: both checkpoints (seq 1) now claim more
        // history than the log proves, so recovery lands on genesis with
        // nothing to replay.
        fs::remove_file(dir.join(WAL_NAME)).unwrap();
        let (mut session, report) = recover(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.wal_records_replayed, 0);
        assert_eq!(session.last_seq(), 0);
        // The recovered world equals the genesis world.
        let g0 = ring(10);
        let fresh = states_for(&g0);
        assert_eq!(
            blobs(&mut session),
            fresh.iter().map(|s| s.save_state()).collect::<Vec<_>>()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_session_keeps_accepting_updates() {
        let dir = temp_dir("resume");
        seeded_store(&dir);
        let (mut session, _) = recover(&dir, DurableOptions::default()).unwrap();
        // Churn: 2-7 comes and goes (in both orientations), 3-4 changes
        // weight. Live and replay make it net the same way.
        let mut b = UpdateBatch::new();
        b.insert(3, 8, 1)
            .insert(2, 7, 4)
            .delete(7, 2)
            .delete(3, 4)
            .insert(3, 4, 6);
        session.apply(&b).unwrap();
        assert_eq!(session.last_seq(), 3);
        let live = blobs(&mut session);
        drop(session);
        let (mut again, report) = recover(&dir, DurableOptions::default()).unwrap();
        assert_eq!(
            report.wal_records_replayed, 2,
            "seq 2 and 3 on top of ckpt 1"
        );
        assert_eq!(blobs(&mut again), live);
        fs::remove_dir_all(&dir).unwrap();
    }
}
