//! Crash-safe durability for the incremental pipeline: a write-ahead log
//! of applied `ΔG` batches, periodic checkpoints of the full fixpoint
//! state, and verified recovery that replays the WAL suffix *through the
//! normal incremental engine*.
//!
//! The design follows the classic ARIES-style split, specialized to the
//! paper's model where the durable state is tiny and deterministic:
//!
//! - **WAL** ([`wal`]): every applied [`UpdateBatch`] is appended and
//!   fsynced *before* the in-memory state machine advances past it. The
//!   log is the ground truth of which `ΔG` are part of history.
//! - **Checkpoints** ([`checkpoint`]): the graph plus every tracked
//!   class's `SaveState` essence (`D^r`, stamps, clock, query params),
//!   written atomically and CRC-verified as a unit. Checkpoints only
//!   accelerate recovery; the *genesis* checkpoint (sequence 0) is never
//!   rotated out, so full replay always remains possible.
//! - **Recovery** ([`recover`]): newest valid checkpoint + incremental
//!   replay of the WAL suffix through the commit's own state pass, so
//!   even recovery enjoys the paper's bounded incremental cost — and
//!   takes the same guarded path (incremental replay → batch recompute)
//!   as a live commit when a replayed batch turns out unbounded.
//!
//! Every tracked class state is a [`Session`] — the one handle that
//! holds a class state outside `incgraph-algos`. This module stops the
//! journal of each session it takes: nothing drains a durable state's
//! deltas, so none should pay for them.
//!
//! A commit maintains only what it must. A weakly deducible state (CC,
//! Sim, Reach) persists stamps that record how the history was split
//! into batches, so each commit updates it. A deducible one (SSSP, LCC,
//! DFS, BC) has a fixpoint that depends on `G` alone, so the commit
//! queues its batch, and the state catches up over the net `ΔG` of the
//! queue when it is next read — the same [`update_states`] call, at read
//! time instead of commit time. Its essence bytes are those of one update
//! per batch. Only essences, digests, snapshots and checkpoints read the
//! tracked states, so a commit that nothing reads pays for the three
//! stamped updates alone.
//!
//! Because every algorithm here is deterministic, recovery is *verifiable*:
//! replaying `r` logged batches from any checkpoint must produce a state
//! whose essence is bit-identical to the uninterrupted run after `r`
//! batches. The differential oracle's crash mode checks exactly that at
//! every [`CrashPoint`].

mod bytes;
pub mod checkpoint;
pub mod crc;
pub mod lock;
pub mod meta;
pub mod recover;
pub mod wal;

pub use lock::{StoreLock, LOCK_NAME};
pub use meta::{
    read_base, read_epoch, write_base, write_epoch, BASE_NAME, EPOCH_NAME, FIRST_EPOCH,
};
pub use recover::{recover, RecoveryReport};
pub use wal::{encode_record, scan_records, Scan, ScannedRecord, Wal, FIRST_SEQ};

use std::fmt;
use std::path::{Path, PathBuf};

use incgraph_algos::{
    update_with, ExecOptions, IncrementalState, QueryClass, Session, StateLoadError,
};
use incgraph_core::metrics::BoundednessReport;
use incgraph_graph::{AppliedBatch, BatchError, DynamicGraph, UpdateBatch};

/// File name of the write-ahead log inside a durable directory.
pub const WAL_NAME: &str = "wal.log";

/// Injectable crash sites, exercised by the crash-recovery harness and
/// the `DURABLE_CRASH_AT` environment variable.
///
/// Each point pins down a durability contract:
///
/// | point | batch durable? | recovery must see |
/// |-------|----------------|-------------------|
/// | [`WalPreFsync`](Self::WalPreFsync) | no — record torn, not fsynced | history *without* the in-flight batch |
/// | [`WalPostFsync`](Self::WalPostFsync) | yes — record fsynced | history *with* the in-flight batch |
/// | [`MidCheckpoint`](Self::MidCheckpoint) | n/a — temp file torn | the previous checkpoint world, unchanged |
/// | [`PostRename`](Self::PostRename) | n/a — checkpoint durable, manifest stale | the new checkpoint, found by directory scan |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Die mid-append: half the WAL record written, no fsync.
    WalPreFsync,
    /// Die right after the WAL append was fsynced.
    WalPostFsync,
    /// Die with the checkpoint temp file half-written, before the rename.
    MidCheckpoint,
    /// Die after the checkpoint rename but before the manifest update.
    PostRename,
}

impl CrashPoint {
    /// All injection points, in pipeline order.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::WalPreFsync,
        CrashPoint::WalPostFsync,
        CrashPoint::MidCheckpoint,
        CrashPoint::PostRename,
    ];

    /// Stable external name (CLI flag / env var / case-file syntax).
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::WalPreFsync => "pre-fsync",
            CrashPoint::WalPostFsync => "post-fsync",
            CrashPoint::MidCheckpoint => "mid-checkpoint",
            CrashPoint::PostRename => "post-rename",
        }
    }

    /// Parses an external name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pre-fsync" => Some(CrashPoint::WalPreFsync),
            "post-fsync" => Some(CrashPoint::WalPostFsync),
            "mid-checkpoint" => Some(CrashPoint::MidCheckpoint),
            "post-rename" => Some(CrashPoint::PostRename),
            _ => None,
        }
    }

    /// Reads `DURABLE_CRASH_AT` from the environment. Unset or empty
    /// means no injection; an unknown name is reported as an error so a
    /// typo cannot silently disable a fault-injection run.
    pub fn from_env() -> Result<Option<Self>, DurableError> {
        match std::env::var("DURABLE_CRASH_AT") {
            Ok(v) if v.is_empty() => Ok(None),
            Ok(v) => Self::parse(&v).map(Some).ok_or_else(|| {
                DurableError::Corrupt(format!(
                    "DURABLE_CRASH_AT={v}: expected one of pre-fsync, post-fsync, \
                     mid-checkpoint, post-rename"
                ))
            }),
            Err(_) => Ok(None),
        }
    }

    /// Whether this point fires inside [`DurableSession::apply`] (as
    /// opposed to [`DurableSession::checkpoint`]).
    pub fn is_wal_point(self) -> bool {
        matches!(self, CrashPoint::WalPreFsync | CrashPoint::WalPostFsync)
    }
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors of the durability layer.
#[derive(Debug)]
pub enum DurableError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// On-disk bytes violate a format or semantic invariant.
    Corrupt(String),
    /// The batch handed to [`DurableSession::apply`] failed validation;
    /// nothing was logged and the graph is unchanged.
    InvalidBatch(BatchError),
    /// A checkpointed state blob failed to restore.
    State(StateLoadError),
    /// An armed [`CrashPoint`] fired: the process is considered dead and
    /// the session must be dropped and recovered from disk.
    InjectedCrash(CrashPoint),
    /// No valid checkpoint exists — not even genesis — so recovery has
    /// no base state to replay from.
    Unrecoverable(String),
    /// Another live process (or another session in this one) holds the
    /// store's `LOCK` file. The store was not touched; retry after the
    /// owner releases it. `pid` is the recorded owner (0 if unreadable).
    StoreBusy {
        /// The contested durable directory.
        dir: String,
        /// PID recorded in the lock file (0 when unreadable).
        pid: u32,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "io error: {e}"),
            DurableError::Corrupt(d) => write!(f, "corrupt durable state: {d}"),
            DurableError::InvalidBatch(e) => write!(f, "invalid batch: {e}"),
            DurableError::State(e) => write!(f, "state blob rejected: {e}"),
            DurableError::InjectedCrash(p) => write!(f, "injected crash at {p}"),
            DurableError::Unrecoverable(d) => write!(f, "unrecoverable: {d}"),
            DurableError::StoreBusy { dir, pid } => write!(
                f,
                "store busy: {dir} is locked by live process {pid} \
                 (one writer per store; retry after it exits)"
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::InvalidBatch(e) => Some(e),
            DurableError::State(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<StateLoadError> for DurableError {
    fn from(e: StateLoadError) -> Self {
        DurableError::State(e)
    }
}

/// Configuration of a durable session: when it checkpoints. How it
/// updates its states is not configurable — see [`update_states`].
#[derive(Clone, Debug, Default)]
pub struct DurableOptions {
    /// Take a checkpoint automatically every `n` applied batches
    /// (`None` = only on explicit [`DurableSession::checkpoint`] calls).
    pub checkpoint_every: Option<u64>,
}

/// The state pass: makes `batches` (the effective ops of consecutive
/// batches on `g`, oldest first) net with
/// [`coalesce::net`](incgraph_core::coalesce::net), then runs one guarded
/// [`update_with`] per session under one constant, the default
/// [`ExecOptions`] (a session's own options do not apply). Live commits,
/// catch-ups, recovery's replay and the oracles' references all maintain
/// their states through it, so a replayed batch reaches each state in the
/// same form and under the same policy it did live, and the essences stay
/// byte-identical.
pub fn update_states(
    sessions: &mut [Session],
    g: &DynamicGraph,
    batches: &[AppliedBatch],
) -> Vec<BoundednessReport> {
    let net = incgraph_core::coalesce::net(g.is_directed(), batches);
    let exec = ExecOptions::default();
    sessions
        .iter_mut()
        .map(|s| update_with(s, g, &net, &exec))
        .collect()
}

/// Where a creation-order slot's essence lives.
#[derive(Clone, Copy)]
enum Slot {
    /// `Tracked::stamped[i]`.
    Stamped(usize),
    /// `Tracked::deferred[i]`.
    Deferred(usize),
    /// A `dfs` state folded into BC's forest.
    Forest,
}

/// The tracked states of a durable graph, split by deducibility
/// ([`QueryClass::weakly_deducible`]), with each `dfs` state folded into
/// the DFS forest a sibling already maintains
/// ([`IncrementalState::forest`] — BC's `IncDFS`).
///
/// - A weakly deducible state (CC, Sim, Reach) persists stamps that
///   record how the history was split into batches, so every commit
///   updates it.
/// - A deducible state (SSSP, LCC, DFS, BC) has a fixpoint that is a
///   function of `G` alone: one update over the net `ΔG` of many batches
///   leaves the essence bytes that one update per batch would. A commit
///   only queues its batch for them, and every read of a state first
///   [catches them up](Self::catch_up). Once the queue holds as many
///   units as the graph has nodes, the commit catches up at once, so the
///   queue never outweighs one status vector of a deferred state.
///
/// The forest is canonical, so the DFS class's essence *is* the forest's:
/// it is replayed once, inside BC, instead of once per holder. A folded
/// `dfs` keeps its creation-order slot, and [`essences`](Self::essences)
/// renders the forest there, so checkpoints, snapshots and digests keep
/// their bytes. Without a forest (a directed graph, or no BC) nothing
/// folds.
pub(crate) struct Tracked {
    /// The weakly deducible states, in creation order.
    stamped: Vec<Session>,
    /// The deducible states but a folded `dfs`, in creation order.
    deferred: Vec<Session>,
    /// Every tracked state, in creation order.
    slots: Vec<Slot>,
    /// The effective ops of the commits `deferred` has not seen yet,
    /// oldest first.
    pending: Vec<AppliedBatch>,
    /// Units in `pending`.
    pending_units: usize,
}

impl Tracked {
    /// Splits and folds `states`, given in creation order, and stops
    /// every journal. A dropped `dfs` state's essence must equal the
    /// forest's; when it does not, the two disagree about one canonical
    /// forest, and the open fails as [`DurableError::Corrupt`] rather than
    /// pick one.
    pub(crate) fn fold(mut states: Vec<Session>) -> Result<Tracked, DurableError> {
        states.iter_mut().for_each(Session::stop_journal);
        let forest = states
            .iter()
            .find_map(|s| s.forest())
            .map(|f| f.save_state());
        let mut tracked = Tracked {
            stamped: Vec::new(),
            deferred: Vec::new(),
            slots: Vec::with_capacity(states.len()),
            pending: Vec::new(),
            pending_units: 0,
        };
        for (slot, s) in states.into_iter().enumerate() {
            let class = s.class();
            if class == QueryClass::Dfs && forest.is_some() {
                if forest.as_ref() != Some(&s.save_state()) {
                    return Err(DurableError::Corrupt(format!(
                        "the dfs essence in slot {slot} disagrees with the DFS forest bc maintains"
                    )));
                }
                tracked.slots.push(Slot::Forest);
            } else if class.weakly_deducible() {
                tracked.slots.push(Slot::Stamped(tracked.stamped.len()));
                tracked.stamped.push(s);
            } else {
                tracked.slots.push(Slot::Deferred(tracked.deferred.len()));
                tracked.deferred.push(s);
            }
        }
        Ok(tracked)
    }

    /// One commit's state pass ([`update_states`]): the stamped states
    /// take `applied` now and the deferred ones queue it, catching up at
    /// once when the queue reaches `g`'s node count. Returns a report per
    /// state the pass updated.
    fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> Vec<BoundednessReport> {
        let mut reports = update_states(&mut self.stamped, g, std::slice::from_ref(applied));
        if !self.deferred.is_empty() {
            self.pending.push(applied.clone());
            self.pending_units += applied.len();
            if self.pending_units >= g.node_count() {
                reports.extend(self.catch_up(g));
            }
        }
        reports
    }

    /// Brings the deferred states current: one [`update_states`] over
    /// the net `ΔG` of the queued commits, which it then clears. Returns
    /// a report per deferred state, none when nothing was queued.
    fn catch_up(&mut self, g: &DynamicGraph) -> Vec<BoundednessReport> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let _span = incgraph_obs::span("durable.catch_up");
        incgraph_obs::observe("durable.catch_up_units", self.pending_units as u64);
        let reports = update_states(&mut self.deferred, g, &self.pending);
        self.pending.clear();
        self.pending_units = 0;
        reports
    }

    /// Every tracked class's name and essence, in creation order, each
    /// rendered as the iterator reaches it; a folded slot renders the
    /// forest. The caller catches up first.
    fn essences(&self) -> impl ExactSizeIterator<Item = (&'static str, Vec<u8>)> + '_ {
        debug_assert!(self.pending.is_empty(), "essences read before a catch-up");
        let forest = self.deferred.iter().find_map(|s| s.forest());
        self.slots.iter().map(move |slot| match *slot {
            Slot::Stamped(i) => (self.stamped[i].name(), self.stamped[i].save_state()),
            Slot::Deferred(i) => (self.deferred[i].name(), self.deferred[i].save_state()),
            Slot::Forest => {
                let forest = forest.expect("a fold keeps its forest");
                (QueryClass::Dfs.name(), forest.save_state())
            }
        })
    }

    /// The essence blobs alone, as a checkpoint writes them.
    fn blobs(&self) -> impl ExactSizeIterator<Item = Vec<u8>> + '_ {
        self.essences().map(|(_, blob)| blob)
    }
}

/// A live graph + incremental states bound to a durable directory.
///
/// The commit protocol of [`apply`](Self::apply) is:
///
/// 1. validate and apply `ΔG` to the in-memory graph
///    ([`UpdateBatch::apply_validated`] — an invalid batch is rejected
///    before anything touches the log);
/// 2. append the batch to the WAL and **fsync** — this is the commit
///    point; a crash before it loses the batch (by design: it was never
///    acknowledged), a crash after it preserves the batch across
///    recovery;
/// 3. tell the caller the batch is committed (the `committed` hook of
///    [`apply_with`](Self::apply_with) — where a primary ships the
///    record to its replicas);
/// 4. run the incremental update on every weakly deducible state via
///    [`update_states`], and queue the batch for the deducible ones
///    ([`Tracked`]): the seven built-in classes take three updates, and
///    SSSP, LCC and BC (with the DFS forest inside it) catch up over the
///    net `ΔG` of the queued batches when a state is next read —
///    [`essences`](Self::essences), [`digest`](Self::digest),
///    [`encode_snapshot`](Self::encode_snapshot),
///    [`checkpoint`](Self::checkpoint), recovery's result, or an explicit
///    [`catch_up`](Self::catch_up) — or once the queue holds as many
///    units as the graph has nodes.
///
/// Recovery rebuilds the exact same in-memory world from the newest valid
/// checkpoint plus the logged suffix — see [`recover`].
pub struct DurableSession {
    pub(crate) dir: PathBuf,
    pub(crate) wal: Wal,
    pub(crate) graph: DynamicGraph,
    pub(crate) states: Tracked,
    pub(crate) options: DurableOptions,
    pub(crate) next_seq: u64,
    /// Replication epoch/term (see [`meta`]); starts at
    /// [`FIRST_EPOCH`] and only moves via [`bump_epoch`](Self::bump_epoch).
    pub(crate) epoch: u64,
    /// Sequence the WAL's history starts after: 0 normally, the
    /// snapshot's covered sequence on a snapshot-bootstrapped replica.
    pub(crate) base_seq: u64,
    pub(crate) crash: Option<CrashPoint>,
    /// Held for the session's whole lifetime; dropping the session
    /// releases the store to the next opener.
    pub(crate) lock: StoreLock,
}

impl DurableSession {
    /// Initializes a fresh durable directory: genesis checkpoint
    /// (sequence 0, holding `graph` and the current essence of every
    /// state), manifest, and an empty WAL, and stops every session's
    /// journal. Fails if the directory already holds a durable store —
    /// re-initializing would orphan its history — or if a `dfs` state
    /// disagrees with BC's forest ([`IncrementalState::forest`]).
    pub fn create(
        dir: &Path,
        graph: DynamicGraph,
        states: Vec<Session>,
        options: DurableOptions,
    ) -> Result<Self, DurableError> {
        std::fs::create_dir_all(dir)?;
        let lock = StoreLock::acquire(dir)?;
        if dir.join(checkpoint::MANIFEST_NAME).exists() || dir.join(WAL_NAME).exists() {
            return Err(DurableError::Corrupt(format!(
                "{} already holds a durable store; recover it instead",
                dir.display()
            )));
        }
        let states = Tracked::fold(states)?;
        checkpoint::write_checkpoint(dir, 0, &graph, states.blobs(), None)?;
        checkpoint::write_manifest(dir, 0, meta::FIRST_EPOCH)?;
        meta::write_epoch(dir, meta::FIRST_EPOCH)?;
        let opened = Wal::open(&dir.join(WAL_NAME))?;
        Ok(DurableSession {
            dir: dir.to_path_buf(),
            wal: opened.wal,
            graph,
            states,
            options,
            next_seq: FIRST_SEQ,
            epoch: meta::FIRST_EPOCH,
            base_seq: 0,
            crash: None,
            lock,
        })
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The live graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Every tracked class's name and `save_state` essence, in creation
    /// order — the blobs a checkpoint holds, rendered one at a time, after
    /// a [`catch_up`](Self::catch_up). A `dfs` folded into BC's forest
    /// renders the forest in its slot.
    pub fn essences(&mut self) -> impl ExactSizeIterator<Item = (&'static str, Vec<u8>)> + '_ {
        self.catch_up();
        self.states.essences()
    }

    /// Brings the deducible states current over the net `ΔG` of every
    /// commit they have not seen ([`Tracked`]). Every read of a state
    /// runs it first; a caller that times its commits calls it to keep
    /// one update per class and commit.
    pub fn catch_up(&mut self) {
        self.states.catch_up(&self.graph);
    }

    /// Sequence number of the last durably applied batch (0 = none yet;
    /// equals [`base_seq`](Self::base_seq) right after a snapshot
    /// bootstrap).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// The store's replication epoch/term.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sequence the WAL's retained history starts after (0 for stores
    /// whose log reaches back to genesis).
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Durably bumps the replication epoch: the new epoch is fsynced to
    /// the `EPOCH` file, then stamped into the manifest via a fresh
    /// checkpoint. This is promotion's commit point — once this returns,
    /// any peer still on the old epoch is provably stale.
    pub fn bump_epoch(&mut self) -> Result<u64, DurableError> {
        self.epoch += 1;
        meta::write_epoch(&self.dir, self.epoch)?;
        self.checkpoint()?;
        incgraph_obs::gauge("repl.epoch", self.epoch);
        Ok(self.epoch)
    }

    /// Durably adopts a peer's (higher) epoch without promotion — the
    /// tail-mode half of rejoining a primary that moved on. A no-op when
    /// the epoch already matches; refuses to move backwards.
    pub fn adopt_epoch(&mut self, epoch: u64) -> Result<(), DurableError> {
        if epoch < self.epoch {
            return Err(DurableError::Corrupt(format!(
                "refusing to adopt epoch {epoch} below current {}",
                self.epoch
            )));
        }
        if epoch != self.epoch {
            meta::write_epoch(&self.dir, epoch)?;
            self.epoch = epoch;
            incgraph_obs::gauge("repl.epoch", self.epoch);
        }
        Ok(())
    }

    /// CRC-32 digest over the store's observable essence: directedness,
    /// node count, every edge in `(u, v)` order, and each tracked class's
    /// name and essence in creation order ([`essences`](Self::essences))
    /// — the same figure the stream harness pins in its baselines, and the
    /// one primary and replica exchange at matching sequences to detect
    /// divergence.
    pub fn digest(&mut self) -> String {
        let g = &self.graph;
        let mut crc = crc::Crc32::new()
            .update(&[g.is_directed() as u8])
            .update(&(g.node_count() as u64).to_le_bytes());
        // `edges()` yields `(u, v)` ascending: adjacency is sorted, and an
        // undirected edge appears once, at `u <= v`. Each edge is 12 bytes
        // of `u, v, w`, streamed through one buffer.
        const EDGE: usize = 12;
        let mut buf = [0u8; EDGE * 512];
        let mut len = 0;
        for (u, v, w) in g.edges() {
            buf[len..len + 4].copy_from_slice(&u.to_le_bytes());
            buf[len + 4..len + 8].copy_from_slice(&v.to_le_bytes());
            buf[len + 8..len + EDGE].copy_from_slice(&w.to_le_bytes());
            len += EDGE;
            if len == buf.len() {
                crc = crc.update(&buf);
                len = 0;
            }
        }
        crc = crc.update(&buf[..len]);
        for (name, blob) in self.essences() {
            crc = crc
                .update(name.as_bytes())
                .update(&(blob.len() as u64).to_le_bytes())
                .update(&blob);
        }
        format!("{:08x}", crc.finish())
    }

    /// Encodes the live world as a checkpoint payload covering
    /// [`last_seq`](Self::last_seq) — the exact bytes
    /// [`checkpoint::decode_payload`] (and therefore
    /// [`install_snapshot`](Self::install_snapshot)) accepts. The primary
    /// uses this to ship a bootstrap snapshot to a lagging replica.
    pub fn encode_snapshot(&mut self) -> Vec<u8> {
        self.catch_up();
        checkpoint::encode_payload(self.last_seq(), &self.graph, self.states.blobs())
    }

    /// Replaces this store's entire world with a shipped snapshot,
    /// consuming the session and returning a new one whose history
    /// *begins* at the snapshot's covered sequence: the decoded payload
    /// becomes the base checkpoint, `BASE` records the covered sequence,
    /// the WAL restarts empty expecting `covered + 1`, and the manifest
    /// is stamped with `epoch` (adopted from the primary).
    ///
    /// Ordering is crash-safe: the new base checkpoint is durable
    /// *before* `BASE` commits the switch, and only then are the old log
    /// and checkpoints discarded — a crash anywhere leaves either the
    /// old world or the new one recoverable. A payload that does not
    /// decode, or whose `dfs` blob disagrees with BC's forest, is refused
    /// before anything is written.
    pub fn install_snapshot(
        self,
        payload: &[u8],
        epoch: u64,
    ) -> Result<DurableSession, DurableError> {
        let DurableSession {
            dir,
            wal,
            options,
            lock,
            ..
        } = self;
        let (covered, graph, states) = checkpoint::decode_payload(payload)?;
        let states = Tracked::fold(states)?;
        let old_checkpoints = checkpoint::list_checkpoints(&dir);
        checkpoint::write_checkpoint(&dir, covered, &graph, states.blobs(), None)?;
        meta::write_epoch(&dir, epoch)?;
        // The commit point: once BASE names the snapshot's sequence, the
        // old WAL records (whose sequences precede it) are dead history.
        meta::write_base(&dir, covered)?;
        drop(wal);
        // Restart the log: open_from truncates every pre-base record as
        // an out-of-sequence tail.
        let opened = Wal::open_from(&dir.join(WAL_NAME), covered + 1)?;
        for seq in old_checkpoints {
            if seq != covered {
                let _ = std::fs::remove_file(checkpoint::checkpoint_path(&dir, seq));
            }
        }
        checkpoint::write_manifest(&dir, covered, epoch)?;
        incgraph_obs::counter("repl.snapshots_installed", 1);
        Ok(DurableSession {
            dir,
            wal: opened.wal,
            graph,
            states,
            options,
            next_seq: covered + 1,
            epoch,
            base_seq: covered,
            crash: None,
            lock,
        })
    }

    /// The lock guarding this store against concurrent writers; released
    /// when the session drops.
    pub fn lock(&self) -> &StoreLock {
        &self.lock
    }

    /// Arms a one-shot crash injection: the next operation that reaches
    /// the given point dies there. WAL points fire in [`apply`](Self::apply),
    /// checkpoint points in [`checkpoint`](Self::checkpoint).
    pub fn arm_crash(&mut self, point: Option<CrashPoint>) {
        self.crash = point;
    }

    fn take_crash(&mut self, wal_point: bool) -> Option<CrashPoint> {
        if self.crash.is_some_and(|p| p.is_wal_point() == wal_point) {
            self.crash.take()
        } else {
            None
        }
    }

    /// Applies one batch durably (see the type-level docs for the commit
    /// protocol), returning one [`BoundednessReport`] per state the commit
    /// updated: the weakly deducible ones, plus the deducible ones when
    /// the commit caught them up.
    ///
    /// On [`DurableError::InvalidBatch`] and real I/O errors the
    /// in-memory graph is rolled back and the log untouched — the session
    /// stays usable. On [`DurableError::InjectedCrash`] the session is
    /// dead by definition and must be dropped.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<Vec<BoundednessReport>, DurableError> {
        self.apply_with(batch, |_| Ok(()), |_| {})
            .map(|(reports, _)| reports)
    }

    /// [`apply`](Self::apply) with the two hooks that bracket the commit
    /// point. `pre_commit` runs after the batch validated and applied in
    /// memory, immediately before the WAL append that commits it,
    /// receiving the sequence
    /// number the batch is about to take. The service layer uses this
    /// seam to fsync its exactly-once intent record (client token +
    /// client sequence → WAL sequence) strictly *before* the batch can
    /// become durable: a crash between the two leaves an intent whose
    /// WAL sequence was never written, which recovery discards, so a
    /// client retry re-applies cleanly; a crash after the append leaves
    /// both records, so the retry is deduplicated. If `pre_commit`
    /// errors, the in-memory application is rolled back and nothing is
    /// logged — exactly the invalid-batch contract.
    ///
    /// `committed` runs on the success path only, right after the WAL
    /// append returned: the record is fsynced and the sequence it
    /// receives is taken, but no tracked state has seen the batch yet. It
    /// is the earliest moment the batch may leave the process, so the
    /// service's primary ships the record from here and its replica
    /// commits while this session is still maintaining its states. It
    /// never runs for a batch that did not commit — an invalid batch, a
    /// refusing `pre_commit`, an I/O error or an injected crash in the
    /// append (`post-fsync` included: the process is dead by then) all
    /// return before it.
    ///
    /// Also returns the effective [`AppliedBatch`], which callers that
    /// maintain *additional* states outside the session (the service's
    /// standing queries) feed to their own incremental updates.
    pub fn apply_with<F, C>(
        &mut self,
        batch: &UpdateBatch,
        pre_commit: F,
        committed: C,
    ) -> Result<(Vec<BoundednessReport>, AppliedBatch), DurableError>
    where
        F: FnOnce(u64) -> Result<(), DurableError>,
        C: FnOnce(u64),
    {
        let applied = batch
            .apply_validated(&mut self.graph)
            .map_err(DurableError::InvalidBatch)?;
        if let Err(e) = pre_commit(self.next_seq) {
            applied.invert().apply(&mut self.graph);
            return Err(e);
        }
        let crash = self.take_crash(true);
        let seq = self.next_seq;
        if let Err(e) = self.wal.append(seq, batch, crash) {
            if !matches!(e, DurableError::InjectedCrash(_)) {
                // Real I/O failure: undo the in-memory application so the
                // session still mirrors the durable history exactly.
                applied.invert().apply(&mut self.graph);
            }
            return Err(e);
        }
        self.next_seq += 1;
        committed(seq);
        let reports = self.states.update(&self.graph, &applied);
        if let Some(every) = self.options.checkpoint_every {
            if every > 0 && self.last_seq().is_multiple_of(every) {
                self.checkpoint()?;
            }
        }
        Ok((reports, applied))
    }

    /// Writes a checkpoint covering everything applied so far and points
    /// the manifest at it. Returns the covered WAL sequence number.
    pub fn checkpoint(&mut self) -> Result<u64, DurableError> {
        self.catch_up();
        let _span = incgraph_obs::span("ckpt.write");
        let covered = self.last_seq();
        let crash = self.take_crash(false);
        checkpoint::write_checkpoint(&self.dir, covered, &self.graph, self.states.blobs(), crash)?;
        checkpoint::write_manifest(&self.dir, covered, self.epoch)?;
        incgraph_obs::counter("ckpt.writes", 1);
        incgraph_obs::gauge("ckpt.covered_seq", covered);
        Ok(covered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;
    use std::fs;

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
            Session::builder(QueryClass::Reach)
                .source(0)
                .build(g)
                .unwrap(),
        ]
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("incgraph-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn schedule() -> Vec<UpdateBatch> {
        let mut batches = Vec::new();
        let mut b = UpdateBatch::new();
        b.insert(0, 5, 2).delete(2, 3);
        batches.push(b);
        let mut b = UpdateBatch::new();
        b.delete(0, 5).insert(2, 3, 4).insert(1, 7, 1);
        batches.push(b);
        let mut b = UpdateBatch::new();
        b.delete(7, 8).delete(1, 7);
        batches.push(b);
        batches
    }

    fn essences(states: &[Session]) -> Vec<Vec<u8>> {
        states.iter().map(|s| s.save_state()).collect()
    }

    fn blobs(session: &mut DurableSession) -> Vec<Vec<u8>> {
        session.essences().map(|(_, b)| b).collect()
    }

    #[test]
    fn create_apply_recover_is_value_identical() {
        let dir = temp_dir("e2e");
        let g0 = ring(12);
        let mut session =
            DurableSession::create(&dir, g0.clone(), states_for(&g0), DurableOptions::default())
                .unwrap();
        for b in schedule() {
            session.apply(&b).unwrap();
        }
        session.checkpoint().unwrap();
        let mut b = UpdateBatch::new();
        b.insert(4, 9, 3);
        session.apply(&b).unwrap();
        let live = blobs(&mut session);
        let live_edges: Vec<_> = session.graph().edges().collect();
        drop(session);

        let (mut recovered, report) = recover(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.checkpoint_seq, 3, "newest checkpoint covers seq 3");
        assert_eq!(report.wal_records_replayed, 1, "only the suffix replays");
        assert_eq!(blobs(&mut recovered), live);
        assert_eq!(recovered.graph().edges().collect::<Vec<_>>(), live_edges);
        assert_eq!(recovered.last_seq(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_to_clobber_an_existing_store() {
        let dir = temp_dir("clobber");
        let g0 = ring(8);
        let s =
            DurableSession::create(&dir, g0.clone(), states_for(&g0), DurableOptions::default())
                .unwrap();
        drop(s);
        assert!(matches!(
            DurableSession::create(&dir, g0.clone(), states_for(&g0), DurableOptions::default()),
            Err(DurableError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_batch_leaves_session_usable_and_log_clean() {
        let dir = temp_dir("invalid");
        let g0 = ring(8);
        let mut session =
            DurableSession::create(&dir, g0.clone(), states_for(&g0), DurableOptions::default())
                .unwrap();
        let edges_before: Vec<_> = session.graph().edges().collect();
        let mut bad = UpdateBatch::new();
        bad.insert(0, 3, 1).insert(0, 99, 1); // out-of-range node
        assert!(matches!(
            session.apply(&bad),
            Err(DurableError::InvalidBatch(_))
        ));
        assert_eq!(session.graph().edges().collect::<Vec<_>>(), edges_before);
        assert_eq!(session.last_seq(), 0, "nothing was logged");
        let mut ok = UpdateBatch::new();
        ok.insert(0, 3, 1);
        session.apply(&ok).unwrap();
        assert_eq!(session.last_seq(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn periodic_checkpoints_fire_on_the_interval() {
        let dir = temp_dir("periodic");
        let g0 = ring(10);
        let options = DurableOptions {
            checkpoint_every: Some(2),
        };
        let mut session =
            DurableSession::create(&dir, g0.clone(), states_for(&g0), options).unwrap();
        for b in schedule() {
            session.apply(&b).unwrap();
        }
        // Genesis (0) + automatic checkpoint at seq 2.
        assert_eq!(checkpoint::list_checkpoints(&dir), vec![2, 0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Nothing drains a durable state's journal, so the store stops every
    /// journal it takes: sessions built journaled, as a registered view's
    /// are, hold none through create, commits, a checkpoint, recovery
    /// and a snapshot install.
    #[test]
    fn held_sessions_keep_no_journal() {
        let (dir, snap_dir) = (temp_dir("journal"), temp_dir("journal-snap"));
        let g0 = ring(12);
        let journals = |s: &DurableSession| -> Vec<usize> {
            s.states
                .stamped
                .iter()
                .chain(&s.states.deferred)
                .map(Session::journal_bytes)
                .collect()
        };
        let states = states_for(&g0);
        assert!(
            states.iter().all(|s| s.journal_bytes() > 0),
            "built journaled"
        );
        let mut session =
            DurableSession::create(&dir, g0.clone(), states, DurableOptions::default()).unwrap();
        assert_eq!(journals(&session), [0; 3], "create");
        let batches = schedule();
        for (i, b) in batches.iter().enumerate() {
            session.apply(b).unwrap();
            assert_eq!(journals(&session), [0; 3], "commit {i}");
            if i == 0 {
                session.checkpoint().unwrap();
            }
        }
        let snapshot = session.encode_snapshot();
        drop(session);
        let (recovered, report) = recover(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.wal_records_replayed, batches.len() - 1);
        assert_eq!(journals(&recovered), [0; 3], "recover");
        let replica = DurableSession::create(
            &snap_dir,
            g0.clone(),
            states_for(&g0),
            DurableOptions::default(),
        )
        .unwrap();
        let installed = replica.install_snapshot(&snapshot, 2).unwrap();
        assert_eq!(journals(&installed), [0; 3], "install_snapshot");
        drop((recovered, installed));
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&snap_dir).unwrap();
    }

    /// A commit updates the weakly deducible classes and defers the
    /// deducible ones, each group in `QueryClass::ALL` order, without the
    /// `dfs` one: BC's forest serves it.
    #[test]
    fn the_folded_dfs_is_not_a_running_state() {
        let dir = temp_dir("running");
        let g0 = ring(12);
        let seven = QueryClass::ALL.into_iter().map(|c| {
            let mut b = Session::builder(c);
            if c.source_rooted() {
                b = b.source(0);
            }
            if c == QueryClass::Sim {
                b = b.pattern(incgraph_graph::Pattern::new(vec![0], &[]));
            }
            b.build(&g0).unwrap()
        });
        let session =
            DurableSession::create(&dir, g0.clone(), seven.collect(), DurableOptions::default())
                .unwrap();
        let names = |states: &[Session]| states.iter().map(|s| s.name()).collect::<Vec<_>>();
        assert_eq!(names(&session.states.stamped), ["cc", "sim", "reach"]);
        assert_eq!(names(&session.states.deferred), ["sssp", "lcc", "bc"]);
        drop(session);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_session_makes_concurrent_open_store_busy() {
        let dir = temp_dir("lock");
        let g0 = ring(8);
        let session =
            DurableSession::create(&dir, g0.clone(), states_for(&g0), DurableOptions::default())
                .unwrap();
        // A second writer — create or recover — must be refused while the
        // first session lives, and succeed once it is dropped.
        assert!(matches!(
            recover(&dir, DurableOptions::default()),
            Err(DurableError::StoreBusy { .. })
        ));
        assert!(matches!(
            DurableSession::create(&dir, g0.clone(), states_for(&g0), DurableOptions::default()),
            Err(DurableError::StoreBusy { .. })
        ));
        drop(session);
        let (reopened, _) = recover(&dir, DurableOptions::default()).unwrap();
        drop(reopened);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_commit_failure_rolls_back_and_logs_nothing() {
        let dir = temp_dir("precommit");
        let g0 = ring(8);
        let mut session =
            DurableSession::create(&dir, g0.clone(), states_for(&g0), DurableOptions::default())
                .unwrap();
        let edges_before: Vec<_> = session.graph().edges().collect();
        let mut b = UpdateBatch::new();
        b.insert(0, 3, 1);
        let mut seen_seq = 0;
        let mut committed = false;
        let err = session
            .apply_with(
                &b,
                |seq| {
                    seen_seq = seq;
                    Err(DurableError::Corrupt("intent fsync failed".into()))
                },
                |_| committed = true,
            )
            .unwrap_err();
        assert!(matches!(err, DurableError::Corrupt(_)));
        assert_eq!(seen_seq, FIRST_SEQ, "hook sees the would-be sequence");
        assert!(
            !committed,
            "a refused commit must not reach the commit hook"
        );
        assert_eq!(session.graph().edges().collect::<Vec<_>>(), edges_before);
        assert_eq!(session.last_seq(), 0, "nothing was logged");
        // The session survives the refused commit.
        session.apply(&b).unwrap();
        assert_eq!(session.last_seq(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Logs the `update.guarded` spans one thread records — the probe
    /// for *when* state maintenance runs relative to the commit hooks.
    /// The recorder is global to the process, so it ignores the spans of
    /// tests running beside its own.
    struct Recording {
        thread: std::thread::ThreadId,
        log: std::sync::Arc<std::sync::Mutex<Vec<String>>>,
    }

    impl incgraph_obs::Recorder for Recording {
        fn counter(&self, _: &'static str, _: &'static str, _: u64) {}
        fn gauge(&self, _: &'static str, _: &'static str, _: u64) {}
        fn observe(&self, _: &'static str, _: &'static str, _: u64) {}
        fn event(&self, _: &'static str, _: &'static str, _: &str) {}
        fn span(&self, _: &'static str, name: &'static str, _: u64) {
            if name == "update.guarded" && std::thread::current().id() == self.thread {
                self.log.lock().unwrap().push("update".into());
            }
        }
    }

    #[test]
    fn commit_hooks_bracket_the_wal_fsync_and_precede_state_maintenance() {
        let dir = temp_dir("hook-order");
        let g0 = ring(12);
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        incgraph_obs::install(std::sync::Arc::new(Recording {
            thread: std::thread::current().id(),
            log: log.clone(),
        }));
        let cc = Session::builder(QueryClass::Cc).build(&g0).unwrap();
        let mut session =
            DurableSession::create(&dir, g0, vec![cc], DurableOptions::default()).unwrap();
        let wal_path = dir.join(WAL_NAME);
        let logged_seqs = || -> Vec<u64> {
            let bytes = fs::read(&wal_path).unwrap();
            let scan = scan_records(&bytes[8..], FIRST_SEQ);
            scan.records.iter().map(|r| r.seq).collect()
        };
        for (i, b) in schedule().iter().enumerate() {
            let seq = i as u64 + 1;
            session
                .apply_with(
                    b,
                    |s| {
                        assert!(!logged_seqs().contains(&s), "intent precedes the record");
                        log.lock().unwrap().push(format!("pre_commit {s}"));
                        Ok(())
                    },
                    |s| {
                        // The record is already on disk when the hook runs:
                        // whatever it hands out is durable here.
                        assert_eq!(logged_seqs().last(), Some(&s));
                        log.lock().unwrap().push(format!("committed {s}"));
                    },
                )
                .unwrap();
            assert_eq!(
                std::mem::take(&mut *log.lock().unwrap()),
                [
                    format!("pre_commit {seq}"),
                    format!("committed {seq}"),
                    "update".to_string()
                ]
            );
        }
        incgraph_obs::uninstall();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_hook_never_runs_for_a_batch_that_did_not_commit() {
        let mut ok = UpdateBatch::new();
        ok.insert(0, 3, 1);
        let mut bad = UpdateBatch::new();
        bad.insert(0, 3, 1).insert(0, 99, 1); // out-of-range node
        let cases = [
            ("invalid", &bad, None),
            ("pre-fsync", &ok, Some(CrashPoint::WalPreFsync)),
            ("post-fsync", &ok, Some(CrashPoint::WalPostFsync)),
        ];
        for (tag, batch, crash) in cases {
            let dir = temp_dir(&format!("hook-skip-{tag}"));
            let g0 = ring(8);
            let mut session = DurableSession::create(
                &dir,
                g0.clone(),
                states_for(&g0),
                DurableOptions::default(),
            )
            .unwrap();
            session.arm_crash(crash);
            let mut committed = false;
            let err = session
                .apply_with(batch, |_| Ok(()), |_| committed = true)
                .unwrap_err();
            match crash {
                Some(p) => assert!(matches!(err, DurableError::InjectedCrash(q) if q == p)),
                None => assert!(matches!(err, DurableError::InvalidBatch(_))),
            }
            assert!(!committed, "{tag}: the commit hook ran");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn snapshot_install_rebases_history_and_survives_recovery() {
        // Primary world: some history, then a snapshot of the live state.
        let src_dir = temp_dir("snap-src");
        let g0 = ring(12);
        let mut primary = DurableSession::create(
            &src_dir,
            g0.clone(),
            states_for(&g0),
            DurableOptions::default(),
        )
        .unwrap();
        for b in schedule() {
            primary.apply(&b).unwrap();
        }
        let snapshot = primary.encode_snapshot();
        let want_digest = primary.digest();
        let snap_seq = primary.last_seq();

        // Replica: fresh store, diverged by an unrelated batch, then the
        // snapshot is installed — its whole world must be replaced.
        let dst_dir = temp_dir("snap-dst");
        let mut replica = DurableSession::create(
            &dst_dir,
            ring(12),
            states_for(&ring(12)),
            DurableOptions::default(),
        )
        .unwrap();
        let mut stray = UpdateBatch::new();
        stray.insert(0, 6, 9);
        replica.apply(&stray).unwrap();
        let mut replica = replica.install_snapshot(&snapshot, 5).unwrap();
        assert_eq!(replica.last_seq(), snap_seq);
        assert_eq!(replica.base_seq(), snap_seq);
        assert_eq!(replica.epoch(), 5);
        assert_eq!(replica.digest(), want_digest);

        // New history continues at base + 1 and recovery honors the base.
        let mut replica = replica;
        let mut b = UpdateBatch::new();
        b.insert(4, 9, 3);
        replica.apply(&b).unwrap();
        let live = blobs(&mut replica);
        drop(replica);
        let (mut recovered, report) = recover(&dst_dir, DurableOptions::default()).unwrap();
        assert_eq!(recovered.base_seq(), snap_seq);
        assert_eq!(recovered.epoch(), 5);
        assert_eq!(recovered.last_seq(), snap_seq + 1);
        assert_eq!(
            report.checkpoint_seq, snap_seq,
            "base checkpoint is the floor"
        );
        assert_eq!(blobs(&mut recovered), live);
        fs::remove_dir_all(&src_dir).unwrap();
        fs::remove_dir_all(&dst_dir).unwrap();
    }

    #[test]
    fn bump_epoch_is_durable_across_recovery() {
        let dir = temp_dir("epoch-bump");
        let g0 = ring(8);
        let mut session =
            DurableSession::create(&dir, g0.clone(), states_for(&g0), DurableOptions::default())
                .unwrap();
        assert_eq!(session.epoch(), meta::FIRST_EPOCH);
        assert_eq!(session.bump_epoch().unwrap(), 2);
        assert_eq!(session.bump_epoch().unwrap(), 3);
        drop(session);
        let (recovered, _) = recover(&dir, DurableOptions::default()).unwrap();
        assert_eq!(recovered.epoch(), 3);
        assert_eq!(checkpoint::read_manifest(&dir).unwrap().1, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The digest streams `edges()` in its own order through a buffer
    /// (the larger cases fill it several times); the formula it keeps
    /// sorts the edge list first.
    #[test]
    fn digest_equals_the_sorted_edge_formula() {
        let mut rng = incgraph_graph::rng::SplitMix64::seed_from_u64(7);
        for (case, directed) in [false, true, false, true].into_iter().enumerate() {
            let dir = temp_dir(&format!("digest-{case}"));
            let n = 40 + 300 * case as u32;
            let mut g = DynamicGraph::new(directed, n as usize);
            for _ in 0..(n * 3) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                g.insert_edge(u, v, rng.gen_range(1u32..50));
            }
            let states = vec![
                Session::builder(QueryClass::Sssp)
                    .source(0)
                    .build(&g)
                    .unwrap(),
                Session::builder(QueryClass::Cc).build(&g).unwrap(),
            ];
            let mut session =
                DurableSession::create(&dir, g.clone(), states, DurableOptions::default()).unwrap();
            let mut crc = crc::Crc32::new()
                .update(&[directed as u8])
                .update(&(n as u64).to_le_bytes());
            let mut edges: Vec<_> = g.edges().collect();
            edges.sort_unstable();
            for (u, v, w) in edges {
                crc = crc
                    .update(&u.to_le_bytes())
                    .update(&v.to_le_bytes())
                    .update(&w.to_le_bytes());
            }
            for (name, blob) in session.essences().collect::<Vec<_>>() {
                crc = crc
                    .update(name.as_bytes())
                    .update(&(blob.len() as u64).to_le_bytes())
                    .update(&blob);
            }
            assert_eq!(
                session.digest(),
                format!("{:08x}", crc.finish()),
                "case {case}"
            );
            drop(session);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn crash_points_round_trip_their_names() {
        for p in CrashPoint::ALL {
            assert_eq!(CrashPoint::parse(p.name()), Some(p));
        }
        assert_eq!(CrashPoint::parse("nope"), None);
    }

    #[test]
    fn kill_and_recover_at_every_crash_point() {
        // The core durability contract, in miniature (the oracle's crash
        // mode scales this to every round of a fuzzed schedule): crash at
        // each injection point, recover, and the recovered world must be
        // value-identical to an uninterrupted run over the surviving
        // prefix of the history.
        let batches = schedule();
        for point in CrashPoint::ALL {
            let dir = temp_dir(point.name());
            let g0 = ring(12);
            let mut session = DurableSession::create(
                &dir,
                g0.clone(),
                states_for(&g0),
                DurableOptions::default(),
            )
            .unwrap();
            // Two clean rounds, then the faulty operation.
            session.apply(&batches[0]).unwrap();
            session.apply(&batches[1]).unwrap();
            session.arm_crash(Some(point));
            let survived = if point.is_wal_point() {
                let err = session.apply(&batches[2]).unwrap_err();
                assert!(matches!(err, DurableError::InjectedCrash(p) if p == point));
                // Pre-fsync: the in-flight batch dies with the process.
                // Post-fsync: it committed first.
                if point == CrashPoint::WalPostFsync {
                    3
                } else {
                    2
                }
            } else {
                let err = session.checkpoint().unwrap_err();
                assert!(matches!(err, DurableError::InjectedCrash(p) if p == point));
                2
            };
            drop(session);

            // Uninterrupted reference over the surviving prefix.
            let mut ref_g = g0.clone();
            let mut ref_states = states_for(&ref_g);
            for b in &batches[..survived] {
                let applied = b.apply(&mut ref_g);
                for s in &mut ref_states {
                    s.update(&ref_g, &applied);
                }
            }

            let (mut recovered, report) = recover(&dir, DurableOptions::default()).unwrap();
            assert_eq!(
                recovered.last_seq(),
                survived as u64,
                "{point}: wrong history length"
            );
            assert_eq!(
                blobs(&mut recovered),
                essences(&ref_states),
                "{point}: recovered essence diverges"
            );
            assert_eq!(
                recovered.graph().edges().collect::<Vec<_>>(),
                ref_g.edges().collect::<Vec<_>>(),
                "{point}: recovered graph diverges"
            );
            if point == CrashPoint::WalPreFsync {
                assert!(report.wal_truncated_bytes > 0, "torn tail must be cut");
            }
            if point == CrashPoint::PostRename {
                // The renamed checkpoint is durable even though the
                // manifest never learned about it.
                assert_eq!(report.checkpoint_seq, 2);
                assert!(!report.used_manifest);
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
