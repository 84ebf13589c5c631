//! The single writer's core. [`WriterCore::step`] runs one job against
//! the [`Store`] and owns the order a batch's effects leave the process
//! (see its docs). The core reads neither the clock nor the server's
//! state: the caller passes the time in, and the core publishes the
//! node's role and replication gauges through [`Status`]. The thread
//! around it — the job channel, the write guard, crashes and shutdown —
//! is `writer_loop` in [`server`](crate::server).
//!
//! The primary half of replication lives here too, because only the
//! writer runs it: the `SYNC` handshake, the attached sinks, semi-sync
//! ack gating and the broadcast of shipped records and `DIGEST` probes.

use crate::outbound::Outbound;
use crate::protocol::{self, ErrCode, WriteCmd};
use crate::server::{Role, ServerConfig};
use crate::store::{ReplInfo, Store, UpdateError, WireError};
use incgraph_durable::{encode_record_with, Origin};
use incgraph_graph::UpdateBatch;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

pub(crate) enum Job {
    /// A client's writer verb, as its session reader parsed it.
    Client {
        sid: u64,
        cmd: WriteCmd,
        out: Arc<Outbound>,
    },
    Update {
        graph: String,
        token: String,
        client_seq: u64,
        batch: UpdateBatch,
        out: Arc<Outbound>,
    },
    DropSession {
        sid: u64,
    },
    /// A replica reports `seq` fsynced; gated client acks may release.
    Watermark {
        sid: u64,
        seq: u64,
    },
    /// Replica-side: apply one shipped record through the writer (the
    /// single-writer invariant holds for replication too).
    ReplApply {
        graph: String,
        seq: u64,
        origin: Option<Origin>,
        batch: UpdateBatch,
        done: mpsc::Sender<Result<u64, String>>,
    },
    /// Replica-side: `(last_seq, digest)` for a primary's `DIGEST`
    /// probe. A digest catches the built-in states up, so only the
    /// writer takes it.
    ReplDigest {
        graph: String,
        done: mpsc::Sender<Option<(u64, String)>>,
    },
    /// Replica-side: adopt a bootstrap/resync snapshot.
    ReplAdopt {
        graph: String,
        payload: Vec<u8>,
        epoch: u64,
        done: mpsc::Sender<Result<u64, String>>,
    },
    /// Replica-side: adopt the primary's (higher) epoch on tail sync;
    /// `done` gets the epoch back.
    AdoptEpoch {
        graph: String,
        epoch: u64,
        done: mpsc::Sender<Result<u64, String>>,
    },
}

#[derive(Debug, PartialEq, Eq)]
pub(crate) enum JobOutcome {
    Done,
    /// An armed crash point fired: the process is dead from here on.
    Crashed,
}

/// What the writer publishes for the rest of the process: the node's
/// [`Role`] and the replication gauges `STATUS` prints. Only the writer
/// changes the role (`PROMOTE`, fencing).
pub(crate) struct Status {
    /// Current [`Role`], as its discriminant.
    role: AtomicU8,
    /// Committed-minus-min-watermark over live sinks (primary side).
    pub(crate) repl_lag: AtomicU64,
    /// Live replication sinks (primary side).
    pub(crate) repl_sinks: AtomicUsize,
}

impl Status {
    pub(crate) fn new(role: Role) -> Self {
        Status {
            role: AtomicU8::new(role as u8),
            repl_lag: AtomicU64::new(0),
            repl_sinks: AtomicUsize::new(0),
        }
    }

    pub(crate) fn role(&self) -> Role {
        [Role::Primary, Role::Replica, Role::Fenced][usize::from(self.role.load(Ordering::Acquire))]
    }

    fn set_role(&self, role: Role) {
        self.role.store(role as u8, Ordering::Release);
    }
}

/// The part of [`ServerConfig`] the writer reads.
struct WriterSettings {
    repl_graph: Option<String>,
    digest_every: u64,
    repl_ack_timeout: Duration,
    snapshot_lag: u64,
}

/// One attached replication sink: the replica session's outbound queue
/// plus the highest sequence it has confirmed fsynced.
struct Sink {
    out: Arc<Outbound>,
    watermark: u64,
}

/// One client ack held back by semi-sync gating: released when every
/// live sink's watermark reaches `wal_seq`, when the last sink detaches,
/// or once `repl_ack_timeout` has passed since `since`.
pub(crate) struct PendingAck {
    wal_seq: u64,
    pub(crate) line: String,
    pub(crate) out: Arc<Outbound>,
    /// The `now` of the step that queued it.
    since: Instant,
}

/// The single writer's state (no locks: exactly one writer).
pub(crate) struct WriterCore {
    sinks: HashMap<u64, Sink>,
    pub(crate) pending_acks: VecDeque<PendingAck>,
    ships_since_digest: u64,
    settings: WriterSettings,
    status: Arc<Status>,
}

impl WriterCore {
    pub(crate) fn new(cfg: &ServerConfig, status: Arc<Status>) -> Self {
        WriterCore {
            sinks: HashMap::new(),
            pending_acks: VecDeque::new(),
            ships_since_digest: 0,
            settings: WriterSettings {
                repl_graph: cfg.repl_graph.clone(),
                digest_every: cfg.digest_every,
                repl_ack_timeout: cfg.repl_ack_timeout,
                snapshot_lag: cfg.snapshot_lag,
            },
            status,
        }
    }

    /// Runs one job at time `now`; the writer's only entry point.
    ///
    /// # Commit, ack, notify
    ///
    /// An `UPDATE`'s effects leave the process in one order, all inside
    /// this call:
    ///
    /// 1. the WAL commit. For the replicated graph the record is shipped
    ///    to every sink at the commit point, before this store's
    ///    built-in states are maintained;
    /// 2. the client's `ACK`: pushed at once, or held as a
    ///    [`PendingAck`] while sinks are attached, until every sink's
    ///    watermark reaches it or `repl_ack_timeout` has passed (judged
    ///    against `now`, here or in a later [`tick`](Self::tick));
    /// 3. the batch's standing-query notification, so on a subscriber's
    ///    queue its `DELTA`s follow the `ACK`.
    ///
    /// The caller holds the store's write guard across the call, so a
    /// read taken after the `ACK` already reflects the batch
    /// (read-your-writes). A replica's `ReplApply` answers `done` before
    /// its notify pass: the tail's `WATERMARK` waits on that answer.
    ///
    /// Only a primary commits: a replica or a fenced node refuses every
    /// `UPDATE`, one queued before the fence included.
    pub(crate) fn step(&mut self, store: &mut Store, now: Instant, job: Job) -> JobOutcome {
        let role = self.status.role();
        match job {
            // A promotion raced the replication stream: this node now
            // owns its own history, so replica-side work is refused.
            Job::ReplApply { done, .. }
            | Job::ReplAdopt { done, .. }
            | Job::AdoptEpoch { done, .. }
                if role != Role::Replica =>
            {
                let _ = done.send(Err(format!("{} promoted mid-stream", ErrCode::NotPrimary)));
            }
            // Clients redirect to the primary and retry the same sequence.
            Job::Update { out, .. } if role != Role::Primary => {
                out.push_line(format!(
                    "ERR {} {} is read-only; send writes to the primary",
                    ErrCode::NotPrimary,
                    role.name()
                ));
            }
            Job::Client { sid, cmd, out } => self.run_client(store, sid, cmd, out),
            Job::Update {
                graph,
                token,
                client_seq,
                batch,
                out,
            } => {
                let replicated = self.settings.repl_graph.as_deref() == Some(graph.as_str());
                let committed =
                    store.commit_update(&graph, &token, client_seq, &batch, |wal_seq| {
                        // The commit point: the record is fsynced, so it may
                        // leave the process. A dup, a refusal and a failed or
                        // crashed append never reach this hook, and the single
                        // writer keeps ship order equal to WAL order.
                        if replicated {
                            let origin = Origin {
                                token: token.clone(),
                                client_seq,
                            };
                            let record = encode_record_with(wal_seq, &batch, Some(&origin));
                            self.broadcast(&protocol::format_ship(wal_seq, &record));
                        }
                    });
                match committed {
                    Ok((ack, applied)) => {
                        let dup = if ack.dup { " dup" } else { "" };
                        let line =
                            format!("ACK {} {} {}{dup}", ack.client_seq, ack.wal_seq, ack.units);
                        if replicated && !ack.dup {
                            // The divergence probe compares *applied*
                            // states, so it stays behind state maintenance.
                            self.ships_since_digest += 1;
                            if self.settings.digest_every > 0
                                && self.ships_since_digest >= self.settings.digest_every
                                && !self.sinks.is_empty()
                            {
                                self.ships_since_digest = 0;
                                if let Some((seq, digest)) = store.repl_digest(&graph) {
                                    self.broadcast(&protocol::format_digest(seq, &digest));
                                }
                            }
                        }
                        // Semi-sync gating: with live sinks attached the ack
                        // waits for their watermarks (or the timeout). Dup
                        // re-acks reference an old sequence and release at
                        // once through the same queue.
                        self.prune_sinks();
                        if replicated && !self.sinks.is_empty() {
                            self.pending_acks.push_back(PendingAck {
                                wal_seq: ack.wal_seq,
                                line,
                                out,
                                since: now,
                            });
                            let committed = store.repl_info(&graph).map_or(0, |i| i.last_seq);
                            self.release_acks(now, Some(committed));
                        } else {
                            out.push_line(line);
                        }
                        if let Some(applied) = applied {
                            store.notify_queries(&graph, std::slice::from_ref(&applied));
                        }
                    }
                    Err(UpdateError::Wire(c, d)) => {
                        out.push_line(format!("ERR {c} {d}"));
                    }
                    Err(UpdateError::Crashed(p)) => return crashed(p),
                }
            }
            Job::DropSession { sid } => {
                if self.sinks.remove(&sid).is_some() {
                    self.release_acks(now, None);
                }
                store.drop_session(sid);
            }
            Job::Watermark { sid, seq } => {
                if let Some(sink) = self.sinks.get_mut(&sid) {
                    sink.watermark = sink.watermark.max(seq);
                    incgraph_obs::gauge("repl.watermark_seq", seq);
                }
                let graph = self.settings.repl_graph.as_deref();
                let committed = graph.and_then(|g| store.repl_info(g)).map(|i| i.last_seq);
                self.release_acks(now, committed);
            }
            Job::ReplApply {
                graph,
                seq,
                origin,
                batch,
                done,
            } => match store.apply_replicated(&graph, seq, origin, &batch) {
                Ok(applied) => {
                    let _ = done.send(Ok(seq));
                    store.notify_queries(&graph, std::slice::from_ref(&applied));
                }
                Err(UpdateError::Wire(c, d)) => {
                    let _ = done.send(Err(format!("{c} {d}")));
                }
                Err(UpdateError::Crashed(p)) => {
                    let _ = done.send(Err(format!("{} injected crash", ErrCode::Store)));
                    return crashed(p);
                }
            },
            Job::ReplAdopt {
                graph,
                payload,
                epoch,
                done,
            } => {
                let adopted = store.adopt_snapshot(&graph, &payload, epoch);
                let _ = done.send(adopted.map_err(|(c, d)| format!("{c} {d}")));
            }
            Job::AdoptEpoch { graph, epoch, done } => {
                let adopted = store.adopt_epoch(&graph, epoch).map(|()| epoch);
                let _ = done.send(adopted.map_err(|(c, d)| format!("{c} {d}")));
            }
            Job::ReplDigest { graph, done } => {
                let _ = done.send(store.repl_digest(&graph));
            }
        }
        self.tick(now);
        JobOutcome::Done
    }

    /// Releases the gated acks whose timeout has passed at `now`, even
    /// when no watermark arrives (sink death, partition). [`step`]
    /// (Self::step) ends with it; an idle writer calls it on its own.
    pub(crate) fn tick(&mut self, now: Instant) {
        if !self.pending_acks.is_empty() || !self.sinks.is_empty() {
            self.release_acks(now, None);
        }
    }

    /// Runs one client writer verb and queues its reply: the `OK` line,
    /// or `ERR {code} {detail}` for a refusal. `SYNC` streams its own `OK`
    /// and catch-up lines, so only its refusal is replied here.
    fn run_client(&mut self, store: &mut Store, sid: u64, cmd: WriteCmd, out: Arc<Outbound>) {
        let reply = match cmd {
            WriteCmd::Graph {
                name,
                nodes,
                directed,
            } => store
                .open_graph(&name, nodes, directed)
                .map(|()| format!("OK GRAPH {name}")),
            WriteCmd::Register {
                qid,
                graph,
                class,
                source,
                pattern_seed,
            } => store
                .register(
                    sid,
                    &qid,
                    &graph,
                    &class,
                    source,
                    pattern_seed,
                    Arc::clone(&out),
                )
                .map(|len| format!("OK REGISTER {qid} {len}")),
            WriteCmd::Unregister { qid } => store
                .unregister(sid, &qid)
                .map(|()| format!("OK UNREGISTER {qid}")),
            WriteCmd::Plan {
                qid,
                graph,
                pattern_seed,
                text,
            } => store
                .register_plan(sid, &qid, &graph, pattern_seed, &text, Arc::clone(&out))
                .map(|rows| format!("OK PLAN {qid} {rows}")),
            WriteCmd::Unplan { qid } => store
                .unregister_plan(sid, &qid)
                .map(|()| format!("OK UNPLAN {qid}")),
            sync @ WriteCmd::Sync { .. } => {
                let Err(refusal) = self.process_sync(store, sid, sync, &out) else {
                    return;
                };
                Err(refusal)
            }
            WriteCmd::Promote => match (self.status.role(), &self.settings.repl_graph) {
                (Role::Replica, Some(graph)) => store.bump_epoch(graph).map(|epoch| {
                    self.status.set_role(Role::Primary);
                    incgraph_obs::counter("repl.promotions", 1);
                    format!("OK PROMOTE {epoch}")
                }),
                (Role::Replica, None) => Err((
                    ErrCode::BadCommand,
                    "no replicated graph on this server".into(),
                )),
                (Role::Primary, _) => Err((ErrCode::BadCommand, "already primary".into())),
                (Role::Fenced, _) => Err((
                    ErrCode::BadCommand,
                    "node is fenced; restart it as a replica to rejoin".into(),
                )),
            },
        };
        out.push_line(reply.unwrap_or_else(|(c, d)| format!("ERR {c} {d}")));
    }

    /// Handles one `SYNC` handshake: fencing, shape validation,
    /// tail-vs-snapshot decision, catch-up push, and sink registration.
    /// Epoch comparison comes first — a higher epoch fences this node no
    /// matter what else is wrong with the request. On success the `OK
    /// SYNC` line and the catch-up are queued on `out`; a refusal is
    /// returned for the caller to reply.
    fn process_sync(
        &mut self,
        store: &mut Store,
        sid: u64,
        sync: WriteCmd,
        out: &Arc<Outbound>,
    ) -> Result<(), WireError> {
        let WriteCmd::Sync {
            graph,
            epoch,
            from_seq,
            crc,
            directed,
            nodes,
            force,
        } = sync
        else {
            unreachable!("process_sync is handed SYNC only");
        };
        if self.settings.repl_graph.as_deref() != Some(graph.as_str()) {
            return Err((
                ErrCode::UnknownGraph,
                format!("{graph} is not replicated on this server"),
            ));
        }
        let info = store.durable(&graph).map(ReplInfo::of)?;
        let role = self.status.role();
        if epoch > info.epoch {
            // The requester has seen a later epoch than ours: we were
            // deposed while partitioned. Fence — refuse writes forever (a
            // restart as a replica rejoins cleanly) — so no batch is ever
            // double-acked by two primaries.
            if role == Role::Primary {
                self.status.set_role(Role::Fenced);
                incgraph_obs::counter("repl.fenced", 1);
                if incgraph_obs::enabled() {
                    incgraph_obs::event(
                        "repl.fenced",
                        &format!("our epoch {} vs peer {epoch}", info.epoch),
                    );
                }
            }
            return Err((
                ErrCode::StaleEpoch,
                format!("this node is at epoch {} and is deposed", info.epoch),
            ));
        }
        if role != Role::Primary {
            return Err((
                ErrCode::NotPrimary,
                format!("{} does not serve the replication stream", role.name()),
            ));
        }
        if info.directed != directed || info.nodes != nodes {
            let shape = if info.directed {
                "directed"
            } else {
                "undirected"
            };
            return Err((
                ErrCode::GraphMismatch,
                format!("{graph} is {shape} with {} nodes", info.nodes),
            ));
        }
        incgraph_obs::counter("repl.syncs", 1);
        // Decide tail vs snapshot. A tail needs the replica's position to
        // be inside our retained history *and* its record CRC to match ours
        // at that position — anything else (divergence, pre-base lag, a
        // future sequence from a forked history, an explicit force, or a
        // lag past the configured bound) bootstraps from a snapshot.
        let lag_snap = info.last_seq.saturating_sub(from_seq) > self.settings.snapshot_lag;
        let out_of_range = from_seq < info.base_seq || from_seq > info.last_seq;
        let mut snap = force || out_of_range || lag_snap;
        let mut tail_ships = Vec::new();
        if !snap {
            let (crc_at_from, ships) = store.wal_catchup(&graph, from_seq)?;
            let diverged = match (crc, crc_at_from) {
                (Some(theirs), Some(ours)) => theirs != ours,
                // from_seq == base: no record to compare, trust BASE.
                (None, None) => false,
                // One side has a record the other cannot name.
                _ => from_seq != info.base_seq,
            };
            if diverged {
                incgraph_obs::counter("repl.divergence", 1);
                snap = true;
            } else {
                tail_ships = ships;
            }
        }
        let watermark = if snap {
            let Some((snap_seq, payload)) = store.encode_snapshot(&graph) else {
                return Err((ErrCode::Store, format!("{graph} cannot be snapshotted")));
            };
            out.push_line(format!("OK SYNC snap {} {snap_seq}", info.epoch));
            // 256 KiB raw chunks: 512 KiB hexed + header, inside the 1 MiB
            // line cap.
            const CHUNK: usize = 256 * 1024;
            let total = payload.len().div_ceil(CHUNK).max(1);
            for (i, chunk) in payload.chunks(CHUNK).enumerate() {
                out.push_line(protocol::format_snap(i, total, chunk));
            }
            if payload.is_empty() {
                out.push_line(protocol::format_snap(0, 1, &[]));
            }
            out.push_line(protocol::format_snapend(
                snap_seq,
                incgraph_durable::crc::crc32(&payload),
            ));
            incgraph_obs::counter("repl.snapshots_sent", 1);
            snap_seq
        } else {
            out.push_line(format!("OK SYNC tail {} {}", info.epoch, info.last_seq));
            for r in &tail_ships {
                out.push_line(protocol::format_ship(r.seq, &r.encode()));
            }
            from_seq
        };
        let out = Arc::clone(out);
        self.sinks.insert(sid, Sink { out, watermark });
        self.status
            .repl_sinks
            .store(self.sinks.len(), Ordering::Relaxed);
        Ok(())
    }

    /// Drops sinks whose outbound closed (slow consumer, disconnect) and
    /// publishes the live-sink count.
    fn prune_sinks(&mut self) {
        let before = self.sinks.len();
        self.sinks.retain(|_, s| !s.out.is_closing());
        if self.sinks.len() != before {
            incgraph_obs::counter("repl.sink_drops", (before - self.sinks.len()) as u64);
        }
        self.status
            .repl_sinks
            .store(self.sinks.len(), Ordering::Relaxed);
    }

    /// Releases every gated ack the semi-sync rule allows at `now`. With
    /// no live sinks there is nothing to wait for; otherwise an ack needs
    /// every sink's watermark at or past its sequence, or its timeout.
    fn release_acks(&mut self, now: Instant, committed: Option<u64>) {
        self.prune_sinks();
        let min_wm = self.sinks.values().map(|s| s.watermark).min();
        let timeout = self.settings.repl_ack_timeout;
        while let Some(front) = self.pending_acks.front() {
            let due = match min_wm {
                None => true,
                Some(wm) => front.wal_seq <= wm || now.duration_since(front.since) >= timeout,
            };
            if !due {
                break;
            }
            let ack = self.pending_acks.pop_front().expect("front exists");
            ack.out.push_line(ack.line);
        }
        if let (Some(committed), Some(wm)) = (committed, min_wm) {
            let lag = committed.saturating_sub(wm);
            self.status.repl_lag.store(lag, Ordering::Relaxed);
            incgraph_obs::gauge("repl.lag_seqs", lag);
        }
    }

    /// Pushes one line to every live sink.
    fn broadcast(&self, line: &str) {
        for sink in self.sinks.values() {
            sink.out.push_line(line.to_string());
            incgraph_obs::counter("repl.ship_bytes", line.len() as u64 + 1);
        }
    }
}

/// Reports an injected crash that fired mid-commit.
fn crashed(point: incgraph_durable::CrashPoint) -> JobOutcome {
    if incgraph_obs::enabled() {
        incgraph_obs::event("service.crash", point.name());
    }
    JobOutcome::Crashed
}

#[cfg(test)]
mod tests {
    //! The core driven one step at a time: one thread, no socket, and a
    //! virtual `now` that only the test advances.

    use super::*;
    use crate::protocol::Command;
    use crate::store::StoreLimits;
    use incgraph_durable::DurableOptions;
    use std::path::PathBuf;

    const GRAPH: &str = "g0";

    /// A fresh durable store of 16 undirected nodes at epoch 1.
    fn durable_store(tag: &str) -> (Store, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("incgraph-writer-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = DurableOptions::default();
        let store = Store::open_durable(&dir, GRAPH, 16, false, options, StoreLimits::default());
        (store.expect("open durable store"), dir)
    }

    /// The virtual clock's origin, and the tests' only read of the real
    /// clock: every later `now` is `t0` plus a duration the test picks.
    fn origin() -> Instant {
        Instant::now()
    }

    fn core(role: Role) -> WriterCore {
        let cfg = ServerConfig {
            repl_graph: Some(GRAPH.into()),
            ..ServerConfig::default()
        };
        WriterCore::new(&cfg, Arc::new(Status::new(role)))
    }

    fn outbound() -> Arc<Outbound> {
        Arc::new(Outbound::new(64, 1024, 256))
    }

    /// Everything queued on `out`, rendered, oldest first.
    fn drain(out: &Outbound) -> Vec<String> {
        std::iter::from_fn(|| out.pop(Duration::ZERO))
            .map(|m| m.render())
            .collect()
    }

    fn client(sid: u64, line: &str, out: &Arc<Outbound>) -> Job {
        let Ok(Command::Write(cmd)) = protocol::parse_command(line) else {
            panic!("{line} is not a writer verb");
        };
        let out = Arc::clone(out);
        Job::Client { sid, cmd, out }
    }

    fn update(client_seq: u64, out: &Arc<Outbound>) -> Job {
        let mut batch = UpdateBatch::new();
        batch.insert(client_seq as u32 - 1, client_seq as u32, 1);
        Job::Update {
            graph: GRAPH.into(),
            token: "t".into(),
            client_seq,
            batch,
            out: Arc::clone(out),
        }
    }

    #[test]
    fn an_update_queued_behind_a_fencing_sync_is_refused() {
        let (mut store, dir) = durable_store("fence");
        let mut core = core(Role::Primary);
        let (peer, writer) = (outbound(), outbound());
        let t0 = origin();
        core.step(&mut store, t0, update(1, &writer));
        assert_eq!(drain(&writer), ["ACK 1 1 1"]);

        let sync = client(1, "SYNC g0 2 1 - undirected 16", &peer);
        assert_eq!(core.step(&mut store, t0, sync), JobOutcome::Done);
        let reply = drain(&peer);
        assert!(reply[0].starts_with("ERR stale-epoch"), "{reply:?}");
        assert_eq!(core.status.role(), Role::Fenced);

        // The next batch, and a retry of the acked one, are both refused.
        for seq in [2, 1] {
            assert_eq!(
                core.step(&mut store, t0, update(seq, &writer)),
                JobOutcome::Done
            );
            let refusal = "ERR not-primary fenced is read-only; send writes to the primary";
            assert_eq!(drain(&writer), [refusal]);
        }
        assert_eq!(store.repl_info(GRAPH).unwrap().last_seq, 1);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_gated_ack_waits_for_the_watermark_or_the_timeout() {
        let (mut store, dir) = durable_store("gate");
        let mut core = core(Role::Primary);
        let timeout = core.settings.repl_ack_timeout;
        let ms = Duration::from_millis(1);
        let (sink, writer) = (outbound(), outbound());
        let t0 = origin();

        core.step(
            &mut store,
            t0,
            client(9, "SYNC g0 1 0 - undirected 16", &sink),
        );
        assert_eq!(drain(&sink), ["OK SYNC tail 1 0"]);

        core.step(&mut store, t0, update(1, &writer));
        // The shipped record carries the client's origin.
        let ship = drain(&sink).remove(0);
        let Ok(Some(protocol::ReplMsg::Ship { seq: 1, record })) = protocol::parse_repl(&ship)
        else {
            panic!("not a SHIP of seq 1: {ship}")
        };
        let shipped = incgraph_durable::scan_records(&record, 1).records.remove(0);
        let want = Origin {
            token: "t".into(),
            client_seq: 1,
        };
        assert_eq!(shipped.origin, Some(want));
        core.tick(t0 + timeout - ms);
        assert!(writer.is_empty(), "held until the watermark or the timeout");
        core.step(&mut store, t0 + ms, Job::Watermark { sid: 9, seq: 1 });
        assert_eq!(drain(&writer), ["ACK 1 1 1"]);

        let t1 = t0 + 2 * ms;
        core.step(&mut store, t1, update(2, &writer));
        core.tick(t1 + timeout - ms);
        assert!(writer.is_empty());
        core.tick(t1 + timeout);
        assert_eq!(drain(&writer), ["ACK 2 2 1"]);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_replica_job_queued_behind_promote_is_refused() {
        let (mut store, dir) = durable_store("promote");
        let mut core = core(Role::Replica);
        let operator = outbound();
        let t0 = origin();

        core.step(&mut store, t0, client(1, "PROMOTE", &operator));
        assert_eq!(drain(&operator), ["OK PROMOTE 2"]);
        let (done, reply) = mpsc::channel();
        let Job::Update { batch, .. } = update(1, &operator) else {
            unreachable!()
        };
        let apply = Job::ReplApply {
            graph: GRAPH.into(),
            seq: 1,
            origin: None,
            batch,
            done,
        };
        core.step(&mut store, t0, apply);
        let refused = reply.try_recv().expect("done answered in the step");
        assert_eq!(refused, Err("not-primary promoted mid-stream".into()));
        assert_eq!(store.repl_info(GRAPH).unwrap().last_seq, 0);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_subscriber_gets_the_ack_before_the_delta() {
        let (mut store, dir) = durable_store("order");
        let mut core = core(Role::Primary);
        let out = outbound();
        let t0 = origin();

        core.step(
            &mut store,
            t0,
            client(1, "REGISTER q1 g0 sssp source=0", &out),
        );
        assert_eq!(drain(&out), ["OK REGISTER q1 16"]);
        core.step(&mut store, t0, update(1, &out));
        let lines = drain(&out);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(lines[0], "ACK 1 1 1");
        assert!(lines[1].starts_with("DELTA q1 1 "), "{lines:?}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
