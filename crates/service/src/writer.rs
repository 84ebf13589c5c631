//! The single writer: the one thread that mutates the [`Store`]. It
//! runs every job the session readers and the replica tail submit, in
//! channel order, and owns the order a batch's effects leave the
//! process: WAL commit (and shipping at the commit point), then the
//! client `ACK`, then the batch's standing-query notification, all in
//! one job under one write guard.
//!
//! # Robustness behaviors (the contract `docs/SERVICE.md` documents)
//!
//! - **Graceful shutdown**
//!   ([`ServerHandle::shutdown`](crate::server::ServerHandle::shutdown)):
//!   stop accepting, drain queued jobs (their acks still go out),
//!   checkpoint durable graphs, `GOODBYE shutting-down` to every session.
//! - **Abrupt death**
//!   ([`ServerHandle::kill`](crate::server::ServerHandle::kill), or an
//!   armed [`CrashPoint`](incgraph_durable::CrashPoint) firing
//!   mid-commit): simulated `kill -9` — no drain, no checkpoint, no
//!   goodbyes; sockets are reset and the store is dropped where it
//!   stands. The chaos harness restarts on the same directory and
//!   recovery must hold.

use crate::dedup::DedupEntry;
use crate::outbound::Outbound;
use crate::protocol::{self, ErrCode, WriteCmd};
use crate::repl::{process_sync, PendingAck, Sink};
use crate::server::{Role, Shared, DRAINING, KILLED};
use crate::store::{Store, UpdateError};
use incgraph_durable::encode_record;
use incgraph_graph::UpdateBatch;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
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
        identity: Option<(String, u64)>,
        batch: UpdateBatch,
        done: mpsc::Sender<Result<u64, String>>,
    },
    /// Replica-side: adopt a bootstrap/resync snapshot.
    ReplAdopt {
        graph: String,
        payload: Vec<u8>,
        epoch: u64,
        acks: Vec<DedupEntry>,
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

/// Writer-thread-owned mutable state (no locks: exactly one writer).
#[derive(Default)]
pub(crate) struct WriterState {
    pub(crate) sinks: HashMap<u64, Sink>,
    pub(crate) pending_acks: VecDeque<PendingAck>,
    ships_since_digest: u64,
}
pub(crate) fn writer_loop(rx: mpsc::Receiver<Job>, shared: Arc<Shared>) {
    let mut st = WriterState::default();
    loop {
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(job) => {
                shared.pending.fetch_sub(1, Ordering::Relaxed);
                if shared.phase() == KILLED {
                    continue; // simulated death
                }
                if process_job(&shared, job, &mut st) == JobOutcome::Crashed {
                    // Simulated process death mid-commit.
                    shared.phase.store(KILLED, Ordering::Release);
                    shared.kill_sessions();
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => match shared.phase() {
                KILLED => break,
                DRAINING if shared.pending.load(Ordering::Relaxed) == 0 => break,
                _ => {}
            },
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        // Timed-out gated acks release on the tick even when no
        // watermark arrives (sink death, partition).
        if !st.pending_acks.is_empty() || !st.sinks.is_empty() {
            st.release_acks(&shared, None);
        }
    }
    // Exit path. Graceful: checkpoint, then goodbye every session.
    // Killed: drop everything where it stands.
    let killed = shared.phase() == KILLED;
    {
        let mut guard = shared.store_mut();
        if let Some(store) = guard.as_mut() {
            if !killed {
                // Gated acks were committed, so they go out before the
                // goodbyes.
                for ack in st.pending_acks.drain(..) {
                    ack.out.push_line(ack.line);
                }
                store.checkpoint_all();
            }
        }
        // Dropping the store releases the durable LOCK file.
        *guard = None;
    }
    if !killed {
        let sessions = shared.sessions();
        for slot in sessions.values() {
            slot.out.push_goodbye("shutting-down");
        }
    }
    shared
        .phase
        .store(if killed { KILLED } else { DRAINING }, Ordering::Release);
}

#[derive(PartialEq, Eq)]
enum JobOutcome {
    Done,
    Crashed,
}

fn process_job(shared: &Arc<Shared>, job: Job, st: &mut WriterState) -> JobOutcome {
    let mut guard = shared.store_mut();
    let Some(store) = guard.as_mut() else {
        return JobOutcome::Done;
    };
    // A promotion raced the replication stream: this node now owns its
    // own history, so replica-side work is refused instead of applied.
    if let Job::ReplApply { done, .. }
    | Job::ReplAdopt { done, .. }
    | Job::AdoptEpoch { done, .. } = &job
    {
        if shared.role() != Role::Replica {
            let _ = done.send(Err(format!("{} promoted mid-stream", ErrCode::NotPrimary)));
            return JobOutcome::Done;
        }
    }
    match job {
        Job::Client { sid, cmd, out } => run_client(shared, store, st, sid, cmd, out),
        Job::Update {
            graph,
            token,
            client_seq,
            batch,
            out,
        } => match store.commit_update(&graph, &token, client_seq, &batch, |wal_seq| {
            // The commit point: the record is fsynced, so it may leave
            // the process, but this store's built-in states are not yet
            // maintained — shipping from here lets the replica commit
            // beside that work instead of after it. A dup, a refusal and
            // a failed or crashed append all return without reaching
            // this hook, and the single writer keeps ship order equal to
            // WAL order.
            if shared.cfg.repl_graph.as_deref() == Some(graph.as_str()) {
                let record = encode_record(wal_seq, &batch);
                st.broadcast(&protocol::format_ship(
                    wal_seq,
                    Some((&token, client_seq)),
                    &record,
                ));
            }
        }) {
            Ok((ack, applied)) => {
                let dup = if ack.dup { " dup" } else { "" };
                let line = format!("ACK {} {} {}{dup}", ack.client_seq, ack.wal_seq, ack.units);
                let replicated = shared.cfg.repl_graph.as_deref() == Some(graph.as_str());
                if replicated && !ack.dup {
                    // The record was shipped at the commit point; the
                    // divergence probe compares *applied* states, so it
                    // stays behind this store's state maintenance.
                    st.ships_since_digest += 1;
                    if shared.cfg.digest_every > 0
                        && st.ships_since_digest >= shared.cfg.digest_every
                        && !st.sinks.is_empty()
                    {
                        st.ships_since_digest = 0;
                        if let Some((seq, digest)) = store.repl_digest(&graph) {
                            st.broadcast(&protocol::format_digest(seq, &digest));
                        }
                    }
                }
                // Semi-sync gating: with live sinks attached, the ack
                // waits for their watermarks (or the timeout); without,
                // it goes out now. Dup re-acks reference an old sequence
                // and release immediately through the same queue.
                st.prune_sinks(shared);
                if replicated && !st.sinks.is_empty() {
                    st.pending_acks.push_back(PendingAck {
                        wal_seq: ack.wal_seq,
                        line,
                        out,
                        since: Instant::now(),
                    });
                    st.release_acks(
                        shared,
                        Some(store.repl_info(&graph).map_or(0, |i| i.last_seq)),
                    );
                } else {
                    out.push_line(line);
                }
                // Notify after the ACK and under the same write guard, so
                // a read taken after the ACK already reflects the batch.
                if let Some(applied) = applied {
                    store.notify_queries(&graph, std::slice::from_ref(&applied));
                }
            }
            Err(UpdateError::Wire(c, d)) => {
                out.push_line(format!("ERR {c} {d}"));
            }
            Err(UpdateError::Crashed(p)) => {
                if incgraph_obs::enabled() {
                    incgraph_obs::event("service.crash", p.name());
                }
                return JobOutcome::Crashed;
            }
        },
        Job::DropSession { sid } => {
            if st.sinks.remove(&sid).is_some() {
                shared.repl_sinks.store(st.sinks.len(), Ordering::Relaxed);
                st.release_acks(shared, None);
            }
            store.drop_session(sid);
        }
        Job::Watermark { sid, seq } => {
            if let Some(sink) = st.sinks.get_mut(&sid) {
                sink.watermark = sink.watermark.max(seq);
                incgraph_obs::gauge("repl.watermark_seq", seq);
            }
            let committed = shared
                .cfg
                .repl_graph
                .as_deref()
                .and_then(|g| store.repl_info(g))
                .map(|i| i.last_seq);
            st.release_acks(shared, committed);
        }
        Job::ReplApply {
            graph,
            seq,
            identity,
            batch,
            done,
        } => {
            let identity_ref = identity.as_ref().map(|(t, c)| (t.as_str(), *c));
            match store.apply_replicated(&graph, seq, identity_ref, &batch) {
                Ok(applied) => {
                    // `done` first: the tail sends the WATERMARK the
                    // primary's gated ACK waits on.
                    let _ = done.send(Ok(seq));
                    store.notify_queries(&graph, std::slice::from_ref(&applied));
                }
                Err(UpdateError::Wire(c, d)) => {
                    let _ = done.send(Err(format!("{c} {d}")));
                }
                Err(UpdateError::Crashed(p)) => {
                    if incgraph_obs::enabled() {
                        incgraph_obs::event("service.crash", p.name());
                    }
                    let _ = done.send(Err(format!("{} injected crash", ErrCode::Store)));
                    return JobOutcome::Crashed;
                }
            }
        }
        Job::ReplAdopt {
            graph,
            payload,
            epoch,
            acks,
            done,
        } => {
            let adopted = store.adopt_snapshot(&graph, &payload, epoch, &acks);
            let _ = done.send(adopted.map_err(|(c, d)| format!("{c} {d}")));
        }
        Job::AdoptEpoch { graph, epoch, done } => {
            let adopted = store.adopt_epoch(&graph, epoch).map(|()| epoch);
            let _ = done.send(adopted.map_err(|(c, d)| format!("{c} {d}")));
        }
    }
    JobOutcome::Done
}

/// Runs one client writer verb and queues its reply: the `OK` line, or
/// `ERR {code} {detail}` for a refusal. `SYNC` streams its own `OK` and
/// catch-up lines, so only its refusal is replied here.
fn run_client(
    shared: &Shared,
    store: &mut Store,
    st: &mut WriterState,
    sid: u64,
    cmd: WriteCmd,
    out: Arc<Outbound>,
) {
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
            let Err(refusal) = process_sync(shared, store, st, sid, sync, &out) else {
                return;
            };
            Err(refusal)
        }
        WriteCmd::Promote => match (shared.role(), &shared.cfg.repl_graph) {
            (Role::Replica, Some(graph)) => store.bump_epoch(graph).map(|epoch| {
                shared.set_role(Role::Primary);
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
