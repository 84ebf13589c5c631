//! Replication, both halves.
//!
//! **Primary side** (run by the writer thread): the `SYNC` handshake,
//! the attached sinks, semi-sync ack gating and the broadcast of shipped
//! records and `DIGEST` probes.
//!
//! **Replica side**: the tail thread a `--replica-of` server runs
//! alongside its acceptor and writer. The loop is a [`Client`] of the
//! primary's ordinary wire port. Each attempt: connect, `HELLO`,
//! announce our position with `SYNC` (epoch, last sequence, CRC of the
//! record at that sequence), then consume the primary's answer —
//!
//! - **`OK SYNC tail`**: the primary replays its retained WAL from our
//!   position and keeps shipping live commits; we apply each `SHIP`
//!   through the writer (the single-writer invariant holds for
//!   replication too) and confirm with `WATERMARK` once it is fsynced
//!   locally, which is what releases the primary's gated client acks.
//! - **`OK SYNC snap`**: we are behind the retained tail (or diverged,
//!   or asked with `force`): reassemble the chunked checkpoint payload,
//!   verify its CRC, and adopt it wholesale — the store's history
//!   restarts at the snapshot's sequence and every standing query is
//!   rebuilt (`resync` DELTA).
//!
//! Divergence is caught two ways: at the handshake (the primary
//! compares record CRCs at our announced position) and continuously
//! (periodic `DIGEST` probes; a mismatch at a matching sequence forces
//! a snapshot resync). Either way the response is the same typed
//! `force` re-SYNC — never a silent divergence.
//!
//! The thread exits when the server drains, dies, or is **promoted**:
//! from that moment this node owns its history and must not apply ships
//! from the old primary (the writer also refuses them by role).

use crate::client::Client;
use crate::outbound::Outbound;
use crate::protocol::{self, ErrCode, ReplMsg, WriteCmd};
use crate::server::{Role, Shared};
use crate::store::{ReplInfo, Store, WireError};
use crate::writer::{Job, WriterState};
use incgraph_durable::scan_records;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One attached replication sink: the replica session's outbound queue
/// plus the highest sequence it has confirmed fsynced.
pub(crate) struct Sink {
    out: Arc<Outbound>,
    pub(crate) watermark: u64,
}

/// One client ack held back by semi-sync gating: released when every
/// live sink's watermark reaches `wal_seq`, when the last sink detaches,
/// or after `repl_ack_timeout`.
pub(crate) struct PendingAck {
    pub(crate) wal_seq: u64,
    pub(crate) line: String,
    pub(crate) out: Arc<Outbound>,
    pub(crate) since: Instant,
}

impl WriterState {
    /// Drops sinks whose outbound closed (slow consumer, disconnect) and
    /// publishes the live-sink count.
    pub(crate) fn prune_sinks(&mut self, shared: &Shared) {
        let before = self.sinks.len();
        self.sinks.retain(|_, s| !s.out.is_closing());
        if self.sinks.len() != before {
            incgraph_obs::counter("repl.sink_drops", (before - self.sinks.len()) as u64);
        }
        shared.repl_sinks.store(self.sinks.len(), Ordering::Relaxed);
    }

    /// Releases every gated ack the semi-sync rule now allows. With no
    /// live sinks there is nothing to wait for; otherwise an ack needs
    /// every sink's watermark at or past its sequence, or its timeout.
    pub(crate) fn release_acks(&mut self, shared: &Shared, committed: Option<u64>) {
        self.prune_sinks(shared);
        let min_wm = self.sinks.values().map(|s| s.watermark).min();
        let timeout = shared.cfg.repl_ack_timeout;
        while let Some(front) = self.pending_acks.front() {
            let due = match min_wm {
                None => true,
                Some(wm) => front.wal_seq <= wm || front.since.elapsed() >= timeout,
            };
            if !due {
                break;
            }
            let ack = self.pending_acks.pop_front().expect("front exists");
            ack.out.push_line(ack.line);
        }
        if let (Some(committed), Some(wm)) = (committed, min_wm) {
            let lag = committed.saturating_sub(wm);
            shared.repl_lag.store(lag, Ordering::Relaxed);
            incgraph_obs::gauge("repl.lag_seqs", lag);
        }
    }

    /// Pushes one line to every live sink.
    pub(crate) fn broadcast(&mut self, line: &str) {
        for sink in self.sinks.values() {
            sink.out.push_line(line.to_string());
            incgraph_obs::counter("repl.ship_bytes", line.len() as u64 + 1);
        }
    }
}
/// Handles one `SYNC` handshake on the writer: fencing, shape
/// validation, tail-vs-snapshot decision, catch-up push, and sink
/// registration. Epoch comparison comes first — a higher epoch fences
/// this node no matter what else is wrong with the request. On success
/// the `OK SYNC` line and the catch-up are queued on `out`; a refusal is
/// returned for the caller to reply.
pub(crate) fn process_sync(
    shared: &Shared,
    store: &mut Store,
    st: &mut WriterState,
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
    if shared.cfg.repl_graph.as_deref() != Some(graph.as_str()) {
        return Err((
            ErrCode::UnknownGraph,
            format!("{graph} is not replicated on this server"),
        ));
    }
    let info = store
        .durable(&graph)
        .map(|(session, _)| ReplInfo::of(session))?;
    if epoch > info.epoch {
        // The requester has seen a later epoch than ours: we were
        // deposed while partitioned. Fence — refuse writes forever (a
        // restart as a replica rejoins cleanly) — so no batch is ever
        // double-acked by two primaries.
        if shared.role() == Role::Primary {
            shared.set_role(Role::Fenced);
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
    if shared.role() != Role::Primary {
        return Err((
            ErrCode::NotPrimary,
            format!(
                "{} does not serve the replication stream",
                shared.role().name()
            ),
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
    // Decide tail vs snapshot. A tail needs the replica's position to be
    // inside our retained history *and* its record CRC to match ours at
    // that position — anything else (divergence, pre-base lag, a future
    // sequence from a forked history, an explicit force, or a lag past
    // the configured bound) bootstraps from a snapshot.
    let lag_snap = info.last_seq.saturating_sub(from_seq) > shared.cfg.snapshot_lag;
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
        let Some((snap_seq, payload, acks)) = store.encode_snapshot(&graph) else {
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
        for e in &acks {
            out.push_line(protocol::format_snapack(&e.token, e.client_seq, e.wal_seq));
        }
        out.push_line(protocol::format_snapend(
            snap_seq,
            incgraph_durable::crc::crc32(&payload),
        ));
        incgraph_obs::counter("repl.snapshots_sent", 1);
        snap_seq
    } else {
        out.push_line(format!("OK SYNC tail {} {}", info.epoch, info.last_seq));
        for ship in &tail_ships {
            let identity = ship.identity.as_ref().map(|(t, c)| (t.as_str(), *c));
            out.push_line(protocol::format_ship(ship.seq, identity, &ship.record));
        }
        from_seq
    };
    let out = Arc::clone(out);
    st.sinks.insert(sid, Sink { out, watermark });
    shared.repl_sinks.store(st.sinks.len(), Ordering::Relaxed);
    Ok(())
}

/// How one connection attempt ended.
enum StreamEnd {
    /// Reconnect and tail again from wherever we are now.
    Reconnect,
    /// Reconnect and demand a snapshot (divergence detected).
    Resync,
    /// The thread is done (drain, kill, or promotion).
    Stop,
}

/// Entry point of the replica tail thread.
pub(crate) fn replica_loop(shared: Arc<Shared>, primary: SocketAddr) {
    let Some(graph) = shared.cfg.repl_graph.clone() else {
        return;
    };
    let mut force_snap = false;
    let mut backoff = Duration::from_millis(100);
    while shared.is_running() && shared.role() == Role::Replica {
        match run_once(&shared, &graph, primary, force_snap) {
            StreamEnd::Stop => break,
            StreamEnd::Resync => {
                incgraph_obs::counter("repl.resyncs", 1);
                force_snap = true;
                backoff = Duration::from_millis(100);
            }
            StreamEnd::Reconnect => {
                force_snap = false;
                backoff = (backoff * 2).min(Duration::from_secs(2));
            }
        }
        // Sleep in slices so drain/promotion is honored promptly.
        let mut slept = Duration::ZERO;
        while slept < backoff && shared.is_running() && shared.role() == Role::Replica {
            let slice = Duration::from_millis(50).min(backoff - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// One connection attempt: handshake, bootstrap if told to, then tail
/// until the stream breaks or the server's life changes.
fn run_once(shared: &Arc<Shared>, graph: &str, primary: SocketAddr, force: bool) -> StreamEnd {
    // Connect within 2 s, `WELCOME` and every write within 5 s; then
    // reads poll every 250 ms so role and phase changes are honored
    // promptly.
    let connected = Client::connect_with(
        primary,
        "repl-tail",
        Duration::from_secs(2),
        Duration::from_secs(5),
    );
    let Ok(mut conn) = connected else {
        return StreamEnd::Reconnect;
    };
    if conn.set_read_timeout(Duration::from_millis(250)).is_err() {
        return StreamEnd::Reconnect;
    }
    // Announce our durable position.
    let position = shared.store().as_ref().and_then(|store| {
        let info = store.repl_info(graph)?;
        Some((info, store.record_crc(graph, info.last_seq)))
    });
    let Some((info, crc)) = position else {
        return StreamEnd::Stop;
    };
    let sync = protocol::format_sync(
        graph,
        info.epoch,
        info.last_seq,
        crc,
        info.directed,
        info.nodes,
        force,
    );
    if conn.send_raw(&format!("{sync}\n")).is_err() {
        return StreamEnd::Reconnect;
    }
    let Some(reply) = recv_within(&mut conn, Duration::from_secs(10)) else {
        return StreamEnd::Reconnect;
    };
    let mut fields = reply.split_whitespace();
    let head = (fields.next(), fields.next(), fields.next());
    let epoch = fields.next().and_then(|t| t.parse::<u64>().ok());
    match (head, epoch) {
        ((Some("OK"), Some("SYNC"), Some("tail")), Some(epoch)) => {
            if !adopt_epoch(shared, graph, epoch) {
                return StreamEnd::Stop;
            }
            tail(shared, graph, &mut conn, info.last_seq)
        }
        ((Some("OK"), Some("SYNC"), Some("snap")), Some(epoch)) => {
            match bootstrap(shared, graph, &mut conn, epoch) {
                Some(adopted_seq) => tail(shared, graph, &mut conn, adopted_seq),
                None => StreamEnd::Reconnect,
            }
        }
        ((Some("ERR"), Some(_), _), _) => {
            // Refused. On `stale-epoch` the peer fenced itself against
            // our epoch: we are the newer history, and reconnecting waits
            // for topology to be fixed (that peer restarting as our
            // replica).
            if incgraph_obs::enabled() {
                incgraph_obs::event("repl.sync_refused", &reply);
            }
            StreamEnd::Reconnect
        }
        _ => StreamEnd::Reconnect,
    }
}

/// Adopts the primary's epoch on this replica (tail mode; snapshot mode
/// carries the epoch inside the adopt job). `false` when the store or
/// the writer is gone.
fn adopt_epoch(shared: &Arc<Shared>, graph: &str, epoch: u64) -> bool {
    let Some(ours) = shared.store().as_ref().and_then(|s| s.repl_info(graph)) else {
        return false;
    };
    let adopt = |done| Job::AdoptEpoch {
        graph: graph.to_string(),
        epoch,
        done,
    };
    epoch <= ours.epoch
        || ask_writer(shared, Duration::from_secs(10), adopt).is_some_and(|r| r.is_ok())
}

/// Submits the replica job `job` builds around a fresh `done` channel
/// and waits up to `wait` for the writer's reply. `None` when the writer
/// is gone or the wait ran out.
fn ask_writer(
    shared: &Shared,
    wait: Duration,
    job: impl FnOnce(mpsc::Sender<Result<u64, String>>) -> Job,
) -> Option<Result<u64, String>> {
    let (done, reply) = mpsc::channel();
    if !shared.send_job(job(done)) {
        return None;
    }
    reply.recv_timeout(wait).ok()
}

/// Polls for a full line until one arrives or `deadline` passes; `None`
/// also when the stream broke.
fn recv_within(conn: &mut Client, deadline: Duration) -> Option<String> {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if let Some(line) = conn.recv_raw_line().ok()? {
            return Some(line);
        }
    }
    None
}

/// Reassembles and adopts a snapshot bootstrap. Returns the adopted
/// sequence, or `None` if the stream broke or the payload failed its
/// CRC.
fn bootstrap(shared: &Arc<Shared>, graph: &str, conn: &mut Client, epoch: u64) -> Option<u64> {
    let mut chunks: Vec<Option<Vec<u8>>> = Vec::new();
    let mut acks = Vec::new();
    let deadline = Duration::from_secs(60);
    loop {
        if !shared.is_running() || shared.role() != Role::Replica {
            return None;
        }
        let line = recv_within(conn, deadline)?;
        match protocol::parse_repl(&line) {
            Ok(Some(ReplMsg::Snap {
                index,
                total,
                chunk,
            })) => {
                if chunks.is_empty() {
                    chunks.resize(total, None);
                }
                if total != chunks.len() || index >= total {
                    return None;
                }
                chunks[index] = Some(chunk);
            }
            Ok(Some(ReplMsg::SnapAck {
                token,
                client_seq,
                wal_seq,
            })) => acks.push(crate::dedup::DedupEntry {
                wal_seq,
                client_seq,
                token,
            }),
            Ok(Some(ReplMsg::SnapEnd { seq, crc })) => {
                let mut payload = Vec::new();
                for c in chunks {
                    payload.extend_from_slice(&c?);
                }
                if incgraph_durable::crc::crc32(&payload) != crc {
                    incgraph_obs::counter("repl.snap_crc_failures", 1);
                    return None;
                }
                let adopt = |done| Job::ReplAdopt {
                    graph: graph.to_string(),
                    payload,
                    epoch,
                    acks,
                    done,
                };
                let Some(Ok(adopted)) = ask_writer(shared, Duration::from_secs(60), adopt) else {
                    return None;
                };
                if adopted != seq {
                    return None;
                }
                let _ = conn.send_raw(&format!("WATERMARK {adopted}\n"));
                return Some(adopted);
            }
            _ => return None, // stream out of shape
        }
    }
}

/// The live tail: apply each `SHIP` through the writer, confirm with
/// `WATERMARK`, answer `DIGEST` probes, until the stream or this node's
/// role ends.
fn tail(shared: &Arc<Shared>, graph: &str, conn: &mut Client, mut applied: u64) -> StreamEnd {
    loop {
        if !shared.is_running() || shared.role() != Role::Replica {
            return StreamEnd::Stop;
        }
        let line = match conn.recv_raw_line() {
            Ok(Some(l)) => l,
            Ok(None) => continue,
            Err(_) => return StreamEnd::Reconnect,
        };
        match protocol::parse_repl(&line) {
            Ok(Some(ReplMsg::Ship {
                seq,
                token,
                client_seq,
                record,
            })) => {
                // The record bytes are self-validating: the scan accepts
                // them only with an intact CRC and the exact sequence.
                let scan = scan_records(&record, seq);
                if scan.records.len() != 1 || scan.valid_len != record.len() {
                    incgraph_obs::counter("repl.ship_corrupt", 1);
                    return StreamEnd::Resync;
                }
                let batch = scan.records.into_iter().next().expect("one record").batch;
                let identity = token.map(|t| (t, client_seq));
                let apply = |done| Job::ReplApply {
                    graph: graph.to_string(),
                    seq,
                    identity,
                    batch,
                    done,
                };
                match ask_writer(shared, Duration::from_secs(30), apply) {
                    Some(Ok(s)) => {
                        applied = s;
                        if conn.send_raw(&format!("WATERMARK {s}\n")).is_err() {
                            return StreamEnd::Reconnect;
                        }
                    }
                    Some(Err(e)) if e.starts_with("not-primary") => return StreamEnd::Stop,
                    Some(Err(_)) => return StreamEnd::Reconnect,
                    None => return StreamEnd::Stop,
                }
            }
            Ok(Some(ReplMsg::Digest { seq, digest })) => {
                if seq != applied {
                    // Ships still in flight; the probe is for a future
                    // (or past) position — not comparable.
                    continue;
                }
                let ours = shared.store().as_ref().and_then(|s| s.repl_digest(graph));
                match ours {
                    Some((our_seq, our_digest)) if our_seq == seq && our_digest != digest => {
                        incgraph_obs::counter("repl.divergence", 1);
                        if incgraph_obs::enabled() {
                            incgraph_obs::event(
                                "repl.divergence",
                                &format!("seq={seq} ours={our_digest} primary={digest}"),
                            );
                        }
                        return StreamEnd::Resync;
                    }
                    _ => {}
                }
            }
            Ok(Some(_)) => return StreamEnd::Reconnect, // SNAP outside bootstrap
            Ok(None) => {
                // OK/ERR/GOODBYE and friends. GOODBYE or ERR ends the
                // stream; anything else (PONG, BUSY) is noise.
                if line.starts_with("GOODBYE") || line.starts_with("ERR") {
                    return StreamEnd::Reconnect;
                }
            }
            Err(_) => return StreamEnd::Reconnect,
        }
    }
}
