//! The replica tail: the thread a `--replica-of` server runs alongside
//! its acceptor and writer (the primary half of replication runs on the
//! writer, in [`WriterCore`](crate::writer::WriterCore)). The loop is a
//! [`Client`] of the primary's ordinary wire port. Each attempt: connect,
//! `HELLO`, announce our position with `SYNC` (epoch, last sequence, CRC
//! of the record at that sequence), then consume the primary's answer —
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
use crate::protocol::{self, ReplMsg};
use crate::server::{Role, Shared};
use crate::writer::Job;
use incgraph_durable::scan_records;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

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
    while shared.is_running() && shared.status.role() == Role::Replica {
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
        while slept < backoff && shared.is_running() && shared.status.role() == Role::Replica {
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
fn ask_writer<T>(
    shared: &Shared,
    wait: Duration,
    job: impl FnOnce(mpsc::Sender<T>) -> Job,
) -> Option<T> {
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
        if !shared.is_running() || shared.status.role() != Role::Replica {
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
        if !shared.is_running() || shared.status.role() != Role::Replica {
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
                let digest_of = |done| Job::ReplDigest {
                    graph: graph.to_string(),
                    done,
                };
                match ask_writer(shared, Duration::from_secs(30), digest_of).flatten() {
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
