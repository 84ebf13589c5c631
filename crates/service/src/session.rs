//! The session reader: framing, the verbs it answers itself (`HELLO`,
//! `PING`, `BYE`, `STATUS`, `QUERY`, `PLANQ`, `SHUTDOWN`), admission
//! control, and reading `UPDATE` bodies. Every other verb is a job for
//! the single [`writer`](crate::writer).
//!
//! # Robustness behaviors (the contract `docs/SERVICE.md` documents)
//!
//! - **Deadlines**: reads poll with a short timeout so a dead peer
//!   cannot pin a thread; a session idle past `idle_timeout` is reaped
//!   with `GOODBYE idle-timeout`. Writes carry `write_timeout`.
//! - **Backpressure**: each session's outbound queue is bounded — past
//!   the soft cap deltas coalesce, past the hard cap the session dies
//!   with `ERR slow-consumer` (see [`outbound`](crate::outbound)).
//! - **Admission control**: when the writer's queue exceeds
//!   `max_pending` jobs, new write commands are shed with
//!   `BUSY <retry-after-ms>` instead of growing the queue without bound.
//!   A shed `UPDATE` was not applied; the client retries the same
//!   sequence number and the dedup table keeps it exactly-once.

use crate::outbound::Outbound;
use crate::protocol::{self, Command, ErrCode, LineRead, WIRE_VERSION};
use crate::server::{Shared, DRAINING, KILLED, RUNNING};
use crate::writer::Job;
use incgraph_graph::UpdateBatch;
use std::fmt::Write as _;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

struct SessionCtx {
    sid: u64,
    token: Option<String>,
    out: Arc<Outbound>,
}

impl SessionCtx {
    fn err(&self, code: ErrCode, detail: &str) {
        self.out.push_line(format!("ERR {code} {detail}"));
    }
}

/// One read poll of the session's socket into `buf`: `Some(true)` when a
/// full line is there, `Some(false)` when the poll timed out first, and
/// `None` when the session ends — at EOF or a socket error, or after
/// queuing the reply an idle reap or an over-long line owes the peer.
fn poll_line(
    shared: &Shared,
    ctx: &SessionCtx,
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    last_activity: Instant,
) -> Option<bool> {
    match protocol::read_line(reader, buf) {
        Ok(LineRead::Line) => Some(true),
        Ok(LineRead::Timeout) if last_activity.elapsed() < shared.cfg.idle_timeout => Some(false),
        Ok(LineRead::Timeout) => {
            incgraph_obs::counter("service.reaped", 1);
            ctx.out.push_goodbye("idle-timeout");
            None
        }
        Ok(LineRead::TooLong) => {
            ctx.err(ErrCode::TooLarge, "line exceeds 1 MiB");
            ctx.out.push_goodbye("protocol-error");
            None
        }
        Ok(LineRead::Eof) | Err(_) => None,
    }
}

pub(crate) fn reader_loop(shared: Arc<Shared>, stream: TcpStream, sid: u64, out: Arc<Outbound>) {
    let mut reader = BufReader::with_capacity(16 * 1024, stream);
    let mut ctx = SessionCtx {
        sid,
        token: None,
        out,
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut last_activity = Instant::now();
    loop {
        if shared.phase() != RUNNING {
            break; // draining: the writer sends the GOODBYE; killed: reset
        }
        if ctx.out.is_closing() {
            break; // slow-consumer or BYE already decided the ending
        }
        match poll_line(&shared, &ctx, &mut reader, &mut buf, last_activity) {
            None => break,
            Some(false) => {}
            Some(true) => {
                last_activity = Instant::now();
                let line = String::from_utf8_lossy(&buf).into_owned();
                buf.clear();
                if !handle_line(&shared, &mut ctx, &line, &mut reader, &mut last_activity) {
                    break;
                }
            }
        }
    }
    shared.send_job(Job::DropSession { sid });
    if shared.phase() == DRAINING {
        // The writer owns the final GOODBYE: leave the slot and the
        // sender alive so the broadcast can reach this session.
        return;
    }
    // Normal exit (BYE/EOF/reap/kill): make sure the sender terminates.
    // A queued GOODBYE still drains; otherwise the queue closes cold.
    if !ctx.out.is_closing() {
        ctx.out.close_now();
    }
    shared.sessions().remove(&sid);
    incgraph_obs::gauge("service.sessions", shared.sessions().len() as u64);
}

/// Handles one parsed line. Returns `false` to end the session.
fn handle_line(
    shared: &Arc<Shared>,
    ctx: &mut SessionCtx,
    line: &str,
    reader: &mut BufReader<TcpStream>,
    last_activity: &mut Instant,
) -> bool {
    if line.trim().is_empty() {
        return true;
    }
    let cmd = match protocol::parse_command(line) {
        Ok(c) => c,
        Err(e) => {
            ctx.err(ErrCode::BadCommand, &e.0);
            return true;
        }
    };
    if ctx.token.is_none() && !matches!(cmd, Command::Hello { .. }) {
        ctx.err(ErrCode::NeedHello, "say HELLO first");
        return true;
    }
    match cmd {
        Command::Hello { version, token } => {
            if ctx.token.is_some() {
                ctx.err(ErrCode::AlreadyHello, "session already established");
            } else if version != WIRE_VERSION {
                ctx.err(ErrCode::BadProto, &format!("server speaks {WIRE_VERSION}"));
                ctx.out.push_goodbye("protocol-error");
                return false;
            } else {
                ctx.token = Some(token);
                ctx.out
                    .push_line(format!("WELCOME {WIRE_VERSION} {}", ctx.sid));
            }
            true
        }
        Command::Ping => {
            ctx.out.push_line("PONG".into());
            true
        }
        Command::Bye => {
            ctx.out.push_goodbye("bye");
            false
        }
        Command::Status => {
            let pending = shared.pending.load(Ordering::Relaxed);
            let sessions = shared.sessions().len();
            // Read what the reply needs under the store lock, format and
            // queue it after the guard is gone: the writer must not wait
            // on string building.
            let read = shared.store().as_ref().map(|store| {
                let repl = shared
                    .cfg
                    .repl_graph
                    .as_deref()
                    .and_then(|g| store.repl_info(g));
                (store.counts(), store.is_degraded(), repl)
            });
            let Some(((graphs, queries), degraded, repl)) = read else {
                ctx.err(ErrCode::ShuttingDown, "store is gone");
                return true;
            };
            let phase = match shared.phase() {
                RUNNING => "running",
                DRAINING => "draining",
                _ => "killed",
            };
            let mut line = format!(
                "OK STATUS graphs={graphs} queries={queries} sessions={sessions} \
                 pending={pending} degraded={} phase={phase}",
                degraded as u8
            );
            if let Some(info) = repl {
                line.push_str(&format!(
                    " role={} epoch={} repl_seq={} repl_sinks={} repl_lag={}",
                    shared.status.role().name(),
                    info.epoch,
                    info.last_seq,
                    shared.status.repl_sinks.load(Ordering::Relaxed),
                    shared.status.repl_lag.load(Ordering::Relaxed),
                ));
            }
            ctx.out.push_line(line);
            true
        }
        Command::Query { qid } => {
            // The `let` ends the read guard before the reply is formatted.
            let found = shared.store().as_ref().and_then(|s| s.query(ctx.sid, &qid));
            match found {
                Some((digest, seq)) => {
                    let mut line = format!("RESULT {qid} {seq} {}", digest.len());
                    line.reserve(digest.len() * protocol::ENTRY_RESERVE);
                    for v in &digest {
                        write!(line, " {v}").expect("writing to a String cannot fail");
                    }
                    ctx.out.push_line(line);
                }
                None => ctx.err(ErrCode::UnknownQuery, &format!("no query {qid}")),
            }
            true
        }
        Command::Shutdown => {
            if !shared.cfg.allow_remote_shutdown {
                ctx.err(ErrCode::BadCommand, "SHUTDOWN is disabled on this server");
                return true;
            }
            ctx.out.push_line("OK SHUTDOWN".into());
            shared
                .phase
                .compare_exchange(RUNNING, DRAINING, Ordering::AcqRel, Ordering::Acquire)
                .ok();
            true
        }
        Command::Write(cmd) => submit(
            shared,
            ctx,
            Job::Client {
                sid: ctx.sid,
                cmd,
                out: Arc::clone(&ctx.out),
            },
        ),
        Command::Planq { qid } => {
            let found = shared
                .store()
                .as_ref()
                .and_then(|s| s.plan_view(ctx.sid, &qid));
            match found {
                Some((rows, seq)) => {
                    ctx.out
                        .push_line(protocol::format_view_rows("VIEW", &qid, seq, &rows));
                }
                None => ctx.err(ErrCode::UnknownQuery, &format!("no plan {qid}")),
            }
            true
        }
        Command::UpdateHeader { graph, seq, k } => {
            read_and_submit_update(shared, ctx, reader, last_activity, graph, seq, k)
        }
        Command::Watermark { seq } => {
            // Watermarks bypass BUSY shedding: dropping one only delays
            // gated acks until the next, but a BUSY line interleaved in
            // the replication stream would be noise the replica skips.
            shared.send_job(Job::Watermark { sid: ctx.sid, seq });
            true
        }
    }
}

/// Reads the `k` unit lines of an `UPDATE` body, then submits the batch.
/// A malformed body is a framing violation — the stream position is no
/// longer trustworthy, so the session ends.
fn read_and_submit_update(
    shared: &Arc<Shared>,
    ctx: &mut SessionCtx,
    reader: &mut BufReader<TcpStream>,
    last_activity: &mut Instant,
    graph: String,
    client_seq: u64,
    k: usize,
) -> bool {
    let max_units = shared
        .store()
        .as_ref()
        .map(|s| s.limits().max_batch_units)
        .unwrap_or(4096);
    if k > max_units {
        ctx.err(
            ErrCode::TooLarge,
            &format!("batch caps at {max_units} units"),
        );
        ctx.out.push_goodbye("protocol-error");
        return false;
    }
    let mut batch = UpdateBatch::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut read = 0usize;
    while read < k {
        if shared.phase() == KILLED {
            return false;
        }
        // A line already in the reader's buffer arrived with the refill
        // that brought it; only a line that needs the socket moves the
        // idle clock.
        let needs_read = !reader.buffer().contains(&b'\n');
        match poll_line(shared, ctx, reader, &mut buf, *last_activity) {
            None => return false,
            Some(false) => {}
            Some(true) => {
                if needs_read {
                    *last_activity = Instant::now();
                }
                // Borrowed unless a byte is invalid, which no unit line
                // survives parsing with.
                let parsed =
                    protocol::parse_update_line(&String::from_utf8_lossy(&buf), &mut batch);
                buf.clear();
                if let Err(e) = parsed {
                    ctx.err(ErrCode::BadCommand, &e.0);
                    ctx.out.push_goodbye("protocol-error");
                    return false;
                }
                read += 1;
            }
        }
    }
    // The full body is read first so the stream stays framed; the writer
    // judges the batch, the node's role included. The dispatcher
    // guarantees a HELLO preceded this, but a typed error beats a panic
    // if that invariant ever breaks: degrade to ERR and keep the process
    // up.
    let Some(token) = ctx.token.clone() else {
        ctx.err(ErrCode::NeedHello, "no session token for UPDATE");
        return true;
    };
    submit(
        shared,
        ctx,
        Job::Update {
            graph,
            token,
            client_seq,
            batch,
            out: Arc::clone(&ctx.out),
        },
    )
}

/// Admission-controlled submit to the writer.
fn submit(shared: &Arc<Shared>, ctx: &SessionCtx, job: Job) -> bool {
    if shared.phase() != RUNNING {
        ctx.err(ErrCode::ShuttingDown, "server is draining");
        return true;
    }
    if shared.pending.load(Ordering::Relaxed) >= shared.cfg.max_pending {
        incgraph_obs::counter("service.busy", 1);
        ctx.out
            .push_line(format!("BUSY {}", shared.cfg.retry_after_ms));
        return true;
    }
    if !shared.send_job(job) {
        ctx.err(ErrCode::ShuttingDown, "writer is gone");
    }
    true
}
