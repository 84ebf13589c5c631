//! The closed-loop wire client: one socket, pipelined `UPDATE` + attach,
//! and the reply reader that times `ACK` and `OK GRAPH` in either order.
//!
//! [`Conn`] is [`incgraph_service::Client`] minus its 1 MiB reply-line
//! cap — a `sim` `RESULT` over 200 000 nodes is 1.6 MB — and reuses the
//! service's own [`parse_reply`], so `protocol.rs` stays the single
//! parse authority on both ends of the socket.

use crate::spec::BUSY_RETRIES;
use incgraph_service::client::parse_reply;
use incgraph_service::protocol::{ViewRow, ViewRows};
use incgraph_service::store::Ack;
use incgraph_service::{ClientError, Delta, Reply, WIRE_VERSION};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest any single reply may take (a `REGISTER` on the largest graph
/// runs a batch fixpoint before answering).
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Where [`read_op_replies`] takes replies from; a test feeds it a
/// scripted sequence.
pub trait ReplySource {
    /// The next reply that is not a notification.
    fn next_reply(&mut self) -> Result<Reply, ClientError>;
}

/// A blocking `incgraph-wire/1` connection. Notifications that arrive
/// between replies are parked in [`deltas`](Self::deltas) /
/// [`vdeltas`](Self::vdeltas) for the caller to drain.
pub struct Conn {
    reader: BufReader<TcpStream>,
    line: String,
    /// `DELTA`s received and not yet drained, in arrival order.
    pub deltas: Vec<Delta>,
    /// `VDELTA`s received and not yet drained, in arrival order.
    pub vdeltas: Vec<ViewRows>,
}

impl Conn {
    /// Connects and completes `HELLO` under the retry identity `token`.
    pub fn connect(addr: SocketAddr, token: &str) -> Result<Conn, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        let mut conn = Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
            line: String::new(),
            deltas: Vec::new(),
            vdeltas: Vec::new(),
        };
        match conn.request(&format!("HELLO {WIRE_VERSION} {token}"))? {
            Reply::Welcome { .. } => Ok(conn),
            other => Err(unexpected("WELCOME", &other)),
        }
    }

    /// Writes `text` (one or more complete lines) in one call.
    pub fn send(&mut self, text: &str) -> Result<(), ClientError> {
        let stream = self.reader.get_mut();
        stream.write_all(text.as_bytes())?;
        stream.flush()?;
        Ok(())
    }

    /// Sends one command line and returns its reply.
    pub fn request(&mut self, line: &str) -> Result<Reply, ClientError> {
        self.send(&format!("{line}\n"))?;
        self.next_reply()
    }

    /// Sends a command that answers `OK …`; returns the payload.
    pub fn expect_ok(&mut self, line: &str) -> Result<String, ClientError> {
        match self.request(line)? {
            Reply::Ok(payload) => Ok(payload),
            Reply::Busy { retry_after_ms } => Err(ClientError::Busy { retry_after_ms }),
            Reply::Err { code, detail } => Err(ClientError::Server { code, detail }),
            other => Err(unexpected("OK", &other)),
        }
    }

    /// `QUERY`: a standing query's full digest and the sequence it reflects.
    pub fn query(&mut self, qid: &str) -> Result<(u64, Vec<u64>), ClientError> {
        match self.request(&format!("QUERY {qid}"))? {
            Reply::ResultDigest {
                wal_seq, digest, ..
            } => Ok((wal_seq, digest)),
            Reply::Err { code, detail } => Err(ClientError::Server { code, detail }),
            other => Err(unexpected("RESULT", &other)),
        }
    }

    /// `PLANQ`: a standing plan's full view.
    pub fn planq(&mut self, qid: &str) -> Result<(u64, Vec<ViewRow>), ClientError> {
        match self.request(&format!("PLANQ {qid}"))? {
            Reply::View(v) => Ok((v.wal_seq, v.rows)),
            Reply::Err { code, detail } => Err(ClientError::Server { code, detail }),
            other => Err(unexpected("VIEW", &other)),
        }
    }

    /// Polite close; errors are ignored (the peer may already be gone).
    pub fn bye(mut self) {
        let _ = self.send("BYE\n");
    }
}

impl ReplySource for Conn {
    fn next_reply(&mut self) -> Result<Reply, ClientError> {
        loop {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => return Err(ClientError::Closed),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e)),
            }
            match parse_reply(self.line.trim_end_matches(['\n', '\r']))? {
                Reply::Delta(d) => self.deltas.push(d),
                Reply::VDelta(v) => self.vdeltas.push(v),
                Reply::Goodbye(reason) => return Err(ClientError::Goodbye(reason)),
                other => return Ok(other),
            }
        }
    }
}

fn unexpected(want: &str, got: &Reply) -> ClientError {
    // A RESULT can be megabytes; name the reply, don't print it.
    let kind = match got {
        Reply::Welcome { .. } => "WELCOME",
        Reply::Ok(_) => "OK",
        Reply::Ack(_) => "ACK",
        Reply::ResultDigest { .. } => "RESULT",
        Reply::Delta(_) => "DELTA",
        Reply::VDelta(_) => "VDELTA",
        Reply::View(_) => "VIEW",
        Reply::Busy { .. } => "BUSY",
        Reply::Err { .. } => "ERR",
        Reply::Goodbye(_) => "GOODBYE",
        Reply::Pong => "PONG",
    };
    ClientError::Protocol(format!("expected {want}, got {kind}"))
}

/// What the two pipelined commands of one op answered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OpReplies {
    /// Both landed: the batch is committed and its notifications are out.
    Done {
        /// The batch's acknowledgement.
        ack: Ack,
        /// When the `ACK` was read.
        ack_at: Instant,
        /// When the `OK GRAPH` was read.
        fresh_at: Instant,
    },
    /// At least one of the two was shed; resend both under the same
    /// sequence after the hinted delay.
    Busy {
        /// Largest retry hint seen.
        retry_after_ms: u64,
    },
}

/// Reads the replies of one pipelined `UPDATE` + `GRAPH` pair. Each
/// command answers exactly one line — `ACK`/`OK GRAPH`, or `BUSY`, or
/// `ERR` — and with a semi-sync replica attached the `ACK` is held for
/// the replica's watermark and may arrive **after** the `OK GRAPH`, so
/// the two are accepted in either order. An `ERR` for either fails the op.
pub fn read_op_replies(src: &mut impl ReplySource) -> Result<OpReplies, ClientError> {
    let mut ack = None;
    let mut fresh_at = None;
    let mut busy: Option<u64> = None;
    let mut answered = 0;
    while answered < 2 {
        match src.next_reply()? {
            Reply::Ack(a) if ack.is_none() => ack = Some((a, Instant::now())),
            Reply::Ok(payload) if fresh_at.is_none() && payload.starts_with("GRAPH") => {
                fresh_at = Some(Instant::now())
            }
            Reply::Busy { retry_after_ms } => {
                busy = Some(busy.map_or(retry_after_ms, |b| b.max(retry_after_ms)))
            }
            Reply::Err { code, detail } => return Err(ClientError::Server { code, detail }),
            other => return Err(unexpected("ACK or OK GRAPH", &other)),
        }
        answered += 1;
    }
    match (busy, ack, fresh_at) {
        (Some(retry_after_ms), _, _) => Ok(OpReplies::Busy { retry_after_ms }),
        (None, Some((ack, ack_at)), Some(fresh_at)) => Ok(OpReplies::Done {
            ack,
            ack_at,
            fresh_at,
        }),
        _ => unreachable!("two distinct non-busy replies were counted"),
    }
}

/// One completed op as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct OpTiming {
    /// The batch's acknowledgement.
    pub ack: Ack,
    /// Send → `ACK`.
    pub ack_latency: Duration,
    /// Send → `OK GRAPH`: every `DELTA`/`VDELTA` the batch caused has
    /// been read by then.
    pub fresh_latency: Duration,
    /// `BUSY` sheds before the op went through.
    pub busy_retries: u32,
}

/// Sends `text` (an [`Op::text`](crate::gen::Op::text)) and waits for both
/// replies, resending under the same sequence on `BUSY` up to
/// [`BUSY_RETRIES`] times. Latencies count from the first send.
pub fn drive_op(conn: &mut Conn, text: &str) -> Result<OpTiming, ClientError> {
    let sent = Instant::now();
    let mut busy_retries = 0;
    loop {
        conn.send(text)?;
        match read_op_replies(conn)? {
            OpReplies::Done {
                ack,
                ack_at,
                fresh_at,
            } => {
                return Ok(OpTiming {
                    ack,
                    ack_latency: ack_at - sent,
                    fresh_latency: fresh_at - sent,
                    busy_retries,
                })
            }
            OpReplies::Busy { retry_after_ms } => {
                busy_retries += 1;
                if busy_retries > BUSY_RETRIES {
                    return Err(ClientError::Busy { retry_after_ms });
                }
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1000)));
            }
        }
    }
}
