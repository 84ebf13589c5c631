//! A small blocking client for `incgraph-wire/1`.
//!
//! Used by the CLI (`incgraph serve`'s smoke path and `incgraph ctl`),
//! the load harness, and the chaos tests. It is deliberately simple:
//! one socket, synchronous request/reply, with asynchronous `DELTA`
//! notifications buffered to the side ([`Client::take_deltas`] /
//! [`Client::poll_delta`]).

use crate::protocol::{self, Delta, LineRead, ViewRow, ViewRows, WIRE_VERSION};
use crate::store::Ack;
use incgraph_graph::{NodeId, Update, UpdateBatch};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Socket error (including read deadline expiry).
    Io(io::Error),
    /// The peer closed the connection.
    Closed,
    /// The server sent something this client cannot parse.
    Protocol(String),
    /// A typed `ERR <code> <detail>` reply.
    Server {
        /// Error code name (e.g. `seq-gap`).
        code: String,
        /// Human detail.
        detail: String,
    },
    /// The server shed the request with `BUSY <retry-after-ms>`.
    Busy {
        /// Suggested retry delay.
        retry_after_ms: u64,
    },
    /// The server said `GOODBYE <reason>`.
    Goodbye(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Closed => write!(f, "connection closed"),
            ClientError::Protocol(s) => write!(f, "protocol: {s}"),
            ClientError::Server { code, detail } => write!(f, "server error {code}: {detail}"),
            ClientError::Busy { retry_after_ms } => write!(f, "busy, retry in {retry_after_ms}ms"),
            ClientError::Goodbye(r) => write!(f, "goodbye: {r}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One parsed server→client line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Session established.
    Welcome {
        /// Server-assigned session id.
        sid: u64,
    },
    /// An `OK …` acknowledgement; the payload after `OK `.
    Ok(String),
    /// Batch acknowledgement.
    Ack(Ack),
    /// Full digest for a standing query.
    ResultDigest {
        /// Query id.
        qid: String,
        /// Store sequence the digest reflects.
        wal_seq: u64,
        /// The digest values.
        digest: Vec<u64>,
    },
    /// A standing-query notification.
    Delta(Delta),
    /// A standing-plan view-delta notification (`VDELTA`).
    VDelta(ViewRows),
    /// A full plan view (`VIEW`, the reply to `PLANQ`).
    View(ViewRows),
    /// Load shed.
    Busy {
        /// Suggested retry delay.
        retry_after_ms: u64,
    },
    /// Typed error.
    Err {
        /// Error code name.
        code: String,
        /// Human detail.
        detail: String,
    },
    /// Connection is ending.
    Goodbye(String),
    /// `PING` reply.
    Pong,
}

/// Parses one server line into a [`Reply`].
pub fn parse_reply(line: &str) -> Result<Reply, ClientError> {
    let bad = || ClientError::Protocol(format!("unparsable reply `{line}`"));
    let mut it = line.split_whitespace();
    match it.next() {
        Some("WELCOME") => {
            let _version = it.next().ok_or_else(bad)?;
            let sid = it.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            Ok(Reply::Welcome { sid })
        }
        Some("PONG") => Ok(Reply::Pong),
        Some("OK") => Ok(Reply::Ok(line[2..].trim_start().to_string())),
        Some("ACK") => {
            let client_seq = it.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let wal_seq = it.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let units = it.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let dup = match it.next() {
                None => false,
                Some("dup") => true,
                Some(_) => return Err(bad()),
            };
            Ok(Reply::Ack(Ack {
                client_seq,
                wal_seq,
                units,
                dup,
            }))
        }
        Some("RESULT") => {
            let qid = it.next().ok_or_else(bad)?.to_string();
            let wal_seq = it.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let n: usize = it.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let digest: Vec<u64> = it
                .map(|s| s.parse())
                .collect::<Result<_, _>>()
                .map_err(|_| bad())?;
            if digest.len() != n {
                return Err(bad());
            }
            Ok(Reply::ResultDigest {
                qid,
                wal_seq,
                digest,
            })
        }
        Some("DELTA") => protocol::parse_delta(line)
            .map(Reply::Delta)
            .map_err(|e| ClientError::Protocol(e.0)),
        Some("VDELTA") => protocol::parse_view_rows("VDELTA", line)
            .map(Reply::VDelta)
            .map_err(|e| ClientError::Protocol(e.0)),
        Some("VIEW") => protocol::parse_view_rows("VIEW", line)
            .map(Reply::View)
            .map_err(|e| ClientError::Protocol(e.0)),
        Some("BUSY") => {
            let retry_after_ms = it.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            Ok(Reply::Busy { retry_after_ms })
        }
        Some("ERR") => {
            let code = it.next().ok_or_else(bad)?.to_string();
            let detail = it.collect::<Vec<_>>().join(" ");
            Ok(Reply::Err { code, detail })
        }
        Some("GOODBYE") => Ok(Reply::Goodbye(it.collect::<Vec<_>>().join(" "))),
        _ => Err(bad()),
    }
}

/// A blocking `incgraph-wire/1` client.
pub struct Client {
    reader: BufReader<TcpStream>,
    sid: u64,
    deltas: VecDeque<Delta>,
    vdeltas: VecDeque<ViewRows>,
    partial: Vec<u8>,
}

impl Client {
    /// Connects and completes the `HELLO` handshake. `token` names the
    /// retry identity: reconnecting with the same token preserves
    /// exactly-once `UPDATE` semantics across connections.
    pub fn connect(addr: SocketAddr, token: &str) -> Result<Client, ClientError> {
        Self::connect_timeout(addr, token, Duration::from_secs(10))
    }

    /// [`connect`](Client::connect) with explicit connect + read deadline.
    pub fn connect_timeout(
        addr: SocketAddr,
        token: &str,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        Self::connect_with(addr, token, timeout, timeout)
    }

    /// [`connect_timeout`](Client::connect_timeout) with the connect
    /// deadline apart from the `timeout` of the `WELCOME` and every
    /// write.
    pub(crate) fn connect_with(
        addr: SocketAddr,
        token: &str,
        connect: Duration,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, connect)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let mut c = Client {
            reader: BufReader::with_capacity(16 * 1024, stream),
            sid: 0,
            deltas: VecDeque::new(),
            vdeltas: VecDeque::new(),
            partial: Vec::new(),
        };
        match c.request(&format!("HELLO {WIRE_VERSION} {token}"))? {
            Reply::Welcome { sid } => {
                c.sid = sid;
                Ok(c)
            }
            Reply::Busy { retry_after_ms } => Err(ClientError::Busy { retry_after_ms }),
            other => Err(ClientError::Protocol(format!(
                "expected WELCOME, got {other:?}"
            ))),
        }
    }

    /// Connect with bounded retries on refused connections and `BUSY`
    /// sheds — the polite client loop the service docs prescribe.
    pub fn connect_retry(
        addr: SocketAddr,
        token: &str,
        tries: usize,
        backoff: Duration,
    ) -> Result<Client, ClientError> {
        let mut last = ClientError::Closed;
        for _ in 0..tries.max(1) {
            match Self::connect(addr, token) {
                Ok(c) => return Ok(c),
                Err(e @ (ClientError::Io(_) | ClientError::Busy { .. } | ClientError::Closed)) => {
                    last = e;
                    std::thread::sleep(backoff);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// The server-assigned session id.
    pub fn sid(&self) -> u64 {
        self.sid
    }

    /// Adjusts the read deadline for subsequent replies.
    pub fn set_read_timeout(&mut self, timeout: Duration) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(Some(timeout))?;
        Ok(())
    }

    /// Creates (or idempotently attaches to) a named in-memory graph.
    pub fn graph(&mut self, name: &str, nodes: usize, directed: bool) -> Result<(), ClientError> {
        let dir = if directed { "directed" } else { "undirected" };
        self.expect_ok(&format!("GRAPH {name} {nodes} {dir}"))
    }

    /// Registers a standing query; returns the digest length.
    pub fn register(
        &mut self,
        qid: &str,
        graph: &str,
        class: &str,
        source: NodeId,
        pattern_seed: Option<u64>,
    ) -> Result<usize, ClientError> {
        let mut line = format!("REGISTER {qid} {graph} {class} source={source}");
        if let Some(seed) = pattern_seed {
            line.push_str(&format!(" pattern={seed}"));
        }
        let ok = self.expect_ok_payload(&line)?;
        ok.split_whitespace()
            .nth(2)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad REGISTER reply `{ok}`")))
    }

    /// Drops a standing query.
    pub fn unregister(&mut self, qid: &str) -> Result<(), ClientError> {
        self.expect_ok(&format!("UNREGISTER {qid}"))
    }

    /// Registers a standing dataflow plan (`incgraph-plan/1` text);
    /// returns the initial view's row count.
    pub fn plan(
        &mut self,
        qid: &str,
        graph: &str,
        pattern_seed: u64,
        text: &str,
    ) -> Result<usize, ClientError> {
        let ok = self.expect_ok_payload(&format!("PLAN {qid} {graph} {pattern_seed} {text}"))?;
        ok.split_whitespace()
            .nth(2)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad PLAN reply `{ok}`")))
    }

    /// Drops a standing plan.
    pub fn unplan(&mut self, qid: &str) -> Result<(), ClientError> {
        self.expect_ok(&format!("UNPLAN {qid}"))
    }

    /// Fetches a standing plan's full current view.
    pub fn planq(&mut self, qid: &str) -> Result<(u64, Vec<ViewRow>), ClientError> {
        match self.request(&format!("PLANQ {qid}"))? {
            Reply::View(v) => Ok((v.wal_seq, v.rows)),
            Reply::Err { code, detail } => Err(ClientError::Server { code, detail }),
            other => Err(ClientError::Protocol(format!(
                "expected VIEW, got {other:?}"
            ))),
        }
    }

    /// Sends one `UPDATE` batch under `client_seq` and waits for the
    /// `ACK`. `BUSY` and `ERR` surface as [`ClientError`]; retry with the
    /// **same** `client_seq` — the server's ack table makes that safe.
    pub fn update(
        &mut self,
        graph: &str,
        client_seq: u64,
        batch: &UpdateBatch,
    ) -> Result<Ack, ClientError> {
        let mut msg = format!("UPDATE {graph} {client_seq} {}\n", batch.len());
        for u in batch.updates() {
            match *u {
                Update::Insert { src, dst, weight } => {
                    msg.push_str(&format!("+ {src} {dst} {weight}\n"));
                }
                Update::Delete { src, dst } => {
                    msg.push_str(&format!("- {src} {dst}\n"));
                }
            }
        }
        self.send_raw(&msg)?;
        match self.recv_reply()? {
            Reply::Ack(ack) => Ok(ack),
            Reply::Busy { retry_after_ms } => Err(ClientError::Busy { retry_after_ms }),
            Reply::Err { code, detail } => Err(ClientError::Server { code, detail }),
            other => Err(ClientError::Protocol(format!(
                "expected ACK, got {other:?}"
            ))),
        }
    }

    /// [`update`](Client::update), retrying `BUSY` sheds (same sequence
    /// number) up to `tries` times, honoring the server's retry hint.
    pub fn update_retry(
        &mut self,
        graph: &str,
        client_seq: u64,
        batch: &UpdateBatch,
        tries: usize,
    ) -> Result<Ack, ClientError> {
        let mut last_hint = 1u64;
        for _ in 0..tries.max(1) {
            match self.update(graph, client_seq, batch) {
                Err(ClientError::Busy { retry_after_ms }) => {
                    last_hint = retry_after_ms;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1000)));
                }
                other => return other,
            }
        }
        Err(ClientError::Busy {
            retry_after_ms: last_hint,
        })
    }

    /// Fetches the current full digest of a standing query.
    pub fn query(&mut self, qid: &str) -> Result<(u64, Vec<u64>), ClientError> {
        match self.request(&format!("QUERY {qid}"))? {
            Reply::ResultDigest {
                wal_seq, digest, ..
            } => Ok((wal_seq, digest)),
            Reply::Err { code, detail } => Err(ClientError::Server { code, detail }),
            other => Err(ClientError::Protocol(format!(
                "expected RESULT, got {other:?}"
            ))),
        }
    }

    /// Server status line payload (after `OK `).
    pub fn status(&mut self) -> Result<String, ClientError> {
        self.expect_ok_payload("STATUS")
    }

    /// Promotes a replica to primary; returns the new epoch.
    pub fn promote(&mut self) -> Result<u64, ClientError> {
        let payload = self.expect_ok_payload("PROMOTE")?;
        payload
            .split_whitespace()
            .nth(1)
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad PROMOTE payload: {payload}")))
    }

    /// Reads one raw protocol line (chaos tests inspect replication
    /// traffic with this, and a replica tails its primary with it).
    /// `None` when the read deadline passes first; the partial line is
    /// kept for the next call.
    pub fn recv_raw_line(&mut self) -> Result<Option<String>, ClientError> {
        match protocol::read_line(&mut self.reader, &mut self.partial)? {
            LineRead::Line => {
                let line = String::from_utf8_lossy(&self.partial).into_owned();
                self.partial.clear();
                Ok(Some(line))
            }
            LineRead::Timeout => Ok(None),
            LineRead::Eof => Err(ClientError::Closed),
            LineRead::TooLong => Err(ClientError::Protocol("reply line too long".into())),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request("PING")? {
            Reply::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected PONG, got {other:?}"
            ))),
        }
    }

    /// Asks the server to drain and stop (when enabled server-side).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.expect_ok("SHUTDOWN")
    }

    /// Polite disconnect; returns the server's `GOODBYE` reason.
    pub fn bye(mut self) -> Result<String, ClientError> {
        self.send_raw("BYE\n")?;
        loop {
            match self.recv_reply() {
                Ok(Reply::Goodbye(reason)) => return Ok(reason),
                Ok(_) => continue,
                Err(ClientError::Goodbye(reason)) => return Ok(reason),
                Err(ClientError::Closed) => return Ok(String::new()),
                Err(e) => return Err(e),
            }
        }
    }

    /// Drains the buffered `DELTA` notifications received so far.
    pub fn take_deltas(&mut self) -> Vec<Delta> {
        self.deltas.drain(..).collect()
    }

    /// Waits up to `timeout` for the next `DELTA` (buffered ones first),
    /// queuing any `VDELTA` read on the way. `Ok(None)` on timeout.
    pub fn poll_delta(&mut self, timeout: Duration) -> Result<Option<Delta>, ClientError> {
        self.poll_notification(timeout, |c| c.deltas.pop_front())
    }

    /// Drains the buffered `VDELTA` notifications received so far.
    pub fn take_vdeltas(&mut self) -> Vec<ViewRows> {
        self.vdeltas.drain(..).collect()
    }

    /// Waits up to `timeout` for the next `VDELTA` (buffered ones
    /// first), queuing any `DELTA` read on the way. `Ok(None)` on
    /// timeout.
    pub fn poll_vdelta(&mut self, timeout: Duration) -> Result<Option<ViewRows>, ClientError> {
        self.poll_notification(timeout, |c| c.vdeltas.pop_front())
    }

    /// Reads notifications into their queues until `take` finds one in
    /// them or `timeout` passes (`Ok(None)`). The socket's read deadline
    /// is restored on the way out.
    fn poll_notification<T>(
        &mut self,
        timeout: Duration,
        mut take: impl FnMut(&mut Client) -> Option<T>,
    ) -> Result<Option<T>, ClientError> {
        let deadline = Instant::now() + timeout;
        let old = self.reader.get_ref().read_timeout()?;
        let mut wait = || loop {
            if let Some(t) = take(self) {
                return Ok(Some(t));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.reader.get_ref().set_read_timeout(Some(left))?;
            let Some(line) = self.recv_raw_line()? else {
                continue;
            };
            match parse_reply(&line)? {
                Reply::Delta(d) => self.deltas.push_back(d),
                Reply::VDelta(v) => self.vdeltas.push_back(v),
                Reply::Goodbye(r) => return Err(ClientError::Goodbye(r)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected a DELTA or VDELTA, got {other:?}"
                    )))
                }
            }
        };
        let got = wait();
        self.reader.get_ref().set_read_timeout(old)?;
        got
    }

    /// Sends raw bytes (chaos tests craft malformed traffic with this).
    pub fn send_raw(&mut self, msg: &str) -> Result<(), ClientError> {
        let s = self.reader.get_mut();
        s.write_all(msg.as_bytes())?;
        s.flush()?;
        Ok(())
    }

    /// Reads the next non-`DELTA` reply, buffering deltas to the side.
    /// `GOODBYE` surfaces as [`ClientError::Goodbye`].
    pub fn recv_reply(&mut self) -> Result<Reply, ClientError> {
        loop {
            let line = match self.recv_raw_line()? {
                Some(l) => l,
                None => return Err(ClientError::Io(io::ErrorKind::TimedOut.into())),
            };
            match parse_reply(&line)? {
                Reply::Delta(d) => self.deltas.push_back(d),
                Reply::VDelta(v) => self.vdeltas.push_back(v),
                Reply::Goodbye(r) => return Err(ClientError::Goodbye(r)),
                other => return Ok(other),
            }
        }
    }

    fn request(&mut self, line: &str) -> Result<Reply, ClientError> {
        self.send_raw(&format!("{line}\n"))?;
        self.recv_reply()
    }

    fn expect_ok(&mut self, line: &str) -> Result<(), ClientError> {
        self.expect_ok_payload(line).map(|_| ())
    }

    fn expect_ok_payload(&mut self, line: &str) -> Result<String, ClientError> {
        match self.request(line)? {
            Reply::Ok(payload) => Ok(payload),
            Reply::Busy { retry_after_ms } => Err(ClientError::Busy { retry_after_ms }),
            Reply::Err { code, detail } => Err(ClientError::Server { code, detail }),
            other => Err(ClientError::Protocol(format!("expected OK, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reply_shapes() {
        assert_eq!(parse_reply("PONG").unwrap(), Reply::Pong);
        assert_eq!(
            parse_reply("WELCOME incgraph-wire/1 7").unwrap(),
            Reply::Welcome { sid: 7 }
        );
        assert_eq!(
            parse_reply("ACK 3 12 4 dup").unwrap(),
            Reply::Ack(Ack {
                client_seq: 3,
                wal_seq: 12,
                units: 4,
                dup: true
            })
        );
        assert_eq!(
            parse_reply("RESULT q1 9 3 1 2 3").unwrap(),
            Reply::ResultDigest {
                qid: "q1".into(),
                wal_seq: 9,
                digest: vec![1, 2, 3]
            }
        );
        assert_eq!(
            parse_reply("BUSY 50").unwrap(),
            Reply::Busy { retry_after_ms: 50 }
        );
        assert!(matches!(
            parse_reply("ERR seq-gap expected 4").unwrap(),
            Reply::Err { code, .. } if code == "seq-gap"
        ));
        assert!(matches!(
            parse_reply("GOODBYE shutting-down").unwrap(),
            Reply::Goodbye(r) if r == "shutting-down"
        ));
        assert!(parse_reply("RESULT q1 9 3 1 2").is_err(), "digest count");
        assert!(parse_reply("???").is_err());
    }
}
