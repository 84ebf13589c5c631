//! The `incgraph-wire/1` protocol: line-oriented, UTF-8, space-separated.
//!
//! Every message is one `\n`-terminated line, except `UPDATE`, whose
//! header line is followed by exactly `k` unit-update lines in the
//! `+ u v w` / `- u v` syntax of `incgraph_graph::io::read_updates`.
//! The full grammar, semantics tables, and the exactly-once retry
//! cookbook live in `docs/SERVICE.md`; this module is the single
//! framing and parse/format authority both the server and the client
//! use, so the two sides cannot drift: [`read_line`] is the one socket
//! line reader.
//!
//! Client → server:
//!
//! ```text
//! HELLO incgraph-wire/1 <token>
//! GRAPH <name> <nodes> directed|undirected
//! REGISTER <qid> <graph> <class> [source=<n>] [pattern=<seed>]
//! UNREGISTER <qid>
//! PLAN <qid> <graph> <pattern-seed> <plan-text…>   (incgraph-plan/1, to end of line)
//! UNPLAN <qid>
//! PLANQ <qid>
//! UPDATE <graph> <seq> <k>      (then k update lines)
//! QUERY <qid>
//! STATUS
//! PING
//! BYE
//! SHUTDOWN
//! ```
//!
//! Replica → primary (on an ordinary session, after `HELLO`):
//!
//! ```text
//! SYNC <graph> <epoch> <from_seq> <crc|-> directed|undirected <nodes> [force]
//! WATERMARK <seq>
//! PROMOTE
//! ```
//!
//! Server → client:
//!
//! ```text
//! WELCOME incgraph-wire/1 <session-id>
//! BUSY <retry-after-ms>
//! OK <cmd> <args...>
//! ACK <seq> <wal-seq> <units> [dup]
//! DELTA <qid> <wal-seq> <m> <i>:<v>...      (m changed digest entries)
//! DELTA <qid> <wal-seq> resync <len>        (too many changes: re-QUERY)
//! VDELTA <qid> <wal-seq> <m> <k>:<v>:<w>... (m weighted view-row changes)
//! VIEW <qid> <wal-seq> <n> <k>:<v>:<w>...   (full standing-plan view)
//! RESULT <qid> <wal-seq> <n> <v>...
//! PONG
//! ERR <code> <detail...>
//! GOODBYE <reason>
//! ```
//!
//! Primary → replica (replication stream, after `OK SYNC`):
//!
//! ```text
//! OK SYNC tail <epoch> <last_seq>           (then SHIP from from_seq+1)
//! OK SYNC snap <epoch> <snap_seq>           (then SNAP/SNAPEND)
//! SHIP <seq> <hex-record>
//! SNAP <i> <n> <hex-chunk>
//! SNAPEND <seq> <crc>
//! DIGEST <seq> <digest>
//! ```
//!
//! `SHIP` carries the *full WAL record bytes* (hex) — self-validating
//! through the record's own CRC and sequence number, decoded with the
//! same [`scan_records`](incgraph_durable::scan_records) the recovery
//! path uses, client origin included, so client retries survive
//! failover. `SNAP` chunks a checkpoint payload
//! ([`DurableSession::encode_snapshot`](incgraph_durable::DurableSession::encode_snapshot)),
//! whose ack table does the same for a bootstrapped replica; `DIGEST`
//! is the periodic divergence probe.

use incgraph_graph::{NodeId, UpdateBatch, Weight};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io::{self, BufRead};

/// Protocol identifier exchanged in `HELLO`/`WELCOME`.
pub const WIRE_VERSION: &str = "incgraph-wire/1";

/// Hard cap on one wire line, defending the reader against an unbounded
/// allocation from a hostile or broken peer.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Bytes reserved per entry when a `RESULT`/`DELTA`/`VIEW` line is
/// formatted: an estimate that spares the line buffer its early
/// doublings, not a bound.
pub(crate) const ENTRY_RESERVE: usize = 12;

/// What one [`read_line`] call found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LineRead {
    /// `buf` holds one full line, its LF and a trailing CR stripped.
    Line,
    /// The peer closed the stream; an unterminated rest stays in `buf`.
    Eof,
    /// The read deadline passed first; the partial line stays in `buf`
    /// for the next call.
    Timeout,
    /// The line passed [`MAX_LINE_BYTES`]: the stream is no longer
    /// framed and the caller ends it.
    TooLong,
}

/// The wire's framing: appends the current line's bytes to `buf` until
/// its LF, the end of the stream, the read deadline (`WouldBlock` or
/// `TimedOut`) or the line cap, whichever comes first. Every socket
/// reader of the wire, server and client, reads through here; the
/// caller clears `buf` once it has taken a [`LineRead::Line`].
pub(crate) fn read_line(r: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<LineRead> {
    loop {
        let avail = match r.fill_buf() {
            Ok(a) => a,
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                    return Ok(LineRead::Timeout)
                }
                io::ErrorKind::Interrupted => continue,
                _ => return Err(e),
            },
        };
        if avail.is_empty() {
            return Ok(LineRead::Eof);
        }
        let end = avail.iter().position(|&b| b == b'\n');
        let take = end.unwrap_or(avail.len());
        buf.extend_from_slice(&avail[..take]);
        r.consume(take + usize::from(end.is_some()));
        if buf.len() > MAX_LINE_BYTES {
            return Ok(LineRead::TooLong);
        }
        if end.is_some() {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(LineRead::Line);
        }
    }
}

/// Typed error codes carried on `ERR` lines. Stable wire names — scripts
/// and the chaos harness match on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrCode {
    /// `HELLO` version or shape mismatch.
    BadProto,
    /// Unparsable or unknown command line.
    BadCommand,
    /// Any command other than `HELLO` before the handshake.
    NeedHello,
    /// A second `HELLO` on an established session.
    AlreadyHello,
    /// `UPDATE`/`REGISTER` named a graph this store does not hold.
    UnknownGraph,
    /// `GRAPH` re-opened an existing graph with a different shape.
    GraphMismatch,
    /// `REGISTER` named an unknown query class.
    UnknownClass,
    /// The class is undefined on a directed graph (LCC, BC).
    UndirectedRequired,
    /// `REGISTER` reused a live query id on this session.
    DupQuery,
    /// `QUERY`/`UNREGISTER` named an unregistered query id.
    UnknownQuery,
    /// `PLAN` text was rejected by the `incgraph-plan/1` parser or a
    /// member session refused to build.
    BadPlan,
    /// Client sequence is neither `last` (retry) nor `last + 1` (next).
    SeqGap,
    /// The ΔG failed batch validation; the store is unchanged.
    InvalidBatch,
    /// The graph is in degraded read-only mode after a WAL write failure.
    ReadOnly,
    /// Batch or line exceeds the configured size limits.
    TooLarge,
    /// The session's outbound queue overflowed its hard cap; the server
    /// disconnects right after delivering this.
    SlowConsumer,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// The durable store is locked by another process (or still being
    /// released); retry.
    StoreBusy,
    /// Internal store failure (I/O, corruption).
    Store,
    /// A replication peer presented a higher durable epoch than ours:
    /// we have been deposed and must not accept writes (fencing).
    StaleEpoch,
    /// A write or replication command was sent to a node that is not
    /// the primary (replica or fenced ex-primary).
    NotPrimary,
}

impl ErrCode {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrCode::BadProto => "bad-proto",
            ErrCode::BadCommand => "bad-command",
            ErrCode::NeedHello => "need-hello",
            ErrCode::AlreadyHello => "already-hello",
            ErrCode::UnknownGraph => "unknown-graph",
            ErrCode::GraphMismatch => "graph-mismatch",
            ErrCode::UnknownClass => "unknown-class",
            ErrCode::UndirectedRequired => "undirected-required",
            ErrCode::DupQuery => "dup-query",
            ErrCode::UnknownQuery => "unknown-query",
            ErrCode::BadPlan => "bad-plan",
            ErrCode::SeqGap => "seq-gap",
            ErrCode::InvalidBatch => "invalid-batch",
            ErrCode::ReadOnly => "readonly",
            ErrCode::TooLarge => "too-large",
            ErrCode::SlowConsumer => "slow-consumer",
            ErrCode::ShuttingDown => "shutting-down",
            ErrCode::StoreBusy => "store-busy",
            ErrCode::Store => "store",
            ErrCode::StaleEpoch => "stale-epoch",
            ErrCode::NotPrimary => "not-primary",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(s: &str) -> Option<ErrCode> {
        const ALL: [ErrCode; 21] = [
            ErrCode::BadProto,
            ErrCode::BadCommand,
            ErrCode::NeedHello,
            ErrCode::AlreadyHello,
            ErrCode::UnknownGraph,
            ErrCode::GraphMismatch,
            ErrCode::UnknownClass,
            ErrCode::UndirectedRequired,
            ErrCode::DupQuery,
            ErrCode::UnknownQuery,
            ErrCode::BadPlan,
            ErrCode::SeqGap,
            ErrCode::InvalidBatch,
            ErrCode::ReadOnly,
            ErrCode::TooLarge,
            ErrCode::SlowConsumer,
            ErrCode::ShuttingDown,
            ErrCode::StoreBusy,
            ErrCode::Store,
            ErrCode::StaleEpoch,
            ErrCode::NotPrimary,
        ];
        ALL.into_iter().find(|c| c.name() == s)
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A parsed client command (the `UPDATE` header only names the batch;
/// its unit lines are read separately by the session loop).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    Hello {
        version: String,
        token: String,
    },
    /// A verb the single writer runs; the session reader forwards it as
    /// parsed.
    Write(WriteCmd),
    /// Full materialized view of a standing plan (`VIEW` reply).
    Planq {
        qid: String,
    },
    UpdateHeader {
        graph: String,
        seq: u64,
        k: usize,
    },
    Query {
        qid: String,
    },
    Status,
    Ping,
    Bye,
    Shutdown,
    /// Replica → primary: `seq` is now fsynced on the replica.
    Watermark {
        seq: u64,
    },
}

/// The client verbs the single writer runs, with their parsed fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteCmd {
    Graph {
        name: String,
        nodes: usize,
        directed: bool,
    },
    Register {
        qid: String,
        graph: String,
        class: String,
        source: NodeId,
        pattern_seed: u64,
    },
    Unregister {
        qid: String,
    },
    /// Standing dataflow plan over `graph`. `text` is the raw
    /// `incgraph-plan/1` plan (rest of the line, verbatim);
    /// `pattern_seed` seeds the Sim pattern for `sim` sources, mirroring
    /// `REGISTER pattern=`.
    Plan {
        qid: String,
        graph: String,
        pattern_seed: u64,
        text: String,
    },
    Unplan {
        qid: String,
    },
    /// Replication handshake: a replica announces its graph shape,
    /// durable epoch, and the last WAL record it holds (`from_seq` +
    /// that record's CRC, `-` when it has none) and asks to be fed.
    Sync {
        graph: String,
        epoch: u64,
        from_seq: u64,
        crc: Option<u32>,
        directed: bool,
        nodes: usize,
        /// Force a snapshot bootstrap even when a tail would do.
        force: bool,
    },
    /// Operator command to a replica: bump the epoch and take writes.
    Promote,
}

/// Why a command line failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommandError(pub String);

fn ident_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 128
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

/// Parses one client command line. `UPDATE` yields only the header; the
/// caller reads the following `k` unit lines via [`parse_update_line`].
pub fn parse_command(line: &str) -> Result<Command, CommandError> {
    let bad = |msg: &str| CommandError(msg.to_string());
    let mut it = line.split_whitespace();
    let cmd = it.next().ok_or_else(|| bad("empty line"))?;
    let parsed = match cmd {
        "HELLO" => {
            let version = it.next().ok_or_else(|| bad("HELLO needs a version"))?;
            let token = it.next().ok_or_else(|| bad("HELLO needs a token"))?;
            if !ident_ok(token) {
                return Err(bad("HELLO token must be a short identifier"));
            }
            Command::Hello {
                version: version.to_string(),
                token: token.to_string(),
            }
        }
        "GRAPH" => {
            let name = it.next().ok_or_else(|| bad("GRAPH needs a name"))?;
            if !ident_ok(name) {
                return Err(bad("GRAPH name must be a short identifier"));
            }
            let nodes: usize = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("GRAPH needs a node count"))?;
            let directed = match it.next() {
                Some("directed") => true,
                Some("undirected") => false,
                _ => return Err(bad("GRAPH needs directed|undirected")),
            };
            Command::Write(WriteCmd::Graph {
                name: name.to_string(),
                nodes,
                directed,
            })
        }
        "REGISTER" => {
            let qid = it.next().ok_or_else(|| bad("REGISTER needs a query id"))?;
            let graph = it.next().ok_or_else(|| bad("REGISTER needs a graph"))?;
            let class = it.next().ok_or_else(|| bad("REGISTER needs a class"))?;
            if !ident_ok(qid) || !ident_ok(graph) || !ident_ok(class) {
                return Err(bad("REGISTER ids must be short identifiers"));
            }
            let mut source: NodeId = 0;
            let mut pattern_seed: u64 = 42;
            for opt in it.by_ref() {
                if let Some(v) = opt.strip_prefix("source=") {
                    source = v.parse().map_err(|_| bad("bad source="))?;
                } else if let Some(v) = opt.strip_prefix("pattern=") {
                    pattern_seed = v.parse().map_err(|_| bad("bad pattern="))?;
                } else {
                    return Err(bad("unknown REGISTER option"));
                }
            }
            Command::Write(WriteCmd::Register {
                qid: qid.to_string(),
                graph: graph.to_string(),
                class: class.to_string(),
                source,
                pattern_seed,
            })
        }
        "UNREGISTER" => Command::Write(WriteCmd::Unregister {
            qid: it
                .next()
                .filter(|q| ident_ok(q))
                .ok_or_else(|| bad("UNREGISTER needs a query id"))?
                .to_string(),
        }),
        "PLAN" => {
            // The plan text is the raw remainder of the line (it
            // contains spaces), so PLAN re-tokenizes from `line` instead
            // of consuming the whitespace-split iterator.
            let rest = line.trim_start();
            let rest = rest["PLAN".len()..].trim_start();
            let (qid, rest) = take_token(rest).ok_or_else(|| bad("PLAN needs a query id"))?;
            let (graph, rest) = take_token(rest).ok_or_else(|| bad("PLAN needs a graph"))?;
            let (seed, rest) = take_token(rest).ok_or_else(|| bad("PLAN needs a pattern seed"))?;
            if !ident_ok(qid) || !ident_ok(graph) {
                return Err(bad("PLAN ids must be short identifiers"));
            }
            let pattern_seed: u64 = seed.parse().map_err(|_| bad("bad PLAN pattern seed"))?;
            let text = rest.trim();
            if text.is_empty() {
                return Err(bad("PLAN needs a plan text"));
            }
            Command::Write(WriteCmd::Plan {
                qid: qid.to_string(),
                graph: graph.to_string(),
                pattern_seed,
                text: text.to_string(),
            })
        }
        "UNPLAN" => Command::Write(WriteCmd::Unplan {
            qid: it
                .next()
                .filter(|q| ident_ok(q))
                .ok_or_else(|| bad("UNPLAN needs a query id"))?
                .to_string(),
        }),
        "PLANQ" => Command::Planq {
            qid: it
                .next()
                .filter(|q| ident_ok(q))
                .ok_or_else(|| bad("PLANQ needs a query id"))?
                .to_string(),
        },
        "UPDATE" => {
            let graph = it.next().ok_or_else(|| bad("UPDATE needs a graph"))?;
            if !ident_ok(graph) {
                return Err(bad("UPDATE graph must be a short identifier"));
            }
            let seq: u64 = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("UPDATE needs a client sequence"))?;
            let k: usize = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("UPDATE needs an update count"))?;
            if seq == 0 {
                return Err(bad("UPDATE sequence starts at 1"));
            }
            Command::UpdateHeader {
                graph: graph.to_string(),
                seq,
                k,
            }
        }
        "QUERY" => Command::Query {
            qid: it
                .next()
                .filter(|q| ident_ok(q))
                .ok_or_else(|| bad("QUERY needs a query id"))?
                .to_string(),
        },
        "STATUS" => Command::Status,
        "PING" => Command::Ping,
        "BYE" => Command::Bye,
        "SHUTDOWN" => Command::Shutdown,
        "SYNC" => {
            let graph = it.next().ok_or_else(|| bad("SYNC needs a graph"))?;
            if !ident_ok(graph) {
                return Err(bad("SYNC graph must be a short identifier"));
            }
            let epoch: u64 = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("SYNC needs an epoch"))?;
            let from_seq: u64 = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("SYNC needs a from-seq"))?;
            let crc = match it.next().ok_or_else(|| bad("SYNC needs a crc or -"))? {
                "-" => None,
                hex => Some(u32::from_str_radix(hex, 16).map_err(|_| bad("SYNC crc must be hex"))?),
            };
            let directed = match it.next() {
                Some("directed") => true,
                Some("undirected") => false,
                _ => return Err(bad("SYNC needs directed|undirected")),
            };
            let nodes: usize = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("SYNC needs a node count"))?;
            let force = match it.next() {
                None => false,
                Some("force") => true,
                Some(_) => return Err(bad("unknown SYNC option")),
            };
            Command::Write(WriteCmd::Sync {
                graph: graph.to_string(),
                epoch,
                from_seq,
                crc,
                directed,
                nodes,
                force,
            })
        }
        "WATERMARK" => Command::Watermark {
            seq: it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("WATERMARK needs a sequence"))?,
        },
        "PROMOTE" => Command::Write(WriteCmd::Promote),
        other => return Err(bad(&format!("unknown command {other}"))),
    };
    let open_ended = matches!(
        parsed,
        Command::Hello { .. } | Command::Write(WriteCmd::Plan { .. })
    );
    if it.next().is_some() && !open_ended {
        return Err(bad("trailing arguments"));
    }
    Ok(parsed)
}

/// Splits the next whitespace-separated token off `s`, returning it and
/// the remainder (used by `PLAN`, whose last argument is raw text).
fn take_token(s: &str) -> Option<(&str, &str)> {
    let s = s.trim_start();
    if s.is_empty() {
        return None;
    }
    let end = s.find(char::is_whitespace).unwrap_or(s.len());
    Some((&s[..end], &s[end..]))
}

/// Parses one `+ u v [w]` / `- u v` unit line into `batch`.
pub fn parse_update_line(line: &str, batch: &mut UpdateBatch) -> Result<(), CommandError> {
    let bad = || CommandError(format!("bad update line `{line}`"));
    let mut it = line.split_whitespace();
    let op = it.next().ok_or_else(bad)?;
    let u: NodeId = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    let v: NodeId = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    match op {
        "+" => {
            let w: Weight = match it.next() {
                Some(t) => t.parse().map_err(|_| bad())?,
                None => 1,
            };
            batch.insert(u, v, w);
        }
        "-" => {
            batch.delete(u, v);
        }
        _ => return Err(bad()),
    }
    if it.next().is_some() {
        return Err(bad());
    }
    Ok(())
}

/// Formats a `DELTA` notification line. `changed` maps digest index →
/// new value; `resync_len` (the digest length past which the server
/// stops enumerating) switches to the `resync` form.
pub fn format_delta(
    qid: &str,
    wal_seq: u64,
    changed: &BTreeMap<u32, u64>,
    resync: Option<usize>,
) -> String {
    match resync {
        Some(len) => format!("DELTA {qid} {wal_seq} resync {len}"),
        None => {
            let mut s = format!("DELTA {qid} {wal_seq} {}", changed.len());
            s.reserve(changed.len() * ENTRY_RESERVE);
            for (i, v) in changed {
                write!(s, " {i}:{v}").expect("writing to a String cannot fail");
            }
            s
        }
    }
}

/// A parsed `DELTA` line, as seen by clients.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delta {
    pub qid: String,
    pub wal_seq: u64,
    /// `None` = resync requested (with the new digest length).
    pub changed: Option<BTreeMap<u32, u64>>,
    pub resync_len: usize,
}

/// Parses a server `DELTA` line (client side).
pub fn parse_delta(line: &str) -> Result<Delta, CommandError> {
    let bad = || CommandError(format!("bad DELTA line `{line}`"));
    let mut it = line.split_whitespace();
    if it.next() != Some("DELTA") {
        return Err(bad());
    }
    let qid = it.next().ok_or_else(bad)?.to_string();
    let wal_seq: u64 = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    match it.next().ok_or_else(bad)? {
        "resync" => {
            let len: usize = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
            Ok(Delta {
                qid,
                wal_seq,
                changed: None,
                resync_len: len,
            })
        }
        m => {
            let m: usize = m.parse().map_err(|_| bad())?;
            let mut changed = BTreeMap::new();
            for _ in 0..m {
                let pair = it.next().ok_or_else(bad)?;
                let (i, v) = pair.split_once(':').ok_or_else(bad)?;
                changed.insert(i.parse().map_err(|_| bad())?, v.parse().map_err(|_| bad())?);
            }
            Ok(Delta {
                qid,
                wal_seq,
                changed: Some(changed),
                resync_len: 0,
            })
        }
    }
}

/// One weighted view row `(key, value, weight)` of a standing plan.
pub type ViewRow = (u64, u64, i64);

/// Formats a standing-plan view notification (`VDELTA`) or full view
/// reply (`VIEW`): weighted `(key, value, weight)` rows in key order.
pub fn format_view_rows(verb: &str, qid: &str, wal_seq: u64, rows: &[ViewRow]) -> String {
    let mut s = format!("{verb} {qid} {wal_seq} {}", rows.len());
    s.reserve(rows.len() * ENTRY_RESERVE);
    for (k, v, w) in rows {
        write!(s, " {k}:{v}:{w}").expect("writing to a String cannot fail");
    }
    s
}

/// A parsed `VDELTA`/`VIEW` line, as seen by clients.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewRows {
    pub qid: String,
    pub wal_seq: u64,
    pub rows: Vec<ViewRow>,
}

/// Parses a server `VDELTA` or `VIEW` line (client side); `verb` selects
/// which.
pub fn parse_view_rows(verb: &str, line: &str) -> Result<ViewRows, CommandError> {
    let bad = || CommandError(format!("bad {verb} line `{line}`"));
    let mut it = line.split_whitespace();
    if it.next() != Some(verb) {
        return Err(bad());
    }
    let qid = it.next().ok_or_else(bad)?.to_string();
    let wal_seq: u64 = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    let n: usize = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let triple = it.next().ok_or_else(bad)?;
        let mut parts = triple.split(':');
        let k: u64 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
        let v: u64 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
        let w: i64 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
        if parts.next().is_some() {
            return Err(bad());
        }
        rows.push((k, v, w));
    }
    if it.next().is_some() {
        return Err(bad());
    }
    Ok(ViewRows { qid, wal_seq, rows })
}

/// Lowercase hex encoding for replication payloads (std-only).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Inverse of [`to_hex`]; `None` on odd length or non-hex characters.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let b = s.as_bytes();
    for pair in b.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

/// Formats the replica side of the replication handshake. `crc` is the
/// CRC of the last WAL record the replica holds (`None` → `-`).
pub fn format_sync(
    graph: &str,
    epoch: u64,
    from_seq: u64,
    crc: Option<u32>,
    directed: bool,
    nodes: usize,
    force: bool,
) -> String {
    let crc = match crc {
        Some(c) => format!("{c:08x}"),
        None => "-".to_string(),
    };
    let dir = if directed { "directed" } else { "undirected" };
    let force = if force { " force" } else { "" };
    format!("SYNC {graph} {epoch} {from_seq} {crc} {dir} {nodes}{force}")
}

/// One primary → replica replication-stream message (everything after
/// `OK SYNC`). Parsed by [`parse_repl`], formatted by the `format_*`
/// helpers below — the one authority both ends share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplMsg {
    /// One fsynced WAL record: the full record bytes, self-validating
    /// via the record's own CRC + seq, with the client origin it carries.
    Ship { seq: u64, record: Vec<u8> },
    /// One chunk (`index` of `total`) of a checkpoint payload.
    Snap {
        index: usize,
        total: usize,
        chunk: Vec<u8>,
    },
    /// End of snapshot: the seq it covers and the CRC of the whole
    /// reassembled payload.
    SnapEnd { seq: u64, crc: u32 },
    /// Periodic divergence probe: the primary's store digest at `seq`.
    Digest { seq: u64, digest: String },
}

/// Formats a `SHIP` line from raw WAL record bytes.
pub fn format_ship(seq: u64, record: &[u8]) -> String {
    format!("SHIP {seq} {}", to_hex(record))
}

/// Formats a `SNAP` chunk line.
pub fn format_snap(index: usize, total: usize, chunk: &[u8]) -> String {
    format!("SNAP {index} {total} {}", to_hex(chunk))
}

/// Formats the `SNAPEND` terminator line.
pub fn format_snapend(seq: u64, crc: u32) -> String {
    format!("SNAPEND {seq} {crc:08x}")
}

/// Formats a `DIGEST` divergence-probe line.
pub fn format_digest(seq: u64, digest: &str) -> String {
    format!("DIGEST {seq} {digest}")
}

/// Parses one replication-stream line. `Ok(None)` means the line is not
/// a replication message (e.g. `OK`, `ERR`, `GOODBYE` — the caller
/// handles those); `Err` means it *claimed* to be one but is malformed.
pub fn parse_repl(line: &str) -> Result<Option<ReplMsg>, CommandError> {
    let bad = |msg: &str| CommandError(format!("{msg} in `{line}`"));
    let mut it = line.split_whitespace();
    let msg = match it.next() {
        Some("SHIP") => {
            let seq: u64 = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("SHIP needs a seq"))?;
            let record = it
                .next()
                .and_then(from_hex)
                .ok_or_else(|| bad("SHIP needs a hex record"))?;
            ReplMsg::Ship { seq, record }
        }
        Some("SNAP") => {
            let index: usize = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("SNAP needs an index"))?;
            let total: usize = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("SNAP needs a total"))?;
            let chunk = it
                .next()
                .and_then(from_hex)
                .ok_or_else(|| bad("SNAP needs a hex chunk"))?;
            if total == 0 || index >= total {
                return Err(bad("SNAP index out of range"));
            }
            ReplMsg::Snap {
                index,
                total,
                chunk,
            }
        }
        Some("SNAPEND") => {
            let seq: u64 = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("SNAPEND needs a seq"))?;
            let crc = it
                .next()
                .and_then(|t| u32::from_str_radix(t, 16).ok())
                .ok_or_else(|| bad("SNAPEND needs a hex crc"))?;
            ReplMsg::SnapEnd { seq, crc }
        }
        Some("DIGEST") => {
            let seq: u64 = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("DIGEST needs a seq"))?;
            let digest = it
                .next()
                .filter(|d| ident_ok(d))
                .ok_or_else(|| bad("DIGEST needs a digest"))?
                .to_string();
            ReplMsg::Digest { seq, digest }
        }
        _ => return Ok(None),
    };
    if it.next().is_some() {
        return Err(bad("trailing arguments"));
    }
    Ok(Some(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_lines_round_trip() {
        assert_eq!(
            parse_command("HELLO incgraph-wire/1 alice"),
            Ok(Command::Hello {
                version: WIRE_VERSION.into(),
                token: "alice".into()
            })
        );
        assert_eq!(
            parse_command("GRAPH g0 64 undirected"),
            Ok(Command::Write(WriteCmd::Graph {
                name: "g0".into(),
                nodes: 64,
                directed: false
            }))
        );
        assert_eq!(
            parse_command("REGISTER q1 g0 sssp source=3"),
            Ok(Command::Write(WriteCmd::Register {
                qid: "q1".into(),
                graph: "g0".into(),
                class: "sssp".into(),
                source: 3,
                pattern_seed: 42
            }))
        );
        assert_eq!(
            parse_command("UPDATE g0 7 2"),
            Ok(Command::UpdateHeader {
                graph: "g0".into(),
                seq: 7,
                k: 2
            })
        );
        for line in ["STATUS", "PING", "BYE", "SHUTDOWN"] {
            assert!(parse_command(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn plan_commands_capture_raw_text() {
        assert_eq!(
            parse_command("PLAN p1 g0 42 d = sssp(source=0); n = count(d)"),
            Ok(Command::Write(WriteCmd::Plan {
                qid: "p1".into(),
                graph: "g0".into(),
                pattern_seed: 42,
                text: "d = sssp(source=0); n = count(d)".into(),
            }))
        );
        // Internal whitespace of the plan text survives verbatim.
        match parse_command("PLAN p g 7 a = cc;  b = filter(a, val < 5)") {
            Ok(Command::Write(WriteCmd::Plan { text, .. })) => {
                assert_eq!(text, "a = cc;  b = filter(a, val < 5)")
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_command("UNPLAN p1"),
            Ok(Command::Write(WriteCmd::Unplan { qid: "p1".into() }))
        );
        assert_eq!(
            parse_command("PLANQ p1"),
            Ok(Command::Planq { qid: "p1".into() })
        );
        for line in [
            "PLAN",
            "PLAN p1",
            "PLAN p1 g0",
            "PLAN p1 g0 42",
            "PLAN p1 g0 seed d = cc",
            "PLAN bad/id g0 42 d = cc",
            "UNPLAN",
            "PLANQ extra args",
        ] {
            assert!(parse_command(line).is_err(), "{line:?} should fail");
        }
    }

    #[test]
    fn view_rows_round_trip() {
        let rows = vec![(0u64, 5u64, 1i64), (3, 9, -1)];
        let line = format_view_rows("VDELTA", "p1", 12, &rows);
        assert_eq!(line, "VDELTA p1 12 2 0:5:1 3:9:-1");
        let parsed = parse_view_rows("VDELTA", &line).unwrap();
        assert_eq!(parsed.qid, "p1");
        assert_eq!(parsed.wal_seq, 12);
        assert_eq!(parsed.rows, rows);
        let line = format_view_rows("VIEW", "p2", 0, &[]);
        assert_eq!(line, "VIEW p2 0 0");
        assert_eq!(parse_view_rows("VIEW", &line).unwrap().rows, vec![]);
        assert!(parse_view_rows("VIEW", "VIEW p 1 2 0:1:1").is_err());
        assert!(parse_view_rows("VIEW", "VDELTA p 1 0").is_err());
    }

    #[test]
    fn malformed_commands_are_rejected() {
        for line in [
            "",
            "FROB x",
            "HELLO",
            "HELLO incgraph-wire/1",
            "GRAPH g0 64",
            "GRAPH g0 sixty-four undirected",
            "GRAPH bad/name 4 undirected",
            "UPDATE g0 0 1",
            "UPDATE g0 1",
            "REGISTER q g0 sssp frob=1",
            "STATUS extra",
        ] {
            assert!(parse_command(line).is_err(), "{line:?} should fail");
        }
    }

    #[test]
    fn update_lines_parse_like_read_updates() {
        let mut b = UpdateBatch::new();
        parse_update_line("+ 1 2 9", &mut b).unwrap();
        parse_update_line("+ 3 4", &mut b).unwrap();
        parse_update_line("- 1 2", &mut b).unwrap();
        assert_eq!(b.len(), 3);
        assert!(parse_update_line("* 1 2", &mut b).is_err());
        assert!(parse_update_line("+ 1", &mut b).is_err());
        assert!(parse_update_line("+ 1 2 3 4", &mut b).is_err());
    }

    #[test]
    fn delta_lines_round_trip() {
        let mut changed = BTreeMap::new();
        changed.insert(3u32, 77u64);
        changed.insert(9, 0);
        let line = format_delta("q1", 12, &changed, None);
        assert_eq!(line, "DELTA q1 12 2 3:77 9:0");
        let d = parse_delta(&line).unwrap();
        assert_eq!(d.changed.as_ref().unwrap().len(), 2);
        assert_eq!(d.wal_seq, 12);

        let r = format_delta("q1", 5, &BTreeMap::new(), Some(640));
        assert_eq!(r, "DELTA q1 5 resync 640");
        let d = parse_delta(&r).unwrap();
        assert!(d.changed.is_none());
        assert_eq!(d.resync_len, 640);
    }

    #[test]
    fn err_codes_round_trip() {
        for code in [
            ErrCode::BadProto,
            ErrCode::SeqGap,
            ErrCode::SlowConsumer,
            ErrCode::StoreBusy,
            ErrCode::StaleEpoch,
            ErrCode::NotPrimary,
        ] {
            assert_eq!(ErrCode::from_name(code.name()), Some(code));
        }
        assert_eq!(ErrCode::from_name("nope"), None);
    }

    #[test]
    fn sync_lines_round_trip() {
        let line = format_sync("g0", 3, 17, Some(0xdeadbeef), false, 64, false);
        assert_eq!(line, "SYNC g0 3 17 deadbeef undirected 64");
        assert_eq!(
            parse_command(&line),
            Ok(Command::Write(WriteCmd::Sync {
                graph: "g0".into(),
                epoch: 3,
                from_seq: 17,
                crc: Some(0xdeadbeef),
                directed: false,
                nodes: 64,
                force: false
            }))
        );
        let line = format_sync("g0", 1, 0, None, true, 8, true);
        assert_eq!(line, "SYNC g0 1 0 - directed 8 force");
        assert!(matches!(
            parse_command(&line),
            Ok(Command::Write(WriteCmd::Sync {
                crc: None,
                force: true,
                ..
            }))
        ));
        assert_eq!(
            parse_command("WATERMARK 99"),
            Ok(Command::Watermark { seq: 99 })
        );
        assert_eq!(
            parse_command("PROMOTE"),
            Ok(Command::Write(WriteCmd::Promote))
        );
        for line in [
            "SYNC g0 1 0 - directed",
            "SYNC g0 1 0 zz directed 8",
            "SYNC g0 1 0 - sideways 8",
            "SYNC g0 1 0 - directed 8 gently",
            "WATERMARK",
            "PROMOTE now",
        ] {
            assert!(parse_command(line).is_err(), "{line:?} should fail");
        }
    }

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(to_hex(&[]), "");
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        assert!(from_hex("abc").is_none());
        assert!(from_hex("zz").is_none());
    }

    #[test]
    fn repl_lines_round_trip() {
        let rec = vec![0x12, 0x34, 0xff];
        let line = format_ship(7, &rec);
        assert_eq!(line, "SHIP 7 1234ff");
        assert_eq!(
            parse_repl(&line).unwrap(),
            Some(ReplMsg::Ship {
                seq: 7,
                record: rec.clone()
            })
        );

        let line = format_snap(0, 2, &[0xab]);
        assert_eq!(
            parse_repl(&line).unwrap(),
            Some(ReplMsg::Snap {
                index: 0,
                total: 2,
                chunk: vec![0xab]
            })
        );
        let line = format_snapend(40, 0xcafe0042);
        assert_eq!(
            parse_repl(&line).unwrap(),
            Some(ReplMsg::SnapEnd {
                seq: 40,
                crc: 0xcafe0042
            })
        );
        let line = format_digest(40, "0012abcd");
        assert_eq!(
            parse_repl(&line).unwrap(),
            Some(ReplMsg::Digest {
                seq: 40,
                digest: "0012abcd".into()
            })
        );

        // Non-repl lines pass through as None; malformed repl lines error.
        assert_eq!(parse_repl("OK SYNC tail 1 7").unwrap(), None);
        assert_eq!(parse_repl("ERR stale-epoch deposed").unwrap(), None);
        for line in [
            "SHIP x ab",
            "SHIP 7 xyz",
            "SHIP 7 ab cd",
            "SNAP 2 2 ab",
            "SNAPEND 4",
            "DIGEST 4 0012abcd extra",
        ] {
            assert!(parse_repl(line).is_err(), "{line:?} should fail");
        }
    }

    /// A [`BufRead`] that hands out scripted chunks and read errors, in
    /// order; the end of the script is the end of the stream.
    struct Script(std::collections::VecDeque<Result<Vec<u8>, io::ErrorKind>>);

    impl Script {
        fn new(steps: Vec<Result<&str, io::ErrorKind>>) -> Script {
            Script(steps.into_iter().map(|s| s.map(Vec::from)).collect())
        }
    }

    impl io::Read for Script {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            unreachable!("read_line reads through the BufRead half only")
        }
    }

    impl BufRead for Script {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if let Some(&Err(kind)) = self.0.front() {
                self.0.pop_front();
                return Err(kind.into());
            }
            Ok(match self.0.front() {
                Some(Ok(chunk)) => chunk,
                _ => &[],
            })
        }

        fn consume(&mut self, n: usize) {
            if let Some(Ok(chunk)) = self.0.front_mut() {
                chunk.drain(..n);
                if chunk.is_empty() {
                    self.0.pop_front();
                }
            }
        }
    }

    /// Reads until a result other than `Timeout`, returning each
    /// result with the buffer's contents at that point.
    fn lines(script: Vec<Result<&str, io::ErrorKind>>) -> Vec<(LineRead, String)> {
        let mut r = Script::new(script);
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        loop {
            let got = read_line(&mut r, &mut buf).expect("no hard error");
            seen.push((got, String::from_utf8_lossy(&buf).into_owned()));
            match got {
                LineRead::Line => buf.clear(),
                LineRead::Timeout => {}
                LineRead::Eof | LineRead::TooLong => return seen,
            }
        }
    }

    #[test]
    fn read_line_keeps_a_partial_line_across_a_timeout() {
        use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        assert_eq!(
            lines(vec![
                Ok("PI"),
                Err(WouldBlock),
                Err(Interrupted),
                Ok("N"),
                Err(TimedOut),
                Ok("G\nQUERY q1\n"),
            ]),
            vec![
                (LineRead::Timeout, "PI".into()),
                (LineRead::Timeout, "PIN".into()),
                (LineRead::Line, "PING".into()),
                (LineRead::Line, "QUERY q1".into()),
                (LineRead::Eof, String::new()),
            ]
        );
    }

    #[test]
    fn read_line_strips_one_trailing_cr() {
        assert_eq!(
            lines(vec![Ok("PING\r\nA\rB\n\r\r\n")]),
            vec![
                (LineRead::Line, "PING".into()),
                (LineRead::Line, "A\rB".into()),
                (LineRead::Line, "\r".into()),
                (LineRead::Eof, String::new()),
            ]
        );
    }

    #[test]
    fn read_line_reports_eof_mid_line_with_the_rest_kept() {
        assert_eq!(
            lines(vec![Ok("PING\nSTAT"), Ok("U")]),
            vec![
                (LineRead::Line, "PING".into()),
                (LineRead::Eof, "STATU".into()),
            ]
        );
        let mut r = Script::new(vec![Err(io::ErrorKind::ConnectionReset)]);
        let err = read_line(&mut r, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn read_line_caps_a_line_at_max_line_bytes() {
        let at_cap = format!("{}\n", "x".repeat(MAX_LINE_BYTES));
        let got = lines(vec![Ok(&at_cap[..1000]), Ok(&at_cap[1000..])]);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, LineRead::Line);
        assert_eq!(got[0].1.len(), MAX_LINE_BYTES);
        // One byte over, spread over chunks and with no LF in sight: the
        // reader gives up at the cap instead of waiting for the end.
        let chunk = "x".repeat(MAX_LINE_BYTES / 16);
        let mut script = vec![Ok(chunk.as_str()); 16];
        script.extend([Ok("x"), Ok("\nPING\n")]);
        let got = lines(script);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, LineRead::TooLong);
    }
}
