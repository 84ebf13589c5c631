//! The threaded TCP server: sessions, deadlines, backpressure,
//! admission control, graceful drain, and abrupt (chaos) death.
//!
//! # Threading model
//!
//! - **acceptor** — one thread polling the nonblocking listener. Each
//!   accepted connection becomes a *session* with two small-stack
//!   threads: a **reader** parsing commands off the socket and a
//!   **sender** draining the session's bounded [`Outbound`] queue.
//! - **writer** — exactly one thread owns all mutation of the shared
//!   [`Store`]. Readers submit write jobs over an mpsc channel; `QUERY`
//!   and `STATUS` read under the shared lock without queueing. Single
//!   ownership of the commit path is what makes WAL append order, ack
//!   bookkeeping, and standing-query notification race-free.
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
//! - **Graceful shutdown** ([`ServerHandle::shutdown`]): stop accepting,
//!   drain queued jobs (their acks still go out), checkpoint durable
//!   graphs, `GOODBYE shutting-down` to every session.
//! - **Abrupt death** ([`ServerHandle::kill`], or an armed
//!   [`CrashPoint`] firing mid-commit): simulated `kill -9` — no drain,
//!   no checkpoint, no goodbyes; sockets are reset and the store is
//!   dropped where it stands. The chaos harness restarts on the same
//!   directory and recovery must hold.

use crate::dedup::DedupEntry;
use crate::outbound::{OutMsg, Outbound};
use crate::protocol::{self, Command, ErrCode, MAX_LINE_BYTES, WIRE_VERSION};
use crate::store::{Store, UpdateError};
use incgraph_durable::{encode_record, CrashPoint};
use incgraph_graph::{NodeId, UpdateBatch};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tunables of one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Socket read poll interval — the granularity at which idle and
    /// shutdown checks run. Short keeps reaping prompt; it is *not* the
    /// idle deadline itself.
    pub read_poll: Duration,
    /// Deadline for one socket write before the peer counts as dead.
    pub write_timeout: Duration,
    /// A session silent this long is reaped.
    pub idle_timeout: Duration,
    /// Max concurrent sessions; beyond it new connections get `BUSY`.
    pub max_sessions: usize,
    /// Max queued writer jobs before write commands get `BUSY`.
    pub max_pending: usize,
    /// Retry hint on `BUSY` lines, milliseconds.
    pub retry_after_ms: u64,
    /// Outbound queue soft cap (delta coalescing starts here).
    pub out_soft: usize,
    /// Outbound queue hard cap (slow-consumer disconnect).
    pub out_hard: usize,
    /// Whether the wire `SHUTDOWN` command is honored.
    pub allow_remote_shutdown: bool,
    /// Micro-batch coalescing: buffer up to this many committed update
    /// batches before running one coalesced standing-query notification
    /// pass. `1` (the default) notifies after every batch, the
    /// historical behavior. Commit, WAL fsync, and `ACK` always stay
    /// per-batch — coalescing only amortizes the per-query incremental
    /// fixpoint and `DELTA` push.
    pub flush_ops: usize,
    /// Micro-batch coalescing deadline: a partial buffer older than
    /// this flushes even if `flush_ops` was never reached, bounding
    /// `DELTA` staleness under a trickle of updates.
    pub flush_window: Duration,
    /// Name of the durable graph subject to replication (`serve` sets
    /// this to the graph it mounted). `None` disables every replication
    /// verb on this server.
    pub repl_graph: Option<String>,
    /// Start as a replica tailing this primary; the server then refuses
    /// writes (`ERR not-primary`) until promoted.
    pub replica_of: Option<SocketAddr>,
    /// Emit a `DIGEST` divergence probe to every replica after this many
    /// shipped records (0 disables).
    pub digest_every: u64,
    /// Semi-sync window: a client ack held back waiting for replica
    /// watermarks is released after this long even if no watermark
    /// arrived (availability over strict replica durability — the
    /// failover oracle pins this high so acks imply replication).
    pub repl_ack_timeout: Duration,
    /// A replica whose tail request lags the primary by more than this
    /// many records is bootstrapped with a snapshot instead. Keep it
    /// under `out_hard`: the tail catch-up is pushed through the
    /// replica's bounded outbound queue in one burst.
    pub snapshot_lag: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            read_poll: Duration::from_millis(50),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            max_sessions: 4096,
            max_pending: 1024,
            retry_after_ms: 50,
            out_soft: 64,
            out_hard: 1024,
            allow_remote_shutdown: true,
            flush_ops: 1,
            flush_window: Duration::from_millis(10),
            repl_graph: None,
            replica_of: None,
            digest_every: 32,
            repl_ack_timeout: Duration::from_secs(2),
            snapshot_lag: 512,
        }
    }
}

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const KILLED: u8 = 2;

/// Replication role of a running server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes; ships them to attached replicas.
    Primary,
    /// Read-only; tails a primary and refuses writes.
    Replica,
    /// A deposed ex-primary that saw a higher epoch: read-only forever
    /// (restart as a replica to rejoin).
    Fenced,
}

impl Role {
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Role::Primary => 0,
            Role::Replica => 1,
            Role::Fenced => 2,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Role {
        match v {
            1 => Role::Replica,
            2 => Role::Fenced,
            _ => Role::Primary,
        }
    }

    /// Wire name (`STATUS role=…`).
    pub fn name(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Replica => "replica",
            Role::Fenced => "fenced",
        }
    }
}

pub(crate) enum Job {
    Graph {
        name: String,
        nodes: usize,
        directed: bool,
        out: Arc<Outbound>,
    },
    Register {
        sid: u64,
        qid: String,
        graph: String,
        class: String,
        source: NodeId,
        pattern_seed: u64,
        out: Arc<Outbound>,
    },
    Unregister {
        sid: u64,
        qid: String,
        out: Arc<Outbound>,
    },
    Plan {
        sid: u64,
        qid: String,
        graph: String,
        pattern_seed: u64,
        text: String,
        out: Arc<Outbound>,
    },
    Unplan {
        sid: u64,
        qid: String,
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
    /// A replica's handshake: validate, fence or feed (catch-up tail or
    /// snapshot), and register the session as a replication sink.
    Sync {
        sid: u64,
        graph: String,
        epoch: u64,
        from_seq: u64,
        crc: Option<u32>,
        directed: bool,
        nodes: usize,
        force: bool,
        out: Arc<Outbound>,
    },
    /// A replica reports `seq` fsynced; gated client acks may release.
    Watermark {
        sid: u64,
        seq: u64,
    },
    /// Operator promotion of this (replica) node to primary.
    Promote {
        out: Arc<Outbound>,
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
    /// Replica-side: adopt the primary's (higher) epoch on tail sync.
    AdoptEpoch {
        graph: String,
        epoch: u64,
        done: mpsc::Sender<Result<(), String>>,
    },
}

struct SessionSlot {
    out: Arc<Outbound>,
    stream: TcpStream,
}

pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    /// `None` once the writer dropped the store (drain finished or
    /// killed) — that drop releases the durable `LOCK` file.
    store: RwLock<Option<Store>>,
    pub(crate) jobs: mpsc::Sender<Job>,
    pub(crate) pending: AtomicUsize,
    phase: AtomicU8,
    sessions: Mutex<HashMap<u64, SessionSlot>>,
    next_sid: AtomicU64,
    /// Current [`Role`], as `Role::as_u8`.
    pub(crate) role: AtomicU8,
    /// Primary: committed-minus-min-watermark over live sinks. Replica:
    /// updated by the tail thread from `DIGEST`/`SHIP` arrivals.
    pub(crate) repl_lag: AtomicU64,
    /// Live replication sinks (primary side), for `STATUS`.
    pub(crate) repl_sinks: AtomicUsize,
}

impl Shared {
    pub(crate) fn phase(&self) -> u8 {
        self.phase.load(Ordering::Acquire)
    }

    pub(crate) fn is_running(&self) -> bool {
        self.phase() == RUNNING
    }

    pub(crate) fn role(&self) -> Role {
        Role::from_u8(self.role.load(Ordering::Acquire))
    }

    pub(crate) fn set_role(&self, role: Role) {
        self.role.store(role.as_u8(), Ordering::Release);
    }

    fn shared_role_refuses_writes(&self) -> bool {
        self.role() != Role::Primary
    }

    pub(crate) fn store(&self) -> std::sync::RwLockReadGuard<'_, Option<Store>> {
        self.store.read().unwrap_or_else(|e| e.into_inner())
    }

    fn store_mut(&self) -> std::sync::RwLockWriteGuard<'_, Option<Store>> {
        self.store.write().unwrap_or_else(|e| e.into_inner())
    }

    fn sessions(&self) -> std::sync::MutexGuard<'_, HashMap<u64, SessionSlot>> {
        self.sessions.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Abrupt death: reset every session socket and drop queued output.
    fn kill_sessions(&self) {
        let mut sessions = self.sessions();
        for (_, slot) in sessions.drain() {
            slot.out.close_now();
            let _ = slot.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Marker type: the namespace for [`Server::start`].
pub struct Server;

/// Handle to a running server: address, lifecycle, chaos hooks.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    repl: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and writer threads, and returns the
    /// handle. The store moves behind the handle's shared lock; dropping
    /// the handle (or [`kill`](ServerHandle::kill) /
    /// [`shutdown`](ServerHandle::shutdown)) releases it.
    pub fn start(store: Store, cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (tx, rx) = mpsc::channel::<Job>();
        let primary = cfg.replica_of;
        let initial_role = if primary.is_some() {
            Role::Replica
        } else {
            Role::Primary
        };
        let shared = Arc::new(Shared {
            cfg,
            store: RwLock::new(Some(store)),
            jobs: tx,
            pending: AtomicUsize::new(0),
            phase: AtomicU8::new(RUNNING),
            sessions: Mutex::new(HashMap::new()),
            next_sid: AtomicU64::new(1),
            role: AtomicU8::new(initial_role.as_u8()),
            repl_lag: AtomicU64::new(0),
            repl_sinks: AtomicUsize::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("svc-accept".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        let writer = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("svc-writer".into())
                .spawn(move || writer_loop(rx, shared))?
        };
        let repl = match primary {
            Some(primary_addr) => Some({
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name("svc-repl".into())
                    .spawn(move || crate::repl::replica_loop(shared, primary_addr))?
            }),
            None => None,
        };
        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            writer: Some(writer),
            repl,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a graceful drain and blocks until it finishes: no new
    /// connections or write jobs, queued jobs processed (their acks
    /// delivered), durable graphs checkpointed, every session told
    /// `GOODBYE shutting-down`, store dropped.
    pub fn shutdown(&mut self) {
        self.shared
            .phase
            .compare_exchange(RUNNING, DRAINING, Ordering::AcqRel, Ordering::Acquire)
            .ok();
        self.join();
    }

    /// Simulated `kill -9`: sockets reset, queued work and output
    /// dropped, **no** checkpoint and no goodbyes. The store is dropped
    /// where it stands, so a durable graph's next opener exercises real
    /// recovery.
    pub fn kill(&mut self) {
        self.shared.phase.store(KILLED, Ordering::Release);
        self.shared.kill_sessions();
        self.join();
    }

    /// Blocks until the server exits by itself (wire `SHUTDOWN`, or an
    /// injected crash firing).
    pub fn wait(&mut self) {
        self.join();
    }

    /// Whether the server has fully stopped.
    pub fn is_stopped(&self) -> bool {
        self.writer.is_none() || self.writer.as_ref().is_some_and(|w| w.is_finished())
    }

    /// Arms a one-shot [`CrashPoint`] on a durable graph: the next
    /// commit that reaches the point dies as if the process were killed
    /// there. Returns `false` if the graph is unknown or not durable.
    pub fn arm_crash(&self, graph: &str, point: CrashPoint) -> bool {
        match self.shared.store_mut().as_mut() {
            Some(store) => store.arm_crash(graph, Some(point)),
            None => false,
        }
    }

    /// Whether the store entered degraded read-only mode.
    pub fn is_degraded(&self) -> bool {
        self.shared.store().as_ref().is_some_and(Store::is_degraded)
    }

    /// Live session count (tests and ops).
    pub fn session_count(&self) -> usize {
        self.shared.sessions().len()
    }

    /// Current replication role.
    pub fn role(&self) -> Role {
        self.shared.role()
    }

    /// Committed-minus-acknowledged replication lag (primary side).
    pub fn repl_lag(&self) -> u64 {
        self.shared.repl_lag.load(Ordering::Relaxed)
    }

    fn join(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
        if let Some(h) = self.repl.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.writer.is_some() || self.acceptor.is_some() {
            // Leaked handle: abrupt stop so the process can exit.
            self.shared.phase.store(KILLED, Ordering::Release);
            self.shared.kill_sessions();
            self.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.phase() != RUNNING {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                incgraph_obs::counter("service.accepts", 1);
                let sid = shared.next_sid.fetch_add(1, Ordering::Relaxed);
                if !spawn_session(&shared, stream, sid) {
                    incgraph_obs::counter("service.accept_shed", 1);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
    // Dropping the listener closes the socket; in-flight sessions are
    // finished by their own threads (or killed by the handle).
}

fn spawn_session(shared: &Arc<Shared>, stream: TcpStream, sid: u64) -> bool {
    let cfg = &shared.cfg;
    {
        let sessions = shared.sessions();
        if sessions.len() >= cfg.max_sessions {
            // Shed at the door with the same BUSY shape commands get —
            // on a throwaway thread with a tight timeout, so a peer
            // that connects and never reads cannot stall the accept
            // loop for the full write_timeout per shed connection.
            let mut s = stream;
            let retry_after_ms = cfg.retry_after_ms;
            let spawned = thread::Builder::new()
                .name("svc-shed".into())
                .stack_size(64 * 1024)
                .spawn(move || {
                    let _ = s.set_write_timeout(Some(Duration::from_millis(100)));
                    let _ = s.write_all(format!("BUSY {retry_after_ms}\n").as_bytes());
                    let _ = s.shutdown(Shutdown::Both);
                });
            // If the spawn fails the socket just drops; the client sees
            // a reset instead of BUSY, which is still a shed.
            drop(spawned);
            return false;
        }
    }
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.read_poll));
    let out = Arc::new(Outbound::new(
        cfg.out_soft,
        cfg.out_hard,
        shared
            .store()
            .as_ref()
            .map(|s| s.limits().max_delta_entries)
            .unwrap_or(256),
    ));
    let write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return false,
    };
    shared.sessions().insert(
        sid,
        SessionSlot {
            out: Arc::clone(&out),
            stream: match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return false,
            },
        },
    );
    incgraph_obs::gauge("service.sessions", shared.sessions().len() as u64);
    let reader = {
        let shared = Arc::clone(shared);
        let out = Arc::clone(&out);
        thread::Builder::new()
            .name(format!("svc-r{sid}"))
            .stack_size(256 * 1024)
            .spawn(move || {
                reader_loop(shared, stream, sid, out);
            })
    };
    let sender = {
        let shared = Arc::clone(shared);
        thread::Builder::new()
            .name(format!("svc-w{sid}"))
            .stack_size(256 * 1024)
            .spawn(move || {
                sender_loop(shared, write_stream, out);
            })
    };
    if reader.is_err() || sender.is_err() {
        shared.sessions().remove(&sid);
        return false;
    }
    true
}

/// One bounded line read. `buf` accumulates across timeout polls so a
/// slowly-arriving line is not lost.
enum LineStatus {
    Line,
    Eof,
    Timeout,
    TooLong,
}

fn poll_line(r: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> io::Result<LineStatus> {
    loop {
        let (consumed, status) = {
            let avail = match r.fill_buf() {
                Ok(a) => a,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(LineStatus::Timeout)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if avail.is_empty() {
                return Ok(LineStatus::Eof);
            }
            match avail.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    buf.extend_from_slice(&avail[..pos]);
                    (pos + 1, Some(LineStatus::Line))
                }
                None => {
                    buf.extend_from_slice(avail);
                    (avail.len(), None)
                }
            }
        };
        r.consume(consumed);
        if buf.len() > MAX_LINE_BYTES {
            return Ok(LineStatus::TooLong);
        }
        if let Some(s) = status {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(s);
        }
    }
}

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

fn reader_loop(shared: Arc<Shared>, stream: TcpStream, sid: u64, out: Arc<Outbound>) {
    let mut reader = BufReader::with_capacity(16 * 1024, stream);
    let mut ctx = SessionCtx {
        sid,
        token: None,
        out,
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut last_activity = Instant::now();
    loop {
        match shared.phase() {
            RUNNING => {}
            DRAINING => break, // the writer sends the GOODBYE after the drain
            _ => break,        // killed: socket is already reset
        }
        if ctx.out.is_closing() {
            break; // slow-consumer or BYE already decided the ending
        }
        match poll_line(&mut reader, &mut buf) {
            Ok(LineStatus::Timeout) => {
                if last_activity.elapsed() >= shared.cfg.idle_timeout {
                    incgraph_obs::counter("service.reaped", 1);
                    ctx.out.push_goodbye("idle-timeout");
                    break;
                }
            }
            Ok(LineStatus::Eof) | Err(_) => break,
            Ok(LineStatus::TooLong) => {
                ctx.err(ErrCode::TooLarge, "line exceeds 1 MiB");
                ctx.out.push_goodbye("protocol-error");
                break;
            }
            Ok(LineStatus::Line) => {
                last_activity = Instant::now();
                let line = String::from_utf8_lossy(&buf).into_owned();
                buf.clear();
                if !handle_line(&shared, &mut ctx, &line, &mut reader, &mut last_activity) {
                    break;
                }
            }
        }
    }
    // Session teardown. The DropSession send must mirror `submit`'s
    // pending accounting: the writer decrements for every job received.
    shared.pending.fetch_add(1, Ordering::Relaxed);
    if shared.jobs.send(Job::DropSession { sid }).is_err() {
        shared.pending.fetch_sub(1, Ordering::Relaxed);
    }
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
                    shared.role().name(),
                    info.epoch,
                    info.last_seq,
                    shared.repl_sinks.load(Ordering::Relaxed),
                    shared.repl_lag.load(Ordering::Relaxed),
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
        Command::Graph {
            name,
            nodes,
            directed,
        } => submit(
            shared,
            ctx,
            Job::Graph {
                name,
                nodes,
                directed,
                out: Arc::clone(&ctx.out),
            },
        ),
        Command::Register {
            qid,
            graph,
            class,
            source,
            pattern_seed,
        } => submit(
            shared,
            ctx,
            Job::Register {
                sid: ctx.sid,
                qid,
                graph,
                class,
                source,
                pattern_seed,
                out: Arc::clone(&ctx.out),
            },
        ),
        Command::Unregister { qid } => submit(
            shared,
            ctx,
            Job::Unregister {
                sid: ctx.sid,
                qid,
                out: Arc::clone(&ctx.out),
            },
        ),
        Command::Plan {
            qid,
            graph,
            pattern_seed,
            text,
        } => submit(
            shared,
            ctx,
            Job::Plan {
                sid: ctx.sid,
                qid,
                graph,
                pattern_seed,
                text,
                out: Arc::clone(&ctx.out),
            },
        ),
        Command::Unplan { qid } => submit(
            shared,
            ctx,
            Job::Unplan {
                sid: ctx.sid,
                qid,
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
        Command::Sync {
            graph,
            epoch,
            from_seq,
            crc,
            directed,
            nodes,
            force,
        } => submit(
            shared,
            ctx,
            Job::Sync {
                sid: ctx.sid,
                graph,
                epoch,
                from_seq,
                crc,
                directed,
                nodes,
                force,
                out: Arc::clone(&ctx.out),
            },
        ),
        Command::Watermark { seq } => {
            // Watermarks bypass BUSY shedding: dropping one only delays
            // gated acks until the next, but a BUSY line interleaved in
            // the replication stream would be noise the replica skips.
            shared.pending.fetch_add(1, Ordering::Relaxed);
            if shared
                .jobs
                .send(Job::Watermark { sid: ctx.sid, seq })
                .is_err()
            {
                shared.pending.fetch_sub(1, Ordering::Relaxed);
            }
            true
        }
        Command::Promote => submit(
            shared,
            ctx,
            Job::Promote {
                out: Arc::clone(&ctx.out),
            },
        ),
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
        match poll_line(reader, &mut buf) {
            Ok(LineStatus::Timeout) => {
                if last_activity.elapsed() >= shared.cfg.idle_timeout {
                    incgraph_obs::counter("service.reaped", 1);
                    ctx.out.push_goodbye("idle-timeout");
                    return false;
                }
            }
            Ok(LineStatus::Eof) | Err(_) => return false,
            Ok(LineStatus::TooLong) => {
                ctx.err(ErrCode::TooLarge, "line exceeds 1 MiB");
                ctx.out.push_goodbye("protocol-error");
                return false;
            }
            Ok(LineStatus::Line) => {
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
    // The full body is read first so the stream stays framed; only then
    // is the batch judged. A non-primary refuses writes here — clients
    // redirect to the primary and retry the same sequence.
    if shared.shared_role_refuses_writes() {
        ctx.err(
            ErrCode::NotPrimary,
            &format!(
                "{} is read-only; send writes to the primary",
                shared.role().name()
            ),
        );
        return true;
    }
    // The dispatcher guarantees a HELLO preceded this, but a typed error
    // beats a panic if that invariant ever breaks: degrade to ERR and
    // keep the process up.
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
    shared.pending.fetch_add(1, Ordering::Relaxed);
    if shared.jobs.send(job).is_err() {
        shared.pending.fetch_sub(1, Ordering::Relaxed);
        ctx.err(ErrCode::ShuttingDown, "writer is gone");
    }
    true
}

/// Committed-but-unnotified ΔG batches, per graph, awaiting one
/// coalesced standing-query pass. Owned by the writer thread.
#[derive(Default)]
struct PendingNotify {
    /// `graph → applied batches`, oldest first. The graph list stays
    /// tiny (one entry per graph updated inside the window).
    by_graph: Vec<(String, Vec<incgraph_graph::AppliedBatch>)>,
    /// Total buffered batches across graphs (the `flush_ops` counter).
    batches: usize,
    /// When the oldest buffered batch was committed (the `flush_window`
    /// deadline anchor).
    oldest: Option<Instant>,
}

impl PendingNotify {
    fn push(&mut self, graph: &str, applied: incgraph_graph::AppliedBatch) {
        match self.by_graph.iter_mut().find(|(g, _)| g == graph) {
            Some((_, list)) => list.push(applied),
            None => self.by_graph.push((graph.to_string(), vec![applied])),
        }
        self.batches += 1;
        self.oldest.get_or_insert_with(Instant::now);
    }

    fn is_empty(&self) -> bool {
        self.batches == 0
    }

    fn deadline_due(&self, window: Duration) -> bool {
        self.oldest.is_some_and(|t| t.elapsed() >= window)
    }

    /// Runs the coalesced notification pass and empties the buffer.
    /// `store` is the caller's already-acquired write guard.
    fn flush(&mut self, store: &mut Store) {
        for (graph, batches) in self.by_graph.drain(..) {
            store.notify_queries(&graph, &batches);
        }
        self.batches = 0;
        self.oldest = None;
    }

    fn discard(&mut self) {
        self.by_graph.clear();
        self.batches = 0;
        self.oldest = None;
    }
}

/// One attached replication sink: the replica session's outbound queue
/// plus the highest sequence it has confirmed fsynced.
struct Sink {
    out: Arc<Outbound>,
    watermark: u64,
}

/// One client ack held back by semi-sync gating: released when every
/// live sink's watermark reaches `wal_seq`, when the last sink detaches,
/// or after `repl_ack_timeout`.
struct PendingAck {
    wal_seq: u64,
    line: String,
    out: Arc<Outbound>,
    since: Instant,
}

/// Writer-thread-owned mutable state (no locks: exactly one writer).
#[derive(Default)]
struct WriterState {
    pending_notify: PendingNotify,
    sinks: HashMap<u64, Sink>,
    pending_acks: VecDeque<PendingAck>,
    ships_since_digest: u64,
}

impl WriterState {
    /// Drops sinks whose outbound closed (slow consumer, disconnect) and
    /// publishes the live-sink count.
    fn prune_sinks(&mut self, shared: &Shared) {
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
    fn release_acks(&mut self, shared: &Shared, committed: Option<u64>) {
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
    fn broadcast(&mut self, line: &str) {
        for sink in self.sinks.values() {
            sink.out.push_line(line.to_string());
            incgraph_obs::counter("repl.ship_bytes", line.len() as u64 + 1);
        }
    }
}

fn writer_loop(rx: mpsc::Receiver<Job>, shared: Arc<Shared>) {
    let flush_ops = shared.cfg.flush_ops.max(1);
    let flush_window = shared.cfg.flush_window;
    let mut st = WriterState::default();
    loop {
        // With batches buffered, wake early enough to honor the window.
        let tick = Duration::from_millis(25);
        let timeout = match st.pending_notify.oldest {
            Some(t) => (flush_window.saturating_sub(t.elapsed())).min(tick),
            None => tick,
        };
        match rx.recv_timeout(timeout) {
            Ok(job) => {
                shared.pending.fetch_sub(1, Ordering::Relaxed);
                match shared.phase() {
                    KILLED => {
                        st.pending_notify.discard(); // simulated death
                        continue;
                    }
                    _ => {
                        if process_job(&shared, job, &mut st) == JobOutcome::Crashed {
                            // Simulated process death mid-commit.
                            st.pending_notify.discard();
                            shared.phase.store(KILLED, Ordering::Release);
                            shared.kill_sessions();
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => match shared.phase() {
                KILLED => break,
                DRAINING
                    if shared.pending.load(Ordering::Relaxed) == 0
                        && st.pending_notify.is_empty() =>
                {
                    break
                }
                _ => {}
            },
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        // Timed-out gated acks release on the tick even when no
        // watermark arrives (sink death, partition).
        if !st.pending_acks.is_empty() || !st.sinks.is_empty() {
            st.release_acks(&shared, None);
        }
        // Flush outside job processing so both the count trigger and the
        // deadline trigger go through the same path.
        if !st.pending_notify.is_empty()
            && (st.pending_notify.batches >= flush_ops
                || st.pending_notify.deadline_due(flush_window))
        {
            let mut guard = shared.store_mut();
            match guard.as_mut() {
                Some(store) => st.pending_notify.flush(store),
                None => st.pending_notify.discard(),
            }
        }
    }
    // Exit path. Graceful: checkpoint, then goodbye every session.
    // Killed: drop everything where it stands.
    let killed = shared.phase() == KILLED;
    {
        let mut guard = shared.store_mut();
        if let Some(store) = guard.as_mut() {
            if !killed {
                // Queued updates were acked; their DELTAs must go out
                // before the goodbyes — and gated acks were committed,
                // so they go out too.
                for ack in st.pending_acks.drain(..) {
                    ack.out.push_line(ack.line);
                }
                st.pending_notify.flush(store);
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
        st.pending_notify.discard();
        return JobOutcome::Done;
    };
    // Any non-commit job flushes buffered notifications first: a
    // `REGISTER` snapshots the committed graph, so a standing query
    // created mid-window must not later receive a DELTA for batches its
    // initial digest already includes (double-apply).
    if !st.pending_notify.is_empty()
        && !matches!(
            job,
            Job::Update { .. } | Job::ReplApply { .. } | Job::Watermark { .. }
        )
    {
        st.pending_notify.flush(store);
    }
    match job {
        Job::Graph {
            name,
            nodes,
            directed,
            out,
        } => {
            match store.open_graph(&name, nodes, directed) {
                Ok(()) => out.push_line(format!("OK GRAPH {name}")),
                Err((c, d)) => out.push_line(format!("ERR {c} {d}")),
            };
        }
        Job::Register {
            sid,
            qid,
            graph,
            class,
            source,
            pattern_seed,
            out,
        } => {
            match store.register(
                sid,
                &qid,
                &graph,
                &class,
                source,
                pattern_seed,
                Arc::clone(&out),
            ) {
                Ok(len) => out.push_line(format!("OK REGISTER {qid} {len}")),
                Err((c, d)) => out.push_line(format!("ERR {c} {d}")),
            };
        }
        Job::Unregister { sid, qid, out } => {
            match store.unregister(sid, &qid) {
                Ok(()) => out.push_line(format!("OK UNREGISTER {qid}")),
                Err((c, d)) => out.push_line(format!("ERR {c} {d}")),
            };
        }
        Job::Plan {
            sid,
            qid,
            graph,
            pattern_seed,
            text,
            out,
        } => {
            match store.register_plan(sid, &qid, &graph, pattern_seed, &text, Arc::clone(&out)) {
                Ok(rows) => out.push_line(format!("OK PLAN {qid} {rows}")),
                Err((c, d)) => out.push_line(format!("ERR {c} {d}")),
            };
        }
        Job::Unplan { sid, qid, out } => {
            match store.unregister_plan(sid, &qid) {
                Ok(()) => out.push_line(format!("OK UNPLAN {qid}")),
                Err((c, d)) => out.push_line(format!("ERR {c} {d}")),
            };
        }
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
                // The ACK rides the per-batch commit + fsync; only the
                // standing-query notification is deferred to the flush.
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
                if let Some(applied) = applied {
                    st.pending_notify.push(&graph, applied);
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
        Job::Sync {
            sid,
            graph,
            epoch,
            from_seq,
            crc,
            directed,
            nodes,
            force,
            out,
        } => process_sync(
            shared, store, st, sid, &graph, epoch, from_seq, crc, directed, nodes, force, out,
        ),
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
        Job::Promote { out } => match shared.role() {
            Role::Replica => {
                let Some(graph) = shared.cfg.repl_graph.clone() else {
                    out.push_line(format!(
                        "ERR {} no replicated graph on this server",
                        ErrCode::BadCommand
                    ));
                    return JobOutcome::Done;
                };
                match store.bump_epoch(&graph) {
                    Ok(epoch) => {
                        shared.set_role(Role::Primary);
                        incgraph_obs::counter("repl.promotions", 1);
                        out.push_line(format!("OK PROMOTE {epoch}"));
                    }
                    Err((c, d)) => {
                        out.push_line(format!("ERR {c} {d}"));
                    }
                }
            }
            Role::Primary => {
                out.push_line(format!("ERR {} already primary", ErrCode::BadCommand));
            }
            Role::Fenced => {
                out.push_line(format!(
                    "ERR {} node is fenced; restart it as a replica to rejoin",
                    ErrCode::BadCommand
                ));
            }
        },
        Job::ReplApply {
            graph,
            seq,
            identity,
            batch,
            done,
        } => {
            if shared.role() != Role::Replica {
                // A promotion raced the stream: drop the ship on the
                // floor — this node now owns its own history.
                let _ = done.send(Err(format!("{} promoted mid-stream", ErrCode::NotPrimary)));
                return JobOutcome::Done;
            }
            let identity_ref = identity.as_ref().map(|(t, c)| (t.as_str(), *c));
            match store.apply_replicated(&graph, seq, identity_ref, &batch) {
                Ok(applied) => {
                    st.pending_notify.push(&graph, applied);
                    let _ = done.send(Ok(seq));
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
            if shared.role() != Role::Replica {
                let _ = done.send(Err(format!("{} promoted mid-stream", ErrCode::NotPrimary)));
                return JobOutcome::Done;
            }
            match store.adopt_snapshot(&graph, &payload, epoch, &acks) {
                Ok(covered) => {
                    let _ = done.send(Ok(covered));
                }
                Err((c, d)) => {
                    let _ = done.send(Err(format!("{c} {d}")));
                }
            }
        }
        Job::AdoptEpoch { graph, epoch, done } => {
            if shared.role() != Role::Replica {
                let _ = done.send(Err(format!("{} promoted mid-stream", ErrCode::NotPrimary)));
                return JobOutcome::Done;
            }
            match store.adopt_epoch(&graph, epoch) {
                Ok(()) => {
                    let _ = done.send(Ok(()));
                }
                Err((c, d)) => {
                    let _ = done.send(Err(format!("{c} {d}")));
                }
            }
        }
    }
    JobOutcome::Done
}

/// Handles one `SYNC` handshake on the writer: fencing, shape
/// validation, tail-vs-snapshot decision, catch-up push, and sink
/// registration. Epoch comparison comes first — a higher epoch fences
/// this node no matter what else is wrong with the request.
#[allow(clippy::too_many_arguments)]
fn process_sync(
    shared: &Arc<Shared>,
    store: &mut Store,
    st: &mut WriterState,
    sid: u64,
    graph: &str,
    epoch: u64,
    from_seq: u64,
    crc: Option<u32>,
    directed: bool,
    nodes: usize,
    force: bool,
    out: Arc<Outbound>,
) {
    if shared.cfg.repl_graph.as_deref() != Some(graph) {
        out.push_line(format!(
            "ERR {} {graph} is not replicated on this server",
            ErrCode::UnknownGraph
        ));
        return;
    }
    let Some(info) = store.repl_info(graph) else {
        out.push_line(format!(
            "ERR {} {graph} is not durable",
            ErrCode::UnknownGraph
        ));
        return;
    };
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
        out.push_line(format!(
            "ERR {} this node is at epoch {} and is deposed",
            ErrCode::StaleEpoch,
            info.epoch
        ));
        return;
    }
    if shared.role() != Role::Primary {
        out.push_line(format!(
            "ERR {} {} does not serve the replication stream",
            ErrCode::NotPrimary,
            shared.role().name()
        ));
        return;
    }
    if info.directed != directed || info.nodes != nodes {
        out.push_line(format!(
            "ERR {} {graph} is {} with {} nodes",
            ErrCode::GraphMismatch,
            if info.directed {
                "directed"
            } else {
                "undirected"
            },
            info.nodes
        ));
        return;
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
        match store.wal_catchup(graph, from_seq) {
            Ok((crc_at_from, ships)) => {
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
            Err((c, d)) => {
                out.push_line(format!("ERR {c} {d}"));
                return;
            }
        }
    }
    if snap {
        let Some((snap_seq, payload, acks)) = store.encode_snapshot(graph) else {
            out.push_line(format!(
                "ERR {} {graph} cannot be snapshotted",
                ErrCode::Store
            ));
            return;
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
        st.sinks.insert(
            sid,
            Sink {
                out,
                watermark: snap_seq,
            },
        );
    } else {
        out.push_line(format!("OK SYNC tail {} {}", info.epoch, info.last_seq));
        for ship in &tail_ships {
            let identity = ship.identity.as_ref().map(|(t, c)| (t.as_str(), *c));
            out.push_line(protocol::format_ship(ship.seq, identity, &ship.record));
        }
        st.sinks.insert(
            sid,
            Sink {
                out,
                watermark: from_seq,
            },
        );
    }
    shared.repl_sinks.store(st.sinks.len(), Ordering::Relaxed);
}

fn sender_loop(shared: Arc<Shared>, stream: TcpStream, out: Arc<Outbound>) {
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let mut w = BufWriter::with_capacity(16 * 1024, stream);
    loop {
        match out.pop(Duration::from_millis(50)) {
            Some(msg) => {
                let goodbye = matches!(msg, OutMsg::Goodbye(_));
                let mut line = msg.render();
                line.push('\n');
                if w.write_all(line.as_bytes()).is_err() {
                    out.close_now();
                    break;
                }
                if goodbye {
                    let _ = w.flush();
                    let _ = w.get_ref().shutdown(Shutdown::Both);
                    break;
                }
                // Flush eagerly once the queue is drained; batches of
                // queued messages ride one syscall.
                if out.is_empty() && w.flush().is_err() {
                    out.close_now();
                    break;
                }
            }
            None => {
                if out.is_done() || shared.phase() == KILLED {
                    let _ = w.flush();
                    break;
                }
                if w.flush().is_err() {
                    out.close_now();
                    break;
                }
            }
        }
    }
}
