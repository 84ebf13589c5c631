//! The threaded TCP server: configuration, roles, the shared state, the
//! acceptor, the writer thread and each session's sender. The session
//! reader lives in `session.rs`, the writer's core in `writer.rs`, and
//! the replica tail in `repl.rs`.
//!
//! # Threading model
//!
//! - **acceptor** — one thread polling the nonblocking listener. Each
//!   accepted connection becomes a *session* with two small-stack
//!   threads: a **reader** parsing commands off the socket and a
//!   **sender** draining the session's bounded [`Outbound`] queue.
//! - **writer** — exactly one thread owns all mutation of the shared
//!   [`Store`]. Readers submit write jobs over an mpsc channel; `QUERY`
//!   and `STATUS` read under the shared lock without queueing. The
//!   thread is the shell around [`WriterCore`]: it takes the write
//!   guard, reads the clock and hands each job to `WriterCore::step`,
//!   which owns the commit → ack → notify order. Single ownership of the
//!   commit path is what makes WAL append order, ack bookkeeping, and
//!   standing-query notification race-free.
//! - **notify helpers** — a notify pass over a large batch fans the
//!   graph's distinct views out to scoped helper threads that live for
//!   that pass only (`Store::notify_queries`). Apart from the mutex of
//!   the pass's view queue they take no lock: they borrow the views
//!   through the writer's write guard. Each returns its views' deltas
//!   to the writer, which pushes the `DELTA`s in the serial path's
//!   order.
//!
//! # How the writer ends
//!
//! - **Graceful shutdown** ([`ServerHandle::shutdown`]): stop accepting,
//!   drain queued jobs (their acks still go out), checkpoint durable
//!   graphs, `GOODBYE shutting-down` to every session.
//! - **Abrupt death** ([`ServerHandle::kill`], or an armed
//!   [`CrashPoint`] firing mid-commit): simulated `kill -9` — no drain,
//!   no checkpoint, no goodbyes; sockets are reset and the store is
//!   dropped where it stands. The chaos harness restarts on the same
//!   directory and recovery must hold.

use crate::outbound::{OutMsg, Outbound};
use crate::session::reader_loop;
use crate::store::Store;
use crate::writer::{Job, JobOutcome, Status, WriterCore};
use incgraph_durable::CrashPoint;
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
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
            repl_graph: None,
            replica_of: None,
            digest_every: 32,
            repl_ack_timeout: Duration::from_secs(2),
            snapshot_lag: 512,
        }
    }
}
pub(crate) const RUNNING: u8 = 0;
pub(crate) const DRAINING: u8 = 1;
pub(crate) const KILLED: u8 = 2;

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
    /// Wire name (`STATUS role=…`).
    pub fn name(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Replica => "replica",
            Role::Fenced => "fenced",
        }
    }
}
pub(crate) struct SessionSlot {
    pub(crate) out: Arc<Outbound>,
    stream: TcpStream,
}

pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    /// `None` once the writer dropped the store (drain finished or
    /// killed) — that drop releases the durable `LOCK` file.
    store: RwLock<Option<Store>>,
    jobs: mpsc::Sender<Job>,
    pub(crate) pending: AtomicUsize,
    pub(crate) phase: AtomicU8,
    sessions: Mutex<HashMap<u64, SessionSlot>>,
    next_sid: AtomicU64,
    /// The role and replication gauges the writer publishes.
    pub(crate) status: Arc<Status>,
}

impl Shared {
    pub(crate) fn phase(&self) -> u8 {
        self.phase.load(Ordering::Acquire)
    }

    pub(crate) fn is_running(&self) -> bool {
        self.phase() == RUNNING
    }

    pub(crate) fn store(&self) -> std::sync::RwLockReadGuard<'_, Option<Store>> {
        self.store.read().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn store_mut(&self) -> std::sync::RwLockWriteGuard<'_, Option<Store>> {
        self.store.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Hands `job` to the writer, counted in `pending` (the writer
    /// decrements for every job it receives). `false` when the writer is
    /// gone and the job was dropped.
    pub(crate) fn send_job(&self, job: Job) -> bool {
        self.pending.fetch_add(1, Ordering::Relaxed);
        if self.jobs.send(job).is_err() {
            self.pending.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    pub(crate) fn sessions(&self) -> std::sync::MutexGuard<'_, HashMap<u64, SessionSlot>> {
        self.sessions.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Abrupt death: reset every session socket and drop queued output.
    pub(crate) fn kill_sessions(&self) {
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
        let status = Arc::new(Status::new(match primary {
            Some(_) => Role::Replica,
            None => Role::Primary,
        }));
        let core = WriterCore::new(&cfg, Arc::clone(&status));
        let shared = Arc::new(Shared {
            cfg,
            store: RwLock::new(Some(store)),
            jobs: tx,
            pending: AtomicUsize::new(0),
            phase: AtomicU8::new(RUNNING),
            sessions: Mutex::new(HashMap::new()),
            next_sid: AtomicU64::new(1),
            status,
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
                .spawn(move || writer_loop(rx, shared, core))?
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
        self.shared.status.role()
    }

    /// Committed-minus-acknowledged replication lag (primary side).
    pub fn repl_lag(&self) -> u64 {
        self.shared.status.repl_lag.load(Ordering::Relaxed)
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

/// The writer thread: the shell around [`WriterCore`]. It hands each job
/// to `step` with the time and the store's write guard, ticks the core
/// when the queue is idle, and owns both endings (see the module docs).
fn writer_loop(rx: mpsc::Receiver<Job>, shared: Arc<Shared>, mut core: WriterCore) {
    loop {
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(job) => {
                shared.pending.fetch_sub(1, Ordering::Relaxed);
                if shared.phase() == KILLED {
                    continue; // simulated death
                }
                let mut guard = shared.store_mut();
                let outcome = guard.as_mut().map(|s| core.step(s, Instant::now(), job));
                drop(guard);
                if outcome == Some(JobOutcome::Crashed) {
                    shared.phase.store(KILLED, Ordering::Release);
                    shared.kill_sessions();
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => match shared.phase() {
                KILLED => break,
                DRAINING if shared.pending.load(Ordering::Relaxed) == 0 => break,
                _ => core.tick(Instant::now()),
            },
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let killed = shared.phase() == KILLED;
    {
        let mut guard = shared.store_mut();
        if let Some(store) = guard.as_mut().filter(|_| !killed) {
            // Acks held for the replica were committed, so they go out
            // before the goodbyes.
            for ack in core.pending_acks.drain(..) {
                ack.out.push_line(ack.line);
            }
            store.checkpoint_all();
        }
        // Dropping the store releases the durable LOCK file.
        *guard = None;
    }
    if !killed {
        for slot in shared.sessions().values() {
            slot.out.push_goodbye("shutting-down");
        }
    }
    shared
        .phase
        .store(if killed { KILLED } else { DRAINING }, Ordering::Release);
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
