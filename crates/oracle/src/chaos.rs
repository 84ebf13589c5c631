//! Network-fault oracle for the incremental graph service.
//!
//! One harness drives real [`Server`]s with concurrent exactly-once
//! clients under one of two fault schedules:
//!
//! * [`Schedule::Restarts`] — one store behind a byte-cutting TCP proxy,
//!   killed and restarted `kills` times. Even kills arm a random
//!   [`CrashPoint`], so the death lands mid-commit; odd kills are abrupt
//!   [`ServerHandle::kill`]s wherever the server stands.
//! * [`Schedule::Failover`] — per crash point, a fresh primary→replica
//!   pair whose semi-sync ack timeout is pinned far beyond the run (so
//!   every `ACK` implies the replica fsynced the batch). The primary
//!   dies at the armed point, the replica is promoted, and the clients
//!   are redirected to it.
//!
//! Deaths are keyed to progress, not to the clock: each lands at a
//! seeded threshold in `(0, clients × batches)` of started batches, and
//! clients start no batch past the next threshold until the death has
//! happened — so every kill finds work outstanding.
//!
//! The paper's algorithms are deterministic, so there is exactly one
//! correct world per WAL history, and the store that survives is held to
//! equality, not plausibility:
//!
//! 1. **Exactly once**: [`audit_wal`] against the clients' ledger of
//!    `(wal_seq, fingerprint)` per `ACK`, tolerating no unacked record.
//!    A dup `ACK` carries the original `wal_seq` and clients retry until
//!    acked, so every committed record ends up acked; a double-apply or a
//!    foreign batch shows up as a committed-unacked record, a lost write
//!    as acked-but-lost.
//! 2. **The dedup table agrees**: each client token's last ack is its
//!    final sequence (shipped identities survived promotion).
//! 3. **Recovery equals genesis replay**: the essence
//!    ([`IncrementalState::save_state`]) of every one of the seven query
//!    classes after real recovery is byte-identical to a fresh state fed
//!    the WAL from an empty graph — checkpoints, replication, promotion,
//!    incremental replay and fallback recomputes may take any path, but
//!    they must all land on the same fixpoint.
//!
//! [`IncrementalState::save_state`]: incgraph_algos::IncrementalState::save_state

use crate::walcheck::{audit_wal, batch_fingerprint, wal_records, AckedBatch, WalAuditFailure};
use incgraph_algos::IncrementalState;
use incgraph_durable::{update_states, CrashPoint, DurableError, DurableOptions};
use incgraph_graph::rng::SplitMix64;
use incgraph_graph::{DynamicGraph, NodeId, UpdateBatch};
use incgraph_service::client::{Client, ClientError};
use incgraph_service::dedup;
use incgraph_service::server::{Server, ServerConfig, ServerHandle};
use incgraph_service::store::{standing_states, Store, StoreLimits, DURABLE_PATTERN_SEED};
use std::fmt::Display;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Oracle-run parameters.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed for every random decision (faults, kill thresholds).
    pub seed: u64,
    /// Concurrent client sessions.
    pub clients: usize,
    /// Batches each client must get acked (per failover cycle).
    pub batches_per_client: usize,
    /// Which faults the run injects.
    pub schedule: Schedule,
}

/// The fault schedule of a run.
#[derive(Clone, Debug)]
pub enum Schedule {
    /// One store, killed and restarted `kills` times; the proxy also cuts
    /// connections at random byte offsets when `proxy_faults` is set.
    Restarts {
        /// Abrupt server deaths injected during the run.
        kills: usize,
        /// Whether the proxy cuts connections (the kills happen either
        /// way).
        proxy_faults: bool,
    },
    /// One primary→replica failover cycle per crash point, each on fresh
    /// stores under `DIR/cycle<n>-{primary,replica}`.
    Failover {
        /// Crash points the primary dies at, one cycle each.
        points: Vec<CrashPoint>,
    },
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A05,
            clients: 5,
            batches_per_client: 10,
            schedule: Schedule::Restarts {
                kills: 3,
                proxy_faults: true,
            },
        }
    }
}

/// What the run survived, summed over every audited store.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Stores audited: one for restarts, one per failover cycle.
    pub stores: usize,
    /// Batches acked across all clients.
    pub acked: usize,
    /// Duplicate acks observed (retries of already-committed batches).
    pub dup_acks: usize,
    /// Connections the clients had to (re)build.
    pub reconnects: usize,
    /// Per abrupt server death, the batches acked when it died.
    pub acked_at_deaths: Vec<usize>,
    /// Committed batches found in the audited WALs.
    pub wal_batches: usize,
    /// Query classes whose essences were verified against genesis replay.
    pub classes_verified: usize,
}

/// An audit violation — any of these but `Harness` is a real robustness
/// bug.
#[derive(Clone, Debug)]
pub enum ChaosFailure {
    /// The surviving WAL breaks exactly-once for the clients' ledger.
    Wal(WalAuditFailure),
    /// The dedup table's last ack for a client token is not the client's
    /// final sequence (0: the token is absent).
    DedupMismatch {
        /// Client token.
        token: String,
        /// Last client sequence the table holds.
        last: u64,
        /// Sequence the client finished at.
        want: u64,
    },
    /// A server refused a client's batch with an error exactly-once
    /// rules out (`seq-gap` on a retry: it lost the client's identity).
    Refused {
        /// Client index.
        client: usize,
        /// Client-side batch sequence.
        batch: u64,
        /// Wire error code and detail.
        error: String,
    },
    /// Recovered graph shape differs from genesis replay.
    GraphMismatch,
    /// A recovered class essence differs from genesis replay.
    EssenceMismatch {
        /// Class name.
        class: &'static str,
    },
    /// A violation in the failover cycle at this crash point.
    AtPoint(CrashPoint, Box<ChaosFailure>),
    /// The harness itself could not finish (environment problem).
    Harness(String),
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosFailure::Wal(e) => write!(f, "{e}"),
            ChaosFailure::DedupMismatch { token, last, want } => write!(
                f,
                "dedup table for {token}: last ack {last}, client finished at {want}"
            ),
            ChaosFailure::Refused {
                client,
                batch,
                error,
            } => write!(f, "client {client} batch {batch}: refused with ERR {error}"),
            ChaosFailure::GraphMismatch => write!(f, "recovered graph differs from replay"),
            ChaosFailure::EssenceMismatch { class } => {
                write!(f, "{class}: recovered essence differs from genesis replay")
            }
            ChaosFailure::AtPoint(point, e) => write!(f, "[{point}] {e}"),
            ChaosFailure::Harness(s) => write!(f, "harness error: {s}"),
        }
    }
}

fn harness<E: Display>(what: &'static str) -> impl FnOnce(E) -> ChaosFailure {
    move |e| ChaosFailure::Harness(format!("{what}: {e}"))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

const GRAPH: &str = "g0";

/// Batch `k` (1-based) of client `i`: one edge unique to `(i, k)`, so
/// every batch moves the graph and genesis replay sees the full history.
/// Weight is a function of the edge (benign on re-insert).
fn client_batch(clients: usize, i: usize, k: u64) -> UpdateBatch {
    let u = i as NodeId;
    let v = (clients as u64 + k) as NodeId;
    let mut batch = UpdateBatch::new();
    batch.insert(u, v, 1 + ((u + v) % 7));
    batch
}

fn token(cycle: usize, i: usize) -> String {
    format!("cl{cycle}-{i}")
}

fn graph_nodes(cfg: &ChaosConfig) -> usize {
    cfg.clients + cfg.batches_per_client + 2
}

fn durable_options() -> DurableOptions {
    DurableOptions {
        // Frequent automatic checkpoints put MidCheckpoint/PostRename
        // crash points in the line of fire during the run.
        checkpoint_every: Some(3),
    }
}

/// Opens the durable store in `dir` and serves it, as a replica of
/// `replica_of` if given. Every node can be a replication primary; with
/// no replica attached its acks flow ungated.
fn open_node(
    dir: &Path,
    nodes: usize,
    replica_of: Option<SocketAddr>,
) -> Result<ServerHandle, ChaosFailure> {
    std::fs::create_dir_all(dir).map_err(harness("create dir"))?;
    let cfg = ServerConfig {
        read_poll: Duration::from_millis(10),
        idle_timeout: Duration::from_secs(20),
        repl_graph: Some(GRAPH.to_string()),
        replica_of,
        // Pinned far beyond the run: an ack must imply replication, not
        // a timeout. The no-acked-lost audit depends on this.
        repl_ack_timeout: Duration::from_secs(120),
        // Force tail replication from sequence 0 so the new primary's
        // WAL holds the complete history and genesis replay is total.
        snapshot_lag: u64::MAX,
        ..ServerConfig::default()
    };
    // The previous incarnation's lock releases when its store drops;
    // retry briefly to absorb scheduling slack.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let opened = Store::open_durable(
            dir,
            GRAPH,
            nodes,
            false,
            durable_options(),
            StoreLimits::default(),
        );
        match opened {
            Ok(store) => return Server::start(store, cfg).map_err(harness("server start")),
            Err(DurableError::StoreBusy { .. }) if Instant::now() < deadline => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(harness("open store")(e)),
        }
    }
}

// ---------------------------------------------------------------------
// The fault-injecting proxy
// ---------------------------------------------------------------------

struct Proxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Proxy {
    /// Starts the proxy. Each accepted connection dials the *current*
    /// target (servers change ports across restarts) and is assigned a
    /// seeded fault: faithful, or cut at a byte offset in one or both
    /// directions — partial writes, dropped acks, and mid-batch
    /// disconnects all fall out of byte-offset cuts.
    fn start(seed: u64, target: Arc<Mutex<SocketAddr>>, faults: bool) -> io::Result<Proxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("chaos-proxy".into())
            .spawn(move || {
                let mut conn_idx = 0u64;
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((client_side, _)) => {
                            conn_idx += 1;
                            let t = *lock(&target);
                            let server_side =
                                match TcpStream::connect_timeout(&t, Duration::from_millis(250)) {
                                    Ok(s) => s,
                                    Err(_) => continue, // server mid-restart
                                };
                            let mut rng = SplitMix64::seed_from_u64(
                                seed ^ conn_idx.wrapping_mul(0x9E3779B97F4A7C15),
                            );
                            // 0 = faithful; otherwise cut a direction
                            // (or both) after 5..=404 bytes.
                            let style = if faults { rng.gen_range(0..4u32) } else { 0 };
                            let mut cut = || Some(rng.gen_range(5..405usize));
                            let (c2s_cut, s2c_cut) = match style {
                                1 => (cut(), None),
                                2 => (None, cut()),
                                3 => (cut(), cut()),
                                _ => (None, None),
                            };
                            let (Ok(c2), Ok(s2)) =
                                (client_side.try_clone(), server_side.try_clone())
                            else {
                                continue;
                            };
                            // Detached pumps: they exit on EOF, cut,
                            // error, or harness stop.
                            for (from, to, cut) in
                                [(client_side, server_side, c2s_cut), (s2, c2, s2c_cut)]
                            {
                                let stop = Arc::clone(&stop2);
                                let _ = thread::Builder::new()
                                    .stack_size(64 * 1024)
                                    .spawn(move || pump(from, to, cut, stop));
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => thread::sleep(Duration::from_millis(5)),
                    }
                }
            })?;
        Ok(Proxy {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Copies bytes `from` → `to` until EOF, error, or the cut budget runs
/// out; a cut resets both directions so the client sees a raw drop.
fn pump(mut from: TcpStream, mut to: TcpStream, mut budget: Option<usize>, stop: Arc<AtomicBool>) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(25)));
    let mut buf = [0u8; 1024];
    while !stop.load(Ordering::Relaxed) {
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let allowed = budget.map_or(n, |b| n.min(b));
                if to.write_all(&buf[..allowed]).is_err() {
                    break;
                }
                if let Some(b) = &mut budget {
                    *b -= allowed;
                    if allowed < n || *b == 0 {
                        break; // the cut fires
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

// ---------------------------------------------------------------------
// Clients and the executioner
// ---------------------------------------------------------------------

/// What the clients and the executioner share.
#[derive(Default)]
struct Ledger {
    /// One entry per `ACK`, in arrival order.
    acked: Vec<AckedBatch>,
    dup_acks: usize,
    reconnects: usize,
    /// Batches whose first attempt has been sent.
    started: usize,
    /// Clients start no batch past this count until the executioner
    /// moves it.
    hold: usize,
    /// Client threads still running.
    running: usize,
    /// Per server death, the batches acked when it died.
    deaths: Vec<usize>,
}

struct Progress {
    ledger: Mutex<Ledger>,
    moved: Condvar,
}

impl Progress {
    fn update(&self, f: impl FnOnce(&mut Ledger)) {
        f(&mut lock(&self.ledger));
        self.moved.notify_all();
    }

    fn wait_until(&self, ready: impl Fn(&Ledger) -> bool) -> MutexGuard<'_, Ledger> {
        let mut l = lock(&self.ledger);
        while !ready(&l) {
            l = self.moved.wait(l).unwrap_or_else(|e| e.into_inner());
        }
        l
    }

    /// Blocks until the gate lets one more batch start, and counts it.
    fn start_batch(&self) {
        self.wait_until(|l| l.started < l.hold).started += 1;
        self.moved.notify_all();
    }
}

/// Counts a client in while its thread lives, however it ends.
struct Running(Arc<Progress>);

impl Running {
    fn new(progress: &Arc<Progress>) -> Running {
        progress.update(|l| l.running += 1);
        Running(Arc::clone(progress))
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.0.update(|l| l.running -= 1);
    }
}

/// One server death: the number of started batches it waits for, and the
/// crash point armed for it (`None`: an abrupt kill).
type Death = (usize, Option<CrashPoint>);

/// Client `i`: pushes each of its batches until acked, reconnecting to
/// whatever `target` names through whatever the network does to it.
fn client(
    i: usize,
    cycle: usize,
    cfg: &ChaosConfig,
    target: &Mutex<SocketAddr>,
    progress: &Progress,
) -> Result<(), ChaosFailure> {
    let token = token(cycle, i);
    let mut conn: Option<Client> = None;
    for k in 1..=cfg.batches_per_client as u64 {
        let batch = client_batch(cfg.clients, i, k);
        progress.start_batch();
        let mut attempts = 0usize;
        let ack = loop {
            attempts += 1;
            if attempts > 1000 {
                return Err(ChaosFailure::Harness(format!(
                    "client {i} gave up on batch {k}"
                )));
            }
            let c = match conn.as_mut() {
                Some(c) => c,
                None => {
                    progress.update(|l| l.reconnects += 1);
                    let addr = *lock(target);
                    match Client::connect_timeout(addr, &token, Duration::from_secs(2)) {
                        Ok(c) => conn.insert(c),
                        Err(_) => {
                            thread::sleep(Duration::from_millis(20));
                            continue;
                        }
                    }
                }
            };
            match c.update(GRAPH, k, &batch) {
                Ok(ack) => break ack,
                Err(ClientError::Busy { retry_after_ms }) => {
                    thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 100)));
                }
                // A dying server answers `shutting-down`, `readonly`
                // clears on restart and `not-primary` on promotion;
                // anything else breaks the retry contract.
                Err(ClientError::Server { code, detail })
                    if !matches!(code.as_str(), "shutting-down" | "readonly" | "not-primary") =>
                {
                    return Err(ChaosFailure::Refused {
                        client: i,
                        batch: k,
                        error: format!("{code} {detail}"),
                    });
                }
                Err(_) => {
                    // Disconnect, goodbye, timeout, torn reply, a node
                    // not writable yet — rebuild against the current
                    // target and retry the same sequence number.
                    conn = None;
                    thread::sleep(Duration::from_millis(15));
                }
            }
        };
        let acked = AckedBatch {
            seq: ack.wal_seq,
            fingerprint: batch_fingerprint(&batch),
        };
        progress.update(|l| {
            l.acked.push(acked);
            l.dup_acks += usize::from(ack.dup);
        });
    }
    if let Some(c) = conn {
        let _ = c.bye();
    }
    Ok(())
}

/// Runs the clients against `target` while `executioner` delivers the
/// schedule's deaths, then joins them. Clients start at most `hold`
/// batches before the executioner first moves the gate.
fn drive(
    cfg: &ChaosConfig,
    cycle: usize,
    target: &Arc<Mutex<SocketAddr>>,
    hold: usize,
    executioner: impl FnOnce(&Progress) -> Result<(), ChaosFailure>,
) -> Result<Ledger, ChaosFailure> {
    let progress = Arc::new(Progress {
        ledger: Mutex::new(Ledger {
            hold,
            ..Ledger::default()
        }),
        moved: Condvar::new(),
    });
    let mut workers = Vec::new();
    let mut failure = None;
    for i in 0..cfg.clients {
        let running = Running::new(&progress);
        let (cfg, target) = (cfg.clone(), Arc::clone(target));
        let spawned = thread::Builder::new()
            .name(format!("chaos-cl{i}"))
            .spawn(move || {
                let running = running;
                client(i, cycle, &cfg, &target, &running.0)
            });
        match spawned {
            Ok(w) => workers.push(w),
            Err(e) => {
                failure = Some(harness("spawn client")(e));
                break;
            }
        }
    }
    if failure.is_none() {
        failure = executioner(&progress).err();
    }
    progress.update(|l| l.hold = usize::MAX);
    for w in workers {
        match w.join() {
            Ok(Ok(())) => {}
            Ok(Err(f)) => failure = failure.or(Some(f)),
            Err(_) => failure = failure.or(Some(ChaosFailure::Harness("client panicked".into()))),
        }
    }
    match failure {
        Some(f) => Err(f),
        None => Ok(std::mem::take(&mut *lock(&progress.ledger))),
    }
}

/// Delivers one death once the clients have started `at` batches. With a
/// crash point, it is armed and the gate opens to `then` so that a commit
/// walks into it (a plain kill if none does within 400 ms); without, the
/// server dies abruptly where it stands. No checkpoint, no goodbyes.
fn kill_at(server: &mut ServerHandle, (at, point): Death, then: usize, progress: &Progress) {
    drop(progress.wait_until(|l| l.started >= at || l.running == 0));
    if let Some(point) = point {
        server.arm_crash(GRAPH, point);
        progress.update(|l| l.hold = then);
        let deadline = Instant::now() + Duration::from_millis(400);
        while !server.is_stopped() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
    }
    if server.is_stopped() {
        server.wait();
    } else {
        server.kill();
    }
    progress.update(|l| l.deaths.push(l.acked.len()));
}

/// Runs the configured schedule against `dir`, which must be empty or
/// absent, and audits every store it leaves behind. Returns the report,
/// or the first violation found.
pub fn run_chaos(dir: &Path, cfg: &ChaosConfig) -> Result<ChaosReport, ChaosFailure> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let total = cfg.clients * cfg.batches_per_client;
    let threshold = |rng: &mut SplitMix64| rng.gen_range(1..total.max(2));
    let mut report = ChaosReport::default();
    match &cfg.schedule {
        Schedule::Restarts {
            kills,
            proxy_faults,
        } => {
            let mut at: Vec<usize> = (0..*kills).map(|_| threshold(&mut rng)).collect();
            at.sort_unstable();
            let deaths: Vec<Death> = at
                .into_iter()
                .enumerate()
                .map(|(n, at)| {
                    let point = CrashPoint::ALL[rng.gen_range(0..CrashPoint::ALL.len())];
                    (at, (n % 2 == 0).then_some(point))
                })
                .collect();
            run_restarts(dir, cfg, &deaths, *proxy_faults, &mut report)?;
        }
        Schedule::Failover { points } => {
            for (cycle, &point) in points.iter().enumerate() {
                let death = (threshold(&mut rng), Some(point));
                run_failover_cycle(dir, cfg, cycle, death, &mut report)
                    .map_err(|f| ChaosFailure::AtPoint(point, Box::new(f)))?;
            }
        }
    }
    Ok(report)
}

fn run_restarts(
    dir: &Path,
    cfg: &ChaosConfig,
    deaths: &[Death],
    proxy_faults: bool,
    report: &mut ChaosReport,
) -> Result<(), ChaosFailure> {
    let nodes = graph_nodes(cfg);
    let mut server = open_node(dir, nodes, None)?;
    let upstream = Arc::new(Mutex::new(server.addr()));
    let mut proxy =
        Proxy::start(cfg.seed, Arc::clone(&upstream), proxy_faults).map_err(harness("proxy"))?;
    let target = Arc::new(Mutex::new(proxy.addr));
    let hold = deaths.first().map_or(usize::MAX, |d| d.0);
    let ledger = drive(cfg, 0, &target, hold, |progress| {
        for (n, &death) in deaths.iter().enumerate() {
            let then = deaths.get(n + 1).map_or(usize::MAX, |d| d.0);
            kill_at(&mut server, death, then, progress);
            server = open_node(dir, nodes, None)?;
            *lock(&upstream) = server.addr();
            progress.update(|l| l.hold = then);
        }
        Ok(())
    });
    proxy.stop();
    // Graceful final shutdown: drain + checkpoint, then release the dir.
    server.shutdown();
    audit(dir, cfg, 0, ledger?, report)
}

fn run_failover_cycle(
    dir: &Path,
    cfg: &ChaosConfig,
    cycle: usize,
    death: Death,
    report: &mut ChaosReport,
) -> Result<(), ChaosFailure> {
    let nodes = graph_nodes(cfg);
    let rdir = dir.join(format!("cycle{cycle}-replica"));
    let mut primary = open_node(&dir.join(format!("cycle{cycle}-primary")), nodes, None)?;
    let mut replica = open_node(&rdir, nodes, Some(primary.addr()))?;
    await_replica(primary.addr())?;
    let target = Arc::new(Mutex::new(primary.addr()));
    let ledger = drive(cfg, cycle, &target, death.0, |progress| {
        kill_at(&mut primary, death, usize::MAX, progress);
        let mut op = Client::connect_timeout(replica.addr(), "op", Duration::from_secs(5))
            .map_err(harness("promote connect"))?;
        let epoch = op.promote().map_err(harness("promote"))?;
        if epoch < 2 {
            return Err(ChaosFailure::Harness(format!(
                "promotion yielded epoch {epoch}, expected a bump past 1"
            )));
        }
        let _ = op.bye();
        *lock(&target) = replica.addr();
        Ok(())
    });
    // Graceful drain of the new primary: final checkpoint, lock release.
    replica.shutdown();
    audit(&rdir, cfg, cycle, ledger?, report)
}

/// Waits for the primary to report its replica attached: from then on
/// every ack it releases is semi-sync.
fn await_replica(primary: SocketAddr) -> Result<(), ChaosFailure> {
    let mut c = Client::connect_timeout(primary, "attach-probe", Duration::from_secs(5))
        .map_err(harness("probe connect"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = c.status().map_err(harness("probe status"))?;
        if status.split_whitespace().any(|t| t == "repl_sinks=1") {
            let _ = c.bye();
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(ChaosFailure::Harness("replica never attached".into()));
        }
        thread::sleep(Duration::from_millis(20));
    }
}

// ---------------------------------------------------------------------
// The audit
// ---------------------------------------------------------------------

/// Offline audit of the store in `dir` that cycle `cycle`'s clients
/// wrote to, once no server holds it.
fn audit(
    dir: &Path,
    cfg: &ChaosConfig,
    cycle: usize,
    ledger: Ledger,
    report: &mut ChaosReport,
) -> Result<(), ChaosFailure> {
    report.stores += 1;
    report.acked += ledger.acked.len();
    report.dup_acks += ledger.dup_acks;
    report.reconnects += ledger.reconnects;
    report.acked_at_deaths.extend(ledger.deaths);

    // Exactly once, with no record left unacked.
    audit_wal(dir, &ledger.acked, 0).map_err(ChaosFailure::Wal)?;
    let records = wal_records(dir).map_err(ChaosFailure::Wal)?;
    report.wal_batches += records.len();

    let last_seq = records.last().map_or(0, |r| r.seq);
    let entries = dedup::scan_entries(dir, last_seq).map_err(harness("dedup scan"))?;
    let want = cfg.batches_per_client as u64;
    for i in 0..cfg.clients {
        let token = token(cycle, i);
        let last = entries
            .iter()
            .filter(|e| e.token == token)
            .map(|e| e.client_seq)
            .max()
            .unwrap_or(0);
        if last != want {
            return Err(ChaosFailure::DedupMismatch { token, last, want });
        }
    }

    let (mut session, _) =
        incgraph_durable::recover(dir, durable_options()).map_err(harness("recover"))?;
    let mut graph = DynamicGraph::new(false, graph_nodes(cfg));
    let mut states = standing_states(&graph, DURABLE_PATTERN_SEED);
    for rec in &records {
        let applied = rec
            .batch
            .apply_validated(&mut graph)
            .map_err(|e| ChaosFailure::Harness(format!("replay: {e:?}")))?;
        update_states(&mut states, &graph, std::slice::from_ref(&applied));
    }
    let g = session.graph();
    if g.node_count() != graph.node_count() || g.edge_count() != graph.edge_count() {
        return Err(ChaosFailure::GraphMismatch);
    }
    let essences = session.essences();
    if essences.len() != states.len() {
        return Err(ChaosFailure::Harness("state count mismatch".into()));
    }
    for ((class, blob), b) in essences.zip(&states) {
        if blob != b.save_state() {
            return Err(ChaosFailure::EssenceMismatch { class });
        }
        report.classes_verified += 1;
    }
    Ok(())
}
