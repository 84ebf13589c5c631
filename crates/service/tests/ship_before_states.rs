//! The primary ships a committed record before it maintains its states.
//!
//! A test recorder holds the primary inside its state pass, so this file
//! is a test binary of its own: the obs recorder is global to the
//! process, and nothing else may run beside it.

use incgraph_durable::DurableOptions;
use incgraph_graph::UpdateBatch;
use incgraph_obs::Recorder;
use incgraph_service::client::Client;
use incgraph_service::server::{Server, ServerConfig, ServerHandle};
use incgraph_service::store::{Store, StoreLimits};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const GRAPH: &str = "g0";
const NODES: usize = 16;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("incgraph-ship-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn repl_cfg() -> ServerConfig {
    ServerConfig {
        read_poll: Duration::from_millis(10),
        idle_timeout: Duration::from_secs(30),
        repl_graph: Some(GRAPH.to_string()),
        ..ServerConfig::default()
    }
}

fn open_node(dir: &Path, cfg: ServerConfig) -> ServerHandle {
    let store = Store::open_durable(
        dir,
        GRAPH,
        NODES,
        false,
        DurableOptions::default(),
        StoreLimits::default(),
    )
    .expect("open durable store");
    Server::start(store, cfg).expect("start server")
}

/// Polls `f` until it returns true or the deadline passes.
fn wait_until(what: &str, timeout: Duration, mut f: impl FnMut() -> bool) {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

fn status_field(status: &str, key: &str) -> Option<String> {
    status
        .split_whitespace()
        .find_map(|t| t.strip_prefix(&format!("{key}=")).map(str::to_string))
}

/// Once armed, the thread that records the first `wal.commit` span is
/// the primary's writer: nothing else can commit before it ships. The
/// first `update.guarded` span that thread records — its first state
/// updated, its commit not yet returned — reports in, then waits for the
/// test's go-ahead (or for the test to end: a dropped sender opens the
/// gate, so a failing assertion cannot wedge the server).
struct Hold {
    armed: AtomicBool,
    writer: Mutex<Option<ThreadId>>,
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl Recorder for Hold {
    fn counter(&self, _: &'static str, _: &'static str, _: u64) {}
    fn gauge(&self, _: &'static str, _: &'static str, _: u64) {}
    fn observe(&self, _: &'static str, _: &'static str, _: u64) {}
    fn event(&self, _: &'static str, _: &'static str, _: &str) {}
    fn span(&self, _: &'static str, name: &'static str, _: u64) {
        if !self.armed.load(Ordering::SeqCst) {
            return;
        }
        let me = std::thread::current().id();
        let mut writer = self.writer.lock().unwrap();
        match name {
            "wal.commit" if writer.is_none() => *writer = Some(me),
            "update.guarded" if *writer == Some(me) => {
                self.armed.store(false, Ordering::SeqCst);
                drop(writer);
                let _ = self.entered.lock().unwrap().send(());
                let _ = self.release.lock().unwrap().recv();
            }
            _ => {}
        }
    }
}

/// The record ships at the commit point, not after the primary's state
/// maintenance: with the primary held inside its state pass — WAL
/// fsynced, commit not yet returned — the replica already applies the
/// batch and reports its watermark. What a gated `ACK` promises is
/// unchanged: once it arrives, the replica serves reads with the batch.
#[test]
fn replica_applies_the_batch_while_the_primary_still_maintains_its_states() {
    let pdir = temp_dir("p");
    let rdir = temp_dir("r");
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let hold = Arc::new(Hold {
        armed: AtomicBool::new(false),
        writer: Mutex::new(None),
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
    });
    let mut primary = open_node(&pdir, repl_cfg());
    let mut replica = open_node(
        &rdir,
        ServerConfig {
            replica_of: Some(primary.addr()),
            repl_ack_timeout: Duration::from_secs(30),
            ..repl_cfg()
        },
    );
    let mut pc = Client::connect(primary.addr(), "writer").unwrap();
    wait_until("replica sink attach", Duration::from_secs(10), || {
        let s = pc.status().unwrap();
        status_field(&s, "repl_sinks").as_deref() == Some("1")
    });
    let mut rc = Client::connect(replica.addr(), "reader").unwrap();
    // Declared after the servers so that it drops before them: a failing
    // assertion below then opens the gate before the handles join their
    // writer threads.
    let release_tx = release_tx;
    incgraph_obs::install(hold.clone());
    hold.armed.store(true, Ordering::SeqCst);

    let mut batch = UpdateBatch::new();
    batch.insert(0, 1, 5).insert(1, 2, 7);
    let writer = std::thread::spawn(move || {
        let ack = pc.update(GRAPH, 1, &batch);
        (pc, ack)
    });
    entered_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the primary's commit reaches its built-in states");
    // The primary now sits between its WAL fsync and the end of its
    // commit, and stays there until released.
    wait_until(
        "replica applies batch 1 beside the primary's states",
        Duration::from_secs(10),
        || {
            let s = rc.status().unwrap();
            status_field(&s, "repl_seq").as_deref() == Some("1")
        },
    );
    assert!(
        !writer.is_finished(),
        "the ack cannot be out: the primary's commit has not returned"
    );
    release_tx.send(()).unwrap();
    let (mut pc, ack) = writer.join().unwrap();
    let ack = ack.unwrap();
    assert_eq!((ack.wal_seq, ack.dup), (1, false));

    // The gated ack implies the replica answers with the batch.
    rc.register("q1", GRAPH, "sssp", 0, None).unwrap();
    let (rseq, rdigest) = rc.query("q1").unwrap();
    assert_eq!(rseq, 1);
    pc.register("q1", GRAPH, "sssp", 0, None).unwrap();
    assert_eq!(pc.query("q1").unwrap(), (rseq, rdigest));

    incgraph_obs::uninstall();
    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}
