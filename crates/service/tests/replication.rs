//! Replication end-to-end over real sockets: tail shipping, snapshot
//! bootstrap, semi-sync ack gating, promotion, epoch fencing, and the
//! deposed primary's demotion on rejoin. Shipping from the commit point
//! is `ship_before_states.rs`, which needs the process's obs recorder.

use incgraph_durable::{scan_records, CrashPoint, DurableOptions, FIRST_SEQ, WAL_NAME};
use incgraph_graph::UpdateBatch;
use incgraph_service::client::{Client, ClientError};
use incgraph_service::server::{Role, Server, ServerConfig, ServerHandle};
use incgraph_service::store::{Store, StoreLimits, UpdateError};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const GRAPH: &str = "g0";
const NODES: usize = 16;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "incgraph-repl-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
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

fn batch_at(i: u32) -> UpdateBatch {
    let mut b = UpdateBatch::new();
    b.insert(i % NODES as u32, (i + 1) % NODES as u32, i + 1);
    b
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

#[test]
fn tail_replication_gates_acks_and_replica_serves_reads() {
    let pdir = temp_dir("tail-p");
    let rdir = temp_dir("tail-r");
    let mut primary = open_node(&pdir, repl_cfg());
    let mut replica = open_node(
        &rdir,
        ServerConfig {
            replica_of: Some(primary.addr()),
            // Pinned high: within this test an ACK must imply the
            // replica has fsynced the batch.
            repl_ack_timeout: Duration::from_secs(30),
            ..repl_cfg()
        },
    );
    assert_eq!(replica.role(), Role::Replica);

    let mut pc = Client::connect(primary.addr(), "writer").unwrap();
    // Wait for the replica's sink to attach so gating is in force.
    wait_until("replica sink attach", Duration::from_secs(10), || {
        let s = pc.status().unwrap();
        status_field(&s, "repl_sinks").as_deref() == Some("1")
    });

    let mut rc = Client::connect(replica.addr(), "reader").unwrap();
    for seq in 1..=5u64 {
        let ack = pc.update(GRAPH, seq, &batch_at(seq as u32)).unwrap();
        assert_eq!(ack.wal_seq, seq);
        // Semi-sync: the ack was released by the replica's WATERMARK,
        // so the replica must already hold this sequence durably.
        let rs = rc.status().unwrap();
        let repl_seq: u64 = status_field(&rs, "repl_seq").unwrap().parse().unwrap();
        assert!(
            repl_seq >= seq,
            "ack for seq {seq} released before replica watermark ({rs})"
        );
    }
    // A batch with churn: 7-8 comes and goes, 2-3 changes weight.
    let mut churn = UpdateBatch::new();
    churn
        .insert(7, 8, 3)
        .delete(8, 7)
        .delete(2, 3)
        .insert(2, 3, 9)
        .insert(0, 9, 2);
    assert_eq!(pc.update(GRAPH, 6, &churn).unwrap().wal_seq, 6);

    // The replica answers standing queries over the replicated state
    // with the same digest as the primary.
    let mut pq = Client::connect(primary.addr(), "pq").unwrap();
    pq.register("q1", GRAPH, "sssp", 0, None).unwrap();
    let (pseq, pdigest) = pq.query("q1").unwrap();
    rc.register("q1", GRAPH, "sssp", 0, None).unwrap();
    let (rseq, rdigest) = rc.query("q1").unwrap();
    assert_eq!((pseq, pdigest), (rseq, rdigest));

    // Writes to the replica are refused with a typed error.
    match rc.update(GRAPH, 1, &batch_at(99)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "not-primary"),
        other => panic!("expected not-primary, got {other:?}"),
    }
    let rs = rc.status().unwrap();
    assert_eq!(status_field(&rs, "role").as_deref(), Some("replica"));

    replica.shutdown();
    primary.shutdown();
    // Byte-identical built-in essences: the replica made the shipped
    // record net exactly as the primary made the client's batch net.
    let digest = |dir: &Path| {
        let (mut session, _) = incgraph_durable::recover(dir, DurableOptions::default()).unwrap();
        (session.last_seq(), session.digest())
    };
    assert_eq!(digest(&pdir), digest(&rdir));
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// The shipping invariants rest on where the commit hook sits: it sees
/// each committed batch exactly once, in WAL order, with the record
/// already on disk — and never a dup, a refusal or a crashed append.
#[test]
fn commit_hook_sees_exactly_the_committed_batches_in_wal_order() {
    let dir = temp_dir("hook");
    let open = || {
        Store::open_durable(
            &dir,
            GRAPH,
            NODES,
            false,
            DurableOptions::default(),
            StoreLimits::default(),
        )
        .unwrap()
    };
    let on_disk = || -> Vec<u64> {
        let bytes = std::fs::read(dir.join(WAL_NAME)).unwrap();
        let scan = scan_records(&bytes[8..], FIRST_SEQ);
        scan.records.iter().map(|r| r.seq).collect()
    };
    let mut shipped = Vec::new();
    let mut ship = |wal_seq: u64| {
        assert_eq!(on_disk().last(), Some(&wal_seq), "shipped before fsync");
        shipped.push(wal_seq);
    };
    let mut store = open();
    let ack = store
        .commit_update(GRAPH, "w", 1, &batch_at(1), &mut ship)
        .unwrap()
        .0;
    assert_eq!((ack.wal_seq, ack.dup), (1, false));
    let dup = store
        .commit_update(GRAPH, "w", 1, &batch_at(1), &mut ship)
        .unwrap()
        .0;
    assert_eq!((dup.wal_seq, dup.dup), (1, true));
    let gap = store.commit_update(GRAPH, "w", 3, &batch_at(3), &mut ship);
    assert!(matches!(gap, Err(UpdateError::Wire(..))));
    let mut bad = UpdateBatch::new();
    bad.insert(0, NODES as u32, 1);
    let invalid = store.commit_update(GRAPH, "w", 2, &bad, &mut ship);
    assert!(matches!(invalid, Err(UpdateError::Wire(..))));
    store
        .commit_update(GRAPH, "w", 2, &batch_at(2), &mut ship)
        .unwrap();
    // A crashed append kills the store; each restart recovers what the
    // crash point left durable, and the hook saw neither attempt.
    for point in [CrashPoint::WalPreFsync, CrashPoint::WalPostFsync] {
        assert!(store.arm_crash(GRAPH, Some(point)));
        let crashed = store.commit_update(GRAPH, "w", 3, &batch_at(9), &mut ship);
        assert!(matches!(crashed, Err(UpdateError::Crashed(p)) if p == point));
        drop(store);
        store = open();
    }
    assert_eq!(on_disk(), [1, 2, 3], "post-fsync left its record");
    drop(store);
    assert_eq!(shipped, [1, 2]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_bootstrap_when_replica_lags_past_threshold() {
    let pdir = temp_dir("snap-p");
    let rdir = temp_dir("snap-r");
    let mut primary = open_node(
        &pdir,
        ServerConfig {
            snapshot_lag: 3,
            ..repl_cfg()
        },
    );
    let mut pc = Client::connect(primary.addr(), "writer").unwrap();
    for seq in 1..=10u64 {
        pc.update(GRAPH, seq, &batch_at(seq as u32)).unwrap();
    }
    // Replica starts at seq 0, lag 10 > 3 → bootstrap by snapshot.
    let mut replica = open_node(
        &rdir,
        ServerConfig {
            replica_of: Some(primary.addr()),
            ..repl_cfg()
        },
    );
    let mut rc = Client::connect(replica.addr(), "reader").unwrap();
    wait_until("snapshot adoption", Duration::from_secs(10), || {
        let s = rc.status().unwrap();
        status_field(&s, "repl_seq").as_deref() == Some("10")
    });
    // Dedup state rode the snapshot: the primary's acked batches are
    // known to the replica (matters after promotion).
    pc.register("q1", GRAPH, "sssp", 0, None).unwrap();
    rc.register("q1", GRAPH, "sssp", 0, None).unwrap();
    assert_eq!(pc.query("q1").unwrap(), rc.query("q1").unwrap());

    // And the stream continues live past the bootstrap.
    pc.update(GRAPH, 11, &batch_at(11)).unwrap();
    wait_until("live tail after snapshot", Duration::from_secs(10), || {
        let s = rc.status().unwrap();
        status_field(&s, "repl_seq").as_deref() == Some("11")
    });

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// Acceptance-pinned: a primary that hears a SYNC carrying a higher
/// epoch fences itself — no write it acks after that point can race a
/// promoted replica's history (split-brain double-ack).
#[test]
fn stale_epoch_primary_is_fenced() {
    let pdir = temp_dir("fence-p");
    let mut primary = open_node(&pdir, repl_cfg());
    let mut pc = Client::connect(primary.addr(), "writer").unwrap();
    pc.update(GRAPH, 1, &batch_at(1)).unwrap();

    // A peer claiming epoch 2 (this node is at 1) announces itself.
    let stream = TcpStream::connect(primary.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut s = stream.try_clone().unwrap();
    let mut line = String::new();
    s.write_all(b"HELLO incgraph-wire/1 newer\n").unwrap();
    r.read_line(&mut line).unwrap();
    assert!(line.starts_with("WELCOME"), "{line}");
    s.write_all(format!("SYNC {GRAPH} 2 0 - undirected {NODES}\n").as_bytes())
        .unwrap();
    line.clear();
    r.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR stale-epoch"), "{line}");

    // The deposed primary now refuses writes — even retries of batches
    // it previously acked.
    wait_until("fence takes effect", Duration::from_secs(5), || {
        matches!(
            pc.update(GRAPH, 2, &batch_at(2)),
            Err(ClientError::Server { ref code, .. }) if code == "not-primary"
        )
    });
    let status = pc.status().unwrap();
    assert_eq!(status_field(&status, "role").as_deref(), Some("fenced"));

    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
}

#[test]
fn failover_promote_then_deposed_primary_rejoins_demoted() {
    let pdir = temp_dir("failover-p");
    let rdir = temp_dir("failover-r");
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
    for seq in 1..=3u64 {
        pc.update(GRAPH, seq, &batch_at(seq as u32)).unwrap();
    }

    // Primary dies cold; operator promotes the replica.
    primary.kill();
    let mut rc = Client::connect(replica.addr(), "op").unwrap();
    let epoch = rc.promote().unwrap();
    assert_eq!(epoch, 2);
    assert_eq!(replica.role(), Role::Primary);

    // The new primary accepts writes and continues the history: a
    // retry of the last acked batch is a dup, the next applies.
    let mut wc = Client::connect(replica.addr(), "writer").unwrap();
    let dup = wc.update(GRAPH, 3, &batch_at(3)).unwrap();
    assert!(dup.dup, "client-acked batch must survive failover as dup");
    assert_eq!(dup.wal_seq, 3);
    let a4 = wc.update(GRAPH, 4, &batch_at(4)).unwrap();
    assert!(!a4.dup);
    assert_eq!(a4.wal_seq, 4);
    let status = wc.status().unwrap();
    assert_eq!(status_field(&status, "role").as_deref(), Some("primary"));
    assert_eq!(status_field(&status, "epoch").as_deref(), Some("2"));

    // The deposed primary restarts as a replica of the new primary: its
    // stale epoch-1 history (it never saw batch 4) is reconciled and it
    // adopts epoch 2.
    let mut old = open_node(
        &pdir,
        ServerConfig {
            replica_of: Some(replica.addr()),
            ..repl_cfg()
        },
    );
    let mut oc = Client::connect(old.addr(), "rejoin").unwrap();
    wait_until(
        "deposed primary catches up",
        Duration::from_secs(10),
        || {
            let s = oc.status().unwrap();
            status_field(&s, "repl_seq").as_deref() == Some("4")
                && status_field(&s, "epoch").as_deref() == Some("2")
        },
    );
    wc.register("q1", GRAPH, "sssp", 0, None).unwrap();
    oc.register("q1", GRAPH, "sssp", 0, None).unwrap();
    assert_eq!(wc.query("q1").unwrap(), oc.query("q1").unwrap());

    old.shutdown();
    replica.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn promote_without_sync_makes_a_lone_replica_writable() {
    let rdir = temp_dir("lone-r");
    // Replica of an address nobody listens on: it retries quietly.
    let mut replica = open_node(
        &rdir,
        ServerConfig {
            replica_of: Some("127.0.0.1:1".parse().unwrap()),
            ..repl_cfg()
        },
    );
    let mut c = Client::connect(replica.addr(), "op").unwrap();
    match c.update(GRAPH, 1, &batch_at(1)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "not-primary"),
        other => panic!("expected not-primary, got {other:?}"),
    }
    assert_eq!(c.promote().unwrap(), 2);
    // Second promote is a typed error, not a double bump.
    match c.promote() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "bad-command"),
        other => panic!("expected bad-command, got {other:?}"),
    }
    assert_eq!(c.update(GRAPH, 1, &batch_at(1)).unwrap().wal_seq, 1);
    replica.shutdown();

    // The epoch bump is durable across restart.
    let mut again = open_node(&rdir, repl_cfg());
    let mut c2 = Client::connect(again.addr(), "op2").unwrap();
    let status = c2.status().unwrap();
    assert_eq!(status_field(&status, "epoch").as_deref(), Some("2"));
    again.shutdown();
    let _ = std::fs::remove_dir_all(&rdir);
}
