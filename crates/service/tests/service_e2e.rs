//! End-to-end tests over real sockets: handshake, standing queries,
//! read-your-writes after an `ACK`, exactly-once retries, admission
//! control, idle reaping, graceful drain, and kill/recover on a durable
//! store.

use incgraph_durable::{DurableError, DurableOptions};
use incgraph_graph::UpdateBatch;
use incgraph_service::client::{Client, ClientError, Reply};
use incgraph_service::load::{run_load, LoadConfig};
use incgraph_service::outbound::Outbound;
use incgraph_service::server::{Server, ServerConfig, ServerHandle};
use incgraph_service::store::{Store, StoreLimits};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "incgraph-svc-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quick_cfg() -> ServerConfig {
    ServerConfig {
        read_poll: Duration::from_millis(10),
        idle_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    }
}

fn memory_server(cfg: ServerConfig) -> ServerHandle {
    Server::start(Store::new(StoreLimits::default()), cfg).expect("start server")
}

#[test]
fn roundtrip_register_update_delta_query() {
    let mut server = memory_server(quick_cfg());
    let mut c = Client::connect(server.addr(), "alice").unwrap();
    assert!(c.sid() > 0);
    c.ping().unwrap();
    c.graph("g0", 16, false).unwrap();
    let digest_len = c.register("q1", "g0", "sssp", 0, None).unwrap();
    assert!(digest_len > 0);

    let mut batch = UpdateBatch::new();
    batch.insert(0, 1, 2).insert(1, 2, 3);
    let ack = c.update("g0", 1, &batch).unwrap();
    assert_eq!((ack.client_seq, ack.wal_seq, ack.units), (1, 1, 2));
    assert!(!ack.dup);

    let delta = c
        .poll_delta(Duration::from_secs(5))
        .unwrap()
        .expect("a DELTA should follow the batch");
    assert_eq!(delta.qid, "q1");
    assert_eq!(delta.wal_seq, 1);

    let (seq, digest) = c.query("q1").unwrap();
    assert_eq!(seq, 1);
    assert_eq!(digest.len(), digest_len);

    let status = c.status().unwrap();
    assert!(status.contains("graphs=1"), "{status}");
    assert!(status.contains("degraded=0"), "{status}");

    assert_eq!(c.bye().unwrap(), "bye");
    server.shutdown();
}

#[test]
fn exactly_once_dup_ack_and_seq_gap() {
    let mut server = memory_server(quick_cfg());
    let mut c = Client::connect(server.addr(), "bob").unwrap();
    c.graph("g0", 8, true).unwrap();

    let mut b1 = UpdateBatch::new();
    b1.insert(0, 1, 1);
    let a1 = c.update("g0", 1, &b1).unwrap();
    assert!(!a1.dup);

    // Retry of an acked sequence re-acks without re-applying.
    let a1r = c.update("g0", 1, &b1).unwrap();
    assert!(a1r.dup);
    assert_eq!(a1r.wal_seq, a1.wal_seq);

    // Skipping ahead is a typed error, not silent reordering.
    let mut b3 = UpdateBatch::new();
    b3.insert(1, 2, 1);
    match c.update("g0", 3, &b3) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "seq-gap"),
        other => panic!("expected seq-gap, got {other:?}"),
    }

    // The next-in-order sequence still applies.
    let a2 = c.update("g0", 2, &b3).unwrap();
    assert!(!a2.dup);
    assert_eq!(a2.wal_seq, 2);
    server.shutdown();
}

#[test]
fn commands_before_hello_and_bad_version_are_rejected() {
    let mut server = memory_server(quick_cfg());
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();

    let mut s = stream.try_clone().unwrap();
    s.write_all(b"PING\n").unwrap();
    r.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR need-hello"), "{line}");

    s.write_all(b"HELLO incgraph-wire/99 eve\n").unwrap();
    line.clear();
    r.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR bad-proto"), "{line}");
    line.clear();
    r.read_line(&mut line).unwrap();
    assert!(line.starts_with("GOODBYE protocol-error"), "{line}");
    server.shutdown();
}

#[test]
fn saturated_writer_sheds_with_busy() {
    let cfg = ServerConfig {
        max_pending: 0,
        retry_after_ms: 7,
        ..quick_cfg()
    };
    let mut server = memory_server(cfg);
    let mut c = Client::connect(server.addr(), "carol").unwrap();
    match c.graph("g0", 8, false) {
        Err(ClientError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 7),
        other => panic!("expected BUSY, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn idle_sessions_are_reaped() {
    let cfg = ServerConfig {
        read_poll: Duration::from_millis(10),
        idle_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let mut server = memory_server(cfg);
    let mut c = Client::connect(server.addr(), "dan").unwrap();
    match c.recv_reply() {
        Err(ClientError::Goodbye(reason)) => assert_eq!(reason, "idle-timeout"),
        other => panic!("expected idle-timeout goodbye, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn wire_shutdown_drains_and_says_goodbye() {
    let mut server = memory_server(quick_cfg());
    let mut c = Client::connect(server.addr(), "erin").unwrap();
    c.graph("g0", 8, false).unwrap();
    c.shutdown_server().unwrap();
    // The drain completes server-side; the session hears GOODBYE.
    match c.recv_reply() {
        Err(ClientError::Goodbye(reason)) => assert_eq!(reason, "shutting-down"),
        Err(ClientError::Closed) => {} // goodbye raced the close
        other => panic!("expected shutdown goodbye, got {other:?}"),
    }
    server.wait();
    assert!(server.is_stopped());
    assert!(Client::connect(server.addr(), "erin2").is_err());
}

fn durable_server(dir: &Path, cfg: ServerConfig) -> ServerHandle {
    let store = Store::open_durable(
        dir,
        "g0",
        16,
        false,
        DurableOptions::default(),
        StoreLimits::default(),
    )
    .expect("open durable store");
    Server::start(store, cfg).expect("start server")
}

#[test]
fn kill_then_restart_preserves_acked_batches_and_dedup() {
    let dir = temp_dir("kill-restart");
    let d1;
    {
        let mut server = durable_server(&dir, quick_cfg());
        let mut c = Client::connect(server.addr(), "frank").unwrap();
        let mut b1 = UpdateBatch::new();
        b1.insert(0, 1, 1).insert(1, 2, 1);
        let mut b2 = UpdateBatch::new();
        b2.insert(2, 3, 1);
        assert_eq!(c.update("g0", 1, &b1).unwrap().wal_seq, 1);
        assert_eq!(c.update("g0", 2, &b2).unwrap().wal_seq, 2);
        c.register("q1", "g0", "sssp", 0, None).unwrap();
        d1 = c.query("q1").unwrap().1;
        server.kill(); // no checkpoint, no goodbyes — store dropped cold
    }
    {
        let mut server = durable_server(&dir, quick_cfg());
        let mut c = Client::connect(server.addr(), "frank").unwrap();
        // The ack table survived: retrying the last acked batch is a dup.
        let mut b2 = UpdateBatch::new();
        b2.insert(2, 3, 1);
        let ack = c.update("g0", 2, &b2).unwrap();
        assert!(ack.dup, "the recovered ack table must re-ack, not re-apply");
        assert_eq!(ack.wal_seq, 2);
        // Recovered state answers the same standing query identically.
        c.register("q2", "g0", "sssp", 0, None).unwrap();
        assert_eq!(c.query("q2").unwrap().1, d1);
        // And the session continues exactly-once from where it left off.
        let mut b3 = UpdateBatch::new();
        b3.insert(3, 4, 1);
        assert_eq!(c.update("g0", 3, &b3).unwrap().wal_seq, 3);
        server.shutdown();
    }
    // The acks live in the WAL: the store holds no second log.
    assert!(!dir.join(incgraph_service::DEDUP_NAME).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_opener_gets_store_busy() {
    let dir = temp_dir("lock-busy");
    let store = Store::open_durable(
        &dir,
        "g0",
        8,
        false,
        DurableOptions::default(),
        StoreLimits::default(),
    )
    .unwrap();
    match Store::open_durable(
        &dir,
        "g0",
        8,
        false,
        DurableOptions::default(),
        StoreLimits::default(),
    ) {
        Err(DurableError::StoreBusy { .. }) => {}
        Err(other) => panic!("expected StoreBusy, got {other:?}"),
        Ok(_) => panic!("expected StoreBusy, second open succeeded"),
    }
    drop(store);
    // Releasing the lock admits the next opener.
    Store::open_durable(
        &dir,
        "g0",
        8,
        false,
        DurableOptions::default(),
        StoreLimits::default(),
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_query_and_unknown_graph_are_typed_errors() {
    let mut server = memory_server(quick_cfg());
    let mut c = Client::connect(server.addr(), "gail").unwrap();
    match c.query("nope") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "unknown-query"),
        other => panic!("{other:?}"),
    }
    let mut b = UpdateBatch::new();
    b.insert(0, 1, 1);
    match c.update("nograph", 1, &b) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "unknown-graph"),
        other => panic!("{other:?}"),
    }
    match c.register("q", "nograph", "sssp", 0, None) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "unknown-graph"),
        other => panic!("{other:?}"),
    }
    c.graph("g0", 8, true).unwrap();
    match c.register("q", "g0", "lcc", 0, None) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "undirected-required"),
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn second_hello_is_rejected_but_session_survives() {
    let mut server = memory_server(quick_cfg());
    let mut c = Client::connect(server.addr(), "hank").unwrap();
    c.send_raw("HELLO incgraph-wire/1 hank2\n").unwrap();
    match c.recv_reply().unwrap() {
        Reply::Err { code, .. } => assert_eq!(code, "already-hello"),
        other => panic!("{other:?}"),
    }
    c.ping().unwrap();
    server.shutdown();
}

#[test]
fn register_after_an_update_never_double_applies() {
    let mut server = memory_server(quick_cfg());
    let mut c = Client::connect(server.addr(), "kate").unwrap();
    c.graph("g0", 16, false).unwrap();
    c.register("q1", "g0", "sssp", 0, None).unwrap();
    let mut b = UpdateBatch::new();
    b.insert(0, 1, 2).insert(1, 2, 3);
    assert_eq!(c.update("g0", 1, &b).unwrap().wal_seq, 1);
    // q2's initial digest already includes batch 1, so q1 hears exactly
    // one DELTA for it and q2 none.
    c.register("q2", "g0", "sssp", 0, None).unwrap();
    let delta = c
        .poll_delta(Duration::from_secs(5))
        .unwrap()
        .expect("q1 is notified of batch 1");
    assert_eq!(delta.qid, "q1");
    assert_eq!(delta.wal_seq, 1);
    assert!(
        c.poll_delta(Duration::from_millis(200)).unwrap().is_none(),
        "q2 registered after batch 1 and must not see it again"
    );
    let (s1, d1) = c.query("q1").unwrap();
    let (s2, d2) = c.query("q2").unwrap();
    assert_eq!((s1, s2), (1, 1));
    assert_eq!(d1, d2, "both queries converge on the committed state");
    server.shutdown();
}

#[test]
fn a_query_after_its_ack_reflects_the_batch() {
    // The writer pushes the ACK and runs the batch's notify pass under
    // one write guard, so a QUERY sent after the ACK cannot read the
    // views between the two.
    let mut server = memory_server(quick_cfg());
    let mut c = Client::connect(server.addr(), "lena").unwrap();
    c.graph("g0", 64, false).unwrap();
    c.register("q1", "g0", "sssp", 0, None).unwrap();
    let mut reference = Store::new(StoreLimits::default());
    reference.open_graph("g0", 64, false).unwrap();
    let out = Arc::new(Outbound::new(64, 1024, 256));
    reference
        .register(1, "q1", "g0", "sssp", 0, 0, out)
        .unwrap();
    for seq in 1..=200u64 {
        // A path that grows by one edge a batch and, every other batch,
        // drops and re-adds an earlier edge at a new weight.
        let v = (seq % 63) as u32;
        let mut b = UpdateBatch::new();
        if seq <= 63 {
            b.insert(v, v + 1, 1 + (seq % 5) as u32);
        } else {
            b.delete(v, v + 1).insert(v, v + 1, 1 + (seq % 7) as u32);
        }
        let ack = c.update("g0", seq, &b).unwrap();
        assert_eq!(ack.wal_seq, seq);
        reference.apply_update("g0", "ref", seq, &b).unwrap();
        let (at, digest) = c.query("q1").unwrap();
        assert!(at >= seq, "QUERY after ACK {seq} answered at {at}");
        let (want, _) = reference.query(1, "q1").unwrap();
        assert_eq!(digest, want, "QUERY after ACK {seq} must carry the batch");
    }
    server.shutdown();
}

#[test]
fn standing_plan_emits_correct_view_deltas_under_churn() {
    // The acceptance scenario: a standing `filter(sssp.dist < k) |> count`
    // plan over a live server must push VDELTA rows that, applied to the
    // initial view, always equal the server's own full view (PLANQ).
    let mut server = memory_server(quick_cfg());
    let mut c = Client::connect(server.addr(), "lena").unwrap();
    c.graph("g0", 16, false).unwrap();
    let rows = c
        .plan(
            "p1",
            "g0",
            0,
            "d = sssp(source=0); near = filter(d, val < 4); n = count(near)",
        )
        .unwrap();
    // Empty graph: only the source is within distance 4 → count 1.
    assert_eq!(rows, 1);
    let (_, view0) = c.planq("p1").unwrap();
    assert_eq!(view0, vec![(0, 1, 1)]);

    // Maintain a client-side materialization from the pushed deltas and
    // pin it to the server's view after every batch.
    let mut mat: std::collections::BTreeMap<(u64, u64), i64> =
        view0.iter().map(|&(k, v, w)| ((k, v), w)).collect();
    type Inserts = &'static [(u32, u32, u32)];
    type Deletes = &'static [(u32, u32)];
    let churn: &[(Inserts, Deletes)] = &[
        (&[(0, 1, 1), (1, 2, 1)], &[]), // count 1 → 3
        (&[(2, 3, 1), (3, 4, 1)], &[]), // count 3 → 4 (node 4 at dist 4)
        (&[], &[(0, 1)]),               // sever the chain: back to 1
        (&[(0, 4, 2), (4, 5, 1)], &[]), // re-grow from the other side
    ];
    for (seq, (ins, dels)) in churn.iter().enumerate() {
        let mut b = UpdateBatch::new();
        for &(u, v, w) in *ins {
            b.insert(u, v, w);
        }
        for &(u, v) in *dels {
            b.delete(u, v);
        }
        let ack = c.update("g0", seq as u64 + 1, &b).unwrap();
        let vd = c
            .poll_vdelta(Duration::from_secs(5))
            .unwrap()
            .expect("every effective batch must push a VDELTA");
        assert_eq!(vd.qid, "p1");
        assert_eq!(vd.wal_seq, ack.wal_seq);
        for (k, v, w) in vd.rows {
            let e = mat.entry((k, v)).or_insert(0);
            *e += w;
            if *e == 0 {
                mat.remove(&(k, v));
            }
        }
        let (qseq, qview) = c.planq("p1").unwrap();
        assert_eq!(qseq, ack.wal_seq);
        let replayed: Vec<(u64, u64, i64)> = mat.iter().map(|(&(k, v), &w)| (k, v, w)).collect();
        assert_eq!(replayed, qview, "delta replay diverged at batch {seq}");
    }
    // The final count reflects the last topology: 0,4,5 within dist 4 of 0
    // plus any survivors of the earlier inserts still connected.
    assert_eq!(mat.len(), 1, "count plan has a single aggregate row");

    // A batch that cannot move the view (edge far outside the radius)
    // pushes nothing.
    let mut quiet = UpdateBatch::new();
    quiet.insert(10, 11, 6);
    c.update("g0", 5, &quiet).unwrap();
    assert!(
        c.poll_vdelta(Duration::from_millis(300)).unwrap().is_none(),
        "a batch that leaves the view unchanged must not push a VDELTA"
    );

    // UNPLAN stops the stream; PLANQ then reports unknown-query.
    c.unplan("p1").unwrap();
    match c.planq("p1") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "unknown-query"),
        other => panic!("{other:?}"),
    }
    // A malformed plan is a typed refusal.
    match c.plan("p2", "g0", 0, "x = frobnicate(q)") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "bad-plan"),
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn load_harness_smoke_all_classes() {
    let mut server = memory_server(quick_cfg());
    let report = run_load(&LoadConfig {
        addr: server.addr(),
        sessions: 14,
        batches_per_session: 5,
        units_per_batch: 4,
        nodes: 16,
        seed: 7,
    });
    assert_eq!(report.sessions_ok, 14, "{report}");
    assert_eq!(report.sessions_failed, 0);
    assert_eq!(report.batches_acked, 14 * 5);
    // Two full rounds over the seven classes → every class has samples.
    assert_eq!(report.classes.len(), 7, "{report}");
    for c in &report.classes {
        assert_eq!(c.count, 10, "{report}");
        assert!(c.p50_us <= c.p99_us && c.p99_us <= c.max_us.max(c.p99_us));
    }
    server.shutdown();
}

#[test]
fn poll_waits_past_the_other_kind_of_notification() {
    // One session holds a standing plan on g0 and a standing query on
    // g1; a second session writes. Each poll must wait out its own
    // deadline for its own kind and queue the other kind it reads first.
    let mut server = memory_server(quick_cfg());
    let mut sub = Client::connect(server.addr(), "mira").unwrap();
    sub.graph("g0", 8, false).unwrap();
    sub.graph("g1", 8, false).unwrap();
    sub.plan(
        "p1",
        "g0",
        0,
        "d = sssp(source=0); near = filter(d, val < 4); n = count(near)",
    )
    .unwrap();
    sub.register("q1", "g1", "sssp", 0, None).unwrap();
    let mut writer = Client::connect(server.addr(), "nils").unwrap();
    let mut chain = UpdateBatch::new();
    chain.insert(0, 1, 1).insert(1, 2, 1);
    let mut link = UpdateBatch::new();
    link.insert(2, 3, 1);

    // VDELTA first on the wire, then DELTA.
    writer.update("g0", 1, &chain).unwrap();
    writer.update("g1", 1, &chain).unwrap();
    let d = sub.poll_delta(Duration::from_secs(5)).unwrap();
    assert_eq!(d.expect("the DELTA behind the VDELTA").qid, "q1");
    let v = sub.poll_vdelta(Duration::from_secs(5)).unwrap();
    assert_eq!(v.expect("the queued VDELTA").qid, "p1");

    // DELTA first on the wire, then VDELTA.
    writer.update("g1", 2, &link).unwrap();
    writer.update("g0", 2, &link).unwrap();
    let v = sub.poll_vdelta(Duration::from_secs(5)).unwrap();
    assert_eq!(v.expect("the VDELTA behind the DELTA").wal_seq, 2);
    let d = sub.poll_delta(Duration::from_secs(5)).unwrap();
    assert_eq!(d.expect("the queued DELTA").wal_seq, 2);
    server.shutdown();
}
