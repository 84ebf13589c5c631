//! The exact reply line of every client verb the writer thread runs.
//!
//! `GRAPH`, `REGISTER`, `UNREGISTER`, `PLAN`, `UNPLAN`, `SYNC` and
//! `PROMOTE` are parsed by the session reader and answered by the single
//! writer. Each case here starts a lone in-memory server (no replicated
//! graph, so it is a primary), speaks raw lines over a real socket and
//! compares the one reply each line gets, byte for byte: every verb's
//! success and every refusal reachable on such a server.

use incgraph_service::server::{Server, ServerConfig, ServerHandle};
use incgraph_service::store::{Store, StoreLimits};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One raw wire session: a line out, a line back.
struct Wire {
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn open(server: &ServerHandle) -> Wire {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut wire = Wire {
            reader: BufReader::new(stream),
        };
        let welcome = wire.ask("HELLO incgraph-wire/1 writer");
        assert!(welcome.starts_with("WELCOME "), "{welcome}");
        wire
    }

    /// Sends `line` and returns the next reply line, newline stripped.
    fn ask(&mut self, line: &str) -> String {
        let s = self.reader.get_mut();
        s.write_all(line.as_bytes()).unwrap();
        s.write_all(b"\n").unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply line");
        reply.trim_end_matches('\n').to_string()
    }

    /// Asserts each `(line, reply)` pair in order.
    fn expect(&mut self, script: &[(&str, &str)]) {
        for (line, want) in script {
            assert_eq!(self.ask(line), *want, "reply to {line:?}");
        }
    }
}

fn lone_server() -> ServerHandle {
    let cfg = ServerConfig {
        read_poll: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    Server::start(Store::new(StoreLimits::default()), cfg).expect("start server")
}

#[test]
fn graph_replies() {
    let mut server = lone_server();
    let mut w = Wire::open(&server);
    w.expect(&[
        ("GRAPH g0 6 undirected", "OK GRAPH g0"),
        // Attaching to the same shape is idempotent.
        ("GRAPH g0 6 undirected", "OK GRAPH g0"),
        (
            "GRAPH g0 7 undirected",
            "ERR graph-mismatch g0 exists with 6 nodes (undirected)",
        ),
        (
            "GRAPH g0 6 directed",
            "ERR graph-mismatch g0 exists with 6 nodes (undirected)",
        ),
        (
            "GRAPH z 0 undirected",
            "ERR too-large nodes must be in 1..=1048576",
        ),
    ]);
    server.shutdown();
}

#[test]
fn register_replies() {
    let mut server = lone_server();
    let mut w = Wire::open(&server);
    w.expect(&[
        ("GRAPH g0 6 undirected", "OK GRAPH g0"),
        ("GRAPH d0 6 directed", "OK GRAPH d0"),
        ("REGISTER q1 g0 sssp source=2", "OK REGISTER q1 6"),
        ("REGISTER q2 nope sssp", "ERR unknown-graph no graph nope"),
        (
            "REGISTER q2 g0 frob",
            "ERR unknown-class frob is not one of the seven classes",
        ),
        (
            "REGISTER q1 g0 cc",
            "ERR dup-query q1 is already registered on this session",
        ),
        (
            "REGISTER q3 g0 sssp source=9",
            "ERR bad-command source 9 out of range for g0",
        ),
        (
            "REGISTER q4 d0 lcc",
            "ERR undirected-required lcc needs an undirected graph",
        ),
    ]);
    server.shutdown();
}

#[test]
fn plan_replies() {
    let mut server = lone_server();
    let mut w = Wire::open(&server);
    w.expect(&[
        ("GRAPH g0 6 undirected", "OK GRAPH g0"),
        (
            "PLAN p1 g0 42 d = sssp(source=0); n = count(d)",
            "OK PLAN p1 1",
        ),
        ("PLAN p2 nope 42 d = cc", "ERR unknown-graph no graph nope"),
        (
            "PLAN p1 g0 42 d = cc",
            "ERR dup-query p1 is already registered on this session",
        ),
        (
            "PLAN p2 g0 42 zzz",
            "ERR bad-plan plan binding 0: expected `name = expr`, got \"zzz\"",
        ),
    ]);
    server.shutdown();
}

#[test]
fn unregister_and_unplan_replies() {
    let mut server = lone_server();
    let mut w = Wire::open(&server);
    w.expect(&[
        ("GRAPH g0 6 undirected", "OK GRAPH g0"),
        ("REGISTER q1 g0 cc", "OK REGISTER q1 6"),
        ("PLAN p1 g0 42 c = cc; n = count(c)", "OK PLAN p1 1"),
        // A plan id is not a query id, nor the other way round.
        ("UNREGISTER p1", "ERR unknown-query no query p1"),
        ("UNPLAN q1", "ERR unknown-query no plan q1"),
        ("UNREGISTER q1", "OK UNREGISTER q1"),
        ("UNREGISTER q1", "ERR unknown-query no query q1"),
        ("UNPLAN p1", "OK UNPLAN p1"),
        ("UNPLAN p1", "ERR unknown-query no plan p1"),
    ]);
    server.shutdown();
}

#[test]
fn replication_verb_replies_on_a_lone_primary() {
    let mut server = lone_server();
    let mut w = Wire::open(&server);
    w.expect(&[
        ("GRAPH g0 6 undirected", "OK GRAPH g0"),
        ("PROMOTE", "ERR bad-command already primary"),
        (
            "SYNC g0 1 0 - undirected 6",
            "ERR unknown-graph g0 is not replicated on this server",
        ),
    ]);
    server.shutdown();
}
