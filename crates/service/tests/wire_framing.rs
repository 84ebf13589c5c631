//! The wire's line framing, as the server's session reader applies it.
//!
//! A line ends at LF, a trailing CR is stripped, a line may arrive in
//! pieces across read polls, and a line longer than
//! [`MAX_LINE_BYTES`] ends the session with a typed refusal, whether it
//! is a command line or an `UPDATE` body line. Each case starts a lone
//! in-memory server and speaks raw bytes over a real socket.

use incgraph_service::protocol::MAX_LINE_BYTES;
use incgraph_service::server::{Server, ServerConfig, ServerHandle};
use incgraph_service::store::{Store, StoreLimits};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

const READ_POLL: Duration = Duration::from_millis(10);

fn lone_server() -> ServerHandle {
    let cfg = ServerConfig {
        read_poll: READ_POLL,
        ..ServerConfig::default()
    };
    Server::start(Store::new(StoreLimits::default()), cfg).expect("start server")
}

/// A raw session past `HELLO`.
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
        wire.send(b"HELLO incgraph-wire/1 framing\n");
        let welcome = wire.recv();
        assert!(welcome.starts_with("WELCOME "), "{welcome}");
        wire
    }

    fn send(&mut self, bytes: &[u8]) {
        let s = self.reader.get_mut();
        s.write_all(bytes).unwrap();
        s.flush().unwrap();
    }

    /// The next reply line, LF stripped (and nothing else).
    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply line");
        assert!(line.ends_with('\n'), "reply cut short: {line:?}");
        line.pop();
        line
    }

    /// Sends one line of `MAX_LINE_BYTES + 1` bytes. The server stops
    /// reading once the cap is passed, so the tail may meet a closed
    /// socket; only the replies matter.
    fn send_too_long(&mut self) {
        let mut line = vec![b'x'; MAX_LINE_BYTES + 1];
        line.push(b'\n');
        let _ = self.reader.get_mut().write_all(&line);
    }

    /// The refusal an over-long line gets, then the end of the session.
    fn expect_too_long(&mut self) {
        assert_eq!(self.recv(), "ERR too-large line exceeds 1 MiB");
        assert_eq!(self.recv(), "GOODBYE protocol-error");
        let mut rest = String::new();
        let n = self.reader.read_line(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "nothing follows the GOODBYE: {rest:?}");
    }
}

#[test]
fn crlf_line_is_one_command() {
    let mut server = lone_server();
    let mut w = Wire::open(&server);
    w.send(b"PING\r\n");
    assert_eq!(w.recv(), "PONG");
    server.shutdown();
}

#[test]
fn line_split_across_read_polls_gets_one_reply() {
    let mut server = lone_server();
    let mut w = Wire::open(&server);
    w.send(b"PI");
    std::thread::sleep(READ_POLL * 10);
    w.send(b"NG\n");
    assert_eq!(w.recv(), "PONG");
    // Had the first half been taken for a line of its own, its refusal
    // would come before this reply.
    w.send(b"STATUS\n");
    let status = w.recv();
    assert!(status.starts_with("OK STATUS "), "{status}");
    server.shutdown();
}

#[test]
fn over_long_command_line_ends_the_session() {
    let mut server = lone_server();
    let mut w = Wire::open(&server);
    w.send_too_long();
    w.expect_too_long();
    server.shutdown();
}

#[test]
fn over_long_update_body_line_ends_the_session() {
    let mut server = lone_server();
    let mut w = Wire::open(&server);
    w.send(b"GRAPH g0 4 undirected\n");
    assert_eq!(w.recv(), "OK GRAPH g0");
    w.send(b"UPDATE g0 1 1\n");
    w.send_too_long();
    w.expect_too_long();
    server.shutdown();
}
