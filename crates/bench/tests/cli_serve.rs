//! `incgraph serve` and `incgraph load` end to end through the built
//! binary: a durable store served on an ephemeral port is refused to a
//! second opener, carries 200 load sessions across the seven classes
//! (BC among them), drains on a wire `SHUTDOWN`, and recovers offline.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output};
use std::thread::sleep;
use std::time::Duration;

/// A scratch directory, removed when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("incgraph-cli-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn read(&self, file: &str) -> String {
        std::fs::read_to_string(self.0.join(file)).unwrap_or_default()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A server process, killed if the test ends before it drained.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs `incgraph args…` inside `dir` to completion.
fn incgraph(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_incgraph"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn incgraph")
}

/// Polls `cond` every 100 ms, up to 10 s.
fn within_10s(mut cond: impl FnMut() -> bool) -> bool {
    for _ in 0..100 {
        if cond() {
            return true;
        }
        sleep(Duration::from_millis(100));
    }
    false
}

#[test]
fn serve_refuses_a_second_opener_carries_load_and_drains() {
    let s = Scratch::new("e2e");
    let dir = s.path();
    let child = Command::new(env!("CARGO_BIN_EXE_incgraph"))
        .args(["serve", "--store", "svcdb", "--nodes", "256"])
        .current_dir(dir)
        .stdout(File::create(dir.join("serve.out")).unwrap())
        .stderr(File::create(dir.join("serve.err")).unwrap())
        .spawn()
        .expect("spawn incgraph serve");
    let mut server = Server(child);
    assert!(
        within_10s(|| s.read("serve.out").contains("listening")),
        "no listening line; stderr:\n{}",
        s.read("serve.err")
    );
    let out = s.read("serve.out");
    let addr = out
        .split_whitespace()
        .last()
        .expect("an address")
        .to_string();

    // A second opener must be refused by the store LOCK (exit 7).
    let busy = incgraph(dir, &["serve", "--store", "svcdb"]);
    assert_eq!(busy.status.code(), Some(7), "second opener");
    assert!(String::from_utf8_lossy(&busy.stderr).contains("busy"));

    // 200 sessions across all seven classes; any failure exits 1.
    let load = incgraph(
        dir,
        &[
            "load",
            "--addr",
            &addr,
            "--sessions",
            "200",
            "--batches",
            "10",
            "--units",
            "8",
        ],
    );
    assert_eq!(
        load.status.code(),
        Some(0),
        "load failed:\n{}",
        String::from_utf8_lossy(&load.stderr)
    );

    // Drain over the wire and confirm a clean exit.
    let mut wire = TcpStream::connect(&addr).expect("connect");
    wire.write_all(b"HELLO incgraph-wire/1 ci\nSHUTDOWN\n")
        .unwrap();
    let mut replies = BufReader::new(wire).lines();
    for _ in 0..2 {
        replies.next().expect("a reply line").unwrap();
    }
    let mut status = None;
    assert!(
        within_10s(|| {
            status = server.0.try_wait().unwrap();
            status.is_some()
        }),
        "server failed to drain"
    );
    assert_eq!(status.and_then(|s| s.code()), Some(0));
    assert!(s.read("serve.err").contains("drained and stopped"));

    // The drained store recovers offline: LOCK released, WAL sane.
    let recovered = incgraph(
        dir,
        &["recover", "--store", "svcdb", "--out", "digests.txt"],
    );
    assert_eq!(
        recovered.status.code(),
        Some(0),
        "recover failed:\n{}",
        String::from_utf8_lossy(&recovered.stderr)
    );
    assert!(!s.read("digests.txt").is_empty(), "empty digests file");
}
