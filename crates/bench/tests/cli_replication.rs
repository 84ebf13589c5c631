//! Replication end to end through the built binary: a primary/replica
//! pair (a gated `ACK`, the replica converging to `repl_seq=1`, a typed
//! `ERR not-primary`, `promote` to epoch 2, a drain and an offline
//! `verify-store` of both stores), and the failover oracle at the
//! `post-fsync` crash point with every surviving store scrubbed offline.

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
            std::env::temp_dir().join(format!("incgraph-cli-repl-{name}-{}", std::process::id()));
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

/// Asserts `out` exited 0, showing its stderr otherwise.
fn assert_ok(out: &Output, what: &str) {
    assert_eq!(
        out.status.code(),
        Some(0),
        "{what} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
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

/// Starts `incgraph serve --store <store> --nodes 256` on port 0 (plus
/// `extra`) and returns it with the address its listening line names.
fn serve(s: &Scratch, store: &str, extra: &[&str]) -> (Server, String) {
    let dir = s.path();
    let (out, err) = (format!("{store}.out"), format!("{store}.err"));
    let child = Command::new(env!("CARGO_BIN_EXE_incgraph"))
        .args(["serve", "--store", store, "--nodes", "256"])
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .current_dir(dir)
        .stdout(File::create(dir.join(&out)).unwrap())
        .stderr(File::create(dir.join(&err)).unwrap())
        .spawn()
        .expect("spawn incgraph serve");
    let server = Server(child);
    assert!(
        within_10s(|| s.read(&out).contains("listening")),
        "{store}: no listening line; stderr:\n{}",
        s.read(&err)
    );
    let addr = s.read(&out).split_whitespace().last().unwrap().to_string();
    (server, addr)
}

/// One client connection: `HELLO` as token `ci`, then `payload`; returns
/// the first `lines` reply lines, the `HELLO` answer included.
fn ask(addr: &str, payload: &str, lines: usize) -> Vec<String> {
    let mut wire = TcpStream::connect(addr).expect("connect");
    wire.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    wire.write_all(format!("HELLO incgraph-wire/1 ci\n{payload}").as_bytes())
        .unwrap();
    BufReader::new(wire)
        .lines()
        .take(lines)
        .map(|l| l.expect("a reply line"))
        .collect()
}

/// Sends a wire `SHUTDOWN` and waits for the server to exit 0.
fn drain(server: &mut Server, addr: &str) {
    ask(addr, "SHUTDOWN\n", 2);
    let mut status = None;
    assert!(
        within_10s(|| {
            status = server.0.try_wait().unwrap();
            status.is_some()
        }),
        "{addr} failed to drain"
    );
    assert_eq!(status.and_then(|s| s.code()), Some(0), "{addr} drain exit");
}

#[test]
fn a_primary_replica_pair_gates_acks_refuses_replica_writes_and_promotes() {
    let s = Scratch::new("pair");
    let (mut primary, pri) = serve(&s, "pridb", &[]);
    let (mut replica, rep) = serve(&s, "repdb", &["--replica-of", &pri]);

    // One batch on the primary; its ack is gated on the replica's
    // fsynced watermark (or the ack timeout).
    let ack = ask(&pri, "UPDATE g0 1 2\n+ 0 1 3\n+ 1 2 1\n", 2);
    assert!(ack[1].starts_with("ACK 1 "), "primary update: {ack:?}");

    // The replica converges to the primary's sequence and epoch.
    let mut status = String::new();
    within_10s(|| {
        status = ask(&rep, "STATUS\nBYE\n", 2).pop().unwrap_or_default();
        status.contains("role=replica") && status.contains("repl_seq=1")
    });
    assert!(
        status.contains("role=replica epoch=1 repl_seq=1"),
        "replica status: {status}"
    );

    // A write to the replica is refused with a typed error.
    let refused = ask(&rep, "UPDATE g0 1 1\n+ 2 3 1\n", 2);
    assert!(
        refused[1].starts_with("ERR not-primary"),
        "replica write: {refused:?}"
    );

    // Operator failover: promotion bumps the durable epoch, and the
    // promoted node takes the client's next batch.
    let promoted = incgraph(s.path(), &["promote", "--addr", &rep]);
    assert_ok(&promoted, "promote");
    assert!(
        String::from_utf8_lossy(&promoted.stdout).contains("promoted: epoch 2"),
        "promote: {}",
        String::from_utf8_lossy(&promoted.stdout)
    );
    let ack = ask(&rep, "UPDATE g0 2 1\n+ 2 3 1\n", 2);
    assert!(ack[1].starts_with("ACK 2 "), "promoted update: {ack:?}");

    // Drain both servers and scrub both stores offline.
    drain(&mut primary, &pri);
    drain(&mut replica, &rep);
    for store in ["pridb", "repdb"] {
        assert_ok(
            &incgraph(s.path(), &["verify-store", "--store", store]),
            &format!("verify-store {store}"),
        );
    }
}

#[test]
fn failover_at_post_fsync_leaves_stores_that_pass_the_scrub() {
    let s = Scratch::new("failover");
    let failover = incgraph(
        s.path(),
        &[
            "failover",
            "--store",
            "fodb",
            "--seed",
            "1",
            "--clients",
            "3",
            "--batches",
            "6",
            "--crash-at",
            "post-fsync",
        ],
    );
    assert_ok(&failover, "failover");
    let mut survivors: Vec<PathBuf> = std::fs::read_dir(s.path().join("fodb"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("cycle") && name.ends_with("-replica")
        })
        .collect();
    survivors.sort();
    assert!(!survivors.is_empty(), "no failed-over store survived");
    for store in &survivors {
        let store = store.to_str().unwrap();
        assert_ok(
            &incgraph(s.path(), &["verify-store", "--store", store]),
            &format!("verify-store {store}"),
        );
    }
}
