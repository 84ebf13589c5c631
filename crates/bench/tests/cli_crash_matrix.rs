//! Kill the `incgraph checkpoint` process at each crash point, recover
//! the store, and resume it — driven through the built binary.
//!
//! For each of the four points of `DURABLE_CRASH_AT`, a fresh store is
//! created from a five-node ring and takes one update file, then:
//!
//! 1. a second update under the armed crash exits with code 6;
//! 2. `recover --out` writes a non-empty digest file;
//! 3. the recovered store takes a third update and a checkpoint;
//! 4. a second `recover` succeeds.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory holding the graph and update files, removed when
/// the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(point: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "incgraph-crash-matrix-{point}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in [
            ("g.txt", "0 1 2\n1 2 1\n2 3 4\n3 4 1\n4 0 2\n"),
            ("d1.txt", "+ 0 3 1\n- 1 2\n"),
            ("d2.txt", "+ 1 3 5\n"),
            ("d3.txt", "+ 2 0 7\n"),
        ] {
            std::fs::write(dir.join(name), text).unwrap();
        }
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    /// Runs `incgraph args…` inside the scratch dir with `DURABLE_CRASH_AT`
    /// set to `crash` (unset for `None`); returns the exit code and stderr.
    fn run(&self, args: &[&str], crash: Option<&str>) -> (i32, String) {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_incgraph"));
        cmd.args(args)
            .env_remove("DURABLE_CRASH_AT")
            .current_dir(&self.0);
        if let Some(point) = crash {
            cmd.env("DURABLE_CRASH_AT", point);
        }
        let out = cmd.output().expect("spawn incgraph");
        (
            out.status.code().expect("incgraph killed by a signal"),
            String::from_utf8(out.stderr).unwrap(),
        )
    }

    /// Runs `incgraph args…` and asserts it exits 0.
    fn ok(&self, args: &[&str]) {
        let (rc, err) = self.run(args, None);
        assert_eq!(rc, 0, "incgraph {args:?} failed:\n{err}");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn kill_recover_resume_at_every_crash_point() {
    for point in ["pre-fsync", "post-fsync", "mid-checkpoint", "post-rename"] {
        let s = Scratch::new(point);
        s.ok(&["checkpoint", "--store", "store", "--graph", "g.txt"]);
        s.ok(&["checkpoint", "--store", "store", "--updates", "d1.txt"]);
        let (rc, err) = s.run(
            &["checkpoint", "--store", "store", "--updates", "d2.txt"],
            Some(point),
        );
        assert_eq!(
            rc, 6,
            "{point}: the injected crash must kill the process\n{err}"
        );
        s.ok(&["recover", "--store", "store", "--out", "digests.txt"]);
        let digests = std::fs::read(s.path().join("digests.txt")).unwrap();
        assert!(!digests.is_empty(), "{point}: recover --out wrote nothing");
        // A recovered store is a live store: it must keep accepting
        // updates and survive a second recovery.
        s.ok(&["checkpoint", "--store", "store", "--updates", "d3.txt"]);
        s.ok(&["recover", "--store", "store"]);
    }
}
