//! The `incgraph` CLI's argument surface, pinned from the outside.
//!
//! Every subcommand is driven through the real binary with a missing
//! value, an unparsable or out-of-range value, an unknown flag and a
//! missing required flag. Each case asserts the exit code and the
//! `error: …` line; a usage error must also be followed by the usage
//! text. A few loader and store cases pin the file-error exit codes and
//! the per-class digests that `checkpoint` and `recover` print.
//!
//! None of these cases binds a port or runs an oracle: every one fails
//! (or finishes) before any long-running work starts.

use std::path::{Path, PathBuf};
use std::process::Command;

const USAGE_HEAD: &str = "usage: incgraph <sssp|cc|sim|dfs|lcc|bc|reach> --graph G.txt";

/// A scratch directory holding a six-node path graph, an update file,
/// and malformed inputs, removed when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("incgraph-cli-args-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("full")).unwrap();
        std::fs::create_dir_all(dir.join("empty")).unwrap();
        std::fs::write(dir.join("full/x"), "").unwrap();
        std::fs::write(
            dir.join("g.txt"),
            "n 6\n0 1 2\n1 2 2\n2 3 2\n3 4 2\n4 5 2\n",
        )
        .unwrap();
        std::fs::write(dir.join("upd.txt"), "- 0 1\n+ 0 2 1\n").unwrap();
        std::fs::write(dir.join("bad.txt"), "0 not-a-node\n").unwrap();
        std::fs::write(dir.join("oor.txt"), "+ 0 99 1\n").unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    /// Runs `incgraph args…` inside the scratch dir; returns the exit
    /// code, stdout and stderr.
    fn run(&self, args: &[&str], env: &[(&str, &str)]) -> (i32, String, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_incgraph"))
            .args(args)
            .env_remove("DURABLE_CRASH_AT")
            .envs(env.iter().copied())
            .current_dir(&self.0)
            .output()
            .expect("spawn incgraph");
        (
            out.status.code().expect("incgraph killed by a signal"),
            String::from_utf8(out.stdout).unwrap(),
            String::from_utf8(out.stderr).unwrap(),
        )
    }

    /// Asserts exit `code` and that the first `error:` line of stderr is
    /// `error: {msg}`. Returns the stderr lines after it.
    fn fails_with(&self, args: &[&str], env: &[(&str, &str)], code: i32, msg: &str) -> Vec<String> {
        let (rc, _, err) = self.run(args, env);
        let lines: Vec<String> = err.lines().map(str::to_string).collect();
        let at = lines
            .iter()
            .position(|l| l.starts_with("error: "))
            .unwrap_or_else(|| panic!("incgraph {args:?}: no error line in stderr:\n{err}"));
        assert_eq!(lines[at], format!("error: {msg}"), "incgraph {args:?}");
        assert_eq!(rc, code, "incgraph {args:?}: exit code\n{err}");
        lines[at + 1..].to_vec()
    }

    /// A usage error: exit 2, the message, then the usage text.
    fn usage(&self, args: &[&str], msg: &str) {
        self.usage_env(args, &[], msg)
    }

    fn usage_env(&self, args: &[&str], env: &[(&str, &str)], msg: &str) {
        let rest = self.fails_with(args, env, 2, msg);
        assert!(
            rest.first().is_some_and(|l| l.starts_with(USAGE_HEAD)),
            "incgraph {args:?}: usage text must follow the message, got {rest:?}"
        );
    }

    /// An error without the usage text after it.
    fn error(&self, args: &[&str], code: i32, msg: &str) {
        let rest = self.fails_with(args, &[], code, msg);
        assert!(
            rest.first().is_none_or(|l| !l.starts_with(USAGE_HEAD)),
            "incgraph {args:?}: unexpected usage text"
        );
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn class_run_and_bench() {
    let s = Scratch::new("class");
    // Missing class or graph: the bare usage text is the message.
    let (rc, _, err) = s.run(&[], &[]);
    assert_eq!(rc, 2);
    assert!(err
        .lines()
        .next()
        .unwrap()
        .starts_with(&format!("error: {USAGE_HEAD}")));
    let (rc, _, err) = s.run(&["sssp"], &[]);
    assert_eq!(rc, 2);
    assert!(err
        .lines()
        .next()
        .unwrap()
        .starts_with(&format!("error: {USAGE_HEAD}")));

    s.usage(&["sssp", "--graph"], "--graph needs a path");
    s.usage(&["sssp", "--source", "x"], "--source needs a node id");
    s.usage(
        &["sssp", "--max-scope", "x"],
        "--max-scope needs a variable count",
    );
    s.usage(
        &["sssp", "--max-aff-frac", "1.5"],
        "--max-aff-frac needs a fraction in [0, 1]",
    );
    s.usage(
        &["sssp", "--graph", "g.txt", "--audit-stride", "0"],
        "--audit-stride needs an integer ≥ 1",
    );
    s.usage(&["sssp", "--bogus"], "unknown flag --bogus");
    s.usage(&["sssp", "--graph", "g.txt", "a"], "unexpected argument a");
    s.usage(
        &["bench", "--scale", "0"],
        "--scale needs a positive factor",
    );
    s.usage(
        &["bench", "--check-against"],
        "--check-against needs a path",
    );
    s.usage(&["bench", "--bogus"], "unknown flag --bogus");
    s.usage(&["sssp", "--metrics"], "--metrics needs a path");
    s.usage(&["stream", "--trace"], "--trace needs a path");
    s.usage(&["bogus", "--graph", "g.txt"], "unknown class bogus");
    for class in ["sssp", "reach"] {
        s.usage(
            &[class, "--graph", "g.txt", "--source", "9"],
            "source 9 is out of range for a graph of 6 node(s)",
        );
    }

    // The loader's exit classes: unreadable 3, parse 4, invalid ΔG 5.
    s.error(
        &["sssp", "--graph", "nope.txt"],
        3,
        "nope.txt: No such file or directory (os error 2)",
    );
    s.error(
        &["sssp", "--graph", "bad.txt"],
        4,
        "bad.txt:1: expected `<src> <dst> [w]`",
    );
    s.error(
        &["sssp", "--graph", "g.txt", "--updates", "nope.txt"],
        3,
        "nope.txt: No such file or directory (os error 2)",
    );
    s.error(
        &["sssp", "--graph", "g.txt", "--updates", "bad.txt"],
        4,
        "bad.txt:1: expected `(+|-) <src> <dst> [w]`",
    );
    s.error(
        &["sssp", "--graph", "g.txt", "--updates", "oor.txt"],
        5,
        "oor.txt: invalid update stream: update #0: node 99 out of range (graph has 6 nodes)",
    );

    let (rc, out, _) = s.run(
        &[
            "sssp",
            "--graph",
            "g.txt",
            "--source",
            "0",
            "--updates",
            "upd.txt",
        ],
        &[],
    );
    assert_eq!(rc, 0);
    assert_eq!(out, "0 0\n1 3\n2 1\n3 3\n4 5\n5 7\n");
}

#[test]
fn fuzz_replay_query() {
    let s = Scratch::new("oracle");
    s.usage(&["fuzz", "--seed"], "--seed needs an integer");
    s.usage(&["fuzz", "--cases", "0"], "--cases needs an integer ≥ 1");
    s.usage(
        &["fuzz", "--budget-secs", "-1"],
        "--budget-secs needs a positive number",
    );
    s.usage(
        &["fuzz", "--max-nodes", "5"],
        "--max-nodes needs an integer ≥ 6",
    );
    s.usage(&["fuzz", "--corpus"], "--corpus needs a dir");
    s.usage(
        &["fuzz", "--inject-fault"],
        "--inject-fault needs a fault name",
    );
    s.usage(&["fuzz", "--inject-fault", "nope"], "unknown fault `nope`");
    s.usage(&["fuzz", "--bogus"], "unknown fuzz flag --bogus");

    s.usage(&["replay"], "replay needs case files or directories");
    s.error(&["replay", "empty"], 2, "replay: no .case files found");
    s.error(
        &["replay", "nope.case"],
        3,
        "nope.case: No such file or directory (os error 2)",
    );

    s.usage(&["query"], "query needs --plan '<program>'");
    s.usage(&["query", "--plan", "p"], "query needs --graph G.txt");
    s.usage(&["query", "--plan"], "--plan needs a program");
    s.usage(&["query", "--updates"], "--updates needs a path");
    s.usage(
        &["query", "--pattern-seed", "x"],
        "--pattern-seed needs an integer",
    );
    s.usage(&["query", "--bogus"], "unknown query flag --bogus");
    s.error(
        &["query", "--plan", "zzz", "--graph", "g.txt"],
        2,
        "bad plan (incgraph-plan/1): plan binding 0: expected `name = expr`, got \"zzz\"",
    );
    s.error(
        &[
            "query",
            "--plan",
            "a = sssp(source=0)",
            "--graph",
            "nope.txt",
        ],
        3,
        "nope.txt: No such file or directory (os error 2)",
    );
    s.error(
        &[
            "query",
            "--plan",
            "a = sssp(source=0)",
            "--graph",
            "g.txt",
            "--updates",
            "bad.txt",
        ],
        4,
        "bad.txt:1: expected `(+|-) <src> <dst> [w]`",
    );
}

#[test]
fn checkpoint_recover_verify_store() {
    let s = Scratch::new("store");
    for cmd in ["checkpoint", "recover"] {
        s.usage(&[cmd], &format!("{cmd} needs --store DIR"));
        s.usage(&[cmd, "--store"], "--store needs a dir");
        s.usage(&[cmd, "--bogus"], &format!("unknown {cmd} flag --bogus"));
    }
    s.usage(
        &["checkpoint", "--store", "d", "--source", "x"],
        "--source needs a node id",
    );
    s.usage(&["checkpoint", "--seed", "x"], "--seed needs an integer");
    s.usage(&["checkpoint", "--classes"], "--classes needs a list");
    s.usage(&["recover", "--out"], "--out needs a path");
    s.usage(
        &["checkpoint", "--store", "new"],
        "checkpoint on a new store needs --graph",
    );
    s.usage(
        &[
            "checkpoint",
            "--store",
            "new",
            "--graph",
            "g.txt",
            "--classes",
            "nope",
        ],
        "unknown class nope",
    );
    s.usage(
        &[
            "checkpoint",
            "--store",
            "new",
            "--graph",
            "g.txt",
            "--directed",
            "--classes",
            "lcc",
        ],
        "lcc: lcc is only defined on undirected graphs, but the graph is directed",
    );
    s.usage_env(
        &["checkpoint", "--store", "new"],
        &[("DURABLE_CRASH_AT", "bogus")],
        "DURABLE_CRASH_AT: corrupt durable state: DURABLE_CRASH_AT=bogus: expected one of \
         pre-fsync, post-fsync, mid-checkpoint, post-rename",
    );
    assert!(
        !s.path().join("new").exists(),
        "a refused checkpoint created its store"
    );
    s.error(
        &["checkpoint", "--store", "new", "--graph", "nope.txt"],
        3,
        "nope.txt: No such file or directory (os error 2)",
    );
    s.error(
        &["recover", "--store", "nostore"],
        3,
        "nostore: io error: No such file or directory (os error 2)",
    );

    s.usage(&["verify-store"], "verify-store needs --store DIR");
    s.usage(&["verify-store", "--store"], "--store needs a dir");
    s.usage(
        &["verify-store", "--bogus"],
        "unknown verify-store flag --bogus",
    );

    // A fresh store and its recovery print the same per-class digests.
    let undirected = "sssp c369c557\ncc e12bec83\nsim 81910e9a\nreach 1216d30c\n\
                      lcc 5d8cc208\ndfs d9c4123e\nbc 3bb37276\n";
    let directed = "sssp ed5b74ff\ncc dfb16d74\nsim cea5fe50\nreach 3bef9fbc\ndfs a383dbe7\n";
    for (store, extra, digests) in [
        ("u", &["--updates", "upd.txt"][..], undirected),
        ("d", &["--directed", "--source", "1"][..], directed),
    ] {
        let mut args = vec!["checkpoint", "--store", store, "--graph", "g.txt"];
        args.extend_from_slice(extra);
        let (rc, out, err) = s.run(&args, &[]);
        assert_eq!(
            (rc, out.as_str()),
            (0, digests),
            "checkpoint {store}: {err}"
        );
        let (rc, out, err) = s.run(&["recover", "--store", store], &[]);
        assert_eq!((rc, out.as_str()), (0, digests), "recover {store}: {err}");
    }
}

#[test]
fn serve_load_promote_chaos_failover() {
    let s = Scratch::new("service");
    s.usage(&["serve", "--addr"], "--addr needs host:port");
    s.usage(&["serve", "--nodes", "x"], "--nodes needs an integer");
    s.usage(
        &["serve", "--idle-timeout-secs", "-1"],
        "--idle-timeout-secs needs an integer",
    );
    s.usage(
        &["serve", "--flush-ops", "4"],
        "unknown serve flag --flush-ops",
    );
    s.usage(
        &["serve", "--replica-of", "nope"],
        "--replica-of needs host:port",
    );
    s.usage(
        &["serve", "--digest-every", "x"],
        "--digest-every needs an integer (0 disables)",
    );
    s.usage(&["serve", "--bogus"], "unknown serve flag --bogus");
    s.usage(
        &["serve", "--replica-of", "127.0.0.1:9"],
        "--replica-of needs --store (replicas are durable)",
    );
    s.usage(
        &["serve", "--store", "d", "--nodes", "0"],
        "--store needs --nodes >= 1 to initialize a graph",
    );

    s.usage(&["load"], "load needs --addr HOST:PORT");
    s.usage(&["load", "--addr", "nope"], "--addr: cannot parse nope");
    s.usage(&["load", "--sessions", "x"], "--sessions needs an integer");
    s.usage(&["load", "--units"], "--units needs an integer");
    s.usage(&["load", "--bogus"], "unknown load flag --bogus");

    s.usage(&["promote"], "promote needs --addr H:P");
    s.usage(&["promote", "--addr"], "--addr needs host:port");
    s.usage(&["promote", "--addr", "nope"], "bad address `nope`");
    s.usage(&["promote", "--bogus"], "unknown promote flag --bogus");

    for cmd in ["chaos", "failover"] {
        s.usage(&[cmd], &format!("{cmd} needs --store DIR"));
        s.usage(&[cmd, "--store"], "--store needs a dir");
        s.usage(&[cmd, "--clients", "x"], "--clients needs an integer");
        s.usage(&[cmd, "--seed"], "--seed needs an integer");
        s.usage(&[cmd, "--bogus"], &format!("unknown {cmd} flag --bogus"));
        s.usage(
            &[cmd, "--store", "full"],
            &format!("--store full is not empty: {cmd} needs a fresh store"),
        );
    }
    // Each schedule's own flags are unknown to the other.
    s.usage(&["chaos", "--kills"], "--kills needs an integer");
    s.usage(
        &["chaos", "--crash-at", "post-fsync"],
        "unknown chaos flag --crash-at",
    );
    s.usage(
        &["failover", "--kills", "3"],
        "unknown failover flag --kills",
    );
    s.usage(
        &["failover", "--no-proxy-faults"],
        "unknown failover flag --no-proxy-faults",
    );
    s.usage(
        &["failover", "--crash-at"],
        "--crash-at needs a crash point name",
    );
    s.usage(
        &["failover", "--crash-at", "nope"],
        "unknown crash point `nope`",
    );
}

#[test]
fn stream() {
    let s = Scratch::new("stream");
    s.usage(&["stream", "--store"], "--store needs a dir");
    s.usage(
        &["stream", "--rate", "0"],
        "--rate needs a positive ops/sec",
    );
    s.usage(
        &["stream", "--flush-ops", "0"],
        "--flush-ops needs an integer >= 1",
    );
    s.usage(
        &["stream", "--flush-ms", "-1"],
        "--flush-ms needs a non-negative number",
    );
    s.usage(
        &["stream", "--deadline-ms", "0"],
        "--deadline-ms needs a positive number",
    );
    s.usage(
        &["stream", "--max-lag-ms", "x"],
        "--max-lag-ms needs a positive number",
    );
    s.usage(&["stream", "--seed", "7"], "unknown stream flag --seed");
    s.usage(
        &["stream", "--scale", "0"],
        "--scale needs a positive factor",
    );
    s.usage(
        &["stream", "--windows", "0"],
        "--windows needs an integer >= 1",
    );
    s.usage(
        &["stream", "--max-ops", "0"],
        "--max-ops needs an integer >= 1",
    );
    s.usage(
        &["stream", "--checkpoint-every", "x"],
        "--checkpoint-every needs an integer (0 = off)",
    );
    s.usage(
        &["stream", "--crash-at"],
        "--crash-at needs a crash point name",
    );
    s.usage(
        &["stream", "--crash-at", "nope"],
        "unknown crash point `nope`",
    );
    s.usage(
        &["stream", "--kill-at", "2"],
        "--kill-at needs a fraction in [0, 1]",
    );
    s.usage(&["stream", "--out"], "--out needs a path");
    s.usage(
        &["stream", "--check-against"],
        "--check-against needs a path",
    );
    s.usage(&["stream", "--bogus"], "unknown stream flag --bogus");
}
