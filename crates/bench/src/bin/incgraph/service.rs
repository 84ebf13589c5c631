//! The service subcommands: `incgraph serve`, `incgraph load`,
//! `incgraph promote`, and the network-fault oracle under its two
//! schedules, `incgraph chaos` and `incgraph failover`.

use crate::args::{self, durable_error, output_error, usage};
use crate::CliError;
use incgraph_durable::{CrashPoint, DurableOptions};
use std::io::Write;
use std::time::Duration;

/// `incgraph serve`: bind the `incgraph-wire/1` TCP server and run until
/// a wire `SHUTDOWN` drains it. With `--store DIR` the named graph is
/// WAL-durable (recovered if the store exists, initialized from
/// `--nodes`/`--directed` otherwise) and protected by the store `LOCK` —
/// a second server on the same store exits with code 7. Without it the
/// store starts empty and clients create in-memory graphs over the wire.
pub(crate) fn run_serve(argv: &[String]) -> Result<(), CliError> {
    use incgraph_service::{Server, ServerConfig, Store, StoreLimits};
    let mut cfg = ServerConfig::default();
    let mut store_dir: Option<String> = None;
    let mut graph_name = "g0".to_string();
    let mut nodes = 64usize;
    let mut directed = false;
    args::parse(argv, |a, rest| {
        match a {
            "--addr" => cfg.addr = rest.path("--addr needs host:port")?,
            "--store" => store_dir = Some(rest.path("--store needs a dir")?),
            "--graph-name" => graph_name = rest.path("--graph-name needs a name")?,
            "--nodes" => nodes = rest.value("--nodes needs an integer")?,
            "--directed" => directed = true,
            "--max-sessions" => cfg.max_sessions = rest.value("--max-sessions needs an integer")?,
            "--max-pending" => cfg.max_pending = rest.value("--max-pending needs an integer")?,
            "--idle-timeout-secs" => {
                cfg.idle_timeout =
                    Duration::from_secs(rest.value("--idle-timeout-secs needs an integer")?)
            }
            "--retry-after-ms" => {
                cfg.retry_after_ms = rest.value("--retry-after-ms needs an integer")?
            }
            "--no-remote-shutdown" => cfg.allow_remote_shutdown = false,
            "--replica-of" => cfg.replica_of = Some(rest.value("--replica-of needs host:port")?),
            "--digest-every" => {
                cfg.digest_every = rest.value("--digest-every needs an integer (0 disables)")?
            }
            "--snapshot-lag" => cfg.snapshot_lag = rest.value("--snapshot-lag needs an integer")?,
            "--ack-timeout-ms" => {
                cfg.repl_ack_timeout =
                    Duration::from_millis(rest.value("--ack-timeout-ms needs an integer")?)
            }
            flag => return Err(usage(&format!("unknown serve flag {flag}"))),
        }
        Ok(())
    })?;
    // Replication is scoped to the durable graph: any server with a
    // store is a potential primary (or, with --replica-of, a replica).
    if store_dir.is_some() {
        cfg.repl_graph = Some(graph_name.clone());
    } else if cfg.replica_of.is_some() {
        return Err(usage("--replica-of needs --store (replicas are durable)"));
    }
    let store = match &store_dir {
        Some(dir) => {
            if nodes == 0 {
                return Err(usage("--store needs --nodes >= 1 to initialize a graph"));
            }
            let store = Store::open_durable(
                std::path::Path::new(dir),
                &graph_name,
                nodes,
                directed,
                DurableOptions::default(),
                StoreLimits::default(),
            )
            .map_err(|e| durable_error(dir, e))?;
            eprintln!("durable graph {graph_name} mounted from {dir}");
            store
        }
        None => Store::new(StoreLimits::default()),
    };
    if !cfg.allow_remote_shutdown {
        eprintln!("serve: wire SHUTDOWN disabled — stop the process to exit");
    }
    if let Some(primary) = cfg.replica_of {
        eprintln!("serve: replica of {primary} — read-only until promoted");
    }
    let mut handle = Server::start(store, cfg).map_err(output_error("listener"))?;
    // Machine-readable bind line on stdout so scripts can discover an
    // ephemeral port; everything else goes to stderr.
    println!("incgraph-wire/1 listening on {}", handle.addr());
    std::io::stdout().flush().ok();
    handle.wait();
    eprintln!("serve: drained and stopped");
    Ok(())
}

/// `incgraph load`: drive many concurrent sessions (classes round-robin
/// over all seven) against a live server and print per-class
/// `UPDATE`→`ACK` percentiles. Any session failing is an oracle-grade
/// error (exit 1) so CI smoke jobs fail loudly.
pub(crate) fn run_load_cmd(argv: &[String]) -> Result<(), CliError> {
    use incgraph_service::LoadConfig;
    let mut cfg = LoadConfig::default();
    let mut addr: Option<String> = None;
    args::parse(argv, |a, rest| {
        match a {
            "--addr" => addr = Some(rest.path("--addr needs host:port")?),
            "--sessions" => cfg.sessions = rest.value("--sessions needs an integer")?,
            "--batches" => cfg.batches_per_session = rest.value("--batches needs an integer")?,
            "--units" => cfg.units_per_batch = rest.value("--units needs an integer")?,
            "--nodes" => cfg.nodes = rest.value("--nodes needs an integer")?,
            "--seed" => cfg.seed = rest.value("--seed needs an integer")?,
            flag => return Err(usage(&format!("unknown load flag {flag}"))),
        }
        Ok(())
    })?;
    let addr = addr.ok_or_else(|| usage("load needs --addr HOST:PORT"))?;
    cfg.addr = addr
        .parse()
        .map_err(|_| usage(&format!("--addr: cannot parse {addr}")))?;
    eprintln!(
        "load: {} sessions × {} batches × {} units against {}",
        cfg.sessions, cfg.batches_per_session, cfg.units_per_batch, cfg.addr
    );
    let report = incgraph_service::run_load(&cfg);
    print!("{report}");
    if report.sessions_failed > 0 {
        return Err(CliError::Oracle(format!(
            "load: {} of {} sessions failed",
            report.sessions_failed, cfg.sessions
        )));
    }
    Ok(())
}

/// `incgraph chaos` / `incgraph failover`: the network-fault oracle
/// from `crates/oracle` (docs/ROBUSTNESS.md §6) under its restart or its
/// failover schedule — real servers, concurrent exactly-once clients,
/// kills keyed to their progress — then a WAL audit (exactly-once for
/// every ack), an ack-table check and an essence check of each surviving
/// store against genesis replay. Any violation exits 1. The store must be
/// empty or absent: the audit reads its whole history.
pub(crate) fn run_chaos_cmd(cmd: &str, argv: &[String]) -> Result<(), CliError> {
    use incgraph_oracle::{ChaosConfig, Schedule};
    let mut cfg = ChaosConfig::default();
    if cmd == "failover" {
        cfg.schedule = Schedule::Failover {
            points: CrashPoint::ALL.to_vec(),
        };
    }
    let mut store: Option<String> = None;
    args::parse(argv, |a, rest| {
        match (a, &mut cfg.schedule) {
            ("--store", _) => store = Some(rest.path("--store needs a dir")?),
            ("--seed", _) => cfg.seed = rest.value("--seed needs an integer")?,
            ("--clients", _) => cfg.clients = rest.value("--clients needs an integer")?,
            ("--batches", _) => {
                cfg.batches_per_client = rest.value("--batches needs an integer")?
            }
            ("--kills", Schedule::Restarts { kills, .. }) => {
                *kills = rest.value("--kills needs an integer")?
            }
            ("--no-proxy-faults", Schedule::Restarts { proxy_faults, .. }) => *proxy_faults = false,
            ("--crash-at", Schedule::Failover { points }) => {
                let name = rest.path("--crash-at needs a crash point name")?;
                *points = vec![CrashPoint::parse(&name)
                    .ok_or_else(|| usage(&format!("unknown crash point `{name}`")))?];
            }
            (flag, _) => return Err(usage(&format!("unknown {cmd} flag {flag}"))),
        }
        Ok(())
    })?;
    let store = store.ok_or_else(|| usage(&format!("{cmd} needs --store DIR")))?;
    // A second run on the same store would audit the first run's history
    // against the second run's clients: refuse it before any server starts.
    if std::fs::read_dir(&store).is_ok_and(|mut d| d.next().is_some()) {
        return Err(usage(&format!(
            "--store {store} is not empty: {cmd} needs a fresh store"
        )));
    }
    eprintln!(
        "{cmd}: seed {:#x}, {} clients × {} batches, {:?}",
        cfg.seed, cfg.clients, cfg.batches_per_client, cfg.schedule
    );
    let report = incgraph_oracle::run_chaos(std::path::Path::new(&store), &cfg)
        .map_err(|e| CliError::Oracle(format!("{cmd} violation: {e}")))?;
    println!(
        "{cmd} clean: {} stores, {} acked ({} dup acks), {} reconnects, {} server deaths \
         (acked at each: {:?}), {} WAL batches, {} class essences verified",
        report.stores,
        report.acked,
        report.dup_acks,
        report.reconnects,
        report.acked_at_deaths.len(),
        report.acked_at_deaths,
        report.wal_batches,
        report.classes_verified
    );
    Ok(())
}

/// `incgraph promote`: operator promotion of a replica to primary.
/// Bumps the durable epoch; prints the new epoch on stdout.
pub(crate) fn run_promote(argv: &[String]) -> Result<(), CliError> {
    use incgraph_service::client::Client;
    let mut addr: Option<String> = None;
    args::parse(argv, |a, rest| {
        match a {
            "--addr" => addr = Some(rest.path("--addr needs host:port")?),
            flag => return Err(usage(&format!("unknown promote flag {flag}"))),
        }
        Ok(())
    })?;
    let addr = addr.ok_or_else(|| usage("promote needs --addr H:P"))?;
    let sock: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| usage(&format!("bad address `{addr}`")))?;
    let mut c = Client::connect_timeout(sock, "promote-cli", Duration::from_secs(5))
        .map_err(|e| CliError::Oracle(format!("{addr}: connect: {e}")))?;
    let epoch = c
        .promote()
        .map_err(|e| CliError::Oracle(format!("{addr}: promote refused: {e}")))?;
    println!("promoted: epoch {epoch}");
    let _ = c.bye();
    Ok(())
}
