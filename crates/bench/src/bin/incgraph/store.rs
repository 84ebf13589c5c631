//! The durable-store subcommands: `incgraph checkpoint`, `incgraph
//! recover` and `incgraph verify-store`.

use crate::args::{self, durable_error, read_graph_file, read_updates_file, usage, write_out};
use crate::CliError;
use incgraph_algos::{QueryClass, Session};
use incgraph_durable::{crc::crc32, CrashPoint, DurableOptions, DurableSession};
use incgraph_graph::DynamicGraph;
use incgraph_workloads::random_pattern;
use std::time::Instant;

/// Flags shared by the two durable-store subcommands.
struct StoreArgs {
    store: String,
    graph: Option<String>,
    updates: Option<String>,
    directed: bool,
    source: u32,
    seed: u64,
    classes: Option<Vec<String>>,
    out: Option<String>,
}

fn parse_store_args(cmd: &str, argv: &[String]) -> Result<StoreArgs, CliError> {
    let mut args = StoreArgs {
        store: String::new(),
        graph: None,
        updates: None,
        directed: false,
        source: 0,
        seed: 42,
        classes: None,
        out: None,
    };
    args::parse(argv, |a, rest| {
        match a {
            "--store" => args.store = rest.path("--store needs a dir")?,
            "--graph" => args.graph = Some(rest.path("--graph needs a path")?),
            "--updates" => args.updates = Some(rest.path("--updates needs a path")?),
            "--directed" => args.directed = true,
            "--source" => args.source = rest.value("--source needs a node id")?,
            "--seed" => args.seed = rest.value("--seed needs an integer")?,
            "--classes" => {
                let list = rest.path("--classes needs a list")?;
                args.classes = Some(list.split(',').map(str::to_string).collect());
            }
            "--out" => args.out = Some(rest.path("--out needs a path")?),
            flag => return Err(usage(&format!("unknown {cmd} flag {flag}"))),
        }
        Ok(())
    })?;
    if args.store.is_empty() {
        return Err(usage(&format!("{cmd} needs --store DIR")));
    }
    Ok(args)
}

/// Builds fresh batch states for a new store: the `--classes` list, or
/// by default every class defined on the graph's direction, in
/// [`QueryClass::ALL`] order.
fn store_states(g: &DynamicGraph, args: &StoreArgs) -> Result<Vec<Session>, CliError> {
    let names: Vec<&str> = match &args.classes {
        Some(list) => list.iter().map(String::as_str).collect(),
        None => QueryClass::ALL
            .into_iter()
            .filter(|c| !(c.requires_undirected() && g.is_directed()))
            .map(QueryClass::name)
            .collect(),
    };
    let mut states = Vec::with_capacity(names.len());
    for name in names {
        let class =
            QueryClass::from_name(name).ok_or_else(|| usage(&format!("unknown class {name}")))?;
        let mut builder = Session::builder(class);
        if class.source_rooted() {
            builder = builder.source(args.source);
        }
        if class == QueryClass::Sim {
            builder = builder.pattern(random_pattern(g, 4, 6, args.seed));
        }
        states.push(
            builder
                .build(g)
                .map_err(|e| usage(&format!("{name}: {e}")))?,
        );
    }
    Ok(states)
}

/// One digest line per state: class name + CRC-32 of the essence, the
/// same equality the crash oracle checks — two stores printing the same
/// digests hold value-identical worlds.
fn state_digests(session: &mut DurableSession) -> Vec<String> {
    session
        .essences()
        .map(|(name, blob)| format!("{name} {:08x}", crc32(&blob)))
        .collect()
}

/// `incgraph checkpoint`: open (or create, from `--graph`) the durable
/// store, WAL-log the optional `--updates` batch through the hardened
/// incremental pipeline, and force a checkpoint. `DURABLE_CRASH_AT`
/// arms a one-shot injected crash at the named pipeline point.
pub(crate) fn run_checkpoint(argv: &[String]) -> Result<(), CliError> {
    let args = parse_store_args("checkpoint", argv)?;
    let store = args.store.as_str();
    let crash = CrashPoint::from_env().map_err(|e| usage(&format!("DURABLE_CRASH_AT: {e}")))?;

    let manifest_exists = std::path::Path::new(store)
        .join(incgraph_durable::checkpoint::MANIFEST_NAME)
        .exists();
    let mut session = if manifest_exists {
        let (session, report) =
            incgraph_durable::recover(std::path::Path::new(store), DurableOptions::default())
                .map_err(|e| durable_error(store, e))?;
        eprintln!(
            "opened {store}: checkpoint seq {}, {} WAL record(s) replayed",
            report.checkpoint_seq, report.wal_records_replayed
        );
        session
    } else {
        let graph_path = args
            .graph
            .as_deref()
            .ok_or_else(|| usage("checkpoint on a new store needs --graph"))?;
        let g = read_graph_file(graph_path, args.directed)?;
        eprintln!(
            "creating {store} from {graph_path}: |V|={}, |E|={}",
            g.node_count(),
            g.edge_count()
        );
        let states = store_states(&g, &args)?;
        DurableSession::create(
            std::path::Path::new(store),
            g,
            states,
            DurableOptions::default(),
        )
        .map_err(|e| durable_error(store, e))?
    };

    session.arm_crash(crash);
    if let Some(path) = &args.updates {
        let batch = read_updates_file(path)?;
        let reports = session.apply(&batch).map_err(|e| durable_error(store, e))?;
        let fallbacks = reports.iter().filter(|r| r.fallback.is_some()).count();
        eprintln!(
            "applied ΔG as WAL record {} ({} state(s), {} fallback(s))",
            session.last_seq(),
            reports.len(),
            fallbacks
        );
    }
    let seq = session.checkpoint().map_err(|e| durable_error(store, e))?;
    eprintln!("checkpoint covering seq {seq} written");
    for line in state_digests(&mut session) {
        println!("{line}");
    }
    Ok(())
}

/// `incgraph recover`: rebuild live state from the store and print the
/// recovery report plus per-class digests (to `--out` if given).
pub(crate) fn run_recover(argv: &[String]) -> Result<(), CliError> {
    let args = parse_store_args("recover", argv)?;
    let store = args.store.as_str();
    let t = Instant::now();
    let (mut session, report) =
        incgraph_durable::recover(std::path::Path::new(store), DurableOptions::default())
            .map_err(|e| durable_error(store, e))?;
    eprintln!(
        "recovered {store} in {:.3} ms: checkpoint seq {} ({}), {} WAL record(s) replayed, \
         {} fallback(s)",
        t.elapsed().as_secs_f64() * 1e3,
        report.checkpoint_seq,
        if report.used_manifest {
            "via manifest"
        } else {
            "via directory scan"
        },
        report.wal_records_replayed,
        report.fallbacks
    );
    if report.checkpoints_skipped > 0 {
        eprintln!(
            "recover: skipped {} invalid/stale checkpoint(s)",
            report.checkpoints_skipped
        );
    }
    if report.wal_truncated_bytes > 0 {
        eprintln!(
            "recover: truncated {} torn byte(s) from the WAL tail",
            report.wal_truncated_bytes
        );
    }
    if report.wal_records_dropped > 0 {
        eprintln!(
            "recover: dropped {} corrupt WAL record(s)",
            report.wal_records_dropped
        );
    }
    eprintln!(
        "live state: |V|={}, |E|={}, seq {}",
        session.graph().node_count(),
        session.graph().edge_count(),
        session.last_seq()
    );
    write_out(&args.out, state_digests(&mut session).into_iter())
}
/// `incgraph verify-store`: offline read-only scrub of a durable store
/// directory. Walks every checkpoint (magic + whole-file CRC + payload
/// decode), the full WAL (per-record CRC and sequence continuity from
/// the store's base, then the fold of its client origins: per token,
/// `client_seq` strictly increases), and the manifest/EPOCH/BASE
/// sidecars, then cross-checks their consistency. Never takes the store
/// `LOCK` and mutates nothing, so it is safe on a store a live server
/// holds. Integrity violations exit 1; a torn WAL tail is reported but
/// healthy (crash-normal).
pub(crate) fn run_verify_store(argv: &[String]) -> Result<(), CliError> {
    use incgraph_durable::checkpoint::{
        checkpoint_path, list_checkpoints, load_checkpoint, read_manifest,
    };
    use incgraph_durable::wal::WAL_MAGIC;
    use incgraph_durable::{read_base, read_epoch, scan_records, WAL_NAME};
    let mut store: Option<String> = None;
    args::parse(argv, |a, rest| {
        match a {
            "--store" => store = Some(rest.path("--store needs a dir")?),
            flag => return Err(usage(&format!("unknown verify-store flag {flag}"))),
        }
        Ok(())
    })?;
    let store = store.ok_or_else(|| usage("verify-store needs --store DIR"))?;
    let dir = std::path::Path::new(&store);
    let bad = |msg: String| CliError::Oracle(format!("{store}: {msg}"));

    // Sidecars: corrupt metadata is a hard failure, missing is default.
    let epoch = read_epoch(dir).map_err(|e| durable_error(&store, e))?;
    let base = read_base(dir).map_err(|e| durable_error(&store, e))?;

    // Every checkpoint must fully validate, and its filename sequence
    // must match the sequence sealed inside the payload.
    let ckpts = list_checkpoints(dir);
    for &seq in &ckpts {
        let (covered, _graph, states, _acks) = load_checkpoint(&checkpoint_path(dir, seq))
            .map_err(|e| bad(format!("checkpoint {seq}: {e}")))?;
        if covered != seq {
            return Err(bad(format!(
                "checkpoint {seq}: payload covers seq {covered}"
            )));
        }
        eprintln!(
            "verify-store: checkpoint {seq} ok ({} states)",
            states.len()
        );
    }

    // The WAL: per-record CRC + strict sequence continuity from base.
    let wal_path = dir.join(WAL_NAME);
    let bytes = std::fs::read(&wal_path).map_err(|e| CliError::FileUnreadable {
        path: wal_path.display().to_string(),
        source: e,
    })?;
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(bad("WAL magic missing or damaged".into()));
    }
    let body = &bytes[WAL_MAGIC.len()..];
    let scan = scan_records(body, base + 1);
    let torn = body.len() - scan.valid_len;
    let last_seq = base + scan.records.len() as u64;
    eprintln!(
        "verify-store: WAL records {}..={} ok ({} records, {torn} torn tail bytes)",
        base + 1,
        last_seq,
        scan.records.len()
    );

    // The exactly-once origins: no (token, client_seq) names two records.
    let acks = incgraph_oracle::walcheck::fold_origins(&scan.records)
        .map_err(|e| bad(format!("WAL origins: {e}")))?;
    eprintln!(
        "verify-store: WAL origins ok ({} client tokens)",
        acks.len()
    );

    // Cross-consistency.
    let manifest = read_manifest(dir);
    if let Some((mseq, mepoch)) = manifest {
        if !ckpts.contains(&mseq) {
            return Err(bad(format!(
                "manifest names checkpoint {mseq}, which does not validate on disk"
            )));
        }
        if mseq > last_seq {
            return Err(bad(format!(
                "manifest covers seq {mseq} beyond the WAL frontier {last_seq}"
            )));
        }
        if mepoch > epoch {
            return Err(bad(format!(
                "manifest epoch {mepoch} beyond the EPOCH sidecar {epoch}"
            )));
        }
    } else if !ckpts.is_empty() {
        eprintln!("verify-store: note — checkpoints exist but no manifest (pre-seal crash)");
    }
    for &seq in &ckpts {
        if seq < base || seq > last_seq {
            return Err(bad(format!(
                "checkpoint {seq} outside the store's history [{base}, {last_seq}]"
            )));
        }
    }

    println!(
        "store healthy: epoch {epoch}, base {base}, {} WAL records (frontier {last_seq}), \
         {} checkpoints, {} client tokens{}",
        scan.records.len(),
        ckpts.len(),
        acks.len(),
        if torn > 0 {
            format!(", {torn}-byte torn WAL tail (crash-normal)")
        } else {
            String::new()
        }
    );
    Ok(())
}
