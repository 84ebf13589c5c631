//! Store-level equivalence of shared class views.
//!
//! A graph keeps one maintained view per canonical `(class, source,
//! pattern)`, held by every `REGISTER` and plan member that asks for it.
//! Sharing must be invisible on the wire: here a seeded stream runs on
//! one store with duplicate subscribers and plans across two sessions,
//! and beside it one store per subscriber holding that subscriber alone.
//! Every subscriber's outbound lines must be byte-identical on both,
//! through an `UNREGISTER`, a `drop_session` and a replica's
//! `adopt_snapshot` — while the shared store runs one fixpoint update per
//! distinct view (`service.view_updates`). A second test pins the
//! `(sid, qid)` namespace and the per-session cap as store-wide, a third
//! the sequence a `QUERY` or `PLANQ` answer is stamped with, and a fourth
//! that a batch large enough to fan its views out over the host's cores
//! leaves every view equal to a batch build.

use incgraph_algos::{QueryClass, Session};
use incgraph_dataflow::{eval_once, Plan, PlanContext, Source};
use incgraph_durable::{DurableOptions, DurableSession};
use incgraph_graph::rng::SplitMix64;
use incgraph_graph::{DynamicGraph, NodeId, UpdateBatch};
use incgraph_obs::Registry;
use incgraph_service::protocol::ViewRow;
use incgraph_service::{ErrCode, Outbound, Store, StoreLimits};
use incgraph_workloads::random_pattern;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const GRAPH: &str = "g";
const NODES: usize = 40;
const STEPS: usize = 30;
/// Step at which session 2 disconnects.
const DROP_AT: usize = 20;
/// Step at which the replicas adopt the primary's snapshot.
const SNAP_AT: usize = 25;
const PLAN_SEED: u64 = 7;
const NEAR: &str =
    "d = sssp(source=0); c = cc; j = join(d, c, val=left); near = filter(j, val < 9); n = count(near)";
const FAR: &str = "d = sssp(source=0); far = filter(d, val > 6); n = count(far)";
const MATCHED: &str = "s = sim; m = filter(s, val > 0); n = count(m)";

/// The global obs recorder is process-wide: tests in this file take
/// turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "incgraph-views-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A durable store over an empty graph, without built-in states.
fn durable_store(dir: &Path) -> Store {
    let graph = DynamicGraph::new(false, NODES);
    let session =
        DurableSession::create(dir, graph, Vec::new(), DurableOptions::default()).unwrap();
    Store::mount_durable(GRAPH, session, StoreLimits::default()).unwrap()
}

fn outbound() -> Arc<Outbound> {
    Arc::new(Outbound::new(1 << 16, 1 << 17, 256))
}

fn drain(out: &Outbound, into: &mut Vec<String>) {
    while let Some(msg) = out.pop(Duration::ZERO) {
        into.push(msg.render());
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Class {
        class: &'static str,
        source: NodeId,
        seed: u64,
    },
    Plan(&'static str),
}

/// A subscriber's `QUERY` digest and `PLANQ` view, whichever it has.
type Answer = (Option<Vec<u64>>, Option<Vec<ViewRow>>);

struct Sub {
    sid: u64,
    qid: &'static str,
    kind: Kind,
    /// Step it registers at.
    from: usize,
    /// Step it unregisters at, if it does.
    until: Option<usize>,
}

impl Sub {
    fn live(&self, step: usize) -> bool {
        self.from <= step
            && self.until.is_none_or(|u| step < u)
            && !(self.sid == 2 && step >= DROP_AT)
    }

    fn register(&self, store: &mut Store, out: &Arc<Outbound>) -> usize {
        let out = Arc::clone(out);
        match self.kind {
            Kind::Class {
                class,
                source,
                seed,
            } => store.register(self.sid, self.qid, GRAPH, class, source, seed, out),
            Kind::Plan(text) => {
                store.register_plan(self.sid, self.qid, GRAPH, PLAN_SEED, text, out)
            }
        }
        .unwrap()
    }

    fn unregister(&self, store: &mut Store) {
        match self.kind {
            Kind::Class { .. } => store.unregister(self.sid, self.qid),
            Kind::Plan(_) => store.unregister_plan(self.sid, self.qid),
        }
        .unwrap()
    }

    /// What `QUERY` and `PLANQ` should answer for it on `g`, from a
    /// batch build.
    fn batch_answer(&self, g: &DynamicGraph) -> Answer {
        match self.kind {
            Kind::Class {
                class,
                source,
                seed,
            } => {
                let class = QueryClass::from_name(class).unwrap();
                let mut b = Session::builder(class);
                if class.source_rooted() {
                    b = b.source(source);
                }
                if class == QueryClass::Sim {
                    b = b.pattern(random_pattern(g, 4, 6, seed));
                }
                (Some(b.build(g).unwrap().digest(g)), None)
            }
            Kind::Plan(text) => {
                let ctx = PlanContext {
                    pattern: Some(random_pattern(g, 4, 6, PLAN_SEED)),
                    ..PlanContext::default()
                };
                (None, Some(eval_once(text, g, &ctx).unwrap()))
            }
        }
    }

    /// The canonical view keys this subscription holds.
    fn keys(&self) -> Vec<(QueryClass, NodeId, u64)> {
        let key = |class: QueryClass, source: NodeId, seed: u64| {
            let source = if class.source_rooted() { source } else { 0 };
            let seed = if class == QueryClass::Sim { seed } else { 0 };
            (class, source, seed)
        };
        match self.kind {
            Kind::Class {
                class,
                source,
                seed,
            } => vec![key(QueryClass::from_name(class).unwrap(), source, seed)],
            Kind::Plan(text) => Plan::parse(text)
                .unwrap()
                .sources()
                .into_iter()
                .filter_map(|s| match s {
                    Source::Class { class, source } => {
                        Some(key(class, source.unwrap_or(0), PLAN_SEED))
                    }
                    Source::Labels => None,
                })
                .collect(),
        }
    }
}

fn class(class: &'static str, source: NodeId, seed: u64) -> Kind {
    Kind::Class {
        class,
        source,
        seed,
    }
}

fn subscribers() -> Vec<Sub> {
    let sub = |sid, qid, kind, from, until| Sub {
        sid,
        qid,
        kind,
        from,
        until,
    };
    vec![
        sub(1, "a", class("sssp", 0, 0), 0, None),
        sub(1, "b", class("sssp", 0, 0), 0, Some(16)),
        sub(1, "c", class("cc", 0, 0), 0, None),
        // A source and a seed the class ignores name the same view.
        sub(1, "c5", class("cc", 5, 99), 3, None),
        sub(1, "near", Kind::Plan(NEAR), 0, None),
        // A late duplicate shares a view that has already evolved.
        sub(1, "late", class("sssp", 0, 3), 12, None),
        sub(1, "far", Kind::Plan(FAR), 18, None),
        // The same qids on another session are other subscriptions.
        sub(2, "a", class("sssp", 0, 0), 0, None),
        sub(2, "c", class("cc", 0, 0), 5, None),
        // Held by session 2 alone: freed when it disconnects.
        sub(2, "s3", class("sssp", 3, 0), 0, None),
        sub(2, "sim", class("sim", 0, PLAN_SEED), 0, None),
        sub(2, "far", Kind::Plan(FAR), 8, None),
        sub(2, "matched", Kind::Plan(MATCHED), 10, Some(14)),
    ]
}

/// A batch of `units` valid unit updates against `shadow`, which it
/// updates.
fn next_batch(rng: &mut SplitMix64, shadow: &mut DynamicGraph, units: usize) -> UpdateBatch {
    let nodes = shadow.node_count();
    let mut batch = UpdateBatch::new();
    let mut touched = BTreeSet::new();
    while batch.len() < units {
        let u = rng.gen_range(0..nodes) as NodeId;
        let v = rng.gen_range(0..nodes) as NodeId;
        if u == v || !touched.insert((u.min(v), u.max(v))) {
            continue;
        }
        if shadow.has_edge(u, v) {
            batch.delete(u, v);
        } else {
            batch.insert(u, v, rng.gen_range(1u32..=5));
        }
    }
    batch.apply(shadow);
    batch
}

fn view_updates(registry: &Registry) -> u64 {
    let snap = registry.snapshot();
    let key = (String::new(), "service.view_updates".to_string());
    snap.counters.get(&key).copied().unwrap_or(0)
}

#[test]
fn duplicate_subscribers_see_the_bytes_they_would_alone() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let registry = Arc::new(Registry::new());
    incgraph_obs::install(registry.clone());
    let subs = subscribers();
    let root = temp_dir("equiv");
    let mut primary = durable_store(&root.join("primary"));
    let mut shared = durable_store(&root.join("shared"));
    let mut solos: Vec<Store> = (0..subs.len())
        .map(|i| durable_store(&root.join(format!("solo{i}"))))
        .collect();
    let shared_out: Vec<_> = subs.iter().map(|_| outbound()).collect();
    let solo_out: Vec<_> = subs.iter().map(|_| outbound()).collect();
    let mut shared_lines = vec![Vec::new(); subs.len()];
    let mut solo_lines = vec![Vec::new(); subs.len()];

    let mut rng = SplitMix64::seed_from_u64(0x5EED);
    let mut shadow = DynamicGraph::new(false, NODES);
    let (mut client_seq, mut covered) = (0, 0);
    for step in 0..STEPS {
        for (i, s) in subs.iter().enumerate() {
            if s.from == step {
                let alone = s.register(&mut solos[i], &solo_out[i]);
                assert_eq!(s.register(&mut shared, &shared_out[i]), alone, "{}", s.qid);
            }
            if s.until == Some(step) {
                s.unregister(&mut solos[i]);
                s.unregister(&mut shared);
            }
        }
        if step == DROP_AT {
            let held = subs
                .iter()
                .filter(|s| s.sid == 2 && s.live(step - 1))
                .count();
            assert_eq!(shared.drop_session(2), held);
            for (i, s) in subs.iter().enumerate() {
                if s.sid == 2 {
                    solos[i].drop_session(2);
                }
            }
        }
        if step == SNAP_AT {
            // The replicas miss two batches and bootstrap from the
            // primary's snapshot instead.
            for _ in 0..2 {
                client_seq += 1;
                let batch = next_batch(&mut rng, &mut shadow, 6);
                primary
                    .apply_update(GRAPH, "w", client_seq, &batch)
                    .unwrap();
            }
            let (_, payload) = primary.encode_snapshot(GRAPH).unwrap();
            let epoch = primary.repl_info(GRAPH).unwrap().epoch;
            for store in solos.iter_mut().chain([&mut shared]) {
                covered = store.adopt_snapshot(GRAPH, &payload, epoch).unwrap();
            }
        }
        client_seq += 1;
        let batch = next_batch(&mut rng, &mut shadow, 6);
        let seq = primary
            .apply_update(GRAPH, "w", client_seq, &batch)
            .unwrap()
            .wal_seq;
        for store in &mut solos {
            let applied = store.apply_replicated(GRAPH, seq, None, &batch).unwrap();
            store.notify_queries(GRAPH, &[applied]);
        }
        let applied = shared.apply_replicated(GRAPH, seq, None, &batch).unwrap();
        let before = view_updates(&registry);
        shared.notify_queries(GRAPH, &[applied]);
        let live: BTreeSet<_> = subs
            .iter()
            .filter(|s| s.live(step))
            .flat_map(Sub::keys)
            .collect();
        assert_eq!(
            view_updates(&registry) - before,
            live.len() as u64,
            "step {step}: one update per distinct view"
        );
        for i in 0..subs.len() {
            drain(&shared_out[i], &mut shared_lines[i]);
            drain(&solo_out[i], &mut solo_lines[i]);
        }
    }
    incgraph_obs::uninstall();

    for (i, s) in subs.iter().enumerate() {
        assert_eq!(shared_lines[i], solo_lines[i], "{}/{}", s.sid, s.qid);
        if s.live(STEPS) {
            // What QUERY / PLANQ answer equals a from-scratch build.
            let held = (
                shared.query(s.sid, s.qid).map(|(d, _)| d),
                shared.plan_view(s.sid, s.qid).map(|(v, _)| v),
            );
            assert_eq!(held, s.batch_answer(&shadow), "{}/{}", s.sid, s.qid);
        }
    }
    let moved = shared_lines
        .iter()
        .flatten()
        .filter(|l| !l.contains(" resync "))
        .count();
    assert!(
        moved > 4 * STEPS,
        "the stream moved the views: {moved} lines"
    );
    // Every live subscriber saw the replica's bootstrap: a `resync`
    // DELTA or the plan's full VIEW, stamped with the snapshot's
    // sequence.
    for (i, s) in subs.iter().enumerate().filter(|(_, s)| s.live(SNAP_AT)) {
        let resync = [
            format!("DELTA {} {covered} resync ", s.qid),
            format!("VIEW {} {covered} ", s.qid),
        ];
        assert!(
            shared_lines[i]
                .iter()
                .any(|l| resync.iter().any(|r| l.starts_with(r.as_str()))),
            "{}/{} missed the resync",
            s.sid,
            s.qid
        );
    }
    drop((primary, shared, solos));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_fanned_out_pass_leaves_every_view_equal_to_a_batch_build() {
    // 512 units clear the store's fan-out gate, so the pass runs its four
    // views on min(cores, 4) threads: two on a 2-core host, one under
    // `taskset -c 0`. The answers must not depend on which.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const BIG: usize = 2_000;
    let mut rng = SplitMix64::seed_from_u64(0xFA_0007);
    let mut shadow = DynamicGraph::new(false, BIG);
    let mut store = Store::new(StoreLimits::default());
    store.open_graph(GRAPH, BIG, false).unwrap();
    for seq in 1..=2 {
        let load = next_batch(&mut rng, &mut shadow, 3_000);
        store.apply_update(GRAPH, "w", seq, &load).unwrap();
    }
    let subs = [("sssp", 0), ("cc", 0), ("sim", PLAN_SEED), ("reach", 0)].map(|(c, seed)| Sub {
        sid: 1,
        qid: c,
        kind: class(c, 0, seed),
        from: 0,
        until: None,
    });
    let out = outbound();
    for s in &subs {
        s.register(&mut store, &out);
    }
    let registry = Arc::new(Registry::new());
    incgraph_obs::install(registry.clone());
    let batch = next_batch(&mut rng, &mut shadow, 512);
    store.apply_update(GRAPH, "w", 3, &batch).unwrap();
    incgraph_obs::uninstall();

    let snap = registry.snapshot();
    let hist = |class: &str, name: &str| snap.hists[&(class.to_string(), name.to_string())].clone();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = hist("", "service.notify_workers");
    assert_eq!((workers.count(), workers.max()), (1, cores.min(4) as u64));
    for s in &subs {
        // Helpers record under the view's class like the writer does.
        assert_eq!(hist(s.qid, "update.guarded").count(), 1, "{}", s.qid);
        let (digest, seq) = store.query(1, s.qid).unwrap();
        assert_eq!(seq, 3);
        assert_eq!((Some(digest), None), s.batch_answer(&shadow), "{}", s.qid);
    }
    let mut lines = Vec::new();
    drain(&out, &mut lines);
    assert_eq!(lines.len(), subs.len(), "every view moved: {lines:?}");
}

#[test]
fn qid_namespace_and_cap_are_per_session_across_graphs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let limits = StoreLimits {
        max_queries_per_session: 2,
        ..StoreLimits::default()
    };
    let mut store = Store::new(limits);
    for g in ["g0", "g1"] {
        store.open_graph(g, 8, false).unwrap();
    }
    let out = outbound();
    let reg = |store: &mut Store, sid, qid, graph| {
        store.register(sid, qid, graph, "cc", 0, 0, Arc::clone(&out))
    };
    reg(&mut store, 1, "q", "g0").unwrap();
    // The same qid on another graph of the same session is a duplicate,
    // as a class query or as a plan.
    assert_eq!(
        reg(&mut store, 1, "q", "g1").unwrap_err().0,
        ErrCode::DupQuery
    );
    let plan = store.register_plan(1, "q", "g1", 0, "c = cc; n = count(c)", Arc::clone(&out));
    assert_eq!(plan.unwrap_err().0, ErrCode::DupQuery);
    // Another session may use it.
    reg(&mut store, 2, "q", "g1").unwrap();
    // The cap counts the session's queries on every graph.
    reg(&mut store, 1, "r", "g1").unwrap();
    assert_eq!(
        reg(&mut store, 1, "s", "g0").unwrap_err().0,
        ErrCode::TooLarge
    );
    assert_eq!(store.counts(), (2, 3));
    // One name, one query: UNREGISTER frees it everywhere.
    store.unregister(1, "q").unwrap();
    assert_eq!(
        store.unregister(1, "q").unwrap_err().0,
        ErrCode::UnknownQuery
    );
    reg(&mut store, 1, "q", "g1").unwrap();
    assert_eq!(store.drop_session(1), 2);
    assert_eq!(store.counts(), (2, 1));
}

#[test]
fn reads_carry_the_sequence_their_content_reflects() {
    // Between a commit and its notify pass the views still hold the
    // notified state, so `QUERY` and `PLANQ` must keep its sequence:
    // one sequence never names two answers.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut store = Store::new(StoreLimits::default());
    store.open_graph(GRAPH, 4, true).unwrap();
    let out = outbound();
    store
        .register(1, "d", GRAPH, "sssp", 0, 0, Arc::clone(&out))
        .unwrap();
    let plan = "d = sssp(source=0); near = filter(d, val < 9); n = count(near)";
    store
        .register_plan(1, "p", GRAPH, 0, plan, Arc::clone(&out))
        .unwrap();
    let mut first = UpdateBatch::new();
    first.insert(0, 1, 1).insert(1, 2, 1);
    store.apply_update(GRAPH, "w", 1, &first).unwrap();
    let (digest, view) = (
        store.query(1, "d").unwrap(),
        store.plan_view(1, "p").unwrap(),
    );
    assert_eq!((digest.1, view.1), (1, 1));

    let mut second = UpdateBatch::new();
    second.insert(2, 3, 1);
    let (ack, applied) = store.apply_update_deferred(GRAPH, "w", 2, &second).unwrap();
    assert_eq!(ack.wal_seq, 2);
    assert_eq!(
        store.query(1, "d").unwrap(),
        digest,
        "before the notify pass"
    );
    assert_eq!(store.plan_view(1, "p").unwrap(), view);

    store.notify_queries(GRAPH, &[applied.unwrap()]);
    let (now, seq) = store.query(1, "d").unwrap();
    assert_eq!((now[3], seq), (3, 2), "node 3 was unreachable at seq 1");
    let (rows, seq) = store.plan_view(1, "p").unwrap();
    assert_eq!(seq, 2);
    assert_ne!(rows, view.0);
}
