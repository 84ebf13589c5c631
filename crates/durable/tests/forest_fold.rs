//! The DFS class folded into BC's forest. A durable session over the
//! seven built-in classes updates the three weakly deducible states per
//! commit, catches SSSP, LCC and BC up when a state is read, and renders
//! the `dfs` essence from BC's `IncDFS`. These tests hold the fold to an
//! unfolded reference — all seven states maintained side by side through
//! `update_states`, one batch at a time — across churn, checkpoint +
//! recovery and snapshot install, and pin that a `dfs` blob disagreeing
//! with the forest is refused.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use incgraph_algos::dfs::ROOT;
use incgraph_algos::{DfsState, IncrementalState, QueryClass, Session};
use incgraph_durable::{
    checkpoint, recover, update_states, Acks, DurableError, DurableOptions, DurableSession,
};
use incgraph_graph::rng::SplitMix64;
use incgraph_graph::{DynamicGraph, Pattern, UpdateBatch};

const NODES: u32 = 48;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("incgraph-fold-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// An undirected ring with chords every seventh node: deleting a tree
/// edge usually leaves the component connected, so IncDFS re-routes it.
fn chorded_ring() -> DynamicGraph {
    let mut g = DynamicGraph::new(false, NODES as usize);
    for v in 0..NODES {
        g.insert_edge(v, (v + 1) % NODES, 1);
        if v % 7 == 0 {
            g.insert_edge(v, (v + NODES / 2) % NODES, 1);
        }
    }
    g
}

/// The seven classes as sessions, in `QueryClass::ALL` order.
fn seven(g: &DynamicGraph) -> Vec<Session> {
    QueryClass::ALL
        .into_iter()
        .map(|c| {
            let mut b = Session::builder(c);
            if c.source_rooted() {
                b = b.source(0);
            }
            if c == QueryClass::Sim {
                b = b.pattern(Pattern::new(vec![0], &[]));
            }
            b.build(g).expect("build")
        })
        .collect()
}

fn blobs(session: &mut DurableSession) -> Vec<Vec<u8>> {
    session.essences().map(|(_, b)| b).collect()
}

fn essences(states: &[Session]) -> Vec<Vec<u8>> {
    states.iter().map(|s| s.save_state()).collect()
}

fn roots(g: &DynamicGraph) -> usize {
    let forest = DfsState::batch(g).0;
    (0..NODES).filter(|&v| forest.parent(v) == ROOT).count()
}

/// One churn batch: a DFS tree edge out, then two random toggles.
fn churn(rng: &mut SplitMix64, g: &DynamicGraph) -> UpdateBatch {
    let forest = DfsState::batch(g).0;
    let tree: Vec<u32> = (0..NODES).filter(|&v| forest.parent(v) != ROOT).collect();
    let mut b = UpdateBatch::new();
    if !tree.is_empty() {
        let v = tree[rng.gen_range(0..tree.len())];
        b.delete(v, forest.parent(v));
    }
    for _ in 0..2 {
        let (u, v) = (rng.gen_range(0..NODES), rng.gen_range(0..NODES));
        if g.edge_weight(u, v).is_some() {
            b.delete(u, v);
        } else {
            b.insert(u, v, 1);
        }
    }
    b
}

#[test]
fn folded_essences_equal_the_unfolded_reference_through_churn_recovery_and_snapshot() {
    let options = DurableOptions {
        checkpoint_every: Some(40),
    };
    let (dir, snap_dir) = (temp_dir("churn"), temp_dir("churn-snap"));
    let g0 = chorded_ring();
    let mut session =
        DurableSession::create(&dir, g0.clone(), seven(&g0), options.clone()).unwrap();
    let mut g = g0.clone();
    let mut reference = seven(&g0);
    assert_eq!(blobs(&mut session), essences(&reference), "genesis");

    let mut rng = SplitMix64::seed_from_u64(40);
    let mut rerouted = 0;
    for round in 0..300 {
        let batch = churn(&mut rng, &g);
        let roots_before = roots(&g);
        let applied = batch.apply_validated(&mut g).unwrap();
        update_states(&mut reference, &g, std::slice::from_ref(&applied));
        rerouted += (roots(&g) <= roots_before) as usize;

        assert_eq!(session.apply(&batch).unwrap().len(), 3, "round {round}");
        assert_eq!(blobs(&mut session), essences(&reference), "round {round}");

        if round == 110 {
            // Checkpoint at seq 80, then 31 records replayed through the fold.
            drop(session);
            let (recovered, report) = recover(&dir, options.clone()).unwrap();
            assert_eq!(report.checkpoint_seq, 80);
            assert_eq!(report.wal_records_replayed, 31);
            session = recovered;
            assert_eq!(blobs(&mut session), essences(&reference), "recovered");
        }
        if round == 200 {
            let (snapshot, digest) = (session.encode_snapshot(), session.digest());
            drop(session);
            let replica =
                DurableSession::create(&snap_dir, g0.clone(), seven(&g0), options.clone()).unwrap();
            session = replica.install_snapshot(&snapshot, 2).unwrap();
            assert_eq!(session.digest(), digest);
            assert_eq!(blobs(&mut session), essences(&reference), "installed");
        }
    }
    assert!(
        rerouted > 100,
        "only {rerouted} tree-edge deletions re-routed"
    );

    // The installed store recovers from its own checkpoints.
    let live = blobs(&mut session);
    drop(session);
    let (mut recovered, report) = recover(&snap_dir, options).unwrap();
    assert_eq!(report.checkpoint_seq, 280);
    assert_eq!(report.wal_records_replayed, 20);
    assert_eq!(blobs(&mut recovered), live);
    drop(recovered);
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&snap_dir).unwrap();
}

/// Logs the class of every `update.guarded` span the test's own thread
/// records; the recorder is global to the process, so it ignores the
/// spans of tests running beside it.
struct Updates {
    thread: std::thread::ThreadId,
    log: Arc<Mutex<Vec<&'static str>>>,
}

impl incgraph_obs::Recorder for Updates {
    fn counter(&self, _: &'static str, _: &'static str, _: u64) {}
    fn gauge(&self, _: &'static str, _: &'static str, _: u64) {}
    fn observe(&self, _: &'static str, _: &'static str, _: u64) {}
    fn event(&self, _: &'static str, _: &'static str, _: &str) {}
    fn span(&self, class: &'static str, name: &'static str, _: u64) {
        if name == "update.guarded" && std::thread::current().id() == self.thread {
            self.log.lock().unwrap().push(class);
        }
    }
}

#[test]
fn a_commit_updates_the_stamped_states_and_a_read_the_rest() {
    let dir = temp_dir("stamped");
    let g0 = chorded_ring();
    let log = Arc::new(Mutex::new(Vec::new()));
    incgraph_obs::install(Arc::new(Updates {
        thread: std::thread::current().id(),
        log: log.clone(),
    }));
    let updated = || std::mem::take(&mut *log.lock().unwrap());
    let mut session =
        DurableSession::create(&dir, g0.clone(), seven(&g0), DurableOptions::default()).unwrap();
    let (mut g, mut reference) = (g0.clone(), seven(&g0));
    let mut b = UpdateBatch::new();
    b.delete(3, 4).insert(5, 30, 1);
    let applied = b.apply_validated(&mut g).unwrap();
    update_states(&mut reference, &g, std::slice::from_ref(&applied));
    updated();

    assert_eq!(session.apply(&b).unwrap().len(), 3);
    assert_eq!(updated(), ["cc", "sim", "reach"], "the commit");
    let names: Vec<_> = session.essences().map(|(n, _)| n).collect();
    assert_eq!(updated(), ["sssp", "lcc", "bc"], "the read");
    assert_eq!(names, ["sssp", "cc", "sim", "reach", "lcc", "dfs", "bc"]);
    assert_eq!(blobs(&mut session), essences(&reference));
    assert_eq!(updated(), [""; 0], "a read with nothing queued");
    incgraph_obs::uninstall();
    drop(session);
    fs::remove_dir_all(&dir).unwrap();
}

/// A same-sized DFS essence over another graph: it restores on its own,
/// but it is not the forest BC maintains.
fn foreign_dfs_blob() -> Vec<u8> {
    let mut path = DynamicGraph::new(false, NODES as usize);
    for v in 1..NODES {
        path.insert_edge(v - 1, v, 1);
    }
    DfsState::batch(&path).0.save_state()
}

#[test]
fn a_dfs_blob_that_disagrees_with_the_forest_is_refused_as_corrupt() {
    let (dir, dst) = (temp_dir("mismatch"), temp_dir("mismatch-dst"));
    let g0 = chorded_ring();
    let pair = |g: &DynamicGraph| -> Vec<Session> {
        [QueryClass::Dfs, QueryClass::Bc]
            .map(|c| Session::builder(c).build(g).unwrap())
            .into()
    };
    let mut session =
        DurableSession::create(&dir, g0.clone(), pair(&g0), DurableOptions::default()).unwrap();
    let mut b = UpdateBatch::new();
    b.delete(0, 1);
    session.apply(&b).unwrap();
    let graph = session.graph().clone();
    let names: Vec<_> = session.essences().map(|(n, _)| n).collect();
    let mut blobs = blobs(&mut session);
    drop(session);
    assert_eq!(names, ["dfs", "bc"]);
    blobs[0] = foreign_dfs_blob();

    // A CRC-clean checkpoint holding it fails the open; recovery does not
    // step down to genesis around it.
    let acks = Acks::new();
    checkpoint::write_checkpoint(&dir, 1, &graph, blobs.iter().cloned(), &acks, None).unwrap();
    match recover(&dir, DurableOptions::default()) {
        Err(DurableError::Corrupt(msg)) => assert!(msg.contains("dfs"), "{msg}"),
        Err(e) => panic!("expected Corrupt, got {e}"),
        Ok(_) => panic!("a disagreeing dfs blob was accepted"),
    }

    // A shipped snapshot holding it is refused before the replica's store
    // is touched.
    let payload = checkpoint::encode_payload(1, &graph, blobs.into_iter(), &acks);
    let replica =
        DurableSession::create(&dst, g0.clone(), pair(&g0), DurableOptions::default()).unwrap();
    assert!(matches!(
        replica.install_snapshot(&payload, 2),
        Err(DurableError::Corrupt(_))
    ));
    let (reopened, _) = recover(&dst, DurableOptions::default()).unwrap();
    assert_eq!((reopened.base_seq(), reopened.last_seq()), (0, 0));
    drop(reopened);

    // So is a caller's state set whose dfs is not bc's forest.
    let mut states = pair(&g0);
    states[0] = Session::builder(QueryClass::Dfs).build(&graph).unwrap();
    let fresh = temp_dir("mismatch-create");
    assert!(matches!(
        DurableSession::create(&fresh, g0, states, DurableOptions::default()),
        Err(DurableError::Corrupt(_))
    ));
    for d in [dir, dst, fresh] {
        let _ = fs::remove_dir_all(d);
    }
}
