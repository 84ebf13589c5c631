//! The deducible states (SSSP, LCC, DFS, BC) skip the commit and catch
//! up over the net `ΔG` of the batches they have not seen when a state
//! is read. These tests let batches pend and hold every read — essences,
//! digest, a snapshot, recovery — to an eager reference that runs
//! `update_states` on all seven states one batch at a time, and pin the
//! bound at which a commit catches up by itself.

use std::fs;
use std::path::PathBuf;

use incgraph_algos::{IncrementalState, QueryClass, Session};
use incgraph_durable::crc::Crc32;
use incgraph_durable::{recover, update_states, DurableOptions, DurableSession};
use incgraph_graph::rng::SplitMix64;
use incgraph_graph::{DynamicGraph, Pattern, UpdateBatch};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("incgraph-defer-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// An undirected ring of `n` nodes with chords every seventh node.
fn chorded_ring(n: u32) -> DynamicGraph {
    let mut g = DynamicGraph::new(false, n as usize);
    for v in 0..n {
        g.insert_edge(v, (v + 1) % n, 1 + v % 3);
        if v % 7 == 0 {
            g.insert_edge(v, (v + n / 2) % n, 2);
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

/// The graph and all seven states, each updated once per batch.
struct Eager {
    g: DynamicGraph,
    states: Vec<Session>,
}

impl Eager {
    fn new(g: &DynamicGraph) -> Eager {
        Eager {
            g: g.clone(),
            states: seven(g),
        }
    }

    fn apply(&mut self, batch: &UpdateBatch) {
        let applied = batch.apply_validated(&mut self.g).unwrap();
        update_states(&mut self.states, &self.g, std::slice::from_ref(&applied));
    }

    fn essences(&self) -> Vec<Vec<u8>> {
        self.states.iter().map(|s| s.save_state()).collect()
    }

    /// `DurableSession::digest`'s formula, over the sorted edge list.
    fn digest(&self) -> String {
        let g = &self.g;
        let mut crc = Crc32::new()
            .update(&[g.is_directed() as u8])
            .update(&(g.node_count() as u64).to_le_bytes());
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        for (u, v, w) in edges {
            crc = crc
                .update(&u.to_le_bytes())
                .update(&v.to_le_bytes())
                .update(&w.to_le_bytes());
        }
        for s in &self.states {
            let blob = s.save_state();
            crc = crc
                .update(s.name().as_bytes())
                .update(&(blob.len() as u64).to_le_bytes())
                .update(&blob);
        }
        format!("{:08x}", crc.finish())
    }
}

/// One batch of up to three toggles: two among the first 24 nodes, so
/// later batches cancel and re-weight earlier ones, and one anywhere. A
/// pair the batch already toggles is skipped.
fn churn(rng: &mut SplitMix64, g: &DynamicGraph) -> UpdateBatch {
    let n = g.node_count() as u32;
    let mut b = UpdateBatch::new();
    let mut toggled = Vec::new();
    for span in [24, 24, n] {
        let (u, v) = (rng.gen_range(0..span), rng.gen_range(0..span));
        if toggled.contains(&(u.min(v), u.max(v))) {
            continue;
        }
        toggled.push((u.min(v), u.max(v)));
        if g.edge_weight(u, v).is_some() {
            b.delete(u, v);
        } else {
            b.insert(u, v, rng.gen_range(1u32..8));
        }
    }
    b
}

/// Commits `count` churn batches to `session` and `eager` alike, reading
/// no state; every commit updates the three stamped states only.
fn pend(session: &mut DurableSession, eager: &mut Eager, rng: &mut SplitMix64, count: usize) {
    for _ in 0..count {
        let batch = churn(rng, &eager.g);
        eager.apply(&batch);
        assert_eq!(session.apply(&batch).unwrap().len(), 3, "a pending commit");
    }
}

#[test]
fn pending_batches_read_as_the_eager_reference() {
    const NODES: u32 = 512;
    for count in [1, 7, 32, 100] {
        let (dir, dst) = (
            temp_dir(&format!("p{count}")),
            temp_dir(&format!("p{count}-dst")),
        );
        let g0 = chorded_ring(NODES);
        let mut session =
            DurableSession::create(&dir, g0.clone(), seven(&g0), DurableOptions::default())
                .unwrap();
        let mut eager = Eager::new(&g0);
        let mut rng = SplitMix64::seed_from_u64(count as u64);

        pend(&mut session, &mut eager, &mut rng, count);
        assert_eq!(session.digest(), eager.digest(), "{count}: digest");
        pend(&mut session, &mut eager, &mut rng, count);
        assert_eq!(blobs(&mut session), eager.essences(), "{count}: essences");

        // Recovery replays the whole log with the deducible states
        // deferred, and hands out a session that has caught up.
        pend(&mut session, &mut eager, &mut rng, count);
        drop(session);
        let (mut recovered, report) = recover(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.wal_records_replayed, 3 * count);
        assert_eq!(
            blobs(&mut recovered),
            eager.essences(),
            "{count}: recovered"
        );
        assert_eq!(
            recovered.digest(),
            eager.digest(),
            "{count}: recovered digest"
        );

        // A snapshot taken with batches pending carries them; a replica
        // with batches of its own pending drops them with its old world.
        pend(&mut recovered, &mut eager, &mut rng, count);
        let snapshot = recovered.encode_snapshot();
        let mut replica =
            DurableSession::create(&dst, g0.clone(), seven(&g0), DurableOptions::default())
                .unwrap();
        pend(&mut replica, &mut Eager::new(&g0), &mut rng, count);
        let mut installed = replica.install_snapshot(&snapshot, 2).unwrap();
        assert_eq!(
            blobs(&mut installed),
            eager.essences(),
            "{count}: installed"
        );
        assert_eq!(
            installed.digest(),
            eager.digest(),
            "{count}: installed digest"
        );

        // The installed store recovers to the same world with batches
        // pending past its base.
        pend(&mut installed, &mut eager, &mut rng, count);
        drop(installed);
        let (mut reopened, report) = recover(&dst, DurableOptions::default()).unwrap();
        assert_eq!(report.wal_records_replayed, count);
        assert_eq!(
            reopened.digest(),
            eager.digest(),
            "{count}: reopened digest"
        );
        drop((recovered, reopened));
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dst).unwrap();
    }
}

/// Batch `j` of 24: four chords absent from the ring, each an effective
/// insert.
fn four_chords(j: u32) -> UpdateBatch {
    let mut b = UpdateBatch::new();
    for d in 2..6 {
        b.insert(j, j + d, 1);
    }
    b
}

#[test]
fn a_commit_catches_up_once_the_queue_holds_a_unit_per_node() {
    const NODES: u32 = 48;
    let dir = temp_dir("bound");
    let mut g0 = DynamicGraph::new(false, NODES as usize);
    for v in 0..NODES {
        g0.insert_edge(v, (v + 1) % NODES, 1);
    }
    let mut session =
        DurableSession::create(&dir, g0.clone(), seven(&g0), DurableOptions::default()).unwrap();
    let mut eager = Eager::new(&g0);
    // 4 units a commit: the 12th and the 24th bring the queue to 48.
    let reports: Vec<usize> = (0..24)
        .map(|j| {
            let batch = four_chords(j);
            eager.apply(&batch);
            session.apply(&batch).unwrap().len()
        })
        .collect();
    let mut want = [3; 24];
    want[11] = 6;
    want[23] = 6;
    assert_eq!(reports, want);
    assert_eq!(blobs(&mut session), eager.essences());

    // A batch as large as the graph catches up in its own commit.
    let mut big = UpdateBatch::new();
    for v in 0..NODES {
        big.insert(v, (v + 7) % NODES, 3);
    }
    eager.apply(&big);
    assert_eq!(session.apply(&big).unwrap().len(), 6);
    assert_eq!(session.digest(), eager.digest());
    drop(session);
    fs::remove_dir_all(&dir).unwrap();
}
