//! What a standing view costs in memory. A `Session` holds its class
//! state and nothing else: its output is rendered from the state, and
//! its deltas are drained from the state's write journal. So its
//! footprint is the bare state's plus that journal's, and the journal
//! stays within one entry per status variable however long nobody
//! drains it.

use incgraph_algos::{update_with, ExecOptions, IncrementalState, QueryClass, Session};
use incgraph_graph::rng::SplitMix64;
use incgraph_graph::{DynamicGraph, NodeId, UpdateBatch};
use incgraph_workloads::Dataset;

fn sssp(g: &DynamicGraph) -> Session {
    Session::builder(QueryClass::Sssp)
        .source(0)
        .build(g)
        .expect("sssp builds")
}

/// `ops` random unit inserts/deletes over `g`'s nodes.
fn random_batch(g: &DynamicGraph, rng: &mut SplitMix64, ops: usize) -> UpdateBatch {
    let n = g.node_count();
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let (u, v) = (rng.gen_range(0..n) as NodeId, rng.gen_range(0..n) as NodeId);
        if rng.gen_bool(0.5) {
            batch.insert(u, v, rng.gen_range(1..=8u32));
        } else {
            batch.delete(u, v);
        }
    }
    batch
}

#[test]
fn session_space_is_the_bare_state_plus_its_journal() {
    let mut g = Dataset::LiveJournal.graph(false, 0.25);
    let mut session = sssp(&g);
    let mut bare = sssp(&g);
    bare.stop_journal();
    assert!(session.journal_bytes() > 0, "a session journals its writes");
    assert_eq!(bare.journal_bytes(), 0, "a stopped journal is released");
    let mut rng = SplitMix64::seed_from_u64(0x5ACE);
    for round in 0..20 {
        assert_eq!(
            session.space_bytes(),
            bare.space_bytes() + session.journal_bytes(),
            "round {round}"
        );
        let applied = random_batch(&g, &mut rng, 8).apply(&mut g);
        session.update_guarded(&g, &applied);
        update_with(&mut bare, &g, &applied, &ExecOptions::default());
    }
}

#[test]
fn an_undrained_journal_stays_within_one_entry_per_variable() {
    let mut g = Dataset::LiveJournal.graph(false, 0.25);
    let mut session = sssp(&g);
    let before = session.digest(&g);
    let psi = session.total_vars(&g);
    let mut rng = SplitMix64::seed_from_u64(0xB0DE);
    for _ in 0..1000 {
        let applied = random_batch(&g, &mut rng, 4).apply(&mut g);
        IncrementalState::update(&mut session, &g, &applied);
    }
    let cap = psi.div_ceil(64) * 8 + psi * size_of::<(u32, u64)>();
    assert!(
        session.journal_bytes() <= cap,
        "{} journal bytes for {psi} variables",
        session.journal_bytes()
    );
    // The one late drain is still the exact net change.
    let delta = session.take_delta();
    let mut replay = before;
    for c in &delta.changes {
        assert_eq!(replay[c.index as usize], c.old);
        replay[c.index as usize] = c.new;
    }
    assert_eq!(replay, session.digest(&g));
}
