//! Micro-batch coalescing is value-invisible: applying N micro-batches
//! one by one, applying their coalesced net batch in one step, and
//! applying each batch made net by [`net`] (the rule every state pass
//! uses) must all land every class in the same fixpoint.
//!
//! Three sessions per class evolve in lockstep over a randomized update
//! stream with forced cross-batch cancellation (insert then delete of
//! the same edge in different micro-batches, delete then re-insert of
//! an existing edge):
//!
//! - `seq`: one guarded update per micro-batch (the reference);
//! - `coal`: graphs evolve identically, but the state sees one guarded
//!   update per *round* with the coalesced net of that round's batches;
//! - `mb`: per-batch updates, each batch made net by [`net`] first.
//!
//! Equality is checked at two strengths. Value digests must agree for
//! all seven classes after every round. Durable essences
//! (`save_state`) must be byte-identical for the stamp-free classes
//! (SSSP, LCC, DFS, BC); the weakly deducible classes (CC, Sim, Reach)
//! carry timestamps whose values depend on how many engine runs
//! happened, so their essences legitimately differ — for those, a
//! follow-up round after the comparison proves the states remain
//! equivalent *as incremental states*, not just as snapshots.

use incgraph_algos::{IncrementalState, QueryClass, Session};
use incgraph_core::coalesce::{coalesce_batches, net};
use incgraph_graph::rng::SplitMix64;
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId, Pattern, UpdateBatch};

const N: usize = 40;
const ROUNDS: usize = 6;
const BATCHES_PER_ROUND: usize = 3;
const OPS_PER_BATCH: usize = 5;

/// Undirected random graph over `N` nodes with alternating labels
/// (so the Sim pattern below has non-trivial matches).
fn base_graph(rng: &mut SplitMix64) -> DynamicGraph {
    let labels = (0..N).map(|v| (v % 2) as u32).collect();
    let mut g = DynamicGraph::with_labels(false, labels);
    for _ in 0..2 * N {
        let u = rng.gen_range(0..N) as NodeId;
        let v = rng.gen_range(0..N) as NodeId;
        if u != v {
            g.insert_edge(u, v, rng.gen_range(1u32..=8));
        }
    }
    g
}

/// A random edge currently present in `g`, if any node has neighbors.
fn existing_edge(g: &DynamicGraph, rng: &mut SplitMix64) -> Option<(NodeId, NodeId)> {
    for _ in 0..64 {
        let u = rng.gen_range(0..N) as NodeId;
        let nbrs = g.out_neighbors(u);
        if !nbrs.is_empty() {
            let (v, _) = nbrs[rng.gen_range(0..nbrs.len())];
            return Some((u, v));
        }
    }
    None
}

/// One round's micro-batch sequence: random ops plus forced
/// cross-batch churn — an insert in batch 0 cancelled by a delete in a
/// later batch, and an existing edge deleted then re-inserted.
fn round_batches(g: &DynamicGraph, rng: &mut SplitMix64) -> Vec<UpdateBatch> {
    let mut batches: Vec<UpdateBatch> =
        (0..BATCHES_PER_ROUND).map(|_| UpdateBatch::new()).collect();
    for batch in batches.iter_mut() {
        for _ in 0..OPS_PER_BATCH {
            let u = rng.gen_range(0..N) as NodeId;
            let v = rng.gen_range(0..N) as NodeId;
            if u == v {
                continue;
            }
            if rng.gen_bool(0.5) {
                batch.insert(u, v, rng.gen_range(1u32..=8));
            } else {
                batch.delete(u, v);
            }
        }
    }
    // Forced cancellation: a fresh edge inserted in the first batch and
    // deleted again in the last one nets to nothing…
    let (mut x, mut y) = (0, 1);
    for _ in 0..64 {
        let a = rng.gen_range(0..N) as NodeId;
        let b = rng.gen_range(0..N) as NodeId;
        if a != b && !g.has_edge(a, b) {
            (x, y) = (a, b);
            break;
        }
    }
    batches[0].insert(x, y, 5);
    batches[BATCHES_PER_ROUND - 1].delete(x, y);
    // …and an existing edge deleted early then re-inserted at a new
    // weight nets to a weight change.
    if let Some((u, v)) = existing_edge(g, rng) {
        batches[0].delete(u, v);
        batches[BATCHES_PER_ROUND - 1].insert(u, v, rng.gen_range(1u32..=8));
    }
    batches
}

fn build_session(class: QueryClass, g: &DynamicGraph) -> Session {
    let mut builder = Session::builder(class);
    if class.source_rooted() {
        builder = builder.source(0);
    }
    if class == QueryClass::Sim {
        builder = builder.pattern(Pattern::new(vec![0, 1], &[(0, 1)]));
    }
    builder.build(g).expect("build session")
}

/// Stamp-free classes serialize no timestamps, so their essences must
/// be byte-identical however the same net ΔG was chunked.
fn stamp_free(class: QueryClass) -> bool {
    matches!(
        class,
        QueryClass::Sssp | QueryClass::Lcc | QueryClass::Dfs | QueryClass::Bc
    )
}

#[test]
fn coalesced_updates_are_value_identical_across_all_classes() {
    for class in QueryClass::ALL {
        let mut rng = SplitMix64::seed_from_u64(0x5eed ^ class as u64);
        let g0 = base_graph(&mut rng);
        let (mut g_seq, mut g_coal, mut g_mb) = (g0.clone(), g0.clone(), g0);

        let mut seq = build_session(class, &g_seq);
        let mut coal = build_session(class, &g_coal);
        let mut mb = build_session(class, &g_mb);

        let mut saw_compression = false;
        for round in 0..ROUNDS {
            let batches = round_batches(&g_seq, &mut rng);
            let mut applieds: Vec<AppliedBatch> = Vec::new();
            for batch in &batches {
                let applied = batch.apply(&mut g_seq);
                seq.update_guarded(&g_seq, &applied);

                let applied_mb = batch.apply(&mut g_mb);
                let net_mb = net(g_mb.is_directed(), std::slice::from_ref(&applied_mb));
                mb.update_guarded(&g_mb, &net_mb);

                applieds.push(batch.apply(&mut g_coal));
            }
            let total_ops: usize = applieds.iter().map(|a| a.len()).sum();
            let net = coalesce_batches(g_coal.is_directed(), &applieds);
            assert!(
                net.len() <= total_ops,
                "{class:?}: coalesced batch grew ({} > {total_ops})",
                net.len()
            );
            saw_compression |= net.len() < total_ops;
            coal.update_guarded(&g_coal, &net);

            let d_seq = seq.digest(&g_seq);
            assert_eq!(
                d_seq,
                coal.digest(&g_coal),
                "{class:?}: coalesced digest diverged in round {round}"
            );
            assert_eq!(
                d_seq,
                mb.digest(&g_mb),
                "{class:?}: net digest diverged in round {round}"
            );
            if stamp_free(class) {
                assert_eq!(
                    seq.save_state(),
                    coal.save_state(),
                    "{class:?}: stamp-free essence not byte-identical in round {round}"
                );
                assert_eq!(
                    seq.save_state(),
                    mb.save_state(),
                    "{class:?}: net essence not byte-identical in round {round}"
                );
            }
        }
        assert!(
            saw_compression,
            "{class:?}: the forced cancellations never compressed a round"
        );

        // Follow-up round: the stamped classes' essences differ only in
        // timestamps, so prove all three states stay equivalent as
        // *incremental* states by pushing one more plain batch through
        // each path.
        let mut batch = UpdateBatch::new();
        if let Some((u, v)) = existing_edge(&g_seq, &mut rng) {
            batch.delete(u, v);
        }
        batch.insert(3, 7, 2).insert(11, 29, 4).delete(3, 7);
        for (g, s) in [
            (&mut g_seq, &mut seq),
            (&mut g_coal, &mut coal),
            (&mut g_mb, &mut mb),
        ] {
            let applied = batch.apply(g);
            s.update_guarded(g, &applied);
        }
        let d_seq = seq.digest(&g_seq);
        assert_eq!(
            d_seq,
            coal.digest(&g_coal),
            "{class:?}: follow-up update diverged after coalesced history"
        );
        assert_eq!(
            d_seq,
            mb.digest(&g_mb),
            "{class:?}: follow-up update diverged after net history"
        );
    }
}
