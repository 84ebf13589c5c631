//! The load generator: determinism in the seed, effectiveness of every
//! unit, and the stationarity the timed metrics rely on.

use incgraph_benchmark::gen::{load_ops, UpdateGen};
use incgraph_graph::DynamicGraph;
use incgraph_workloads::Dataset;

fn small() -> DynamicGraph {
    Dataset::LiveJournal.graph(false, 0.25)
}

fn stream(seed: u64, units: usize, ops: usize) -> String {
    let mut gen = UpdateGen::new(small(), seed, units, 1);
    (0..ops).map(|_| gen.next_op().text).collect()
}

#[test]
fn same_seed_gives_byte_identical_wire_text() {
    assert_eq!(stream(7, 16, 200), stream(7, 16, 200));
    assert_eq!(stream(7, 512, 20), stream(7, 512, 20));
}

#[test]
fn different_seeds_give_different_text() {
    assert_ne!(stream(1, 16, 50), stream(2, 16, 50));
    // Neighbouring seeds must not share even the first batch.
    assert_ne!(stream(1, 16, 1), stream(2, 16, 1));
}

#[test]
fn every_generated_unit_is_effective() {
    // A server applies batches with `apply_validated`; the generator must
    // never hand it a no-op unit or a batch it would refuse.
    for units in [1, 16, 700] {
        let mut server = small();
        let mut gen = UpdateGen::new(small(), 3, units, 1);
        for _ in 0..120 {
            let op = gen.next_op();
            let applied = op
                .batch
                .apply_validated(&mut server)
                .expect("zero invalid-batch");
            assert_eq!(applied.len(), units, "a unit was a no-op");
            assert_eq!(op.batch.len(), units);
        }
        let theirs: Vec<_> = server.edges().collect();
        let ours: Vec<_> = gen.shadow().edges().collect();
        assert_eq!(theirs, ours, "shadow drifted from the applied graph");
    }
}

#[test]
fn op_text_is_header_units_then_attach() {
    let mut gen = UpdateGen::new(small(), 1, 4, 9);
    let op = gen.next_op();
    let lines: Vec<_> = op.text.lines().collect();
    assert_eq!(lines.len(), 6);
    assert_eq!(lines[0], "UPDATE g 9 4");
    assert_eq!(lines[5], "GRAPH g 2000 undirected");
    assert_eq!(op.update_text().lines().count(), 5);
    assert_eq!(gen.next_seq(), 10);
}

#[test]
fn stream_is_stationary() {
    // The deleted-edge pool reverts to its target, so |E| stays within a
    // few pool sizes of the generated graph however long the run.
    let g = small();
    let edges = g.edge_count();
    let mut gen = UpdateGen::new(g, 5, 16, 1);
    let target = gen.pool_target();
    for i in 0..4000 {
        gen.next_op();
        let missing = edges - gen.shadow().edge_count();
        assert!(missing <= 2 * target, "pool overflowed at op {i}");
        if i > 200 {
            assert!(missing >= target / 4, "pool drained at op {i}: {missing}");
        }
    }
}

#[test]
fn load_ops_rebuild_the_graph_without_labels() {
    let g = small();
    let ops: Vec<_> = load_ops(&g).collect();
    let mut rebuilt = DynamicGraph::new(false, g.node_count());
    for (i, op) in ops.iter().enumerate() {
        assert_eq!(op.seq, i as u64 + 1);
        assert!(op.batch.len() <= 4096);
        assert_eq!(op.text.len(), op.update_len, "load ops carry no attach");
        let applied = op.batch.apply_validated(&mut rebuilt).unwrap();
        assert_eq!(applied.len(), op.batch.len());
    }
    assert_eq!(
        rebuilt.edges().collect::<Vec<_>>(),
        g.edges().collect::<Vec<_>>()
    );
    assert!(rebuilt.nodes().all(|v| rebuilt.label(v) == 0));
}
