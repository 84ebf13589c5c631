//! Format stability of the persisted essence across commits.
//!
//! The crash and chaos oracles compare two runs of the *same* build, so
//! nothing there notices a build that writes a different `save_state`
//! blob than its predecessor — yet a checkpoint written by one commit
//! must load under the next. This test pins the bytes: all seven classes
//! on one fixed 8-node graph after a fixed three-batch schedule (insert,
//! delete, node growth), as hex literals recorded at commit fda8e74.
//! Each literal must equal what the current build writes, and must
//! restore (`Session::restore`) to a state that writes the same bytes back.
//!
//! A deliberate format change re-records the literal it changes (the
//! failure message prints the new hex) and says so in CHANGES.md.

use incgraph_algos::{
    BcState, CcState, DfsState, IncrementalState, LccState, ReachState, Session, SimState,
    SsspState,
};
use incgraph_graph::{DynamicGraph, Pattern, UpdateBatch};

/// Undirected (LCC and BC are only defined there), labelled for Sim,
/// with a triangle, a cycle and a pendant so every class has structure.
fn fixed_graph() -> DynamicGraph {
    let mut g = DynamicGraph::with_labels(false, vec![0, 1, 2, 1, 2, 0, 1, 2]);
    for (u, v, w) in [
        (0u32, 1u32, 2u32),
        (1, 2, 1),
        (2, 0, 4),
        (2, 3, 1),
        (3, 4, 3),
        (4, 5, 1),
        (5, 3, 2),
        (5, 6, 1),
        (6, 7, 5),
    ] {
        g.insert_edge(u, v, w);
    }
    g
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex literal"))
        .collect()
}

const GOLDEN: [(&str, &str); 7] = [
    ("sssp", "49535431047373737000000000090000000000000000000000000000000005000000000000000400000000000000040000000000000001000000000000000200000000000000070000000000000007000000000000000600000000000000"),
    ("cc", "495354310263630900000000000000010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000080000000000000002000000000000000a00000000000000040000000000000005000000000000000b0000000000000009000000000000000c000000000000000c00000000000000"),
    ("sim", "495354310373696d03000000000000000100000002000000030000000000000001000000010000000200000002000000010000001b00000000000000010000000000000000000000000000000000000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000001000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000001000000000000000100000000000000000000000000000000000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000001000000000000000000000000000000010000000000000000000000000000000100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000100000000000000"),
    ("reach", "49535431057265616368000000000900000000000000010100000000000000010000000000000001000000000000000100000000000000010000000000000001000000000000000100000000000000010000000000000001000000000000000000000000000000080000000000000002000000000000000a00000000000000040000000000000005000000000000000b0000000000000009000000000000000c000000000000000c00000000000000"),
    ("lcc", "49535431036c6363120000000000000000020000000000000000000000000000000200000000000000000000000000000003000000000000000000000000000000020000000000000001000000000000000300000000000000010000000000000002000000000000000100000000000000020000000000000000000000000000000200000000000000000000000000000002000000000000000000000000000000"),
    ("dfs", "495354310364667309000000000000000000000002000000010000000c0000000b0000000d00000004000000030000000500000011000000090000000a0000000f000000100000000e000000070000000800000006000000ffffffff0200000000000000040000000000000003000000070000000100000006000000"),
    ("bc", "4953543102626309000000000000000000000002000000010000000c0000000b0000000d00000004000000030000000500000011000000090000000a0000000f000000100000000e000000070000000800000006000000ffffffff02000000000000000400000000000000030000000700000001000000060000000900000000000000000000000000000000010000000000000001000000000000000b000000000000000b000000000000000b00000000000000010000000000000001000000000000000100000000000000"),
];

#[test]
fn persisted_essence_is_byte_stable_and_restorable() {
    let mut g = fixed_graph();
    let mut states: Vec<Box<dyn IncrementalState>> = vec![
        Box::new(SsspState::batch(&g, 0).0),
        Box::new(CcState::batch(&g).0),
        Box::new(SimState::batch(&g, Pattern::new(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 1)])).0),
        Box::new(ReachState::batch(&g, 0).0),
        Box::new(LccState::batch(&g).0),
        Box::new(DfsState::batch(&g).0),
        Box::new(BcState::batch(&g).0),
    ];

    let mut insert = UpdateBatch::new();
    insert.insert(0, 4, 1).insert(1, 7, 2);
    let mut delete = UpdateBatch::new();
    delete.delete(2, 3).delete(5, 6).delete(0, 1);
    let schedule = [insert, delete];
    for batch in &schedule {
        let applied = batch.apply(&mut g);
        for state in &mut states {
            state.update(&g, &applied);
        }
    }
    // Node growth: a fresh vertex arrives with the edges that attach it.
    let v = g.add_node(1);
    let mut grow = UpdateBatch::new();
    grow.insert(6, v, 1).insert(v, 2, 2);
    let applied = grow.apply(&mut g);
    for state in &mut states {
        state.update(&g, &applied);
    }

    for (state, (name, golden)) in states.iter().zip(GOLDEN) {
        assert_eq!(state.name(), name);
        let written = hex(&state.save_state());
        assert_eq!(written, golden, "{name}: persisted essence changed");
        let restored = Session::restore(&g, &unhex(golden))
            .unwrap_or_else(|e| panic!("{name}: golden blob no longer loads: {e}"));
        assert_eq!(restored.name(), name);
        assert_eq!(
            hex(&restored.save_state()),
            golden,
            "{name}: restore does not round-trip"
        );
    }
}
