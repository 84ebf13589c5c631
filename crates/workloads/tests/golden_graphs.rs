//! Pins the generated graphs edge for edge.
//!
//! Every experiment, oracle corpus case and benchmark workload starts from
//! one of these generators, so a change to how they build a graph must not
//! change the graph. Each test hashes the labels and `edges()` (weights
//! included) and compares against a digest recorded from the original
//! `insert_edge`-loop generators.

use incgraph_graph::gen::{grid, uniform};
use incgraph_graph::DynamicGraph;
use incgraph_workloads::Dataset;

/// FNV-1a over the node count, the labels and every `(u, v, w)` of
/// `edges()`, all as little-endian `u32`/`u64`.
fn digest(g: &DynamicGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(g.node_count() as u64).to_le_bytes());
    eat(&[g.is_directed() as u8]);
    for v in g.nodes() {
        eat(&g.label(v).to_le_bytes());
    }
    for (u, v, w) in g.edges() {
        eat(&u.to_le_bytes());
        eat(&v.to_le_bytes());
        eat(&w.to_le_bytes());
    }
    h
}

fn check(name: &str, g: &DynamicGraph, want: u64) {
    let got = digest(g);
    println!("{name}: {got:#018x} ({} edges)", g.edge_count());
    assert_eq!(got, want, "{name}: generated graph changed");
}

#[test]
fn datasets_at_quarter_scale_are_unchanged() {
    let want: [(Dataset, u64, u64); 6] = [
        (
            Dataset::LiveJournal,
            0x38da_17db_31a9_7c4d,
            0x0a72_5366_4c47_acde,
        ),
        (
            Dataset::DbPedia,
            0xbbb0_e1bb_4fe7_fba3,
            0xae5b_04a4_4b8f_fbbc,
        ),
        (Dataset::Orkut, 0xe044_0b1d_e773_e5a5, 0x7eaa_f08d_a5c8_5b95),
        (
            Dataset::Twitter,
            0xd738_4813_6295_d9ce,
            0x0b26_f8f5_ff57_4565,
        ),
        (
            Dataset::Friendster,
            0x1c65_daec_6e7e_45ad,
            0x6541_1031_67f1_3af9,
        ),
        (
            Dataset::WikiDe,
            0x064c_f178_b4c5_9414,
            0xc561_c187_e00e_ed22,
        ),
    ];
    for (d, directed, undirected) in want {
        check(
            &format!("{} directed", d.tag()),
            &d.graph(true, 0.25),
            directed,
        );
        check(
            &format!("{} undirected", d.tag()),
            &d.graph(false, 0.25),
            undirected,
        );
    }
}

#[test]
fn uniform_and_grid_are_unchanged() {
    check(
        "uniform directed",
        &uniform(2_000, 9_000, true, 100, 5, 7),
        0xe42d_b393_1cce_19ad,
    );
    check(
        "uniform undirected",
        &uniform(2_000, 9_000, false, 100, 5, 7),
        0x3153_5c35_4009_d28c,
    );
    // Dense enough that rejection sampling gives up before the budget.
    check(
        "uniform dense",
        &uniform(60, 3_000, false, 9, 3, 8),
        0xc01c_3bdd_652f_b183,
    );
    check("grid", &grid(30, 40, 100, 3), 0x872e_c9f4_8e6a_9332);
}

/// The delta-large-g graph (LiveJournal at scale 25, undirected). Run with
/// `cargo test --release -p incgraph-workloads -- --ignored`.
#[test]
#[ignore = "generates a 2.8M-edge graph; run in release"]
fn delta_large_g_graph_is_unchanged() {
    check(
        "LJ x25 undirected",
        &Dataset::LiveJournal.graph(false, 25.0),
        0x3ba5_6be6_fb2b_a7c3,
    );
}
