//! Golden-file test for the metrics JSON-lines schema.
//!
//! The exported form is canonical: this test pins the exact bytes for a
//! fixed snapshot against `tests/golden/metrics.jsonl`, then checks the
//! serialize → parse → re-serialize round trip is byte-identical. Any
//! intentional schema change must regenerate the golden file (run with
//! `INCGRAPH_REGEN_GOLDEN=1`) and show up in review as a diff.

use incgraph_obs::{parse_jsonl, to_jsonl, Recorder, Registry, Snapshot};

fn golden_snapshot() -> Snapshot {
    let r = Registry::with_trace();
    // One of each line type, covering the corners: empty (session)
    // class, escaping in event details, multi-bucket histograms, and
    // extreme values.
    r.counter("sssp", "engine.pops", 12_345);
    r.counter("sssp", "scope.evals", 99);
    r.counter("", "wal.bytes", 4_096);
    r.gauge("", "recover.checkpoint_seq", 7);
    r.observe("sssp", "scope.size", 0);
    r.observe("sssp", "scope.size", 1);
    r.observe("sssp", "scope.size", 1023);
    r.observe("sssp", "scope.size", u64::MAX);
    r.span("cc", "engine.run", 1_500_000);
    r.span("", "wal.commit", 800);
    r.event("lcc", "fallback", "scope_exceeded observed=10 limit=5");
    r.event("", "note", "quote \" backslash \\ newline \n tab \t done");
    r.snapshot()
}

#[test]
fn golden_file_matches_and_round_trips() {
    let snap = golden_snapshot();
    let serialized = to_jsonl(&snap);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.jsonl");
    if std::env::var_os("INCGRAPH_REGEN_GOLDEN").is_some() {
        std::fs::write(path, &serialized).unwrap();
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        serialized, golden,
        "schema drifted from tests/golden/metrics.jsonl; \
         regenerate with INCGRAPH_REGEN_GOLDEN=1 if intentional"
    );

    let parsed = parse_jsonl(&serialized).expect("own output parses");
    assert_eq!(parsed, snap, "parse loses nothing");
    assert_eq!(
        to_jsonl(&parsed),
        serialized,
        "serialize → parse → re-serialize is byte-identical"
    );
}
