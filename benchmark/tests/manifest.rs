//! `BENCHMARK.json` is generated from `spec`; the committed file must be
//! that text, and the text must stay inside the driver's limits.

use incgraph_benchmark::report::Results;
use incgraph_benchmark::spec::{self, WORKLOADS};
use incgraph_benchmark::stats::Summary;
use std::collections::HashSet;

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().unwrap().is_ascii_alphanumeric()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn committed_manifest_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        spec::manifest_json(),
        "regenerate with `benchmark manifest > BENCHMARK.json`"
    );
}

#[test]
fn manifest_stays_inside_the_drivers_limits() {
    assert!(spec::manifest_json().len() < 64 * 1024);
    assert!((2..=8).contains(&WORKLOADS.len()));
    let mut names = HashSet::new();
    for w in WORKLOADS {
        assert!(name_ok(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(names.insert(w.name.to_string()));
    }
    let e2e = spec::end_to_end();
    assert!((1..=16).contains(&e2e.len()));
    assert!(e2e
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == spec::Better::Lower));
    let layers = spec::trace_metrics();
    assert!((1..=128).contains(&layers.len()), "{}", layers.len());
    for m in e2e.iter().chain(&layers) {
        assert!(name_ok(&m.name), "{}", m.name);
        assert!(names.insert(m.name.clone()), "{} is used twice", m.name);
        assert!(m.unit.len() <= 16);
        assert!(m
            .unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
    }
    for m in &e2e {
        let bound = m.bound.expect("end-to-end metrics are bounded");
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
    }
    let setup = e2e.iter().find(|m| m.name == "setup_s").unwrap().bound;
    assert!(
        e2e.iter().all(|m| m.bound <= setup),
        "setup_s has the largest bound"
    );
}

#[test]
fn result_text_round_trips() {
    let mut r = Results::default();
    r.set(
        "ack_p50_us",
        Summary {
            value: 85.25,
            min: 80.0,
            max: 91.5,
        },
    );
    r.set_value("core.sssp.aff_share", 0.000_093_233_082_706_766_91);
    r.info.insert("nodes".into(), 20000.0);
    r.attempted = 120;
    r.check(Some("near: final answer differs".into()));
    let back = Results::parse_text(&format!(
        "workload x seed 1\n{}{{\"json\": 1}}\n",
        r.to_text()
    ));
    assert_eq!(back.values, r.values);
    assert_eq!((back.attempted, back.failed), (121, 1));
    assert_eq!(back.failures, r.failures);
    assert_eq!(back.info, r.info);
}

#[test]
fn driver_json_carries_exactly_the_asked_metrics() {
    let mut r = Results::default();
    r.set_value("setup_s", 0.5);
    r.attempted = 10;
    let line = r.driver_json(&spec::end_to_end());
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {")
    );
    assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    assert_eq!(line.matches("\"value\"").count(), spec::end_to_end().len());
    assert!(!line.contains('\n'));
}
