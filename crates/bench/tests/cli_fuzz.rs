//! The differential oracle's smoke campaigns through the built binary:
//! two fixed-seed `fuzz` campaigns, the crash-recovery sweep, the two
//! injected-fault self-tests (each fault must be caught and minimized)
//! and the replay of the checked-in corpus — each exits 0.

use std::process::Command;

/// Runs `incgraph args…` to completion, asserts exit 0 and returns what
/// it printed.
fn incgraph_ok(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_incgraph"))
        .args(args)
        .output()
        .expect("spawn incgraph");
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "incgraph {}:\n{text}",
        args.join(" ")
    );
    text.into_owned()
}

/// A bounded campaign that must hold every oracle.
fn campaign(args: &[&str]) {
    let printed = incgraph_ok(args);
    assert!(printed.contains("all oracles held"), "{printed}");
}

#[test]
fn smoke_campaign_seed_1() {
    campaign(&[
        "fuzz",
        "--seed",
        "1",
        "--cases",
        "200",
        "--budget-secs",
        "30",
        "--no-corpus",
    ]);
}

#[test]
fn smoke_campaign_seed_20260807() {
    campaign(&[
        "fuzz",
        "--seed",
        "20260807",
        "--cases",
        "200",
        "--budget-secs",
        "30",
        "--no-corpus",
    ]);
}

#[test]
fn crash_recovery_campaign() {
    campaign(&[
        "fuzz",
        "--crash",
        "--seed",
        "1",
        "--cases",
        "50",
        "--budget-secs",
        "30",
        "--no-corpus",
    ]);
}

/// The oracle's self-test: a doctored ΔG must fail it, and the
/// minimizer must shrink the failure (the run exits 0 only then).
fn injected_fault_is_caught(fault: &str) {
    let printed = incgraph_ok(&[
        "fuzz",
        "--seed",
        "7",
        "--cases",
        "50",
        "--inject-fault",
        fault,
        "--no-corpus",
    ]);
    let caught = format!("injected fault `{fault}` caught and minimized");
    assert!(printed.contains(&caught), "{printed}");
}

#[test]
fn skip_op_is_caught_and_minimized() {
    injected_fault_is_caught("skip-op");
}

#[test]
fn drop_deletes_is_caught_and_minimized() {
    injected_fault_is_caught("drop-deletes");
}

#[test]
fn corpus_replays() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let printed = incgraph_ok(&["replay", corpus]);
    assert!(printed.contains("case(s) verified"), "{printed}");
}
