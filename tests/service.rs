//! Root entry for the service layer's crate-level suites.
//!
//! The wire tests over real sockets — the `DELTA` round-trip,
//! read-your-writes after an `ACK`, the standing-plan `VDELTA` stream,
//! exactly-once retries and kill/recover on a durable store — the
//! replication suite (tail shipping, snapshot bootstrap, semi-sync
//! gating, shipping from the commit point, promotion and fencing) and
//! the dedup intent log's longest-valid-prefix properties are pulled in
//! here by path. Since the root manifest's `default-members` covers
//! every crate, `cargo test` at the root also runs them under
//! `incgraph-service`, so this entry is a second run kept until its
//! deletion (ROADMAP item 15). Nothing is copied.

#[path = "../crates/service/tests/service_e2e.rs"]
mod service_e2e;

#[path = "../crates/service/tests/replication.rs"]
mod replication;

#[path = "../crates/service/tests/prop_dedup.rs"]
mod prop_dedup;
