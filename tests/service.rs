//! Tier-1 entry for the service layer's crate-level suites.
//!
//! `cargo test` at the root runs only the root package, so the wire
//! tests over real sockets — the `DELTA` round-trip, the coalesced-flush
//! `DELTA`, the standing-plan `VDELTA` stream, exactly-once retries and
//! kill/recover on a durable store — the replication suite (tail
//! shipping, snapshot bootstrap, semi-sync gating, shipping from the
//! commit point, promotion and fencing) and the dedup intent log's
//! longest-valid-prefix properties are pulled in here by path, the way
//! `tests/engine.rs` does for the engine suites. The files stay where
//! `cargo test -p incgraph-service` finds them.

#[path = "../crates/service/tests/service_e2e.rs"]
mod service_e2e;

#[path = "../crates/service/tests/replication.rs"]
mod replication;

#[path = "../crates/service/tests/prop_dedup.rs"]
mod prop_dedup;
