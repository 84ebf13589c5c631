//! Tier-1 entry for the service layer's end-to-end suite.
//!
//! `cargo test` at the root runs only the root package, so the wire
//! tests over real sockets — the `DELTA` round-trip, the coalesced-flush
//! `DELTA`, the standing-plan `VDELTA` stream, exactly-once retries and
//! kill/recover on a durable store — are pulled in here by path, the way
//! `tests/engine.rs` does for the engine suites. The file stays where
//! `cargo test -p incgraph-service` finds it.

#[path = "../crates/service/tests/service_e2e.rs"]
mod service_e2e;
