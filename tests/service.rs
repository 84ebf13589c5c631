//! Root entry for the service layer's wire suite.
//!
//! The wire tests over real sockets — the `DELTA` round-trip,
//! read-your-writes after an `ACK`, the standing-plan `VDELTA` stream,
//! exactly-once retries and kill/recover on a durable store — are pulled
//! in here by path. Since the root manifest's `default-members` covers
//! every crate, `cargo test` at the root also runs them under
//! `incgraph-service`, so this entry is a second run kept until its
//! deletion (ROADMAP item 15). Nothing is copied.

#[path = "../crates/service/tests/service_e2e.rs"]
mod service_e2e;
