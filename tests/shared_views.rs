//! Tier-1 entry for the store's shared-view equivalence suite.
//!
//! Its own test binary, not a module of `tests/service.rs`: it reads the
//! process-wide obs recorder, which the socket suites there would write
//! to from their servers' threads. The file stays where
//! `cargo test -p incgraph-service` finds it.

#[path = "../crates/service/tests/shared_views.rs"]
mod shared_views;
