//! Tier-1 entry for the store's notify-pass allocation bound.
//!
//! Its own test binary, not a module of `tests/service.rs`: it installs
//! a counting `#[global_allocator]`, which must be the only one in its
//! binary. The file stays where `cargo test -p incgraph-service` finds
//! it.

#[path = "../crates/service/tests/notify_alloc.rs"]
mod notify_alloc;
