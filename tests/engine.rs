//! Tier-1 entry for the fixpoint engine's and the class layer's
//! crate-level suites.
//!
//! `cargo test` at the root runs only the root package, so the suites
//! that pin `incgraph_core::Engine` — the schedule-free reference
//! comparison in `crates/algos` and the bucket-queue / epoch-set model
//! checks in `crates/core` — and the three that pin what the class layer
//! shows the outside — the persisted essence bytes, the session's typed
//! refusals and the value-invisibility of micro-batch coalescing — are
//! pulled in here by path. The files stay where their crates' own
//! `cargo test -p` finds them; nothing is copied.

#[path = "../crates/algos/tests/engine_reference.rs"]
mod engine_reference;

#[path = "../crates/core/tests/prop_bucket_epoch.rs"]
mod prop_bucket_epoch;

#[path = "../crates/algos/tests/essence_golden.rs"]
mod essence_golden;

#[path = "../crates/algos/tests/session_errors.rs"]
mod session_errors;

#[path = "../crates/algos/tests/coalesce_equiv.rs"]
mod coalesce_equiv;
