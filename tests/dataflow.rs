//! Tier-1 entry for the dataflow layer's crate-level suite.
//!
//! `cargo test` at the root runs only the root package, so the operator
//! laws — incremental ≡ batch through every operator, the slot-column
//! collection against its nested-map model, the per-node footprint
//! bounds and the allocation-free warm tick — are pulled in here by
//! path, the way `tests/engine.rs` does for the engine suites. The file
//! stays where `cargo test -p incgraph-dataflow` finds it.

#[path = "../crates/dataflow/tests/op_laws.rs"]
mod op_laws;
