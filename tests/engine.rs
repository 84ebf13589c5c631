//! Root entry for the fixpoint engine's crate-level reference suite.
//!
//! The schedule-free reference comparison that pins
//! `incgraph_core::Engine`, in `crates/algos`, is pulled in here by path.
//! Since the root manifest's `default-members` covers every crate,
//! `cargo test` at the root also runs it under its own crate, so this
//! entry is a second run kept until its deletion (ROADMAP item 15).
//! Nothing is copied.

#[path = "../crates/algos/tests/engine_reference.rs"]
mod engine_reference;
