//! Root entry for the fixpoint engine's and the class layer's
//! crate-level suites.
//!
//! The schedule-free reference comparison that pins
//! `incgraph_core::Engine` and the session's typed refusals, both in
//! `crates/algos`, are pulled in here by path. Since the root manifest's
//! `default-members` covers every crate, `cargo test` at the root also
//! runs them under their own crates, so this entry is a second run kept
//! until its deletion (ROADMAP item 15). Nothing is copied.

#[path = "../crates/algos/tests/engine_reference.rs"]
mod engine_reference;

#[path = "../crates/algos/tests/session_errors.rs"]
mod session_errors;
