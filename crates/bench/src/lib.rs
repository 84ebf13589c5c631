//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§6), plus the ablations called out in DESIGN.md.
//!
//! Each experiment id maps to one function in [`exps`]; the binary
//! `experiments` dispatches on the id, runs the workload at the requested
//! scale, prints the same rows/series the paper reports, and dumps JSON
//! records under `results/`. See DESIGN.md §6 for the experiment index
//! and EXPERIMENTS.md for paper-vs-measured outcomes.

pub mod exps;
pub mod microbench;
pub mod parbench;
pub mod phasebench;
pub mod report;
pub mod sched;
pub mod stream;

pub use report::{measure, Ctx, Record, Sink};

/// Serializes the unit tests that install the process-global obs
/// recorder: the phase pass and the stream harness.
#[cfg(test)]
pub(crate) fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
