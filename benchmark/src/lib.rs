//! The repo benchmark: four wire-level workloads against real
//! `incgraph_service::Server` instances, end-to-end metrics a client
//! would see, and an outside-in per-layer replay. `README.md` has the
//! metric glossary, the layer → end-to-end predictions and how to run it.

pub mod affinity;
pub mod check;
pub mod gen;
pub mod replay;
pub mod report;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod wire;
