//! # incgraph — Incrementalizing Graph Algorithms
//!
//! A Rust implementation of *"Incrementalizing Graph Algorithms"*
//! (Fan, Tian, Xu, Yin, Yu, Zhou — SIGMOD 2021): a systematic method for
//! deducing **incremental** graph algorithms from **batch** fixpoint
//! algorithms, with correctness and *relative boundedness* guarantees.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`graph`] — the dynamic graph substrate (storage, `ΔG` update
//!   batches, generators).
//! * [`core`] — the paper's contribution: the fixpoint model
//!   ([`core::FixpointSpec`], [`core::engine::Engine`]) and the
//!   incrementalization machinery ([`core::bounded_scope_in`] — Fig. 4;
//!   [`core::pe_reset_scope_in`] — Theorem 1).
//! * [`algos`] — the five proof-of-concept query classes (SSSP, CC,
//!   Sim, DFS, LCC), each as a batch algorithm plus its deduced
//!   incremental algorithm, together with two extension classes: BC
//!   (biconnectivity — the sixth class the paper names) and Reach (the
//!   `docs/EXTENDING.md` template).
//! * [`baselines`] — reimplementations of the fine-tuned dynamic
//!   competitors (RR, DynDij, HDT connectivity, IncMatch, DynDFS,
//!   DynLCC).
//! * [`workloads`] — dataset stand-ins, update and query generation.
//!
//! ## Quickstart
//!
//! ```
//! use incgraph::algos::SsspState;
//! use incgraph::graph::{DynamicGraph, UpdateBatch};
//!
//! // A small weighted directed graph.
//! let mut g = DynamicGraph::new(true, 4);
//! g.insert_edge(0, 1, 5);
//! g.insert_edge(1, 2, 5);
//! g.insert_edge(0, 3, 2);
//!
//! // Batch run (Dijkstra as a fixpoint), then an incremental update.
//! let (mut sssp, _) = SsspState::batch(&g, 0);
//! assert_eq!(sssp.distance(2), 10);
//!
//! let mut delta = UpdateBatch::new();
//! delta.insert(3, 2, 1).delete(0, 1);
//! let applied = delta.apply(&mut g);
//! sssp.update(&g, &applied); // IncSSSP: reuses the old fixpoint
//! assert_eq!(sssp.distance(2), 3);
//! assert_eq!(sssp.distance(1), u64::MAX); // unreachable now
//! ```

pub use incgraph_algos as algos;
pub use incgraph_baselines as baselines;
pub use incgraph_core as core;
pub use incgraph_graph as graph;
pub use incgraph_workloads as workloads;
