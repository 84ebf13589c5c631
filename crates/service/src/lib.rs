//! Fault-tolerant incremental graph **service**.
//!
//! Everything below the service boundary — the deduced incremental
//! algorithms, the WAL-durable store, recovery — already existed; this
//! crate closes the loop from the paper's model to a long-running system
//! that strangers connect to over TCP and that misbehaving networks
//! cannot corrupt:
//!
//! - [`protocol`]: the line-oriented `incgraph-wire/1` protocol. Clients
//!   `HELLO` into sessions, create or attach to named graphs, register
//!   **standing queries** (any of the seven [`QueryClass`]es), stream
//!   `ΔG` batches in, and receive **delta notifications** — only the
//!   changed digest entries — out.
//! - [`store`]: the shared store: named graphs (in-memory or
//!   WAL-durable), standing queries, the single-writer commit path
//!   with exactly-once client retries, and degraded read-only mode after
//!   a WAL write failure.
//! - [`dedup`]: the one-time migration of a store that kept its
//!   exactly-once intents in a sidecar log; a WAL record carries its
//!   batch's client origin instead.
//! - [`server`]: the threaded TCP server — configuration, roles, the
//!   acceptor, the writer thread, graceful drain and abrupt death. Three
//!   private modules hold the rest of it: `session` (each connection's
//!   reader — deadlines, idle reaping, admission control with `BUSY`),
//!   `writer` (the writer's core, `WriterCore`, and its commit → ack →
//!   notify order, with the primary half of replication) and `repl` (the
//!   replica tail).
//! - [`outbound`]: each session's bounded outbound queue, with
//!   slow-consumer coalescing-then-disconnect.
//! - [`client`]: a small blocking client used by the CLI, the load
//!   harness, and the chaos tests.
//! - [`load`]: the `incgraph load` harness driving thousands of
//!   concurrent sessions and reporting per-class latency percentiles
//!   through the observability registry.
//!
//! The robustness claims are not aspirational: `crates/oracle`'s chaos
//! harness drives this server through a byte-level fault-injecting proxy
//! and in-process crash/restart cycles, asserting that every
//! acknowledged batch is applied exactly once and that recovery restores
//! byte-identical per-class essences. Wire grammar and semantics are
//! documented in `docs/SERVICE.md`.
//!
//! [`QueryClass`]: incgraph_algos::QueryClass

pub mod client;
pub mod dedup;
pub mod load;
pub mod outbound;
pub mod protocol;
pub(crate) mod repl;
pub mod server;
pub(crate) mod session;
pub mod store;
pub(crate) mod writer;

pub use client::{Client, ClientError, Reply};
pub use dedup::{DedupLog, DEDUP_NAME};
pub use load::{run_load, ClassPercentiles, LoadConfig, LoadReport};
pub use outbound::{OutMsg, Outbound};
pub use protocol::{Command, Delta, ErrCode, MAX_LINE_BYTES, WIRE_VERSION};
pub use server::{Role, Server, ServerConfig, ServerHandle};
pub use store::{standing_states, ReplInfo, Store, StoreLimits};
