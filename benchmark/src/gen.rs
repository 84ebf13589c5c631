//! Seeded load generator: the update stream and its exact wire text.
//!
//! The generator keeps a **shadow** [`DynamicGraph`] that mirrors what the
//! server holds and emits only *effective* unit updates — an insert names
//! an absent edge, a delete a live one — so no batch can be refused as
//! `invalid-batch` and every unit reaches the scope function. The server
//! sees nothing but [`Op::text`]; the shadow is what the correctness gate
//! rebuilds every view from at the end of a run.

use crate::spec::{GRAPH, LOAD_UNITS};
use incgraph_graph::rng::SplitMix64;
use incgraph_graph::{DynamicGraph, NodeId, UpdateBatch, Weight};
use std::fmt::Write;
use std::time::{Duration, Instant};

/// One client operation: an `UPDATE` batch and, pipelined behind it on
/// the same connection, the idempotent `GRAPH` attach whose `OK GRAPH`
/// marks the batch's notifications as delivered.
#[derive(Clone, Debug)]
pub struct Op {
    /// Client sequence number of the `UPDATE`.
    pub seq: u64,
    /// The batch, as the server will parse it.
    pub batch: UpdateBatch,
    /// Bytes to send: `UPDATE` header, unit lines, then the attach line.
    pub text: String,
    /// Length of the `UPDATE` part of [`text`](Self::text).
    pub update_len: usize,
}

impl Op {
    /// The `UPDATE` header and unit lines, without the attach.
    pub fn update_text(&self) -> &str {
        &self.text[..self.update_len]
    }
}

/// The attach line for a graph of `nodes` nodes.
pub fn attach_line(nodes: usize) -> String {
    format!("GRAPH {GRAPH} {nodes} undirected\n")
}

fn push_insert(text: &mut String, u: NodeId, v: NodeId, w: Weight) {
    writeln!(text, "+ {u} {v} {w}").expect("writing to a String cannot fail");
}

fn header(seq: u64, units: usize) -> String {
    format!("UPDATE {GRAPH} {seq} {units}\n")
}

/// The `UPDATE`s that load `g`'s edges into an empty wire-created graph,
/// [`LOAD_UNITS`] inserts each, sequences from 1, made one at a time so
/// that the load's text never exists as a whole. Applied in order to a
/// `DynamicGraph::new(false, n)` they rebuild `g` without its labels —
/// which is what the server ends up holding.
pub fn load_ops(g: &DynamicGraph) -> impl Iterator<Item = Op> + '_ {
    let mut edges = g.edges().peekable();
    let mut seq = 0;
    std::iter::from_fn(move || {
        edges.peek()?;
        seq += 1;
        let mut lines = String::new();
        let mut batch = UpdateBatch::new();
        for (u, v, w) in edges.by_ref().take(LOAD_UNITS) {
            push_insert(&mut lines, u, v, w);
            batch.insert(u, v, w);
        }
        let text = header(seq, batch.len()) + &lines;
        Some(Op {
            seq,
            batch,
            update_len: text.len(),
            text,
        })
    })
}

/// The timed update stream of one run. Same shadow, seed and batch size ⇒
/// byte-identical [`Op::text`] sequence.
///
/// The stream is **stationary**: a delete removes a uniformly random live
/// edge into a pool, an insert puts a uniformly random pooled edge back
/// with its weight, and the odds of a delete fall as the pool fills so its
/// size hovers around [`pool_target`](Self::pool_target). The graph is
/// therefore always the generated one minus a small random edge set — its
/// size and degree skew never drift, so a latency measured after 1 000
/// batches means the same as one measured after 100 000, and a run cut by
/// `--seconds` measures the same regime as one cut by op count.
pub struct UpdateGen {
    rng: SplitMix64,
    shadow: DynamicGraph,
    /// Live edges, for uniform delete sampling.
    live: Vec<(NodeId, NodeId, Weight)>,
    /// Deleted edges waiting to be re-inserted.
    pool: Vec<(NodeId, NodeId, Weight)>,
    pool_target: usize,
    units: usize,
    next_seq: u64,
    attach: String,
    busy: Duration,
}

impl UpdateGen {
    /// A generator over `shadow` (undirected), emitting `units` unit
    /// updates per batch under client sequences from `first_seq`.
    pub fn new(shadow: DynamicGraph, seed: u64, units: usize, first_seq: u64) -> Self {
        assert!(!shadow.is_directed(), "workloads are undirected");
        assert!(shadow.edge_count() >= 2 && units >= 1);
        let live: Vec<_> = shadow.edges().collect();
        let attach = attach_line(shadow.node_count());
        UpdateGen {
            // Mixed so that seeds 1, 2, 3… do not share a stream prefix.
            rng: SplitMix64::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            pool_target: (32 * units).min(live.len() / 20).max(1),
            shadow,
            live,
            pool: Vec::new(),
            units,
            next_seq: first_seq,
            attach,
            busy: Duration::ZERO,
        }
    }

    /// What the server's graph looks like after every op emitted so far.
    pub fn shadow(&self) -> &DynamicGraph {
        &self.shadow
    }

    /// Sequence the next op will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Size the deleted-edge pool reverts to: 32 batches' worth of units,
    /// at most 5 % of `|E|`. It fills within the warm-up share of any run.
    pub fn pool_target(&self) -> usize {
        self.pool_target
    }

    /// Total time spent inside [`next_op`](Self::next_op).
    pub fn busy(&self) -> Duration {
        self.busy
    }

    /// Emits the next batch. Every unit is effective: a delete names a
    /// live edge, an insert an absent one, and each is applied to the
    /// shadow at once so later units of the same batch see it. A delete
    /// is drawn with probability `1 − pool/(2·target)`: certain on an
    /// empty pool, even odds at the target, never at twice the target.
    pub fn next_op(&mut self) -> Op {
        let started = Instant::now();
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut text = header(seq, self.units);
        let mut batch = UpdateBatch::new();
        for _ in 0..self.units {
            let p_delete = 1.0 - self.pool.len() as f64 / (2 * self.pool_target) as f64;
            if self.rng.gen_bool(p_delete.clamp(0.0, 1.0)) {
                let i = self.rng.gen_range(0..self.live.len());
                let (u, v, w) = self.live.swap_remove(i);
                self.shadow
                    .delete_edge(u, v)
                    .expect("live list mirrors the shadow");
                self.pool.push((u, v, w));
                writeln!(text, "- {u} {v}").expect("writing to a String cannot fail");
                batch.delete(u, v);
            } else {
                let i = self.rng.gen_range(0..self.pool.len());
                let (u, v, w) = self.pool.swap_remove(i);
                let inserted = self.shadow.insert_edge(u, v, w);
                debug_assert!(inserted, "pooled edges are absent from the shadow");
                self.live.push((u, v, w));
                push_insert(&mut text, u, v, w);
                batch.insert(u, v, w);
            }
        }
        let update_len = text.len();
        text.push_str(&self.attach);
        self.busy += started.elapsed();
        Op {
            seq,
            batch,
            text,
            update_len,
        }
    }
}
