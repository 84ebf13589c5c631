//! Typed query-class outputs: the [`OutputSnapshot`] a [`Session`]
//! renders from its class state and the [`OutputDelta`] each update
//! emits.
//!
//! A session holds each value once, in its class state. The snapshot is
//! a view borrowed from that state: every entry of the canonical `u64`
//! stream — byte-identical to the historical digest — is computed on
//! demand, and nothing is materialized beside the status.
//!
//! The delta is a by-product of the run: the state's writes — through
//! [`Status`](incgraph_core::Status), at IncDFS's entry and close — go
//! to a [`Journal`](incgraph_core::Journal) that keeps each variable's
//! value from before its first write since the last drain. Draining it
//! costs `O(|Δoutput|)` (BC: plus one pass over the nodes when its bridge
//! list moved but kept its length); only a recompute or a load, `O(|G|)`
//! anyway, journals what it replaced by comparison.
//!
//! Two granularities coexist on purpose:
//!
//! * **Entry-level** ([`OutputChange`]): positions in the digest stream.
//!   This is the unit of the wire `DELTA` protocol and the corpus
//!   replay, which must stay byte-identical across the redesign.
//! * **Node-level** ([`NodeChange`]): per-node `(key, old, new)` changes
//!   to the class's σ_x — distance, component id, reachable bit,
//!   preorder rank, simulation match set, packed LCC value. This is the
//!   row representation the `incgraph-dataflow` operator layer consumes.
//!   A node's old value is its current row with the changed entries' old
//!   values laid over it.
//!
//! [`Session`]: crate::Session

use crate::session::QueryClass;
use crate::IncrementalState;
use incgraph_core::metrics::BoundednessReport;

/// What a session needs of its class state beyond [`IncrementalState`]:
/// the output rendering and the write journal its deltas are drained
/// from.
pub(crate) trait ClassOutput: IncrementalState {
    /// Graph nodes covered.
    fn nodes(&self) -> usize;

    /// Digest entries per node.
    fn stride(&self) -> usize {
        1
    }

    /// Per-node entry `i` (`i < nodes · stride`).
    fn entry(&self, i: usize) -> u64;

    /// Length of the class tail after the per-node entries.
    fn tail_len(&self) -> usize {
        0
    }

    /// Appends the whole digest: per-node entries, then the tail.
    fn render(&self, out: &mut Vec<u64>) {
        out.extend((0..self.nodes() * self.stride()).map(|i| self.entry(i)));
    }

    /// Starts (`true`) or stops (`false`, releasing it) the write journal.
    fn set_journal(&mut self, on: bool);

    /// Heap bytes of the write journal.
    fn journal_bytes(&self) -> usize;

    /// Drains the journal into `changes`: every digest entry whose value
    /// moved since the last drain, ascending by index. Reserves once.
    /// Returns whether the tail's length moved (the entries past the
    /// per-node ones are then not listed).
    fn drain(&mut self, changes: &mut Vec<OutputChange>) -> bool;

    /// Takes over the journal of `prev`, the state a recompute or a load
    /// replaced, journaling what the replacement changed.
    fn carry_journal(&mut self, prev: Self)
    where
        Self: Sized;

    /// Replaces the state with `fresh` (a recompute, a load) and keeps
    /// the journal exact: `O(|G|)`, like building `fresh`.
    fn replace(&mut self, fresh: Self)
    where
        Self: Sized,
    {
        let prev = std::mem::replace(self, fresh);
        self.carry_journal(prev);
    }
}

/// A session's output, rendered on demand from its class state: the
/// canonical per-node value stream plus any class-specific tail (BC's
/// bridge list). [`to_digest`](Self::to_digest) is the historical
/// `digest()` vector exactly, which is what keeps wire digests and corpus
/// replay stable.
#[derive(Clone, Copy)]
pub struct OutputSnapshot<'a> {
    class: QueryClass,
    state: &'a dyn ClassOutput,
    stride: usize,
}

impl<'a> OutputSnapshot<'a> {
    pub(crate) fn new(class: QueryClass, state: &'a dyn ClassOutput) -> Self {
        let stride = state.stride();
        OutputSnapshot {
            class,
            state,
            stride,
        }
    }

    /// Number of graph nodes covered.
    pub fn nodes(&self) -> usize {
        self.state.nodes()
    }

    /// Digest entries per node: 1 for SSSP/CC/Reach/LCC/BC, the pattern
    /// node count for Sim, 3 (first, last, parent) for DFS.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total digest length (per-node entries + tail; BC counts its
    /// bridges, `O(|V|)`).
    pub fn digest_len(&self) -> usize {
        self.nodes() * self.stride() + self.state.tail_len()
    }

    /// Digest entry at flat index `i`. Per-node entries cost `O(1)`; a
    /// tail entry renders the digest.
    pub fn entry(&self, i: usize) -> u64 {
        if i < self.nodes() * self.stride() {
            self.state.entry(i)
        } else {
            self.to_digest()[i]
        }
    }

    /// The historical digest vector, byte-identical to what
    /// `Session::digest` always produced.
    pub fn to_digest(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.state.render(&mut out);
        out
    }

    /// The node's σ_x as one `u64`: the digest entry for stride-1
    /// classes, the preorder rank for DFS, and a `q`-bit match bitmask
    /// for Sim (bit `u % 64` set iff the node simulates pattern node
    /// `u`).
    pub fn node_value(&self, v: usize) -> u64 {
        self.node_change(v, &[]).1
    }

    /// `v`'s value before and after `row`, the changes to its entries
    /// (ascending): the current row with their old values laid over it,
    /// and the current row.
    pub(crate) fn node_change(&self, v: usize, row: &[OutputChange]) -> (u64, u64) {
        let first = v * self.stride;
        let unchanged = |i| {
            let e = self.state.entry(i);
            (e, e)
        };
        if self.class != QueryClass::Sim {
            // The node's value is its first entry.
            return match row.first() {
                Some(c) if c.index as usize == first => (c.old, c.new),
                _ => unchanged(first),
            };
        }
        let mut row = row.iter().peekable();
        (0..self.stride).fold((0, 0), |(old, new), u| {
            let (o, n) = match row.next_if(|c| c.index as usize == first + u) {
                Some(c) => (c.old, c.new),
                None => unchanged(first + u),
            };
            let bit = |m: u64| (m & 1) << (u & 63);
            (old | bit(o), new | bit(n))
        })
    }
}

/// One changed position in the digest stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutputChange {
    /// Flat digest index.
    pub index: u32,
    /// Value before the update (at the previous drain point).
    pub old: u64,
    /// Current value.
    pub new: u64,
}

/// One node whose σ_x changed. The vertex set is fixed when the graph
/// is built and `ΔG` only inserts and deletes edges (paper §2), so every
/// node had a value before the update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeChange {
    /// The node.
    pub node: u32,
    /// Value before the update (at the previous drain point).
    pub old: u64,
    /// Current value.
    pub new: u64,
}

/// The net output change of one (or several coalesced) update steps:
/// what a consumer must apply to move from the previous output to the
/// current one. Produced by `Session::take_delta` /
/// `Session::update_guarded` from the state's write journal, never by
/// diffing full digests.
///
/// A graph's vertex set and labels are fixed at construction and `ΔG` is
/// edge insertions and deletions (paper §2), so the per-node part of the
/// digest never changes length; only BC's bridge tail can.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OutputDelta {
    /// Entry-level changes, sorted by index. Empty when
    /// [`resync`](Self::resync) is set — a digest whose *length* changed
    /// (BC's bridge list grew or shrank) has no stable index mapping.
    pub changes: Vec<OutputChange>,
    /// Node-level changes, sorted by node. Always precise, including
    /// across resyncs.
    pub nodes: Vec<NodeChange>,
    /// Set (to the new digest length) when BC's bridge list changed
    /// length; entry-diff consumers must refetch the full snapshot.
    pub resync: Option<usize>,
}

impl OutputDelta {
    /// Whether the update changed nothing observable.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty() && self.nodes.is_empty() && self.resync.is_none()
    }
}

/// A guarded update's result: the boundedness accounting of the run plus
/// the typed output delta it produced.
#[derive(Debug)]
pub struct TrackedUpdate {
    /// The run's boundedness report (scope size, work counters,
    /// fallback decision).
    pub report: BoundednessReport,
    /// Net output change of the step.
    pub delta: OutputDelta,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_delta_reports_empty() {
        let d = OutputDelta::default();
        assert!(d.is_empty());
        let d = OutputDelta {
            resync: Some(7),
            ..Default::default()
        };
        assert!(!d.is_empty());
    }
}
