//! Single-source reachability: a worked example of **extending the
//! framework to a new query class** (the paper's §8 future-work
//! direction). A class is a [`FixpointSpec`], a [`ContributorOracle`] and
//! a [`Deducible`] impl naming them; [`Deduced`] supplies the rest.
//!
//! Reachability looks like a least fixpoint "from below", which seems to
//! clash with the framework's contracting model — the trick is choosing
//! the partial order. Declare `true ⪯ false` with `⊥ = false` (except the
//! source): the batch run then *contracts* from unreached toward reached,
//! the OR update function is monotone, and everything else — timestamps,
//! the Fig. 4 scope function, relative boundedness — follows exactly as
//! for CC. Edge deletions are the interesting case: the scope function
//! walks the discovery order and un-reaches exactly the vertices whose
//! surviving in-neighbors no longer justify them.
//!
//! Like CC and Sim, `IncReach` is *weakly deducible*: the order `<_C` is
//! the turn-`true` timestamp recorded by the batch run.

use crate::deduced::{arcs, Deduced, Deducible};
use crate::persist::{self, ByteReader, StateLoadError};
use incgraph_core::engine::RunStats;
use incgraph_core::scope::ContributorOracle;
use incgraph_core::spec::{FixpointSpec, Relax};
use incgraph_core::status::Status;
use incgraph_graph::{AppliedOp, DynamicGraph, NodeId};

/// The reachability fixpoint specification over a graph snapshot.
pub struct ReachSpec<'g> {
    g: &'g DynamicGraph,
    source: NodeId,
}

impl<'g> ReachSpec<'g> {
    /// Specification for reachability from `source` in (directed) `g`.
    pub fn new(g: &'g DynamicGraph, source: NodeId) -> Self {
        assert!((source as usize) < g.node_count(), "source out of range");
        ReachSpec { g, source }
    }
}

impl FixpointSpec for ReachSpec<'_> {
    type Value = bool;

    fn num_vars(&self) -> usize {
        self.g.node_count()
    }

    fn bottom(&self, x: usize) -> bool {
        x == self.source as usize
    }

    fn eval<R: FnMut(usize) -> bool>(&self, x: usize, read: &mut R) -> bool {
        if x == self.source as usize {
            return true;
        }
        self.g
            .in_neighbors(x as NodeId)
            .iter()
            .any(|&(u, _)| read(u as usize))
    }

    fn dependents<P: FnMut(usize)>(&self, x: usize, push: &mut P) {
        for &(v, _) in self.g.out_neighbors(x as NodeId) {
            push(v as usize);
        }
    }

    fn preceq(&self, a: &bool, b: &bool) -> bool {
        // Flipped order: true ⪯ false. The run contracts from unreached
        // (⊥) down to reached.
        *a || !b
    }

    fn relax(&self, z: usize, z_val: &bool, _trigger: usize, tv: &bool) -> Relax<bool> {
        // An in-neighbor turning reached reaches z immediately.
        if z == self.source as usize {
            Relax::Skip
        } else if *tv && !z_val {
            Relax::Set(true)
        } else {
            Relax::Skip
        }
    }
}

/// `IncReach`'s contributor oracle: `<_C` by turn-`true` timestamp;
/// still-unreached variables sort last.
impl ContributorOracle<bool> for ReachSpec<'_> {
    fn order_key(&self, x: usize, status: &Status<bool>) -> u64 {
        if status.get(x) {
            status.stamp(x)
        } else {
            u64::MAX
        }
    }

    fn contributes_to<P: FnMut(usize)>(&self, x: usize, status: &Status<bool>, push: &mut P) {
        let sx = status.stamp(x);
        for &(z, _) in self.g.out_neighbors(x as NodeId) {
            // z was discovered after x and could have been discovered
            // through x.
            if status.get(z as usize) && status.stamp(z as usize) > sx {
                push(z as usize);
            }
        }
    }
}

/// The reachability class definition: the query parameter is the source.
pub struct Reach {
    source: NodeId,
}

impl Deducible for Reach {
    const NAME: &'static str = "reach";
    /// Weakly deducible: `<_C` is the discovery order of the batch run.
    const STAMPS: bool = true;
    type Value = bool;
    type Spec<'a> = ReachSpec<'a>;

    fn spec<'a>(&'a self, g: &'a DynamicGraph) -> ReachSpec<'a> {
        ReachSpec::new(g, self.source)
    }

    fn seeds<'a>(&'a self, g: &'a DynamicGraph) -> impl Iterator<Item = usize> + Clone + 'a {
        g.out_neighbors(self.source)
            .iter()
            .map(|&(v, _)| v as usize)
    }

    /// Heads of changed edges (both endpoints on undirected graphs, where
    /// the edge supports reachability in either direction), filtered: an
    /// insertion matters only if it newly reaches its head; a deletion
    /// only if the head was reached (its support may be gone).
    #[inline]
    fn touched(
        &self,
        g: &DynamicGraph,
        status: &Status<bool>,
        op: &AppliedOp,
        out: &mut Vec<usize>,
    ) {
        for (tail, head) in arcs(g, op) {
            let head_reached = status.get(head as usize);
            let keep = if op.inserted {
                status.get(tail as usize) && !head_reached
            } else {
                head_reached
            };
            if keep {
                out.push(head as usize);
            }
        }
    }

    fn evolved(&self, g: &DynamicGraph, op: &AppliedOp, out: &mut Vec<usize>) {
        out.extend(arcs(g, op).map(|(_, head)| head as usize));
    }

    fn put_params(&self, out: &mut Vec<u8>) {
        persist::put_u32(out, self.source);
    }

    fn read_params(r: &mut ByteReader<'_>) -> Result<Self, StateLoadError> {
        Ok(Reach { source: r.u32()? })
    }

    fn validate(&self, g: &DynamicGraph, _status: &Status<bool>) -> Result<(), StateLoadError> {
        if (self.source as usize) >= g.node_count() {
            return Err(StateLoadError::Malformed("source out of range".into()));
        }
        Ok(())
    }
}

/// Reachability state: the batch run and the deduced `IncReach`
/// ([`Deduced::update`]).
pub type ReachState = Deduced<Reach>;

impl ReachState {
    /// Runs the batch fixpoint from `source`.
    pub fn batch(g: &DynamicGraph, source: NodeId) -> (Self, RunStats) {
        Deduced::new(Reach { source }, g)
    }

    /// Whether `v` is reachable from the source.
    pub fn reachable(&self, v: NodeId) -> bool {
        self.value(v as usize)
    }

    /// The reachability bitmap.
    pub fn reached(&self) -> &[bool] {
        self.values()
    }

    /// Number of reachable vertices (including the source).
    pub fn reached_count(&self) -> usize {
        self.values().iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    fn bfs_reference(g: &DynamicGraph, s: NodeId) -> Vec<bool> {
        let mut seen = vec![false; g.node_count()];
        let mut stack = vec![s];
        seen[s as usize] = true;
        while let Some(v) = stack.pop() {
            for &(w, _) in g.out_neighbors(v) {
                if !std::mem::replace(&mut seen[w as usize], true) {
                    stack.push(w);
                }
            }
        }
        seen
    }

    #[test]
    fn batch_matches_bfs() {
        let g = incgraph_graph::gen::uniform(200, 600, true, 1, 1, 3);
        let (state, _) = ReachState::batch(&g, 0);
        assert_eq!(state.reached(), bfs_reference(&g, 0).as_slice());
    }

    #[test]
    fn deletion_unreaches_dependents() {
        let mut g = DynamicGraph::new(true, 4);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        g.insert_edge(2, 3, 1);
        let (mut state, _) = ReachState::batch(&g, 0);
        assert_eq!(state.reached_count(), 4);
        let mut b = UpdateBatch::new();
        b.delete(1, 2);
        let applied = b.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.reached(), &[true, true, false, false]);
    }

    #[test]
    fn insertion_reaches_new_region() {
        let mut g = DynamicGraph::new(true, 4);
        g.insert_edge(0, 1, 1);
        g.insert_edge(2, 3, 1);
        let (mut state, _) = ReachState::batch(&g, 0);
        assert_eq!(state.reached_count(), 2);
        let mut b = UpdateBatch::new();
        b.insert(1, 2, 1);
        let applied = b.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.reached_count(), 4);
    }

    #[test]
    fn undirected_deletion_retracts_the_tail_side() {
        // Regression: on undirected graphs an edge supports reachability
        // in both directions, so a delete op oriented *away* from the
        // source (src = far endpoint) must still retract that endpoint.
        // Found by the post-run fixpoint audit in the fault-injection
        // suite.
        let mut g = DynamicGraph::new(false, 3);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        let (mut state, _) = ReachState::batch(&g, 0);
        assert!(state.reachable(2));
        let mut b = UpdateBatch::new();
        b.delete(2, 1);
        let applied = b.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.reached(), &[true, true, false]);
    }

    #[test]
    fn cycle_support_is_not_self_sustaining() {
        // 0 -> 1 -> 2 -> 1 cycle: deleting (0,1) must un-reach the cycle
        // even though 1 and 2 mutually support each other — exactly what
        // the timestamp order resolves.
        let mut g = DynamicGraph::new(true, 3);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        g.insert_edge(2, 1, 1);
        let (mut state, _) = ReachState::batch(&g, 0);
        assert_eq!(state.reached_count(), 3);
        let mut b = UpdateBatch::new();
        b.delete(0, 1);
        let applied = b.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.reached(), &[true, false, false]);
    }

    #[test]
    fn random_rounds_match_bfs() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(100, 350, true, 1, 1, 17);
        let (mut state, _) = ReachState::batch(&g, 0);
        let mut rng = SplitMix64::seed_from_u64(23);
        for round in 0..25 {
            let mut batch = UpdateBatch::new();
            for _ in 0..8 {
                let u = rng.gen_range(0..100) as NodeId;
                let v = rng.gen_range(0..100) as NodeId;
                if rng.gen_bool(0.5) {
                    batch.insert(u, v, 1);
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            state.update(&g, &applied);
            assert_eq!(
                state.reached(),
                bfs_reference(&g, 0).as_slice(),
                "divergence at round {round}"
            );
        }
    }

    #[test]
    fn localized_deletion_is_bounded() {
        // A wide shallow DAG: source fans out to 1000 heads, each with a
        // pendant; deleting one pendant edge inspects O(1) variables.
        let mut g = DynamicGraph::new(true, 2001);
        for i in 0..1000u32 {
            g.insert_edge(0, 1 + i, 1);
            g.insert_edge(1 + i, 1001 + i, 1);
        }
        let (mut state, _) = ReachState::batch(&g, 0);
        let mut b = UpdateBatch::new();
        b.delete(500, 1500);
        let applied = b.apply(&mut g);
        let report = state.update(&g, &applied);
        assert!(!state.reachable(1500));
        assert!(
            report.inspected_vars <= 4,
            "inspected {}",
            report.inspected_vars
        );
    }
}
