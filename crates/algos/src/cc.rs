//! Connected components: min-label propagation `CC_fp` (paper Example 2)
//! and its **weakly deducible** incremental algorithm `IncCC`
//! (paper Example 5).
//!
//! Status variable `x_v` = the component id of `v`, initialized to `v`'s
//! own id; the update function takes the minimum over the neighborhood,
//! so the final value is the minimum node id of `v`'s component. `⪯` is
//! `≤` on ids — contracting and monotonic.
//!
//! `IncCC` keeps **timestamps** (the one auxiliary structure weak
//! deducibility permits): the order `<_C` is the change order of the batch
//! run, and the anchor set of `x_w` consists of the neighbors whose label
//! settled *earlier* (smaller stamp). This is what makes a unit edge
//! deletion inside a stable component cheap — only the endpoint with the
//! larger timestamp can be truly affected — in contrast to the Theorem 1
//! PE-reset strategy of Example 2, which floods the entire component.
//! Both strategies are exposed; the PE one backs the `abl-scope`/`abl-ts`
//! ablations.

use crate::deduced::{Deduced, Deducible};
use crate::persist::{ByteReader, StateLoadError};
use incgraph_core::engine::RunStats;
use incgraph_core::scope::ContributorOracle;
use incgraph_core::spec::{FixpointSpec, Relax};
use incgraph_core::status::Status;
use incgraph_graph::{AppliedOp, DynamicGraph, NodeId};

/// Component label type (a node id).
pub type CompId = u32;

/// The CC fixpoint specification over an (undirected) graph snapshot.
pub struct CcSpec<'g> {
    g: &'g DynamicGraph,
}

impl<'g> CcSpec<'g> {
    /// Specification over `g`. CC is defined on undirected graphs; for a
    /// directed graph this computes weakly connected components using the
    /// union of both adjacency directions.
    pub fn new(g: &'g DynamicGraph) -> Self {
        CcSpec { g }
    }

    fn neighbors(&self, v: usize, mut f: impl FnMut(usize)) {
        for &(u, _) in self.g.out_neighbors(v as NodeId) {
            f(u as usize);
        }
        if self.g.is_directed() {
            for &(u, _) in self.g.in_neighbors(v as NodeId) {
                f(u as usize);
            }
        }
    }
}

impl FixpointSpec for CcSpec<'_> {
    type Value = CompId;

    fn num_vars(&self) -> usize {
        self.g.node_count()
    }

    fn bottom(&self, x: usize) -> CompId {
        x as CompId
    }

    fn eval<R: FnMut(usize) -> CompId>(&self, x: usize, read: &mut R) -> CompId {
        // f_{x_v}(Y) = min({v} ∪ Y): the self term is folded in as the
        // constant `v` (see the FixpointSpec contract on self-reads).
        let mut m = x as CompId;
        self.neighbors(x, |u| m = m.min(read(u)));
        m
    }

    fn dependents<P: FnMut(usize)>(&self, x: usize, push: &mut P) {
        self.neighbors(x, push);
    }

    fn preceq(&self, a: &CompId, b: &CompId) -> bool {
        a <= b
    }

    fn relax(&self, _z: usize, z_val: &CompId, _trigger: usize, tv: &CompId) -> Relax<CompId> {
        // Min-label propagation: a neighbor's drop to `tv` can only pull
        // the label down to `tv`.
        if tv < z_val {
            Relax::Set(*tv)
        } else {
            Relax::Skip
        }
    }

    fn rank(&self, _x: usize, v: &CompId) -> u64 {
        *v as u64
    }

    fn push_rank(&self, _z: usize, _zv: &CompId, _t: usize, tv: &CompId) -> u64 {
        *tv as u64
    }
}

/// `IncCC`'s contributor oracle: order `<_C` from timestamps. A neighbor
/// `z` has `x` in its anchor set only if `z`'s label was *witnessed* by
/// `x` — same old value, later stamp (for min-propagation every anchor is
/// an equal-valued, earlier-settled neighbor), so `contributes_to(x)`
/// pushes exactly those.
impl ContributorOracle<CompId> for CcSpec<'_> {
    fn order_key(&self, x: usize, status: &Status<CompId>) -> u64 {
        status.stamp(x)
    }

    fn contributes_to<P: FnMut(usize)>(&self, x: usize, status: &Status<CompId>, push: &mut P) {
        // Pre-raise value of x (contributes_to runs before the raise):
        // witnesses carry the same label with a later stamp.
        let sx = status.stamp(x);
        let vx = status.get(x);
        self.neighbors(x, |z| {
            if status.stamp(z) > sx && status.get(z) == vx {
                push(z);
            }
        });
    }
}

/// The CC class definition: no query parameters.
pub struct Cc;

impl Deducible for Cc {
    const NAME: &'static str = "cc";
    /// Weakly deducible: `<_C` is the change order of the batch run.
    const STAMPS: bool = true;
    type Value = CompId;
    type Spec<'a> = CcSpec<'a>;

    fn spec<'a>(&'a self, g: &'a DynamicGraph) -> CcSpec<'a> {
        CcSpec::new(g)
    }

    fn seeds<'a>(&'a self, g: &'a DynamicGraph) -> impl Iterator<Item = usize> + Clone + 'a {
        0..g.node_count()
    }

    /// Endpoints of changed edges, filtered as in the paper's Example 5.
    /// A deleted edge can only invalidate a label that was *witnessed*
    /// across it: both endpoints carry the same old label and only the
    /// one with the larger timestamp may be truly affected. An inserted
    /// edge can only lower the endpoint with the larger old label.
    /// Equal-label insertions and distinct-label deletions provably
    /// change nothing.
    #[inline]
    fn touched(
        &self,
        _g: &DynamicGraph,
        status: &Status<CompId>,
        op: &AppliedOp,
        out: &mut Vec<usize>,
    ) {
        let (a, b) = (op.src as usize, op.dst as usize);
        let (va, vb) = (status.get(a), status.get(b));
        if op.inserted {
            match va.cmp(&vb) {
                std::cmp::Ordering::Less => out.push(b),
                std::cmp::Ordering::Greater => out.push(a),
                std::cmp::Ordering::Equal => {}
            }
        } else if va == vb {
            let e = if status.stamp(a) >= status.stamp(b) {
                a
            } else {
                b
            };
            if status.get(e) != e as CompId {
                out.push(e);
            }
        }
    }

    fn evolved(&self, _g: &DynamicGraph, op: &AppliedOp, out: &mut Vec<usize>) {
        out.extend([op.src as usize, op.dst as usize]);
    }

    fn put_params(&self, _out: &mut Vec<u8>) {}

    fn read_params(_r: &mut ByteReader<'_>) -> Result<Self, StateLoadError> {
        Ok(Cc)
    }

    fn validate(&self, g: &DynamicGraph, status: &Status<CompId>) -> Result<(), StateLoadError> {
        let n = g.node_count();
        if status.values().iter().any(|&v| v as usize >= n) {
            return Err(StateLoadError::Malformed("label beyond node range".into()));
        }
        Ok(())
    }
}

/// CC state: `CC_fp` (the batch run) and the deduced `IncCC` of Example 5
/// ([`Deduced::update`]). [`Deduced::update_pe_reset`] is Example 2's
/// deducible-but-unbounded strategy, which floods the whole component.
pub type CcState = Deduced<Cc>;

impl CcState {
    /// Runs batch `CC_fp`.
    pub fn batch(g: &DynamicGraph) -> (Self, RunStats) {
        Deduced::new(Cc, g)
    }

    /// Component id (= minimum node id of the component) of every node.
    pub fn components(&self) -> &[CompId] {
        self.values()
    }

    /// Component id of one node.
    pub fn component(&self, v: NodeId) -> CompId {
        self.value(v as usize)
    }

    /// Number of distinct components.
    pub fn component_count(&self) -> usize {
        let mut ids: Vec<CompId> = self.values().to_vec();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    /// Reference: BFS labeling with min id per component.
    fn cc_reference(g: &DynamicGraph) -> Vec<CompId> {
        let n = g.node_count();
        let mut label = vec![CompId::MAX; n];
        for start in 0..n {
            if label[start] != CompId::MAX {
                continue;
            }
            // BFS; the component minimum is the smallest unvisited seed,
            // which is `start` itself since we scan in id order.
            let mut queue = vec![start];
            label[start] = start as CompId;
            while let Some(v) = queue.pop() {
                let mut visit = |u: usize| {
                    if label[u] == CompId::MAX {
                        label[u] = start as CompId;
                        queue.push(u);
                    }
                };
                for &(u, _) in g.out_neighbors(v as NodeId) {
                    visit(u as usize);
                }
                if g.is_directed() {
                    for &(u, _) in g.in_neighbors(v as NodeId) {
                        visit(u as usize);
                    }
                }
            }
        }
        label
    }

    #[test]
    fn batch_labels_components_with_min_id() {
        let mut g = DynamicGraph::new(false, 6);
        g.insert_edge(1, 3, 1);
        g.insert_edge(3, 5, 1);
        g.insert_edge(2, 4, 1);
        let (state, _) = CcState::batch(&g);
        assert_eq!(state.components(), &[0, 1, 2, 1, 2, 1]);
        assert_eq!(state.component_count(), 3);
    }

    #[test]
    fn unit_deletion_in_stable_component_is_cheap() {
        // Example 5's point: deleting a non-bridge edge of one component
        // must not flood it.
        let mut g = DynamicGraph::new(false, 100);
        for i in 0..99u32 {
            g.insert_edge(i, i + 1, 1);
        }
        g.insert_edge(40, 60, 1); // chord: (50,51) deletion keeps connectivity
        let (mut state, _) = CcState::batch(&g);
        let mut batch = UpdateBatch::new();
        batch.delete(50, 51);
        let applied = batch.apply(&mut g);
        let report = state.update(&g, &applied);
        assert_eq!(state.components(), cc_reference(&g).as_slice());
        assert!(
            report.inspected_vars < 50,
            "stable component flooded: {} vars",
            report.inspected_vars
        );
    }

    #[test]
    fn pe_reset_floods_but_is_correct() {
        let mut g = DynamicGraph::new(false, 100);
        for i in 0..99u32 {
            g.insert_edge(i, i + 1, 1);
        }
        g.insert_edge(40, 60, 1);
        let (mut state, _) = CcState::batch(&g);
        let mut batch = UpdateBatch::new();
        batch.delete(50, 51);
        let applied = batch.apply(&mut g);
        let report = state.update_pe_reset(&g, &applied);
        assert_eq!(state.components(), cc_reference(&g).as_slice());
        assert_eq!(
            report.scope_size, 100,
            "Theorem 1 strategy floods the whole component"
        );
    }

    #[test]
    fn bridge_deletion_splits_component() {
        let mut g = DynamicGraph::new(false, 6);
        for i in 0..5u32 {
            g.insert_edge(i, i + 1, 1);
        }
        let (mut state, _) = CcState::batch(&g);
        assert_eq!(state.component_count(), 1);
        let mut batch = UpdateBatch::new();
        batch.delete(2, 3);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.components(), &[0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn insertion_merges_components() {
        let mut g = DynamicGraph::new(false, 6);
        g.insert_edge(0, 1, 1);
        g.insert_edge(4, 5, 1);
        let (mut state, _) = CcState::batch(&g);
        let mut batch = UpdateBatch::new();
        batch.insert(1, 4, 1);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.components(), &[0, 0, 2, 3, 0, 0]);
    }

    #[test]
    fn successive_bridge_deletions_keep_stamps_honest() {
        // Found by `incgraph fuzz` (minimized to 2 updates; see
        // tests/corpus/). Edges 0-2, 1-5, 2-5: one component labeled 0.
        // Deleting 0-2 makes {1,2,5} re-label to 1; the scope function
        // raises 1 and 5 to values the engine then confirms unchanged.
        // If those raises had kept the refined value with its stale
        // timestamp, the change order would claim 5 settled before its
        // witness 1, and the next deletion (1-5) would pick node 1 as the
        // only possibly-affected endpoint, leaving 5's label stale at 1
        // instead of 2.
        let mut g = DynamicGraph::new(false, 6);
        g.insert_edge(0, 2, 2);
        g.insert_edge(1, 5, 1);
        g.insert_edge(2, 5, 6);
        let (mut state, _) = CcState::batch(&g);
        for (u, v) in [(0, 2), (1, 5)] {
            let mut batch = UpdateBatch::new();
            batch.delete(u, v);
            let applied = batch.apply(&mut g);
            state.update(&g, &applied);
            assert_eq!(
                state.components(),
                cc_reference(&g).as_slice(),
                "divergence after deleting ({u}, {v})"
            );
        }
    }

    #[test]
    fn repeated_rounds_stay_correct() {
        // Multi-round incremental runs exercise timestamp maintenance
        // across rounds (stamp drift would silently corrupt later rounds).
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(120, 200, false, 1, 1, 31);
        let (mut state, _) = CcState::batch(&g);
        let mut rng = SplitMix64::seed_from_u64(5);
        for round in 0..25 {
            let mut batch = UpdateBatch::new();
            for _ in 0..8 {
                let u = rng.gen_range(0..120) as NodeId;
                let v = rng.gen_range(0..120) as NodeId;
                if rng.gen_bool(0.5) {
                    batch.insert(u, v, 1);
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            state.update(&g, &applied);
            assert_eq!(
                state.components(),
                cc_reference(&g).as_slice(),
                "divergence at round {round}"
            );
        }
    }

    #[test]
    fn directed_graphs_use_weak_connectivity() {
        let mut g = DynamicGraph::new(true, 4);
        g.insert_edge(1, 0, 1);
        g.insert_edge(2, 3, 1);
        let (mut state, _) = CcState::batch(&g);
        assert_eq!(state.components(), &[0, 0, 2, 2]);
        let mut batch = UpdateBatch::new();
        batch.insert(3, 1, 1);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.components(), &[0, 0, 0, 0]);
    }

    /// The vertex set is fixed at construction: node 2 is its own
    /// component until the batch attaches it.
    #[test]
    fn vertex_insertion_extends_state() {
        let mut g = DynamicGraph::new(false, 3);
        g.insert_edge(0, 1, 1);
        let (mut state, _) = CcState::batch(&g);
        assert_eq!(state.components(), &[0, 0, 2]);
        let mut batch = UpdateBatch::new();
        batch.insert(1, 2, 1);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.components(), &[0, 0, 0]);
    }
}
