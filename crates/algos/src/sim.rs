//! Graph simulation: the `Sim_fp` fixpoint \[HHK95, paper §5.1\] and its
//! **weakly deducible** incremental algorithm `IncSim`.
//!
//! A Boolean status variable `x[v, u]` says whether data node `v` matches
//! pattern node `u`. `⊥` is the label test `L(v) = L_Q(u)`; the update
//! function re-checks the simulation condition
//!
//! ```text
//! x[v,u] = L(v)=L_Q(u) ∧ ∀ (u,u') ∈ E_Q ∃ (v,v') ∈ E : x[v',u']
//! ```
//!
//! With the order `false ⪯ true`, runs are contracting (matches are only
//! retracted) and the condition is monotone, so Theorem 3 applies. As in
//! the paper, `IncSim` records a **timestamp** on each variable when it
//! turns false; the order `<_C` is "turned false earlier", with
//! still-true variables ordered last (key `∞`) — this is what resolves
//! anchor sets on *cyclic* patterns, where mutually-supporting false
//! variables would otherwise be indistinguishable.
//!
//! The union of all true variables at the fixpoint is the unique maximum
//! simulation `Q(G)`.

use crate::deduced::{arcs, Deduced, Deducible};
use crate::persist::{self, ByteReader, StateLoadError};
use incgraph_core::engine::RunStats;
use incgraph_core::scope::ContributorOracle;
use incgraph_core::spec::FixpointSpec;
use incgraph_core::status::Status;
use incgraph_graph::{AppliedOp, DynamicGraph, NodeId, Pattern};

/// The Sim fixpoint specification over a graph + pattern snapshot.
pub struct SimSpec<'g, 'p> {
    g: &'g DynamicGraph,
    q: &'p Pattern,
}

impl<'g, 'p> SimSpec<'g, 'p> {
    /// Specification for matching pattern `q` in (directed) graph `g`.
    pub fn new(g: &'g DynamicGraph, q: &'p Pattern) -> Self {
        assert!(q.node_count() > 0, "empty pattern");
        SimSpec { g, q }
    }

    #[inline]
    fn nq(&self) -> usize {
        self.q.node_count()
    }

    /// Packs `(v, u)` into a dense variable index.
    #[inline]
    pub fn var(&self, v: NodeId, u: usize) -> usize {
        v as usize * self.nq() + u
    }

    /// Unpacks a variable index into `(v, u)`.
    #[inline]
    pub fn unvar(&self, x: usize) -> (NodeId, usize) {
        ((x / self.nq()) as NodeId, x % self.nq())
    }
}

impl FixpointSpec for SimSpec<'_, '_> {
    type Value = bool;

    fn num_vars(&self) -> usize {
        self.g.node_count() * self.nq()
    }

    fn bottom(&self, x: usize) -> bool {
        let (v, u) = self.unvar(x);
        self.g.label(v) == self.q.label(u)
    }

    fn eval<R: FnMut(usize) -> bool>(&self, x: usize, read: &mut R) -> bool {
        let (v, u) = self.unvar(x);
        if self.g.label(v) != self.q.label(u) {
            return false;
        }
        // ∀ pattern successor u' of u, ∃ graph successor v' of v matching u'.
        'succ: for &u_next in self.q.out_neighbors(u) {
            for &(v_next, _) in self.g.out_neighbors(v) {
                if read(self.var(v_next, u_next)) {
                    continue 'succ;
                }
            }
            return false;
        }
        true
    }

    fn dependents<P: FnMut(usize)>(&self, x: usize, push: &mut P) {
        let (v, u) = self.unvar(x);
        for &(v_prev, _) in self.g.in_neighbors(v) {
            for &u_prev in self.q.in_neighbors(u) {
                push(self.var(v_prev, u_prev));
            }
        }
    }

    fn preceq(&self, a: &bool, b: &bool) -> bool {
        // false ⪯ true: matches only get retracted during a run.
        !a || *b
    }
}

/// `IncSim`'s contributor oracle: order `<_C` from turn-false timestamps;
/// still-true variables sort last.
impl ContributorOracle<bool> for SimSpec<'_, '_> {
    fn order_key(&self, x: usize, status: &Status<bool>) -> u64 {
        if status.get(x) {
            u64::MAX
        } else {
            status.stamp(x)
        }
    }

    fn contributes_to<P: FnMut(usize)>(&self, x: usize, status: &Status<bool>, push: &mut P) {
        // Pre-raise: x is false here; its fall time orders the anchors.
        let kx = status.stamp(x);
        self.dependents(x, &mut |z| {
            // Only false variables that fell *after* x can have relied on
            // x's falseness; true variables cannot be raised further.
            if !status.get(z) && status.stamp(z) > kx {
                push(z);
            }
        });
    }
}

/// The Sim class definition: the query parameter is the pattern `Q`.
pub struct Sim {
    q: Pattern,
}

impl Deducible for Sim {
    const NAME: &'static str = "sim";
    /// Weakly deducible: `<_C` is the turn-false order of the batch run.
    const STAMPS: bool = true;
    type Value = bool;
    type Spec<'a> = SimSpec<'a, 'a>;

    fn spec<'a>(&'a self, g: &'a DynamicGraph) -> SimSpec<'a, 'a> {
        SimSpec::new(g, &self.q)
    }

    fn vars_per_node(&self) -> usize {
        self.q.node_count()
    }

    /// Only label-matching variables can violate σ initially; the rest
    /// start false and stay false.
    fn seeds<'a>(&'a self, g: &'a DynamicGraph) -> impl Iterator<Item = usize> + Clone + 'a {
        // Materialized: the engine walks the seeds twice, and a lazy
        // label filter over all `|V|·|V_Q|` variables measurably slows
        // the batch run.
        let (q, nq) = (&self.q, self.q.node_count());
        let mut seeds = Vec::new();
        for v in 0..g.node_count() {
            let label = g.label(v as NodeId);
            seeds.extend((0..nq).filter(|&u| q.label(u) == label).map(|u| v * nq + u));
        }
        seeds.into_iter()
    }

    /// `Y_{x[v,u]}` ranges over out_nbr(v), so a changed edge (a, b)
    /// touches the tail's variables {x[a, u]} — and on undirected graphs
    /// both endpoints are tails. Most of those provably cannot change and
    /// are filtered out up front: a deletion only retracts matches (skip
    /// already-false vars), an insertion only adds them (skip already-true
    /// vars and label mismatches), and either way the edge is irrelevant
    /// to `x[a, u]` unless some pattern successor of `u` carries `b`'s
    /// label.
    #[inline]
    fn touched(
        &self,
        g: &DynamicGraph,
        status: &Status<bool>,
        op: &AppliedOp,
        out: &mut Vec<usize>,
    ) {
        let (q, spec) = (&self.q, self.spec(g));
        for (tail, head) in arcs(g, op) {
            let head_label = g.label(head);
            for u in 0..q.node_count() {
                if !q
                    .out_neighbors(u)
                    .iter()
                    .any(|&u2| q.label(u2) == head_label)
                {
                    continue;
                }
                let x = spec.var(tail, u);
                let cur = status.get(x);
                let keep = if op.inserted {
                    !cur && g.label(tail) == q.label(u)
                } else {
                    cur
                };
                if keep {
                    out.push(x);
                }
            }
        }
    }

    fn evolved(&self, g: &DynamicGraph, op: &AppliedOp, out: &mut Vec<usize>) {
        let spec = self.spec(g);
        for (tail, _) in arcs(g, op) {
            out.extend((0..spec.nq()).map(|u| spec.var(tail, u)));
        }
    }

    fn put_params(&self, out: &mut Vec<u8>) {
        let nq = self.q.node_count();
        persist::put_u32(out, nq as u32);
        for u in 0..nq {
            persist::put_u32(out, self.q.label(u));
        }
        let edges: Vec<(usize, usize)> = self.q.edges().collect();
        persist::put_u32(out, edges.len() as u32);
        for (u, v) in edges {
            persist::put_u32(out, u as u32);
            persist::put_u32(out, v as u32);
        }
    }

    fn read_params(r: &mut ByteReader<'_>) -> Result<Self, StateLoadError> {
        let nq = r.u32()? as usize;
        if nq == 0 {
            return Err(StateLoadError::Malformed("empty pattern".into()));
        }
        let mut labels = Vec::with_capacity(nq);
        for _ in 0..nq {
            labels.push(r.u32()?);
        }
        let ne = r.u32()? as usize;
        let mut edges = Vec::with_capacity(ne);
        for _ in 0..ne {
            let u = r.u32()? as usize;
            let v = r.u32()? as usize;
            if u >= nq || v >= nq {
                return Err(StateLoadError::Malformed(
                    "pattern edge beyond pattern nodes".into(),
                ));
            }
            edges.push((u, v));
        }
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != edges.len() {
            return Err(StateLoadError::Malformed("duplicate pattern edge".into()));
        }
        Ok(Sim {
            q: Pattern::new(labels, &edges),
        })
    }

    fn validate(&self, _g: &DynamicGraph, _status: &Status<bool>) -> Result<(), StateLoadError> {
        Ok(())
    }
}

/// Sim state: `Sim_fp` (the batch run) and the deduced `IncSim`
/// ([`Deduced::update`]). [`Deduced::update_pe_reset`] is the Theorem 1
/// construction behind ablation `abl-ts`: no timestamps consulted, and
/// the flood goes far beyond the anchor-bounded scope.
pub type SimState = Deduced<Sim>;

impl SimState {
    /// Runs batch `Sim_fp`: computes the maximum simulation of `q` in `g`.
    pub fn batch(g: &DynamicGraph, q: Pattern) -> (Self, RunStats) {
        Deduced::new(Sim { q }, g)
    }

    /// The pattern being matched.
    pub fn pattern(&self) -> &Pattern {
        &self.class().q
    }

    /// Whether data node `v` matches pattern node `u`.
    pub fn matches(&self, g: &DynamicGraph, v: NodeId, u: usize) -> bool {
        let _ = g;
        self.value(v as usize * self.pattern().node_count() + u)
    }

    /// The maximum simulation relation as `(v, u)` pairs.
    pub fn relation(&self) -> Vec<(NodeId, usize)> {
        let nq = self.pattern().node_count();
        (self.values().iter().enumerate())
            .filter(|&(_, &m)| m)
            .map(|(x, _)| ((x / nq) as NodeId, x % nq))
            .collect()
    }

    /// Number of matching pairs `|Q(G)|`.
    pub fn match_count(&self) -> usize {
        self.values().iter().filter(|&&m| m).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    #[test]
    fn undirected_insertion_matches_the_dst_side() {
        // Regression: on undirected graphs both endpoints of a changed
        // edge are tails of evolved input sets, so an insert op oriented
        // (1, 0) must also reconsider node 0's variables. Found by the
        // post-run fixpoint audit in the fault-injection suite.
        let mut g = DynamicGraph::with_labels(false, vec![0, 1]);
        let q = Pattern::new(vec![0, 1], &[(0, 1)]);
        let (mut state, _) = SimState::batch(&g, q.clone());
        assert!(!state.matches(&g, 0, 0));
        let mut b = UpdateBatch::new();
        b.insert(1, 0, 1);
        let applied = b.apply(&mut g);
        state.update(&g, &applied);
        assert!(state.matches(&g, 0, 0), "0 now simulates pattern node 0");
        let (fresh, _) = SimState::batch(&g, q);
        assert_eq!(state.relation(), fresh.relation());
    }

    /// Reference: naive simulation fixpoint, O(rounds · n·nq · checks).
    fn sim_reference(g: &DynamicGraph, q: &Pattern) -> Vec<bool> {
        let nq = q.node_count();
        let n = g.node_count();
        let mut m: Vec<bool> = (0..n * nq)
            .map(|x| g.label((x / nq) as NodeId) == q.label(x % nq))
            .collect();
        loop {
            let mut changed = false;
            for v in 0..n {
                for u in 0..nq {
                    if !m[v * nq + u] {
                        continue;
                    }
                    let ok = q.out_neighbors(u).iter().all(|&u2| {
                        g.out_neighbors(v as NodeId)
                            .iter()
                            .any(|&(v2, _)| m[v2 as usize * nq + u2])
                    });
                    if !ok {
                        m[v * nq + u] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                return m;
            }
        }
    }

    fn assert_matches_reference(state: &SimState, g: &DynamicGraph) {
        let expect = sim_reference(g, state.pattern());
        assert_eq!(state.values(), expect.as_slice());
    }

    fn tri_pattern() -> Pattern {
        // a -> b -> c with back edge c -> b (cyclic, label-distinct).
        Pattern::new(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 1)])
    }

    #[test]
    fn batch_on_matching_cycle() {
        // Data: 0(a) -> 1(b) -> 2(c) -> 3(b) -> 4(c) -> 3 ...
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2, 1, 2]);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 3)] {
            g.insert_edge(u, v, 1);
        }
        let (state, _) = SimState::batch(&g, tri_pattern());
        assert_matches_reference(&state, &g);
        // The cycle 3 -> 4 -> 3 sustains (3,b),(4,c); 1 matches b via 2,
        // whose (2,c) needs an out-edge to a b-match: 2 -> 3 exists.
        assert!(state.matches(&g, 3, 1));
        assert!(state.matches(&g, 4, 2));
        assert!(state.matches(&g, 0, 0));
    }

    #[test]
    fn batch_retracts_unsupported_matches() {
        // 0(a) -> 1(b), but 1 has no c-successor: nothing matches a or b.
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2]);
        g.insert_edge(0, 1, 1);
        let (state, _) = SimState::batch(&g, tri_pattern());
        assert!(!state.matches(&g, 0, 0));
        assert!(!state.matches(&g, 1, 1));
        // Node 2 is a c-labelled sink; pattern c has an out-edge to b, so
        // it does not match either.
        assert!(!state.matches(&g, 2, 2));
        assert_matches_reference(&state, &g);
    }

    #[test]
    fn insertion_restores_matches() {
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2, 1]);
        g.insert_edge(0, 1, 1);
        g.insert_edge(2, 3, 1); // c -> b
        g.insert_edge(3, 2, 1); // b -> c : cycle sustains (2,c),(3,b)
        let (mut state, _) = SimState::batch(&g, tri_pattern());
        assert!(!state.matches(&g, 1, 1), "1 lacks a c-successor");
        let mut batch = UpdateBatch::new();
        batch.insert(1, 2, 1);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_matches_reference(&state, &g);
        assert!(state.matches(&g, 1, 1));
        assert!(state.matches(&g, 0, 0));
    }

    #[test]
    fn deletion_retracts_matches() {
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2, 1]);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 2)] {
            g.insert_edge(u, v, 1);
        }
        let (mut state, _) = SimState::batch(&g, tri_pattern());
        assert!(state.matches(&g, 0, 0));
        let mut batch = UpdateBatch::new();
        batch.delete(1, 2);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_matches_reference(&state, &g);
        assert!(!state.matches(&g, 0, 0));
        assert!(!state.matches(&g, 1, 1));
        // The 2 <-> 3 cycle is self-sustaining and must survive.
        assert!(state.matches(&g, 2, 2));
        assert!(state.matches(&g, 3, 1));
    }

    #[test]
    fn repeated_rounds_match_reference() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(60, 240, true, 1, 3, 77);
        let q = tri_pattern();
        let (mut state, _) = SimState::batch(&g, q);
        let mut rng = SplitMix64::seed_from_u64(13);
        for round in 0..20 {
            let mut batch = UpdateBatch::new();
            for _ in 0..6 {
                let u = rng.gen_range(0..60) as NodeId;
                let v = rng.gen_range(0..60) as NodeId;
                if rng.gen_bool(0.55) {
                    batch.insert(u, v, 1);
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            state.update(&g, &applied);
            let expect = sim_reference(&g, state.pattern());
            assert_eq!(
                state.values(),
                expect.as_slice(),
                "divergence at round {round}"
            );
        }
    }

    #[test]
    fn cyclic_pattern_on_cyclic_data_rounds() {
        // Stress the cyclic-anchor case the paper singles out: pattern
        // cycle b <-> c, data cycles breaking and reforming.
        use incgraph_graph::rng::SplitMix64;
        let q = Pattern::new(vec![1, 2], &[(0, 1), (1, 0)]);
        let mut g = DynamicGraph::with_labels(true, (0..40).map(|i| 1 + (i % 2) as u32).collect());
        let mut rng = SplitMix64::seed_from_u64(3);
        for i in 0..40u32 {
            g.insert_edge(i, (i + 1) % 40, 1);
        }
        let (mut state, _) = SimState::batch(&g, q);
        for round in 0..25 {
            let mut batch = UpdateBatch::new();
            for _ in 0..4 {
                let u = rng.gen_range(0..40) as NodeId;
                let v = rng.gen_range(0..40) as NodeId;
                if rng.gen_bool(0.5) {
                    batch.insert(u, v, 1);
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            state.update(&g, &applied);
            let expect = sim_reference(&g, state.pattern());
            assert_eq!(
                state.values(),
                expect.as_slice(),
                "divergence at round {round}"
            );
        }
    }

    #[test]
    fn match_count_and_relation_agree() {
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2]);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        g.insert_edge(2, 1, 1);
        let (state, _) = SimState::batch(&g, tri_pattern());
        let rel = state.relation();
        assert_eq!(rel.len(), state.match_count());
        assert!(rel.contains(&(0, 0)));
    }

    /// The vertex set is fixed at construction: the c-labelled node 2 is
    /// isolated until the batch closes a cycle through it.
    #[test]
    fn vertex_insertion_extends_state() {
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2]);
        g.insert_edge(0, 1, 1);
        let (mut state, _) = SimState::batch(&g, tri_pattern());
        assert!(!state.matches(&g, 0, 0));
        let v = 2;
        let mut batch = UpdateBatch::new();
        batch.insert(1, v, 1).insert(v, 1, 1);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_matches_reference(&state, &g);
        assert!(state.matches(&g, 0, 0), "b now has a c-successor cycle");
    }
}
