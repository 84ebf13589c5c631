//! `DynLCC`: streaming clustering-coefficient maintenance after Ediger,
//! Jiang, Riedy and Bader \[19\] — the paper's LCC baseline.
//!
//! The streaming approach applies a **per-edge triangle delta**: when
//! `(u, v)` is inserted (deleted), the common neighborhood
//! `N(u) ∩ N(v)` gives exactly the triangles created (destroyed), so
//! `λ_u`, `λ_v` gain (lose) its size and each common neighbor gains
//! (loses) one. [`DynLcc`] does the intersection exactly on the sorted
//! adjacency lists; [`BloomLcc`] is the paper's "massive streaming"
//! variant, which approximates membership with a Bloom filter to trade
//! accuracy for locality — the space/accuracy trade-off the original
//! paper was about (and the reason Fig. 8 shows DynLCC as the one
//! baseline *smaller* than its batch counterpart).

use incgraph_graph::{DynamicGraph, NodeId, Weight};

/// Exact streaming LCC state.
pub struct DynLcc {
    degree: Vec<u64>,
    triangles: Vec<u64>,
}

impl DynLcc {
    /// Initializes from a full triangle count over `g` (undirected).
    pub fn new(g: &DynamicGraph) -> Self {
        assert!(!g.is_directed(), "LCC is defined on undirected graphs");
        let n = g.node_count();
        let mut s = DynLcc {
            degree: vec![0; n],
            triangles: vec![0; n],
        };
        for v in 0..n as NodeId {
            s.degree[v as usize] = g.degree(v) as u64;
            let nv = g.out_neighbors(v);
            let mut twice = 0u64;
            for &(a, _) in nv {
                twice += intersect_count(nv, g.out_neighbors(a));
            }
            s.triangles[v as usize] = twice / 2;
        }
        s
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> u64 {
        self.degree[v as usize]
    }

    /// Triangle count of `v`.
    pub fn triangles(&self, v: NodeId) -> u64 {
        self.triangles[v as usize]
    }

    /// Clustering coefficient of `v`.
    pub fn coefficient(&self, v: NodeId) -> f64 {
        let d = self.degree[v as usize];
        if d < 2 {
            0.0
        } else {
            2.0 * self.triangles[v as usize] as f64 / (d as f64 * (d - 1) as f64)
        }
    }

    /// Applies one unit update; `g` must already reflect it. The common
    /// neighborhood of `u` and `v` is identical before and after the
    /// update (the edge `(u,v)` itself is never a *common* neighbor), so
    /// both directions can be computed on the post-update graph.
    pub fn apply_unit(
        &mut self,
        g: &DynamicGraph,
        inserted: bool,
        u: NodeId,
        v: NodeId,
        _w: Weight,
    ) {
        let nu = g.out_neighbors(u);
        let nv = g.out_neighbors(v);
        let mut common = Vec::new();
        intersect_into(nu, nv, &mut common);
        let t = common.len() as u64;
        if inserted {
            self.degree[u as usize] += 1;
            self.degree[v as usize] += 1;
            self.triangles[u as usize] += t;
            self.triangles[v as usize] += t;
            for w in common {
                self.triangles[w as usize] += 1;
            }
        } else {
            self.degree[u as usize] -= 1;
            self.degree[v as usize] -= 1;
            self.triangles[u as usize] -= t;
            self.triangles[v as usize] -= t;
            for w in common {
                self.triangles[w as usize] -= 1;
            }
        }
    }

    /// Resident bytes (Fig. 8).
    pub fn space_bytes(&self) -> usize {
        (self.degree.capacity() + self.triangles.capacity()) * 8
    }
}

fn intersect_count(a: &[(NodeId, Weight)], b: &[(NodeId, Weight)]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

fn intersect_into(a: &[(NodeId, Weight)], b: &[(NodeId, Weight)], out: &mut Vec<NodeId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i].0);
                i += 1;
                j += 1;
            }
        }
    }
}

/// A fixed-size Bloom filter over node ids (two hash functions), as used
/// by the approximate mode of \[19\].
struct Bloom {
    bits: Vec<u64>,
    mask: u64,
}

impl Bloom {
    fn new(capacity: usize) -> Self {
        // ~8 bits per element, rounded up to a power of two.
        let nbits = (capacity.max(8) * 8).next_power_of_two();
        Bloom {
            bits: vec![0; nbits / 64],
            mask: (nbits - 1) as u64,
        }
    }

    fn hashes(&self, x: NodeId) -> (u64, u64) {
        // Two cheap multiplicative hashes (splitmix-style).
        let x = x as u64;
        let h1 = x.wrapping_mul(0x9e3779b97f4a7c15) ^ (x >> 16);
        let h2 = x.wrapping_mul(0xc2b2ae3d27d4eb4f).rotate_left(31);
        (h1 & self.mask, h2 & self.mask)
    }

    fn insert(&mut self, x: NodeId) {
        let (a, b) = self.hashes(x);
        self.bits[(a / 64) as usize] |= 1 << (a % 64);
        self.bits[(b / 64) as usize] |= 1 << (b % 64);
    }

    fn maybe_contains(&self, x: NodeId) -> bool {
        let (a, b) = self.hashes(x);
        self.bits[(a / 64) as usize] & (1 << (a % 64)) != 0
            && self.bits[(b / 64) as usize] & (1 << (b % 64)) != 0
    }
}

/// Approximate streaming LCC: intersections are estimated by probing one
/// adjacency list against a Bloom filter of the other, as in the
/// "massive streaming" mode of \[19\]. Counts are upper-bound estimates
/// (false positives only).
pub struct BloomLcc {
    degree: Vec<u64>,
    triangles: Vec<i64>,
}

impl BloomLcc {
    /// Initializes with exact counts (the stream then drifts within the
    /// filter's false-positive rate, as in the original system).
    pub fn new(g: &DynamicGraph) -> Self {
        let exact = DynLcc::new(g);
        BloomLcc {
            degree: exact.degree,
            triangles: exact.triangles.iter().map(|&t| t as i64).collect(),
        }
    }

    /// Approximate triangle count of `v` (clamped at zero).
    pub fn triangles(&self, v: NodeId) -> u64 {
        self.triangles[v as usize].max(0) as u64
    }

    /// Degree of `v` (exact; degrees need no estimation).
    pub fn degree(&self, v: NodeId) -> u64 {
        self.degree[v as usize]
    }

    /// Approximate coefficient of `v`.
    pub fn coefficient(&self, v: NodeId) -> f64 {
        let d = self.degree[v as usize];
        if d < 2 {
            0.0
        } else {
            2.0 * self.triangles(v) as f64 / (d as f64 * (d - 1) as f64)
        }
    }

    /// Applies one unit update using Bloom-filter membership probes.
    pub fn apply_unit(
        &mut self,
        g: &DynamicGraph,
        inserted: bool,
        u: NodeId,
        v: NodeId,
        _w: Weight,
    ) {
        let nu = g.out_neighbors(u);
        let nv = g.out_neighbors(v);
        // Filter over the smaller list, probe with the larger.
        let (small, large) = if nu.len() <= nv.len() {
            (nu, nv)
        } else {
            (nv, nu)
        };
        let mut bloom = Bloom::new(small.len());
        for &(x, _) in small {
            bloom.insert(x);
        }
        let mut est = 0i64;
        let delta: i64 = if inserted { 1 } else { -1 };
        for &(x, _) in large {
            if bloom.maybe_contains(x) {
                est += 1;
                self.triangles[x as usize] += delta;
            }
        }
        self.triangles[u as usize] += delta * est;
        self.triangles[v as usize] += delta * est;
        if inserted {
            self.degree[u as usize] += 1;
            self.degree[v as usize] += 1;
        } else {
            self.degree[u as usize] -= 1;
            self.degree[v as usize] -= 1;
        }
    }

    /// Resident bytes (Fig. 8): the stream state only — no adjacency
    /// mirror, which is the "trades runtime for space" observation.
    pub fn space_bytes(&self) -> usize {
        (self.degree.capacity() + self.triangles.capacity()) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    fn reference(g: &DynamicGraph) -> Vec<(u64, u64)> {
        let s = DynLcc::new(g);
        (0..g.node_count())
            .map(|v| (s.degree[v], s.triangles[v]))
            .collect()
    }

    #[test]
    fn unit_stream_tracks_reference() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(70, 300, false, 1, 1, 66);
        let mut s = DynLcc::new(&g);
        let mut rng = SplitMix64::seed_from_u64(17);
        for step in 0..200 {
            let u = rng.gen_range(0..70) as NodeId;
            let v = rng.gen_range(0..70) as NodeId;
            let mut batch = UpdateBatch::new();
            if rng.gen_bool(0.5) {
                batch.insert(u, v, 1);
            } else {
                batch.delete(u, v);
            }
            let applied = batch.apply(&mut g);
            for op in applied.ops() {
                s.apply_unit(&g, op.inserted, op.src, op.dst, op.weight);
            }
            for (v, &(d, t)) in reference(&g).iter().enumerate() {
                assert_eq!(s.degree(v as NodeId), d, "step {step} degree {v}");
                assert_eq!(s.triangles(v as NodeId), t, "step {step} triangles {v}");
            }
        }
    }

    #[test]
    fn triangle_insert_delete_roundtrip() {
        let mut g = DynamicGraph::new(false, 3);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        let mut s = DynLcc::new(&g);
        g.insert_edge(0, 2, 1);
        s.apply_unit(&g, true, 0, 2, 1);
        assert_eq!(s.triangles(0), 1);
        assert_eq!(s.coefficient(1), 1.0);
        g.delete_edge(0, 2);
        s.apply_unit(&g, false, 0, 2, 1);
        assert_eq!(s.triangles(0), 0);
        assert_eq!(s.triangles(1), 0);
    }

    #[test]
    fn bloom_mode_overestimates_within_bound() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::power_law(120, 600, 2.3, false, 1, 1, 5);
        let mut approx = BloomLcc::new(&g);
        let mut exact = DynLcc::new(&g);
        let mut rng = SplitMix64::seed_from_u64(31);
        for _ in 0..150 {
            let u = rng.gen_range(0..120) as NodeId;
            let v = rng.gen_range(0..120) as NodeId;
            let mut batch = UpdateBatch::new();
            if rng.gen_bool(0.5) {
                batch.insert(u, v, 1);
            } else {
                batch.delete(u, v);
            }
            let applied = batch.apply(&mut g);
            for op in applied.ops() {
                approx.apply_unit(&g, op.inserted, op.src, op.dst, op.weight);
                exact.apply_unit(&g, op.inserted, op.src, op.dst, op.weight);
            }
        }
        // Bloom probes only produce false positives, so the per-update
        // deltas are biased upward for insertions and downward for
        // deletions; after a mixed stream the totals must stay close.
        let (mut total_err, mut total) = (0i64, 0i64);
        for v in 0..120u32 {
            assert_eq!(approx.degree(v), exact.degree(v), "degrees are exact");
            total_err += (approx.triangles[v as usize] - exact.triangles(v) as i64).abs();
            total += exact.triangles(v) as i64;
        }
        assert!(
            total_err * 10 <= total.max(50),
            "approximation drifted: err {total_err} vs total {total}"
        );
    }

    #[test]
    fn bloom_basics() {
        let mut b = Bloom::new(16);
        for x in [3u32, 99, 1000] {
            b.insert(x);
        }
        assert!(b.maybe_contains(3));
        assert!(b.maybe_contains(99));
        assert!(b.maybe_contains(1000));
        let fp = (0..10_000u32).filter(|&x| b.maybe_contains(x)).count();
        assert!(fp < 500, "false-positive rate too high: {fp}/10000");
    }
}
