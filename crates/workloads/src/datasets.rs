//! Laptop-scale stand-ins for the paper's six real-life datasets.
//!
//! Each stand-in keeps the original's edge/node ratio and a power-law
//! degree exponent typical of its type, scaled down ~500–1000× so the
//! full experiment suite runs on one machine in minutes. The `scale`
//! knob multiplies the node count (keeping the ratio) for the
//! scalability experiment (paper Exp-3 / Fig. 7(j–l)).

use incgraph_graph::gen::{power_law, temporal, TemporalGraph};
use incgraph_graph::{DynamicGraph, Weight};

/// Label alphabet size used throughout (the paper's synthetic graphs draw
/// labels "from an alphabet of 5 labels").
pub const ALPHABET: u32 = 5;

/// Maximum edge weight for SSSP workloads.
pub const MAX_WEIGHT: Weight = 100;

/// One of the paper's datasets, as a parameterized stand-in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// LiveJournal: social network, 4.8M nodes / 68.9M edges.
    LiveJournal,
    /// DBPedia: knowledge base, 4.9M nodes / 54M edges.
    DbPedia,
    /// Orkut: social network, 3.1M nodes / 117M edges.
    Orkut,
    /// Twitter-2010: social network, 41.6M nodes / 1.4B edges.
    Twitter,
    /// Friendster: gaming network, 65.6M nodes / 1.8B edges.
    Friendster,
    /// Wiki-DE: temporal hyperlink graph, 2.1M nodes / 86.3M edges.
    WikiDe,
}

impl Dataset {
    /// All six datasets, in the paper's listing order.
    pub const ALL: [Dataset; 6] = [
        Dataset::LiveJournal,
        Dataset::DbPedia,
        Dataset::Orkut,
        Dataset::Twitter,
        Dataset::Friendster,
        Dataset::WikiDe,
    ];

    /// The paper's abbreviation (LJ, DP, OKT, TW, FS, WD).
    pub fn tag(self) -> &'static str {
        match self {
            Dataset::LiveJournal => "LJ",
            Dataset::DbPedia => "DP",
            Dataset::Orkut => "OKT",
            Dataset::Twitter => "TW",
            Dataset::Friendster => "FS",
            Dataset::WikiDe => "WD",
        }
    }

    /// Stand-in base parameters: (nodes, edges, degree exponent, seed).
    fn params(self) -> (usize, usize, f64, u64) {
        match self {
            Dataset::LiveJournal => (8_000, 114_000, 2.4, 0x11),
            Dataset::DbPedia => (8_000, 88_000, 2.2, 0x22),
            Dataset::Orkut => (5_000, 188_000, 2.5, 0x33),
            Dataset::Twitter => (12_000, 400_000, 2.1, 0x44),
            Dataset::Friendster => (16_000, 440_000, 2.5, 0x55),
            Dataset::WikiDe => (4_000, 160_000, 2.3, 0x66),
        }
    }

    /// Stand-in node count at scale 1.
    pub fn nodes(self) -> usize {
        self.params().0
    }

    /// Stand-in edge budget at scale 1.
    pub fn edges(self) -> usize {
        self.params().1
    }

    /// Generates the stand-in graph. `directed` selects the orientation
    /// required by the query class (SSSP/Sim/DFS: directed; CC/LCC:
    /// undirected); `scale` multiplies the size for Exp-3.
    pub fn graph(self, directed: bool, scale: f64) -> DynamicGraph {
        // Dataset generation is part of every bench's startup; the span
        // makes it separable from the measured phases in `--metrics`
        // output.
        let _span = incgraph_obs::span("workload.gen");
        let (n, m, gamma, seed) = self.params();
        let n = ((n as f64 * scale) as usize).max(16);
        let m = ((m as f64 * scale) as usize).max(32);
        power_law(n, m, gamma, directed, MAX_WEIGHT, ALPHABET, seed)
    }

    /// The Wiki-DE style temporal stand-in: the base graph plus
    /// `windows` monthly update windows, each `window_pct` of |G| with
    /// the paper's 81%/19% insert/delete mix. `directed` selects the base
    /// orientation (the paper replays Wiki-DE directed; undirected bases
    /// admit LCC/BC standing queries). Every unit update carries an
    /// admission tick in `TemporalGraph::timestamps`.
    pub fn temporal(
        self,
        directed: bool,
        windows: usize,
        window_pct: f64,
        scale: f64,
    ) -> TemporalGraph {
        let (n, m, _gamma, seed) = self.params();
        let n = ((n as f64 * scale) as usize).max(16);
        let m = ((m as f64 * scale) as usize).max(32);
        let window_size = (((n + m) as f64) * window_pct / 100.0) as usize;
        temporal(
            n,
            m,
            windows,
            window_size.max(1),
            0.81,
            directed,
            MAX_WEIGHT,
            ALPHABET,
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_match_the_paper() {
        // Edge/node ratios of the stand-ins stay close to the originals.
        let paper = [
            (Dataset::LiveJournal, 68.9e6 / 4.8e6),
            (Dataset::DbPedia, 54.0e6 / 4.9e6),
            (Dataset::Orkut, 117.0e6 / 3.1e6),
            (Dataset::Twitter, 1.4e9 / 41.6e6),
            (Dataset::Friendster, 1.8e9 / 65.6e6),
            (Dataset::WikiDe, 86.3e6 / 2.1e6),
        ];
        for (d, ratio) in paper {
            let ours = d.edges() as f64 / d.nodes() as f64;
            assert!(
                (ours - ratio).abs() / ratio < 0.25,
                "{}: stand-in ratio {ours:.1} vs paper {ratio:.1}",
                d.tag()
            );
        }
    }

    #[test]
    fn graphs_are_generated_at_size() {
        let g = Dataset::WikiDe.graph(true, 0.25);
        assert_eq!(g.node_count(), 1000);
        assert!(g.edge_count() > 30_000);
        assert!(g.is_directed());
        let u = Dataset::WikiDe.graph(false, 0.25);
        assert!(!u.is_directed());
    }

    #[test]
    fn scaling_scales() {
        let small = Dataset::LiveJournal.graph(true, 0.1);
        let large = Dataset::LiveJournal.graph(true, 0.2);
        assert_eq!(large.node_count(), 2 * small.node_count());
    }

    #[test]
    fn temporal_windows_follow_the_mix() {
        let t = Dataset::WikiDe.temporal(true, 5, 1.9, 0.1);
        assert_eq!(t.windows.len(), 5);
        let (mut ins, mut del) = (0usize, 0usize);
        for w in &t.windows {
            for u in w.updates() {
                if u.is_insert() {
                    ins += 1;
                } else {
                    del += 1;
                }
            }
        }
        let frac = ins as f64 / (ins + del) as f64;
        assert!((frac - 0.81).abs() < 0.06, "mix {frac}");
    }

    #[test]
    fn tags_are_the_papers() {
        let tags: Vec<_> = Dataset::ALL.iter().map(|d| d.tag()).collect();
        assert_eq!(tags, vec!["LJ", "DP", "OKT", "TW", "FS", "WD"]);
    }
}
