//! Road-network-like grid generator.
//!
//! SSSP's motivating application in the paper is road-network analysis;
//! grids with varied positive weights are the standard laptop stand-in
//! for road graphs: bounded degree, large diameter, and meaningful
//! shortest-path structure.

use crate::ids::{NodeId, Weight};
use crate::rng::SplitMix64;
use crate::store::DynamicGraph;

/// Generates an undirected `rows × cols` grid whose lattice edges carry
/// random weights in `1..=max_weight`. Node `(r, c)` has id `r * cols + c`.
pub fn grid(rows: usize, cols: usize, max_weight: Weight, seed: u64) -> DynamicGraph {
    assert!(rows >= 1 && cols >= 1, "grid must be non-empty");
    assert!(max_weight >= 1, "weights start at 1");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut edges = Vec::with_capacity(2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1), rng.gen_range(1..=max_weight)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c), rng.gen_range(1..=max_weight)));
            }
        }
    }
    DynamicGraph::from_edges(false, vec![0; rows * cols], edges).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_count_matches_lattice_formula() {
        let g = grid(5, 7, 10, 1);
        assert_eq!(g.node_count(), 35);
        // rows*(cols-1) horizontal + (rows-1)*cols vertical
        assert_eq!(g.edge_count(), 5 * 6 + 4 * 7);
    }

    #[test]
    fn corner_degrees_are_two() {
        let g = grid(4, 4, 3, 2);
        for corner in [0u32, 3, 12, 15] {
            assert_eq!(g.degree(corner), 2);
        }
        // Interior node has degree 4.
        assert_eq!(g.degree(5), 4);
    }

    #[test]
    fn single_row_is_a_path() {
        let g = grid(1, 10, 1, 0);
        assert_eq!(g.edge_count(), 9);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(5), 2);
    }
}
