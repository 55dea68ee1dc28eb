//! Road-network generator (the paper's World Road Network stand-in).
//!
//! Roads form a near-planar lattice: low, bounded degree and a diameter that
//! grows with the *linear* size of the map, not logarithmically. The paper's
//! WRN has diameter 48 000 versus 5–23 for the power-law graphs; that three
//! orders of magnitude gap is what breaks most systems on SSSP/WCC (O(d)
//! supersteps). The generator builds a `width x height` grid and keeps each
//! undirected street with probability `keep_prob`, producing the same
//! qualitative gap at laptop scale plus the disconnected "islands" real road
//! data has.
//!
//! The natural chunk here is one grid row: row `y` draws its keep/drop coin
//! flips from stream `y` (see [`crate::stream`]), so rows generate in
//! parallel with bit-identical output.

use crate::stream::{collect_chunks, stream_rng, streamed_csr};
use graphbench_graph::{CsrGraph, Edge, EdgeList, VertexId};

/// Configuration for [`road_network`].
#[derive(Debug, Clone)]
pub struct RoadConfig {
    pub width: u32,
    pub height: u32,
    /// Probability that a grid street exists (both directions are emitted
    /// together: roads are two-way). 1.0 = full grid; below ~0.5 the lattice
    /// shatters (2-D bond percolation threshold).
    pub keep_prob: f64,
    pub seed: u64,
}

impl Default for RoadConfig {
    fn default() -> Self {
        RoadConfig { width: 256, height: 256, keep_prob: 0.75, seed: 42 }
    }
}

/// A generated road network: the directed edge list (both directions per
/// street) plus per-vertex 2-D coordinates (Blogel's dataset-specific 2-D
/// partitioner consumes these; §2.3).
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    pub edges: EdgeList,
    /// `(x, y)` grid coordinates, indexed by vertex id.
    pub coords: Vec<(u32, u32)>,
}

fn validate(cfg: &RoadConfig) {
    assert!(cfg.width > 0 && cfg.height > 0, "grid must be non-empty");
    assert!((0.0..=1.0).contains(&cfg.keep_prob), "keep_prob must be a probability");
}

/// Append row `y`'s streets (both directions per kept street).
fn row_chunk(cfg: &RoadConfig, y: u64, buf: &mut Vec<Edge>) {
    let y = y as u32;
    let mut rng = stream_rng(cfg.seed, y as u64);
    let id = |x: u32, y: u32| -> VertexId { (y as u64 * cfg.width as u64 + x as u64) as VertexId };
    for x in 0..cfg.width {
        let v = id(x, y);
        if x + 1 < cfg.width && rng.f64() < cfg.keep_prob {
            let u = id(x + 1, y);
            buf.push(Edge::new(v, u));
            buf.push(Edge::new(u, v));
        }
        if y + 1 < cfg.height && rng.f64() < cfg.keep_prob {
            let u = id(x, y + 1);
            buf.push(Edge::new(v, u));
            buf.push(Edge::new(u, v));
        }
    }
}

/// Generate a road network.
pub fn road_network(cfg: &RoadConfig) -> RoadNetwork {
    validate(cfg);
    let n = cfg.width as u64 * cfg.height as u64;
    let el =
        collect_chunks(n, cfg.height as u64, (n as usize) * 4, |y, buf| row_chunk(cfg, y, buf));
    let coords = (0..cfg.height).flat_map(|y| (0..cfg.width).map(move |x| (x, y))).collect();
    RoadNetwork { edges: el, coords }
}

/// Streaming variant of [`road_network`]: the identical graph built straight
/// into a CSR. Coordinates are implicit (`v = y * width + x`), so none are
/// returned — Blogel's 2-D partitioner derives them from the config.
pub fn road_network_csr(cfg: &RoadConfig) -> CsrGraph {
    validate(cfg);
    let n = cfg.width as u64 * cfg.height as u64;
    streamed_csr(n, cfg.height as u64, |y, buf| row_chunk(cfg, y, buf), false, |_| Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbench_graph::stats;

    #[test]
    fn full_grid_properties() {
        let rn = road_network(&RoadConfig { width: 32, height: 32, keep_prob: 1.0, seed: 1 });
        let g = CsrGraph::from_edge_list(&rn.edges);
        let s = stats::compute_stats(&g);
        assert_eq!(s.num_vertices, 1024);
        // Full grid: 2 * (31*32 + 31*32) directed edges.
        assert_eq!(s.num_edges, 2 * 2 * 31 * 32);
        assert_eq!(s.max_out_degree, 4);
        assert_eq!(s.components, 1);
        // Manhattan diameter of a 32x32 grid is 62.
        assert_eq!(s.diameter, 62);
    }

    #[test]
    fn diameter_scales_linearly_not_logarithmically() {
        let small = road_network(&RoadConfig { width: 16, height: 16, keep_prob: 1.0, seed: 1 });
        let large = road_network(&RoadConfig { width: 64, height: 64, keep_prob: 1.0, seed: 1 });
        let ds = stats::compute_stats(&CsrGraph::from_edge_list(&small.edges)).diameter;
        let dl = stats::compute_stats(&CsrGraph::from_edge_list(&large.edges)).diameter;
        // 16x more vertices -> 4x the diameter (linear in side length).
        assert_eq!(ds, 30);
        assert_eq!(dl, 126);
    }

    #[test]
    fn sparse_grid_has_islands_and_bounded_degree() {
        let rn = road_network(&RoadConfig { width: 64, height: 64, keep_prob: 0.7, seed: 3 });
        let g = CsrGraph::from_edge_list(&rn.edges);
        let s = stats::compute_stats(&g);
        assert!(s.max_out_degree <= 4);
        assert!(s.components > 1, "expected islands, got {} components", s.components);
        assert!(s.giant_component_fraction > 0.5);
        // Roads are two-way: every edge has its reverse.
        let mut set: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for e in &rn.edges.edges {
            set.insert((e.src, e.dst));
        }
        for e in &rn.edges.edges {
            assert!(set.contains(&(e.dst, e.src)));
        }
    }

    #[test]
    fn coords_match_vertex_ids() {
        let rn = road_network(&RoadConfig { width: 8, height: 4, keep_prob: 1.0, seed: 1 });
        assert_eq!(rn.coords.len(), 32);
        assert_eq!(rn.coords[0], (0, 0));
        assert_eq!(rn.coords[9], (1, 1));
        assert_eq!(rn.coords[31], (7, 3));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = road_network(&RoadConfig::default());
        let b = road_network(&RoadConfig::default());
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn csr_variant_matches_edge_list_path() {
        let cfg = RoadConfig { width: 48, height: 21, keep_prob: 0.8, seed: 13 };
        let via_list = CsrGraph::from_edge_list(&road_network(&cfg).edges);
        assert_eq!(road_network_csr(&cfg), via_list);
    }
}
