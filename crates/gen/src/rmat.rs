//! Recursive-matrix (R-MAT) generator — the classic synthetic power-law
//! model (Chakrabarti et al.), provided alongside Chung–Lu because several
//! of the studies the paper compares against (e.g. LDBC's DataGen lineage)
//! use R-MAT-style recursion. Each edge picks its endpoints by descending a
//! 2x2 probability matrix `[[a, b], [c, d]]` over the adjacency matrix.
//!
//! Edges are generated in seed-derived per-chunk RNG streams (see
//! [`crate::stream`]): output is bit-identical at any thread count, and
//! [`rmat_csr`] streams straight into a CSR without an edge list — the path
//! `bench_scaleup` uses for its 10⁸-edge runs.

use crate::stream::{
    chunk_len, collect_chunks, edge_chunks, seeded_permutation, stream_rng, streamed_csr,
};
use graphbench_graph::{CsrGraph, Edge, EdgeList, VertexId};

/// Configuration for [`rmat`].
#[derive(Debug, Clone)]
pub struct RmatConfig {
    /// log2 of the vertex count (R-MAT graphs have 2^scale vertices).
    pub scale: u32,
    /// Target number of directed edges.
    pub num_edges: u64,
    /// Quadrant probabilities; must be positive and sum to 1. The Graph500
    /// standard uses (0.57, 0.19, 0.19, 0.05).
    pub a: f64,
    pub b: f64,
    pub c: f64,
    /// Randomly permute vertex ids so degree does not correlate with id.
    pub shuffle_ids: bool,
    pub seed: u64,
}

impl Default for RmatConfig {
    fn default() -> Self {
        RmatConfig {
            scale: 14,
            num_edges: 300_000,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            shuffle_ids: true,
            seed: 42,
        }
    }
}

impl RmatConfig {
    /// The implied fourth quadrant probability.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    fn validate(&self) -> u64 {
        assert!(self.scale >= 1 && self.scale <= 30, "scale out of range");
        let d = self.d();
        assert!(
            self.a > 0.0 && self.b > 0.0 && self.c > 0.0 && d > 0.0,
            "quadrant probabilities must be positive and sum to < 1"
        );
        1 << self.scale
    }
}

/// The per-chunk sampler: identity or a seeded permutation of ids.
struct RmatSampler {
    perm: Option<Vec<VertexId>>,
}

impl RmatSampler {
    fn new(cfg: &RmatConfig, n: u64) -> Self {
        let perm = cfg.shuffle_ids.then(|| seeded_permutation(n as usize, cfg.seed));
        RmatSampler { perm }
    }

    fn chunk(&self, cfg: &RmatConfig, ci: u64, buf: &mut Vec<Edge>) {
        let mut rng = stream_rng(cfg.seed, ci);
        for _ in 0..chunk_len(ci, cfg.num_edges) {
            let (mut src, mut dst) = (0u64, 0u64);
            for _ in 0..cfg.scale {
                let r = rng.f64();
                let (si, di) = if r < cfg.a {
                    (0, 0)
                } else if r < cfg.a + cfg.b {
                    (0, 1)
                } else if r < cfg.a + cfg.b + cfg.c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                src = (src << 1) | si;
                dst = (dst << 1) | di;
            }
            let (s, d) = match &self.perm {
                Some(p) => (p[src as usize], p[dst as usize]),
                None => (src as VertexId, dst as VertexId),
            };
            buf.push(Edge::new(s, d));
        }
    }
}

/// Generate an R-MAT graph.
pub fn rmat(cfg: &RmatConfig) -> EdgeList {
    let n = cfg.validate();
    let sampler = RmatSampler::new(cfg, n);
    collect_chunks(n, edge_chunks(cfg.num_edges), cfg.num_edges as usize, |ci, buf| {
        sampler.chunk(cfg, ci, buf)
    })
}

/// Streaming variant of [`rmat`]: the identical graph built straight into a
/// CSR without materializing the edge list.
pub fn rmat_csr(cfg: &RmatConfig) -> CsrGraph {
    let n = cfg.validate();
    let sampler = RmatSampler::new(cfg, n);
    streamed_csr(
        n,
        edge_chunks(cfg.num_edges),
        |ci, buf| sampler.chunk(cfg, ci, buf),
        false,
        |_| Vec::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbench_graph::stats;

    fn gen(scale: u32, edges: u64) -> EdgeList {
        rmat(&RmatConfig { scale, num_edges: edges, seed: 9, ..RmatConfig::default() })
    }

    #[test]
    fn counts_and_ranges() {
        let el = gen(10, 20_000);
        assert_eq!(el.num_vertices, 1024);
        assert_eq!(el.num_edges(), 20_000);
        for e in &el.edges {
            assert!((e.src as u64) < 1024 && (e.dst as u64) < 1024);
        }
    }

    #[test]
    fn graph500_parameters_are_heavy_tailed() {
        let el = gen(11, 60_000);
        let g = CsrGraph::from_edge_list(&el);
        let s = stats::compute_stats(&g);
        assert!(
            s.max_out_degree as f64 > 10.0 * s.avg_out_degree,
            "max {} avg {}",
            s.max_out_degree,
            s.avg_out_degree
        );
    }

    #[test]
    fn uniform_quadrants_are_not_heavy_tailed() {
        // a = b = c = d = 0.25 degenerates to an Erdős–Rényi-like graph.
        let el = rmat(&RmatConfig {
            scale: 11,
            num_edges: 60_000,
            a: 0.25,
            b: 0.25,
            c: 0.25,
            seed: 9,
            shuffle_ids: true,
        });
        let skewed = gen(11, 60_000);
        let g_u = CsrGraph::from_edge_list(&el);
        let g_s = CsrGraph::from_edge_list(&skewed);
        assert!(
            stats::compute_stats(&g_s).max_out_degree
                > 2 * stats::compute_stats(&g_u).max_out_degree
        );
    }

    #[test]
    fn shuffle_decorrelates_id_and_degree() {
        // Without shuffling, low ids dominate (quadrant a bias): the top-
        // degree vertex has a small raw id.
        let raw = rmat(&RmatConfig {
            scale: 10,
            num_edges: 30_000,
            shuffle_ids: false,
            seed: 9,
            ..RmatConfig::default()
        });
        let g = CsrGraph::from_edge_list(&raw);
        let top = (0..1024u32).max_by_key(|&v| g.out_degree(v)).unwrap();
        assert!(top < 64, "unshuffled hub id {top}");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(gen(10, 10_000), gen(10, 10_000));
        let a = rmat(&RmatConfig { seed: 1, ..RmatConfig::default() });
        let b = rmat(&RmatConfig { seed: 2, ..RmatConfig::default() });
        assert_ne!(a, b);
    }

    #[test]
    fn csr_variant_matches_edge_list_path() {
        let cfg = RmatConfig { scale: 10, num_edges: 20_000, seed: 5, ..RmatConfig::default() };
        let via_list = CsrGraph::from_edge_list(&rmat(&cfg));
        assert_eq!(rmat_csr(&cfg), via_list);
    }

    #[test]
    #[should_panic(expected = "quadrant probabilities")]
    fn rejects_bad_probabilities() {
        rmat(&RmatConfig { a: 0.6, b: 0.3, c: 0.2, ..RmatConfig::default() });
    }
}
