//! Chung–Lu power-law graph generator (social-network-like datasets).
//!
//! Vertices get weights `w_i = (i + 1)^-alpha`; each of the `m` edges picks
//! its source and destination independently in proportion to the weights.
//! Expected degrees are then proportional to the weights, producing a
//! power-law degree distribution with exponent `gamma = 1 + 1/alpha`.
//! Skew grows with `alpha`: the paper's Twitter dataset has max degree
//! 2.9 M against an average of 35 (ratio ~83 000); at laptop scale we keep
//! the *qualitative* property max ≫ avg.
//!
//! Edges are drawn in [`crate::stream::CHUNK_EDGES`]-sized chunks, each
//! from its own seed-derived RNG stream, so generation parallelizes across
//! threads with bit-identical output (see [`crate::stream`]). The id
//! permutation and the component-stitching draws use the reserved
//! whole-graph streams.

use crate::alias::AliasTable;
use crate::stream::{
    chunk_len, collect_chunks, edge_chunks, seeded_permutation, stream_rng, streamed_csr,
    UnionFind, STREAM_TAIL,
};
use graphbench_graph::rng::Rng;
use graphbench_graph::{CsrGraph, Edge, EdgeList, VertexId};

/// Configuration for [`chung_lu`].
#[derive(Debug, Clone)]
pub struct PowerLawConfig {
    pub num_vertices: u64,
    /// Target number of directed edges.
    pub num_edges: u64,
    /// Weight exponent; degree-distribution exponent is `1 + 1/alpha`.
    /// Typical social networks: 0.7–0.9.
    pub alpha: f64,
    /// Weight-rank offset: weights are `(rank + 1 + offset)^-alpha`. A small
    /// positive offset caps the top vertex's degree share, which at reduced
    /// scale would otherwise be a far larger *fraction* of the graph than
    /// the paper's 2.9M-degree hub is of 1.46B edges.
    pub offset: f64,
    /// When true, stitch all weakly connected components into one by adding
    /// one edge per extra component (the paper notes Twitter has a single
    /// large component, unlike UK0705).
    pub connect: bool,
    pub seed: u64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig {
            num_vertices: 10_000,
            num_edges: 300_000,
            alpha: 0.85,
            offset: 3.0,
            connect: true,
            seed: 42,
        }
    }
}

/// Precomputed sampling state shared by every chunk: the alias table over
/// the weight distribution and the id permutation. Construction is RNG-free
/// except for the permutation, which draws from the dedicated perm stream.
struct ChungLuSampler {
    table: AliasTable,
    perm: Vec<VertexId>,
}

impl ChungLuSampler {
    fn new(cfg: &PowerLawConfig) -> Self {
        let n = cfg.num_vertices as usize;
        let weights: Vec<f64> =
            (0..n).map(|i| ((i + 1) as f64 + cfg.offset).powf(-cfg.alpha)).collect();
        let table = AliasTable::new(&weights);
        // Random permutation so vertex id does not encode degree rank (the
        // paper's systems hash-partition by id; correlated ids would bias
        // that).
        let perm = seeded_permutation(n, cfg.seed);
        ChungLuSampler { table, perm }
    }

    /// Append chunk `ci`'s edges: every draw comes from the chunk's stream.
    fn chunk(&self, cfg: &PowerLawConfig, ci: u64, buf: &mut Vec<Edge>) {
        let mut rng = stream_rng(cfg.seed, ci);
        for _ in 0..chunk_len(ci, cfg.num_edges) {
            let s = self.perm[self.table.sample(&mut rng) as usize];
            let d = self.perm[self.table.sample(&mut rng) as usize];
            buf.push(Edge::new(s, d));
        }
    }
}

/// Generate a directed power-law graph.
///
/// ```
/// use graphbench_gen::powerlaw::{chung_lu, PowerLawConfig};
///
/// let el = chung_lu(&PowerLawConfig { num_vertices: 100, num_edges: 1_000, ..Default::default() });
/// assert_eq!(el.num_vertices, 100);
/// assert!(el.num_edges() >= 1_000); // + component stitching
/// ```
pub fn chung_lu(cfg: &PowerLawConfig) -> EdgeList {
    assert!(cfg.num_vertices > 0, "need at least one vertex");
    let sampler = ChungLuSampler::new(cfg);
    let mut el = collect_chunks(
        cfg.num_vertices,
        edge_chunks(cfg.num_edges),
        cfg.num_edges as usize,
        |ci, buf| sampler.chunk(cfg, ci, buf),
    );
    if cfg.connect {
        let mut uf = UnionFind::new(cfg.num_vertices as usize);
        for e in &el.edges {
            uf.union(e.src, e.dst);
        }
        let mut rng = stream_rng(cfg.seed, STREAM_TAIL);
        for e in stitch_edges(&mut uf, &mut rng) {
            el.push(e.src, e.dst);
        }
    }
    el
}

/// Streaming variant of [`chung_lu`]: identical graph (same seed, same
/// chunks, same stitches) built straight into a CSR — the edge list is
/// never materialized. See [`crate::stream::streamed_csr`].
pub fn chung_lu_csr(cfg: &PowerLawConfig) -> CsrGraph {
    assert!(cfg.num_vertices > 0, "need at least one vertex");
    let sampler = ChungLuSampler::new(cfg);
    streamed_csr(
        cfg.num_vertices,
        edge_chunks(cfg.num_edges),
        |ci, buf| sampler.chunk(cfg, ci, buf),
        cfg.connect,
        |uf| {
            if cfg.connect {
                let mut rng = stream_rng(cfg.seed, STREAM_TAIL);
                stitch_edges(uf, &mut rng)
            } else {
                Vec::new()
            }
        },
    )
}

/// Compute the edges that stitch every weakly connected component onto the
/// giant one: one edge from a random giant-component member to each other
/// component's representative. `uf` must already contain the union of every
/// generated edge *in generation order* — both the edge-list and the
/// streamed path feed it the identical union sequence, so the parent
/// structure (and therefore each anchor draw) is identical.
pub(crate) fn stitch_edges(uf: &mut UnionFind, rng: &mut Rng) -> Vec<Edge> {
    let n = uf.len();
    if n == 0 {
        return Vec::new();
    }
    let mut size = vec![0u64; n];
    for v in 0..n as u32 {
        size[uf.find(v) as usize] += 1;
    }
    let giant = (0..n as u32).max_by_key(|&v| size[v as usize]).unwrap();
    let giant_root = uf.find(giant);
    // Anchors must already belong to the giant component — a random vertex
    // could sit in another small component, and two such components can
    // anchor into each other without ever reaching the giant.
    let giant_members: Vec<u32> = (0..n as u32).filter(|&v| uf.find(v) == giant_root).collect();
    let mut extra: Vec<Edge> = Vec::new();
    for v in 0..n as u32 {
        let r = uf.find(v);
        if r != giant_root && size[r as usize] > 0 {
            let anchor = giant_members[rng.below(giant_members.len())];
            extra.push(Edge::new(anchor, v));
            size[r as usize] = 0;
            uf.union(r, giant_root);
        }
    }
    extra
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbench_graph::stats;

    fn gen(alpha: f64, connect: bool) -> EdgeList {
        chung_lu(&PowerLawConfig {
            num_vertices: 5_000,
            num_edges: 75_000,
            alpha,
            offset: 3.0,
            connect,
            seed: 7,
        })
    }

    #[test]
    fn edge_and_vertex_counts() {
        let el = gen(0.85, false);
        assert_eq!(el.num_vertices, 5_000);
        assert_eq!(el.num_edges(), 75_000);
    }

    #[test]
    fn heavy_tail() {
        let el = gen(0.85, false);
        let g = CsrGraph::from_edge_list(&el);
        let s = stats::compute_stats(&g);
        assert!(
            s.max_out_degree as f64 > 25.0 * s.avg_out_degree,
            "max {} avg {}",
            s.max_out_degree,
            s.avg_out_degree
        );
    }

    #[test]
    fn higher_alpha_is_more_skewed() {
        let lo = stats::compute_stats(&CsrGraph::from_edge_list(&gen(0.6, false)));
        let hi = stats::compute_stats(&CsrGraph::from_edge_list(&gen(0.95, false)));
        assert!(hi.max_out_degree > lo.max_out_degree);
    }

    #[test]
    fn connect_yields_single_component() {
        let el = gen(0.85, true);
        let g = CsrGraph::from_edge_list(&el);
        let s = stats::compute_stats(&g);
        assert_eq!(s.components, 1);
        assert!((s.giant_component_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_diameter() {
        let el = gen(0.85, true);
        let g = CsrGraph::from_edge_list(&el);
        let s = stats::compute_stats(&g);
        assert!(s.diameter <= 12, "diameter {}", s.diameter);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = gen(0.85, true);
        let b = gen(0.85, true);
        assert_eq!(a, b);
        let c = chung_lu(&PowerLawConfig { seed: 8, ..PowerLawConfig::default() });
        let d = chung_lu(&PowerLawConfig { seed: 9, ..PowerLawConfig::default() });
        assert_ne!(c, d);
    }

    #[test]
    fn csr_variant_matches_edge_list_path() {
        for connect in [false, true] {
            let cfg = PowerLawConfig {
                num_vertices: 2_000,
                num_edges: 30_000,
                connect,
                seed: 19,
                ..PowerLawConfig::default()
            };
            let via_list = CsrGraph::from_edge_list(&chung_lu(&cfg));
            assert_eq!(chung_lu_csr(&cfg), via_list, "connect = {connect}");
        }
    }
}
