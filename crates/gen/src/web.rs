//! Web-graph generator (UK200705 / ClueWeb stand-ins).
//!
//! Web graphs differ from social networks in three ways that matter to the
//! paper's experiments:
//!
//! 1. **Host locality** — pages cluster by host (URL prefix), so locality-
//!    aware partitioners (Blogel's Voronoi blocks, GraphLab's Grid/PDS at the
//!    right machine counts) find far better cuts than random hashing. The
//!    generator assigns vertices to hosts with power-law host sizes and draws
//!    most edges within the host.
//! 2. **Self-edges** — pages link to themselves; GraphLab cannot load these
//!    (paper §3.1.1). A configurable fraction of self-loops is injected.
//! 3. **Several components** — unlike Twitter, the UK graph is not a single
//!    weakly connected component (§4.4.1); the generator does not stitch.
//!
//! Normal edges are drawn in per-chunk RNG streams (see [`crate::stream`]);
//! the injected self-loop tail uses the reserved tail stream. Output is
//! bit-identical at any thread count.

use crate::alias::AliasTable;
use crate::stream::{
    chunk_len, collect_chunks, edge_chunks, seeded_permutation, stream_rng, streamed_csr,
    STREAM_TAIL,
};
use graphbench_graph::rng::Rng;
use graphbench_graph::{CsrGraph, Edge, EdgeList, VertexId};

/// Configuration for [`web_graph`].
#[derive(Debug, Clone)]
pub struct WebConfig {
    pub num_vertices: u64,
    pub num_edges: u64,
    /// Number of hosts; host sizes follow a power law.
    pub num_hosts: u32,
    /// Probability that an edge stays inside its source's host.
    pub intra_host_prob: f64,
    /// Weight exponent for the in-host and cross-host endpoint choice.
    pub alpha: f64,
    /// Fraction of `num_edges` emitted as self-loops.
    pub self_edge_fraction: f64,
    pub seed: u64,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            num_vertices: 20_000,
            num_edges: 700_000,
            num_hosts: 200,
            intra_host_prob: 0.8,
            alpha: 0.75,
            self_edge_fraction: 1e-4,
            seed: 42,
        }
    }
}

/// A generated web graph: edges plus the host id of every vertex (the
/// locality structure partitioners can exploit).
#[derive(Debug, Clone)]
pub struct WebGraph {
    pub edges: EdgeList,
    /// Host id per vertex.
    pub hosts: Vec<u32>,
}

/// Everything the per-chunk edge draws depend on: the (deterministic) host
/// layout and the (perm-stream-seeded) global endpoint distribution.
struct WebSampler {
    hosts: Vec<u32>,
    host_start: Vec<usize>,
    global: AliasTable,
}

impl WebSampler {
    fn new(cfg: &WebConfig) -> Self {
        assert!(cfg.num_vertices > 0 && cfg.num_hosts > 0);
        assert!((0.0..=1.0).contains(&cfg.intra_host_prob));
        let n = cfg.num_vertices as usize;
        let h = cfg.num_hosts as usize;

        // Host sizes ~ power law; vertices are laid out host-contiguously,
        // the way a URL-sorted crawl file is. No RNG involved.
        let host_weights: Vec<f64> = (0..h).map(|i| ((i + 1) as f64).powf(-0.9)).collect();
        let host_total: f64 = host_weights.iter().sum();
        let mut hosts = vec![0u32; n];
        let mut host_start = vec![0usize; h + 1];
        {
            let mut cursor = 0usize;
            for (i, w) in host_weights.iter().enumerate() {
                host_start[i] = cursor;
                let mut share = ((w / host_total) * n as f64).round() as usize;
                if i == h - 1 {
                    share = n - cursor; // absorb rounding in the final host
                }
                let share = share.min(n - cursor);
                hosts[cursor..cursor + share].fill(i as u32);
                cursor += share;
            }
            host_start[h] = n;
            // Rounding may exhaust vertices before the final host; any
            // leftover slots already default to the last assigned host's id
            // via the loop.
            for i in (0..h).rev() {
                if host_start[i] > host_start[i + 1] {
                    host_start[i] = host_start[i + 1];
                }
            }
        }

        // Global endpoint distribution (cross-host edges). Weight ranks are
        // permuted so popularity is independent of host membership —
        // otherwise the first host would hold all the globally heaviest
        // pages and its front page would compound both skews into an
        // outsized hub.
        let rank = seeded_permutation(n, cfg.seed);
        let weights: Vec<f64> =
            (0..n).map(|i| ((rank[i] as usize + 1) as f64).powf(-cfg.alpha)).collect();
        let global = AliasTable::new(&weights);

        WebSampler { hosts, host_start, global }
    }

    fn draw_edge(&self, cfg: &WebConfig, rng: &mut Rng) -> Edge {
        let s = self.global.sample(rng) as usize;
        let d = if rng.f64() < cfg.intra_host_prob {
            // Within the source's host, popularity is itself power-law
            // (front pages dominate): u^3 biases toward the host's first
            // members, giving the in-degree skew real web graphs have.
            let host = self.hosts[s] as usize;
            let (lo, hi) = (self.host_start[host], self.host_start[host + 1]);
            if hi > lo {
                let u = rng.f64();
                lo + ((u * u * u) * (hi - lo) as f64) as usize
            } else {
                self.global.sample(rng) as usize
            }
        } else {
            self.global.sample(rng) as usize
        };
        Edge::new(s as VertexId, d as VertexId)
    }

    fn chunk(&self, cfg: &WebConfig, normal_edges: u64, ci: u64, buf: &mut Vec<Edge>) {
        let mut rng = stream_rng(cfg.seed, ci);
        for _ in 0..chunk_len(ci, normal_edges) {
            buf.push(self.draw_edge(cfg, &mut rng));
        }
    }

    /// The injected self-loops, appended after every normal edge.
    fn self_edge_tail(&self, cfg: &WebConfig, self_edges: u64) -> Vec<Edge> {
        let mut rng = stream_rng(cfg.seed, STREAM_TAIL);
        (0..self_edges)
            .map(|_| {
                let v = self.global.sample(&mut rng);
                Edge::new(v, v)
            })
            .collect()
    }
}

fn edge_split(cfg: &WebConfig) -> (u64, u64) {
    let self_edges = (cfg.num_edges as f64 * cfg.self_edge_fraction).round() as u64;
    (cfg.num_edges.saturating_sub(self_edges), self_edges)
}

/// Generate a web graph.
pub fn web_graph(cfg: &WebConfig) -> WebGraph {
    let sampler = WebSampler::new(cfg);
    let (normal_edges, self_edges) = edge_split(cfg);
    let mut el = collect_chunks(
        cfg.num_vertices,
        edge_chunks(normal_edges),
        cfg.num_edges as usize,
        |ci, buf| sampler.chunk(cfg, normal_edges, ci, buf),
    );
    for e in sampler.self_edge_tail(cfg, self_edges) {
        el.push(e.src, e.dst);
    }
    let WebSampler { hosts, .. } = sampler;
    WebGraph { edges: el, hosts }
}

/// Streaming variant of [`web_graph`]: the identical edge set built straight
/// into a CSR; the host vector (needed by locality-aware partitioners) is
/// returned alongside.
pub fn web_graph_csr(cfg: &WebConfig) -> (CsrGraph, Vec<u32>) {
    let sampler = WebSampler::new(cfg);
    let (normal_edges, self_edges) = edge_split(cfg);
    let g = streamed_csr(
        cfg.num_vertices,
        edge_chunks(normal_edges),
        |ci, buf| sampler.chunk(cfg, normal_edges, ci, buf),
        false,
        |_| sampler.self_edge_tail(cfg, self_edges),
    );
    let WebSampler { hosts, .. } = sampler;
    (g, hosts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbench_graph::stats;

    fn gen() -> WebGraph {
        web_graph(&WebConfig {
            num_vertices: 5_000,
            num_edges: 150_000,
            num_hosts: 50,
            self_edge_fraction: 1e-3,
            ..WebConfig::default()
        })
    }

    #[test]
    fn counts_and_self_edges() {
        let w = gen();
        assert_eq!(w.edges.num_edges(), 150_000);
        let g = CsrGraph::from_edge_list(&w.edges);
        let s = stats::compute_stats(&g);
        // 150 injected loops (1e-3 of 150k) plus whatever the endpoint
        // sampler produces by chance.
        assert!(s.self_edges >= 150, "self edges {}", s.self_edges);
    }

    #[test]
    fn host_locality_dominates() {
        let w = gen();
        let intra = w
            .edges
            .edges
            .iter()
            .filter(|e| w.hosts[e.src as usize] == w.hosts[e.dst as usize])
            .count() as f64;
        let frac = intra / w.edges.num_edges() as f64;
        assert!(frac > 0.6, "intra-host fraction {frac}");
    }

    #[test]
    fn heavy_tailed_degrees() {
        let w = gen();
        let g = CsrGraph::from_edge_list(&w.edges);
        let s = stats::compute_stats(&g);
        assert!(s.max_out_degree as f64 > 20.0 * s.avg_out_degree);
    }

    #[test]
    fn host_assignment_is_contiguous_and_total() {
        let w = gen();
        assert_eq!(w.hosts.len(), 5_000);
        // Contiguous: host ids are non-decreasing along vertex ids.
        for pair in w.hosts.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = gen();
        let b = gen();
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.hosts, b.hosts);
    }

    #[test]
    fn csr_variant_matches_edge_list_path() {
        let cfg = WebConfig {
            num_vertices: 2_000,
            num_edges: 40_000,
            num_hosts: 30,
            self_edge_fraction: 1e-3,
            seed: 23,
            ..WebConfig::default()
        };
        let w = web_graph(&cfg);
        let via_list = CsrGraph::from_edge_list(&w.edges);
        let (streamed, hosts) = web_graph_csr(&cfg);
        assert_eq!(streamed, via_list);
        assert_eq!(hosts, w.hosts);
    }
}
