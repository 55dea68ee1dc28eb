//! Properties over seeded random graphs: the optimized single-thread kernels agree with the
//! obviously-correct reference oracles, and the
//! workload results obey their structural invariants.

use graphbench_algos::workload::{PageRankConfig, StopCriterion};
use graphbench_algos::{reference, st, UNREACHABLE};
use graphbench_graph::builder::csr_from_pairs;
use graphbench_graph::rng::{for_each_seed, Rng};
use graphbench_graph::{CsrGraph, VertexId};

fn arb_graph(rng: &mut Rng) -> CsrGraph {
    let pairs: Vec<_> =
        (0..1 + rng.below(199)).map(|_| (rng.below_u32(30), rng.below_u32(30))).collect();
    let mut g = csr_from_pairs(&pairs);
    g.build_in_edges();
    g
}

#[test]
fn st_wcc_matches_reference() {
    for_each_seed(256, |_, rng| {
        let g = arb_graph(rng);
        assert_eq!(st::wcc(&g).value, reference::wcc(&g));
    });
}

#[test]
fn st_sssp_matches_reference() {
    for_each_seed(256, |_, rng| {
        let g = arb_graph(rng);
        let src_raw = rng.below_u32(30);
        let src = src_raw % g.num_vertices() as u32;
        assert_eq!(st::sssp(&g, src).value, reference::sssp(&g, src));
    });
}

#[test]
fn st_khop_matches_reference() {
    for_each_seed(256, |_, rng| {
        let g = arb_graph(rng);
        let src_raw = rng.below_u32(30);
        let k = rng.below_u32(6);
        let src = src_raw % g.num_vertices() as u32;
        assert_eq!(st::khop(&g, src, k).value, reference::khop(&g, src, k));
    });
}

#[test]
fn st_pagerank_matches_reference() {
    for_each_seed(256, |_, rng| {
        let g = arb_graph(rng);
        let cfg =
            PageRankConfig { stop: StopCriterion::Iterations(15), ..PageRankConfig::paper_exact() };
        let fast = st::pagerank(&g, &cfg).value;
        let (slow, _) = reference::pagerank(&g, &cfg);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
        }
    });
}

#[test]
fn pagerank_ranks_bounded_below_by_damping() {
    for_each_seed(256, |_, rng| {
        let g = arb_graph(rng);
        let cfg =
            PageRankConfig { stop: StopCriterion::Iterations(5), ..PageRankConfig::paper_exact() };
        let (ranks, _) = reference::pagerank(&g, &cfg);
        for r in ranks {
            assert!(r >= cfg.damping - 1e-12);
            assert!(r.is_finite());
        }
    });
}

#[test]
fn wcc_labels_are_canonical() {
    for_each_seed(256, |_, rng| {
        let g = arb_graph(rng);
        let labels = reference::wcc(&g);
        for (v, &l) in labels.iter().enumerate() {
            // The label is a vertex id no larger than the member's.
            assert!(l <= v as VertexId);
            // The labelling is idempotent: the label's label is itself.
            assert_eq!(labels[l as usize], l);
        }
        // Endpoints of every edge share a component.
        for (s, d) in g.edges() {
            assert_eq!(labels[s as usize], labels[d as usize]);
        }
    });
}

#[test]
fn sssp_distances_are_consistent() {
    for_each_seed(256, |_, rng| {
        let g = arb_graph(rng);
        let src_raw = rng.below_u32(30);
        let src = src_raw % g.num_vertices() as u32;
        let dist = reference::sssp(&g, src);
        assert_eq!(dist[src as usize], 0);
        // Triangle inequality along every edge.
        for (s, d) in g.edges() {
            if dist[s as usize] != UNREACHABLE {
                assert!(dist[d as usize] <= dist[s as usize] + 1);
            }
        }
        // K-hop is a prefix of SSSP.
        let k3 = reference::khop(&g, src, 3);
        for (a, b) in k3.iter().zip(&dist) {
            if *a != UNREACHABLE {
                assert_eq!(a, b);
            } else if *b != UNREACHABLE {
                assert!(*b > 3);
            }
        }
    });
}
