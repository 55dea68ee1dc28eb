//! Properties of the graph substrate, each checked over seeded cases.

use graphbench_graph::builder::{edge_list_from_pairs, symmetrize};
use graphbench_graph::format::{parse_graph, write_graph, GraphFormat};
use graphbench_graph::rng::{for_each_seed, hostile_text, Rng};
use graphbench_graph::{stats, CsrGraph, EdgeList, VertexId};

/// Small directed graphs: up to 40 vertices, up to 200 edges.
fn arb_edges(rng: &mut Rng) -> Vec<(VertexId, VertexId)> {
    (0..rng.below(200)).map(|_| (rng.below_u32(40), rng.below_u32(40))).collect()
}

fn graph_from(pairs: &[(VertexId, VertexId)]) -> (EdgeList, CsrGraph) {
    let el = edge_list_from_pairs(pairs);
    let g = CsrGraph::from_edge_list(&el);
    (el, g)
}

#[test]
fn csr_preserves_every_edge() {
    for_each_seed(256, |_, rng| {
        let pairs = arb_edges(rng);
        let (el, g) = graph_from(&pairs);
        assert_eq!(g.num_edges(), el.num_edges());
        let mut want = pairs.clone();
        want.sort_unstable();
        let mut got: Vec<_> = g.edges().collect();
        got.sort_unstable();
        assert_eq!(got, want);
    });
}

#[test]
fn degrees_sum_to_edge_count() {
    for_each_seed(256, |_, rng| {
        let pairs = arb_edges(rng);
        let (_, g) = graph_from(&pairs);
        let out: u64 = (0..g.num_vertices() as VertexId).map(|v| g.out_degree(v)).sum();
        assert_eq!(out, g.num_edges());
    });
}

#[test]
fn in_edges_are_the_exact_transpose() {
    for_each_seed(256, |_, rng| {
        let pairs = arb_edges(rng);
        let (_, mut g) = graph_from(&pairs);
        g.build_in_edges();
        let inn: u64 = (0..g.num_vertices() as VertexId).map(|v| g.in_degree(v)).sum();
        assert_eq!(inn, g.num_edges());
        let mut forward: Vec<_> = g.edges().collect();
        let mut backward: Vec<(VertexId, VertexId)> = (0..g.num_vertices() as VertexId)
            .flat_map(|v| g.in_neighbors(v).iter().map(move |&u| (u, v)).collect::<Vec<_>>())
            .collect();
        forward.sort_unstable();
        backward.sort_unstable();
        assert_eq!(forward, backward);
    });
}

#[test]
fn formats_round_trip() {
    for_each_seed(256, |_, rng| {
        let pairs = arb_edges(rng);
        let (el, _) = graph_from(&pairs);
        for fmt in [GraphFormat::Adj, GraphFormat::AdjLong, GraphFormat::EdgeListFormat] {
            let text = write_graph(&el, fmt);
            let mut parsed = parse_graph(&text, fmt, Some(el.num_vertices)).unwrap();
            parsed.sort_dedup();
            let mut want = el.clone();
            want.sort_dedup();
            assert_eq!(&parsed, &want, "format {}", fmt.name());
        }
    });
}

#[test]
fn stats_invariants() {
    for_each_seed(256, |_, rng| {
        let pairs = arb_edges(rng);
        let (_, g) = graph_from(&pairs);
        let s = stats::compute_stats(&g);
        assert_eq!(s.num_vertices, g.num_vertices() as u64);
        if s.num_vertices > 0 {
            assert!(s.components >= 1);
            assert!(s.components <= s.num_vertices);
            assert!(s.giant_component_fraction > 0.0 && s.giant_component_fraction <= 1.0);
            assert!(s.diameter < s.num_vertices.max(1));
        }
    });
}

#[test]
fn symmetrize_is_idempotent_and_superset() {
    for_each_seed(256, |_, rng| {
        let pairs = arb_edges(rng);
        let (el, _) = graph_from(&pairs);
        let sym = symmetrize(&el);
        let sym2 = symmetrize(&sym);
        assert_eq!(&sym, &sym2);
        // Every original edge survives.
        let mut dedup = el.clone();
        dedup.sort_dedup();
        for e in &dedup.edges {
            assert!(sym.edges.contains(e));
        }
        // Symmetric: (a,b) implies (b,a).
        for e in &sym.edges {
            assert!(sym.edges.contains(&e.reversed()));
        }
    });
}

/// The parser is total over text from outside: `Ok` or `Err`, never a panic,
/// and what it accepts names only vertices inside the range it reports.
#[test]
fn parse_never_panics() {
    let valid = ["0 1\n1 2\n# comment\n\n2 0\n", "0 2 1 2\n1 0\n2 1 0\n", "7\t8 9\r\n9 2 7 8\n"];
    let formats = [GraphFormat::Adj, GraphFormat::AdjLong, GraphFormat::EdgeListFormat];
    for (text, fmt) in
        valid.iter().zip([GraphFormat::EdgeListFormat, GraphFormat::AdjLong, GraphFormat::Adj])
    {
        assert!(parse_graph(text, fmt, None).is_ok(), "{text:?}");
    }
    for_each_seed(256, |_, rng| {
        let text = hostile_text(rng, &valid);
        let declared = [None, Some(0), Some(3), Some(1 << 32), Some(u64::MAX)][rng.below(5)];
        for fmt in formats {
            if let Ok(el) = parse_graph(&text, fmt, declared) {
                assert!(el.num_vertices <= 1 << 32);
                for e in &el.edges {
                    assert!((e.src.max(e.dst) as u64) < el.num_vertices, "{text:?}");
                }
            }
        }
    });
}
