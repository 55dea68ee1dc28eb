//! Properties of the dataset generators: structural invariants must hold for
//! any configuration in the supported ranges (32 seeded cases each).

use graphbench_gen::powerlaw::{chung_lu, PowerLawConfig};
use graphbench_gen::road::{road_network, RoadConfig};
use graphbench_gen::web::{web_graph, WebConfig};
use graphbench_graph::rng::for_each_seed;
use graphbench_graph::{stats, CsrGraph};

fn check_chung_lu(n: u64, avg_deg: u64, alpha: f64, seed: u64, connect: bool) {
    let cfg = PowerLawConfig {
        num_vertices: n,
        num_edges: n * avg_deg,
        alpha,
        offset: 3.0,
        connect,
        seed,
    };
    let el = chung_lu(&cfg);
    assert_eq!(el.num_vertices, n);
    // Connect-mode may add up to one stitching edge per component.
    assert!(el.num_edges() >= n * avg_deg);
    assert!(el.num_edges() < n * avg_deg + n);
    for e in &el.edges {
        assert!((e.src as u64) < n && (e.dst as u64) < n);
    }
    if connect {
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(stats::compute_stats(&g).components, 1);
    }
}

#[test]
fn chung_lu_respects_counts_and_ranges() {
    for_each_seed(32, |_, rng| {
        let n = 10 + rng.below(1_990) as u64;
        let avg_deg = 1 + rng.below(19) as u64;
        let alpha = 0.3 + 0.65 * rng.f64();
        let seed = rng.below(1_000) as u64;
        check_chung_lu(n, avg_deg, alpha, seed, rng.below(2) == 1);
    });
}

/// A case proptest once found: two small components were anchored into
/// each other instead of into the giant one, and the graph stayed split.
#[test]
fn chung_lu_stitches_small_components_into_the_giant_one() {
    check_chung_lu(129, 1, 0.5138548730699318, 773, true);
}

#[test]
fn road_network_is_a_bounded_degree_symmetric_lattice() {
    for_each_seed(32, |_, rng| {
        let w = 2 + rng.below_u32(38);
        let h = 2 + rng.below_u32(38);
        let keep = 0.3 + 0.7 * rng.f64();
        let seed = rng.below(1_000) as u64;
        let rn = road_network(&RoadConfig { width: w, height: h, keep_prob: keep, seed });
        assert_eq!(rn.edges.num_vertices, w as u64 * h as u64);
        assert_eq!(rn.coords.len(), (w * h) as usize);
        let g = CsrGraph::from_edge_list(&rn.edges);
        let s = stats::compute_stats(&g);
        assert!(s.max_out_degree <= 4);
        // Two-way streets: every edge has its reverse.
        let set: std::collections::HashSet<_> =
            rn.edges.edges.iter().map(|e| (e.src, e.dst)).collect();
        for e in &rn.edges.edges {
            assert!(set.contains(&(e.dst, e.src)));
        }
        // Coordinates match the row-major layout.
        for (v, &(x, y)) in rn.coords.iter().enumerate() {
            assert_eq!(v as u64, y as u64 * w as u64 + x as u64);
        }
    });
}

#[test]
fn web_graph_hosts_are_total_and_counts_exact() {
    for_each_seed(32, |_, rng| {
        let n = 50 + rng.below(1_950) as u64;
        let avg_deg = 1 + rng.below(19) as u64;
        let hosts = 1 + rng.below_u32(39);
        let intra = rng.f64();
        let seed = rng.below(1_000) as u64;
        let cfg = WebConfig {
            num_vertices: n,
            num_edges: n * avg_deg,
            num_hosts: hosts,
            intra_host_prob: intra,
            alpha: 0.75,
            self_edge_fraction: 1e-3,
            seed,
        };
        let w = web_graph(&cfg);
        assert_eq!(w.edges.num_edges(), n * avg_deg);
        assert_eq!(w.hosts.len(), n as usize);
        for &h in &w.hosts {
            assert!(h < hosts);
        }
        // Host layout is contiguous.
        for pair in w.hosts.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        for e in &w.edges.edges {
            assert!((e.src as u64) < n && (e.dst as u64) < n);
        }
    });
}

#[test]
fn generators_are_deterministic() {
    for_each_seed(32, |_, rng| {
        let seed = rng.below(1_000) as u64;
        let cfg = PowerLawConfig {
            num_vertices: 200,
            num_edges: 2_000,
            seed,
            ..PowerLawConfig::default()
        };
        assert_eq!(chung_lu(&cfg), chung_lu(&cfg));
        let r = RoadConfig { width: 10, height: 10, keep_prob: 0.8, seed };
        assert_eq!(road_network(&r).edges, road_network(&r).edges);
        let w = WebConfig { num_vertices: 200, num_edges: 2_000, seed, ..WebConfig::default() };
        assert_eq!(web_graph(&w).edges, web_graph(&w).edges);
    });
}
