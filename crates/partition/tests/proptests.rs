//! Property-based tests: partitioners must cover every edge and vertex and
//! respect their structural bounds on arbitrary graphs.

use graphbench_graph::builder::edge_list_from_pairs;
use graphbench_graph::VertexId;
use graphbench_partition::pds::{is_perfect_difference_set, perfect_difference_set};
use graphbench_partition::{
    BlockPartition, EdgeCutPartition, VertexCutPartition, VertexCutStrategy, VoronoiConfig,
};
use proptest::prelude::*;

fn arb_edges() -> impl Strategy<Value = Vec<(VertexId, VertexId)>> {
    prop::collection::vec((0u32..30, 0u32..30), 1..150)
}

proptest! {
    #[test]
    fn edge_cut_covers_all_vertices(pairs in arb_edges(), machines in 1usize..20, seed in 0u64..100) {
        let el = edge_list_from_pairs(&pairs);
        let p = EdgeCutPartition::random(el.num_vertices, machines, seed);
        let total: usize = p.vertices_per_machine().iter().map(Vec::len).sum();
        prop_assert_eq!(total, el.num_vertices as usize);
        for v in 0..el.num_vertices as VertexId {
            prop_assert!((p.machine_of(v) as usize) < machines);
        }
    }

    #[test]
    fn vertex_cut_invariants(
        pairs in arb_edges(),
        machines in 1usize..140,
        seed in 0u64..100,
        strat_idx in 0usize..5,
    ) {
        let strat = [
            VertexCutStrategy::Random,
            VertexCutStrategy::Oblivious,
            VertexCutStrategy::Grid2D,
            VertexCutStrategy::Grid,
            VertexCutStrategy::Pds,
        ][strat_idx];
        let el = edge_list_from_pairs(&pairs);
        // Grid and PDS exist only for some machine counts.
        let Ok(p) = VertexCutPartition::build(&el, machines, strat, seed) else {
            return Ok(());
        };
        // Every edge is placed, and on a machine in both endpoints' replica
        // sets; every connected vertex's master is one of its replicas.
        for (i, e) in el.edges.iter().enumerate() {
            let m = p.machine_of_edge(i);
            prop_assert!((m as usize) < machines);
            prop_assert!(p.replicas_of(e.src).contains(&m));
            prop_assert!(p.replicas_of(e.dst).contains(&m));
        }
        let mut total = 0u64;
        for v in 0..el.num_vertices as VertexId {
            let r = p.replicas_of(v);
            prop_assert!(r.windows(2).all(|w| w[0] < w[1]), "v={}: {:?}", v, r);
            total += r.len() as u64;
            if !r.is_empty() {
                prop_assert!(r.contains(&p.master_of(v)));
                prop_assert!(r.len() <= machines);
            }
        }
        prop_assert_eq!(p.total_replicas(), total);
        prop_assert!(p.replication_factor() >= 1.0 - 1e-12);
        prop_assert!(p.replication_factor() <= machines as f64);
        prop_assert_eq!(p.edges_per_machine().iter().sum::<u64>(), el.num_edges());
    }

    #[test]
    fn voronoi_blocks_partition_the_vertices(
        pairs in arb_edges(),
        machines in 1usize..8,
        seed in 0u64..50,
    ) {
        let el = edge_list_from_pairs(&pairs);
        let cfg = VoronoiConfig { seed, ..VoronoiConfig::default() };
        let p = BlockPartition::build(&el, machines, &cfg);
        let total: usize = p.blocks.iter().map(Vec::len).sum();
        prop_assert_eq!(total, el.num_vertices as usize);
        for (b, verts) in p.blocks.iter().enumerate() {
            prop_assert!(!verts.is_empty(), "empty block {b}");
            for &v in verts {
                prop_assert_eq!(p.block_of[v as usize], b as u32);
            }
            prop_assert!((p.machine_of_block[b] as usize) < machines);
        }
        let per_machine: u64 = p.vertices_per_machine(machines).iter().sum();
        prop_assert_eq!(per_machine, el.num_vertices);
    }

    #[test]
    fn pds_sets_always_verify(idx in 0usize..4) {
        let m = [7usize, 13, 21, 31][idx];
        let set = perfect_difference_set(m).unwrap();
        prop_assert!(is_perfect_difference_set(&set, m as u16));
    }
}
