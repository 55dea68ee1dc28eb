//! Properties over seeded random graphs: partitioners must cover every edge
//! and vertex and respect their structural bounds.

use graphbench_graph::builder::edge_list_from_pairs;
use graphbench_graph::rng::{for_each_seed, Rng};
use graphbench_graph::VertexId;
use graphbench_partition::pds::{is_perfect_difference_set, perfect_difference_set};
use graphbench_partition::{
    BlockPartition, EdgeCutPartition, VertexCutPartition, VertexCutStrategy, VoronoiConfig,
};

fn arb_edges(rng: &mut Rng) -> Vec<(VertexId, VertexId)> {
    (0..1 + rng.below(149)).map(|_| (rng.below_u32(30), rng.below_u32(30))).collect()
}

#[test]
fn edge_cut_covers_all_vertices() {
    for_each_seed(256, |_, rng| {
        let pairs = arb_edges(rng);
        let machines = 1 + rng.below(19);
        let seed = rng.below(100) as u64;
        let el = edge_list_from_pairs(&pairs);
        let p = EdgeCutPartition::random(el.num_vertices, machines, seed);
        let total: usize = p.vertices_per_machine().iter().map(Vec::len).sum();
        assert_eq!(total, el.num_vertices as usize);
        for v in 0..el.num_vertices as VertexId {
            assert!((p.machine_of(v) as usize) < machines);
        }
    });
}

#[test]
fn vertex_cut_invariants() {
    for_each_seed(256, |_, rng| {
        let pairs = arb_edges(rng);
        let machines = 1 + rng.below(139);
        let seed = rng.below(100) as u64;
        let strat_idx = rng.below(5);
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
            return;
        };
        // Every edge is placed, and on a machine in both endpoints' replica
        // sets; every connected vertex's master is one of its replicas.
        for (i, e) in el.edges.iter().enumerate() {
            let m = p.machine_of_edge(i);
            assert!((m as usize) < machines);
            assert!(p.replicas_of(e.src).contains(&m));
            assert!(p.replicas_of(e.dst).contains(&m));
        }
        let mut total = 0u64;
        for v in 0..el.num_vertices as VertexId {
            let r = p.replicas_of(v);
            assert!(r.windows(2).all(|w| w[0] < w[1]), "v={}: {:?}", v, r);
            total += r.len() as u64;
            if !r.is_empty() {
                assert!(r.contains(&p.master_of(v)));
                assert!(r.len() <= machines);
            }
        }
        assert_eq!(p.total_replicas(), total);
        assert!(p.replication_factor() >= 1.0 - 1e-12);
        assert!(p.replication_factor() <= machines as f64);
        assert_eq!(p.edges_per_machine().iter().sum::<u64>(), el.num_edges());
    });
}

#[test]
fn voronoi_blocks_partition_the_vertices() {
    for_each_seed(256, |_, rng| {
        let pairs = arb_edges(rng);
        let machines = 1 + rng.below(7);
        let seed = rng.below(50) as u64;
        let el = edge_list_from_pairs(&pairs);
        let cfg = VoronoiConfig { seed, ..VoronoiConfig::default() };
        let p = BlockPartition::build(&el, machines, &cfg);
        let total: usize = p.blocks.iter().map(Vec::len).sum();
        assert_eq!(total, el.num_vertices as usize);
        for (b, verts) in p.blocks.iter().enumerate() {
            assert!(!verts.is_empty(), "empty block {b}");
            for &v in verts {
                assert_eq!(p.block_of[v as usize], b as u32);
            }
            assert!((p.machine_of_block[b] as usize) < machines);
        }
        let per_machine: u64 = p.vertices_per_machine(machines).iter().sum();
        assert_eq!(per_machine, el.num_vertices);
    });
}

#[test]
fn pds_sets_always_verify() {
    for m in [7usize, 13, 21, 31] {
        let set = perfect_difference_set(m).unwrap();
        assert!(is_perfect_difference_set(&set, m as u16));
    }
}
