//! Blogel's Graph Voronoi Diagram (GVD) partitioning (§2.3).
//!
//! Seeds are sampled, then a multi-source BFS claims vertices for the
//! nearest seed, forming connected *blocks*. Unclaimed vertices are retried
//! in further rounds with a higher sampling rate; leftovers become singleton
//! blocks. Blocks are then bin-packed onto machines. Because blocks are
//! connected, a serial in-block algorithm plus block-level messaging needs
//! far fewer global supersteps than vertex-level BSP — the source of
//! Blogel-B's short execution times for reachability workloads (§5.1).
//!
//! During each sampling round the real implementation aggregates per-block
//! assignment counts at the master over MPI, whose 32-bit buffer offsets
//! overflow on billion-vertex graphs (the paper's `MPI` failure on WRN and
//! ClueWeb). [`BlockPartition::aggregate_items`] exposes the aggregated item
//! count so the Blogel engine can reproduce that failure at the paper's
//! scale.

use crate::MachineId;
use graphbench_graph::rng::Rng;
use graphbench_graph::{CsrBuilder, EdgeList, VertexId};
use std::collections::VecDeque;

/// GVD sampling parameters (defaults follow the Blogel paper's defaults in
/// spirit: start sparse, grow the sampling rate each round).
#[derive(Debug, Clone)]
pub struct VoronoiConfig {
    /// Initial seed-sampling probability.
    pub sample_rate: f64,
    /// Multiplier applied to the sampling rate each round.
    pub sample_growth: f64,
    /// Sampling rounds before leftovers become singleton blocks.
    pub max_rounds: u32,
    /// A block stops claiming vertices once it reaches this size.
    pub max_block_size: usize,
    pub seed: u64,
}

impl Default for VoronoiConfig {
    fn default() -> Self {
        VoronoiConfig {
            sample_rate: 0.001,
            sample_growth: 10.0,
            max_rounds: 5,
            max_block_size: usize::MAX,
            seed: 42,
        }
    }
}

/// Result of GVD partitioning.
#[derive(Debug, Clone)]
pub struct BlockPartition {
    /// Block id per vertex.
    pub block_of: Vec<u32>,
    /// Vertices of each block.
    pub blocks: Vec<Vec<VertexId>>,
    /// Machine hosting each block (greedy bin packing by size).
    pub machine_of_block: Vec<MachineId>,
    /// Sampling rounds actually used.
    pub rounds: u32,
    /// Items aggregated at the master per sampling round (one count per
    /// vertex); the engine scales this to the paper's dataset sizes for the
    /// 32-bit MPI overflow check.
    pub aggregate_items: u64,
}

impl BlockPartition {
    /// Partition the graph into connected blocks and pack them onto
    /// `machines` machines.
    pub fn build(el: &EdgeList, machines: usize, cfg: &VoronoiConfig) -> Self {
        // Undirected adjacency: GVD grows blocks over connectivity, ignoring
        // direction. A row lists neighbours in edge-list order, duplicates
        // kept: the BFS below claims vertices in the order it meets them, so
        // that order (not a sorted one) is part of the output. `CsrBuilder`
        // fills each row in arrival order, which makes the flat rows equal to
        // pushing onto one list per vertex.
        let non_self = || el.edges.iter().filter(|e| e.src != e.dst);
        let mut adj = CsrBuilder::new(el.num_vertices);
        for e in non_self() {
            adj.count(e.src);
            adj.count(e.dst);
        }
        adj.seal();
        for e in non_self() {
            adj.fill(e.src, e.dst);
            adj.fill(e.dst, e.src);
        }
        let adj = adj.finish();
        Self::grow(el.num_vertices as usize, machines, cfg, |v| adj.out_neighbors(v))
    }

    /// GVD over `n` vertices whose undirected neighbours `neighbours` lists.
    fn grow<'a>(
        n: usize,
        machines: usize,
        cfg: &VoronoiConfig,
        neighbours: impl Fn(VertexId) -> &'a [VertexId],
    ) -> Self {
        assert!(machines > 0 && machines <= MachineId::MAX as usize + 1);
        let mut rng = Rng::seed_from_u64(cfg.seed);
        const UNASSIGNED: u32 = u32::MAX;
        let mut block_of = vec![UNASSIGNED; n];
        let mut block_sizes: Vec<usize> = Vec::new();
        let mut rate = cfg.sample_rate;
        let mut rounds = 0u32;
        for _ in 0..cfg.max_rounds {
            let unassigned: Vec<VertexId> =
                (0..n as VertexId).filter(|&v| block_of[v as usize] == UNASSIGNED).collect();
            if unassigned.is_empty() {
                break;
            }
            rounds += 1;
            // Sample seeds among unassigned vertices.
            let mut queue: VecDeque<VertexId> = VecDeque::new();
            for &v in &unassigned {
                if rng.f64() < rate {
                    let b = block_sizes.len() as u32;
                    block_of[v as usize] = b;
                    block_sizes.push(1);
                    queue.push_back(v);
                }
            }
            // Multi-source BFS over unassigned territory.
            while let Some(v) = queue.pop_front() {
                let b = block_of[v as usize];
                for &t in neighbours(v) {
                    if block_of[t as usize] == UNASSIGNED
                        && block_sizes[b as usize] < cfg.max_block_size
                    {
                        block_of[t as usize] = b;
                        block_sizes[b as usize] += 1;
                        queue.push_back(t);
                    }
                }
            }
            rate = (rate * cfg.sample_growth).min(1.0);
        }
        // Leftovers (islands never sampled): singleton blocks.
        for b in block_of.iter_mut() {
            if *b == UNASSIGNED {
                *b = block_sizes.len() as u32;
                block_sizes.push(1);
            }
        }
        let mut blocks: Vec<Vec<VertexId>> = vec![Vec::new(); block_sizes.len()];
        for (v, &b) in block_of.iter().enumerate() {
            blocks[b as usize].push(v as VertexId);
        }
        // Greedy bin packing: biggest blocks first onto the least loaded
        // machine.
        let mut order: Vec<usize> = (0..blocks.len()).collect();
        order.sort_unstable_by_key(|&b| std::cmp::Reverse(blocks[b].len()));
        let mut loads = vec![0u64; machines];
        let mut machine_of_block = vec![0 as MachineId; blocks.len()];
        for b in order {
            let m = (0..machines).min_by_key(|&m| (loads[m], m)).unwrap();
            machine_of_block[b] = m as MachineId;
            loads[m] += blocks[b].len() as u64;
        }
        BlockPartition { block_of, blocks, machine_of_block, rounds, aggregate_items: n as u64 }
    }

    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Machine hosting vertex `v` (via its block).
    #[cfg(test)]
    pub fn machine_of_vertex(&self, v: VertexId) -> MachineId {
        self.machine_of_block[self.block_of[v as usize] as usize]
    }

    /// Flattened vertex→machine table: one array read per vertex in hot
    /// loops instead of the two-level block lookup, and directly usable as
    /// an [`crate::EdgeCutPartition`] assignment.
    pub fn vertex_assignment(&self) -> Vec<MachineId> {
        self.block_of.iter().map(|&b| self.machine_of_block[b as usize]).collect()
    }

    /// Vertices per machine.
    pub fn vertices_per_machine(&self, machines: usize) -> Vec<u64> {
        let mut counts = vec![0u64; machines];
        for (b, verts) in self.blocks.iter().enumerate() {
            counts[self.machine_of_block[b] as usize] += verts.len() as u64;
        }
        counts
    }

    /// Fraction of edges crossing block boundaries — the traffic Blogel-B
    /// has to send between blocks.
    pub fn boundary_fraction(&self, el: &EdgeList) -> f64 {
        if el.edges.is_empty() {
            return 0.0;
        }
        let cross = el
            .edges
            .iter()
            .filter(|e| self.block_of[e.src as usize] != self.block_of[e.dst as usize])
            .count();
        cross as f64 / el.edges.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbench_graph::builder::edge_list_from_pairs;
    use graphbench_graph::rng::splitmix64;

    /// Two cliques joined by one bridge edge.
    fn two_communities() -> EdgeList {
        let mut pairs = Vec::new();
        for i in 0..20u32 {
            for j in 0..20u32 {
                if i != j {
                    pairs.push((i, j));
                }
            }
        }
        for i in 20..40u32 {
            for j in 20..40u32 {
                if i != j {
                    pairs.push((i, j));
                }
            }
        }
        pairs.push((0, 20));
        edge_list_from_pairs(&pairs)
    }

    fn grid(side: u32) -> EdgeList {
        let mut pairs = Vec::new();
        for y in 0..side {
            for x in 0..side {
                let v = y * side + x;
                if x + 1 < side {
                    pairs.push((v, v + 1));
                    pairs.push((v + 1, v));
                }
                if y + 1 < side {
                    pairs.push((v, v + side));
                    pairs.push((v + side, v));
                }
            }
        }
        edge_list_from_pairs(&pairs)
    }

    #[test]
    fn every_vertex_lands_in_exactly_one_block() {
        let el = grid(20);
        let p = BlockPartition::build(&el, 4, &VoronoiConfig::default());
        assert_eq!(p.block_of.len(), 400);
        let total: usize = p.blocks.iter().map(Vec::len).sum();
        assert_eq!(total, 400);
        for (b, verts) in p.blocks.iter().enumerate() {
            for &v in verts {
                assert_eq!(p.block_of[v as usize], b as u32);
            }
        }
    }

    #[test]
    fn vertex_assignment_matches_two_level_lookup() {
        let el = grid(20);
        let p = BlockPartition::build(&el, 4, &VoronoiConfig::default());
        let flat = p.vertex_assignment();
        assert_eq!(flat.len(), 400);
        for v in 0..400u32 {
            assert_eq!(flat[v as usize], p.machine_of_vertex(v));
        }
    }

    #[test]
    fn blocks_are_connected() {
        let el = grid(16);
        let p = BlockPartition::build(&el, 4, &VoronoiConfig::default());
        // Check connectivity of each block via BFS restricted to the block.
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); 256];
        for e in &el.edges {
            adj[e.src as usize].push(e.dst);
        }
        for verts in &p.blocks {
            if verts.len() <= 1 {
                continue;
            }
            let inside: std::collections::HashSet<_> = verts.iter().copied().collect();
            let mut seen = std::collections::HashSet::new();
            let mut q = VecDeque::from([verts[0]]);
            seen.insert(verts[0]);
            while let Some(v) = q.pop_front() {
                for &t in &adj[v as usize] {
                    if inside.contains(&t) && seen.insert(t) {
                        q.push_back(t);
                    }
                }
            }
            assert_eq!(seen.len(), verts.len(), "disconnected block {verts:?}");
        }
    }

    #[test]
    fn communities_mostly_stay_together() {
        // What holds is conditional. When the first round (rate 0.05 over 40
        // vertices) draws a seed, its BFS runs over the whole connected graph
        // before any other seed exists, so each clique goes to one or two
        // blocks and next to nothing crosses. When it draws none — the
        // default seed 42 does not — the second round seeds half the vertices
        // at once and shreds both cliques (boundary 0.68-0.83): that is the
        // sampling schedule, not a defect of `build`.
        let el = two_communities();
        let mut single_round = 0;
        for seed in [1, 2, 3, 4, 5, 6, 7, 8, 9, 42] {
            let cfg = VoronoiConfig { sample_rate: 0.05, seed, ..VoronoiConfig::default() };
            let p = BlockPartition::build(&el, 2, &cfg);
            if p.rounds == 1 {
                single_round += 1;
                let boundary = p.boundary_fraction(&el);
                assert!(boundary < 0.1, "seed {seed}: {boundary}");
            }
        }
        assert!(single_round >= 4, "only {single_round} of 10 seeds finished in one round");
    }

    /// `build` as it read its adjacency before: one heap list per vertex,
    /// pushed in edge-list order.
    fn build_over_lists(el: &EdgeList, machines: usize, cfg: &VoronoiConfig) -> BlockPartition {
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); el.num_vertices as usize];
        for e in &el.edges {
            if e.src != e.dst {
                adj[e.src as usize].push(e.dst);
                adj[e.dst as usize].push(e.src);
            }
        }
        BlockPartition::grow(adj.len(), machines, cfg, |v| &adj[v as usize])
    }

    #[test]
    fn flat_adjacency_matches_the_nested_lists() {
        for seed in 0..60u64 {
            // Multigraph with self-edges, duplicates, vertices no edge names
            // (a gap in the middle and a tail) and, when sparse, many
            // components.
            let mut next = (0u64..).map(|i| splitmix64(i ^ seed.rotate_left(21)));
            let mut next = move |bound: u64| next.next().unwrap() % bound;
            let n = 10 + next(150);
            let mut el = EdgeList::new(n + next(5));
            for _ in 0..next(3 * n) {
                let (s, d) = (next(n), next(n));
                let d = if next(8) == 0 { s } else { d };
                if (n / 3..n / 3 + 4).contains(&s) || (n / 3..n / 3 + 4).contains(&d) {
                    continue;
                }
                for _ in 0..1 + next(3) / 2 {
                    el.push(s as VertexId, d as VertexId);
                }
            }
            for (machines, max_block_size, sample_rate) in
                [(1, usize::MAX, 0.001), (4, usize::MAX, 0.05), (7, 5, 0.05), (100, 1, 0.3)]
            {
                let cfg =
                    VoronoiConfig { seed, max_block_size, sample_rate, ..VoronoiConfig::default() };
                let (new, old) = (
                    BlockPartition::build(&el, machines, &cfg),
                    build_over_lists(&el, machines, &cfg),
                );
                let ctx = format!("seed {seed}, {machines} machines, max block {max_block_size}");
                assert_eq!(new.block_of, old.block_of, "{ctx}");
                assert_eq!(new.blocks, old.blocks, "{ctx}");
                assert_eq!(new.machine_of_block, old.machine_of_block, "{ctx}");
                assert_eq!(new.rounds, old.rounds, "{ctx}");
                assert_eq!(new.aggregate_items, old.aggregate_items, "{ctx}");
            }
        }
    }

    #[test]
    fn max_block_size_is_respected() {
        let el = grid(16);
        let cfg = VoronoiConfig { max_block_size: 30, ..VoronoiConfig::default() };
        let p = BlockPartition::build(&el, 4, &cfg);
        for b in &p.blocks {
            assert!(b.len() <= 30);
        }
    }

    #[test]
    fn machine_packing_is_balanced() {
        let el = grid(24);
        let cfg = VoronoiConfig { max_block_size: 40, ..VoronoiConfig::default() };
        let p = BlockPartition::build(&el, 4, &cfg);
        let counts = p.vertices_per_machine(4);
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) < 2.0, "{counts:?}");
    }

    #[test]
    fn isolated_vertices_become_singletons() {
        let mut el = grid(4);
        el.num_vertices = 20; // 4 isolated vertices
        let p = BlockPartition::build(&el, 2, &VoronoiConfig::default());
        for v in 16..20 {
            let b = p.block_of[v] as usize;
            assert_eq!(p.blocks[b], vec![v as VertexId]);
        }
    }

    #[test]
    fn deterministic() {
        let el = grid(12);
        let a = BlockPartition::build(&el, 4, &VoronoiConfig::default());
        let b = BlockPartition::build(&el, 4, &VoronoiConfig::default());
        assert_eq!(a.block_of, b.block_of);
    }

    #[test]
    fn aggregate_items_equal_vertex_count() {
        let el = grid(10);
        let p = BlockPartition::build(&el, 2, &VoronoiConfig::default());
        assert_eq!(p.aggregate_items, 100);
    }
}
