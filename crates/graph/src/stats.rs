//! Dataset statistics used to validate generated graphs against the paper's
//! Table 3 (|E|, average/maximum degree, diameter) and to reason about
//! workload behaviour (diameter drives the superstep count of SSSP/WCC).

use crate::{CsrBuilder, CsrGraph, VertexId};

/// Summary statistics of a directed graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    pub num_vertices: u64,
    pub num_edges: u64,
    pub avg_out_degree: f64,
    pub max_out_degree: u64,
    pub self_edges: u64,
    /// Number of weakly connected components.
    pub components: u64,
    /// Fraction of vertices in the largest weakly connected component.
    pub giant_component_fraction: f64,
    /// Exact undirected diameter of the largest component when the graph is
    /// small, otherwise a double-sweep lower bound. See [`pseudo_diameter`].
    pub diameter: u64,
}

/// Compute all statistics. Cost: one transposition of the graph (O(V + E)),
/// one sweep per component (O(V + E) together) and the two sweeps of
/// [`pseudo_diameter`] over the giant component; each sweep also sorts the
/// vertices it discovers, in runs of one parent's new neighbours.
pub fn compute_stats(g: &CsrGraph) -> GraphStats {
    let n = g.num_vertices();
    let mut max_deg = 0u64;
    let mut self_edges = 0u64;
    for v in 0..n as VertexId {
        let d = g.out_degree(v);
        max_deg = max_deg.max(d);
        self_edges += g.out_neighbors(v).iter().filter(|&&t| t == v).count() as u64;
    }
    let mut bfs = Bfs::new(g);
    let (components, giant_fraction, giant_seed) = component_stats(&mut bfs);
    let diameter = if n == 0 { 0 } else { pseudo_diameter_from(&mut bfs, giant_seed) };
    GraphStats {
        num_vertices: n as u64,
        num_edges: g.num_edges(),
        avg_out_degree: if n == 0 { 0.0 } else { g.num_edges() as f64 / n as f64 },
        max_out_degree: max_deg,
        self_edges,
        components,
        giant_component_fraction: giant_fraction,
        diameter,
    }
}

const UNSEEN: u32 = u32::MAX;

/// Breadth-first sweeps over `g` read as an undirected simple graph, without
/// building that graph: a vertex's neighbours are its out-neighbours in `g`
/// plus its out-neighbours in the transpose of `g`.
///
/// The visiting order is part of the output ([`bfs_farthest`] returns the
/// first vertex met at the greatest distance, and the second sweep of
/// [`pseudo_diameter`] starts there) and is defined as that of a BFS over
/// sorted, deduplicated neighbour lists. [`Bfs::sweep`] reproduces it
/// from the two unsorted, duplicate-carrying CSR rows: a neighbour is marked
/// the first time it is seen, so duplicates and self-edges queue nothing,
/// and the vertices one parent queued are sorted before the next parent is
/// dequeued — the unseen members of a sorted list, in list order.
struct Bfs<'a> {
    g: &'a CsrGraph,
    /// `transposed.out_neighbors(v)` are the in-neighbours of `v` in `g`.
    transposed: CsrGraph,
    /// Hops from the start of the sweep that reached the vertex, `UNSEEN`
    /// for vertices no sweep since the last [`Bfs::forget`] reached.
    dist: Vec<u32>,
    /// The current sweep's vertices in visiting order.
    queue: Vec<VertexId>,
}

impl<'a> Bfs<'a> {
    fn new(g: &'a CsrGraph) -> Self {
        let n = g.num_vertices();
        let (_, targets) = g.out_parts();
        let mut b = CsrBuilder::new(n as u64);
        for &t in targets {
            b.count(t);
        }
        b.seal();
        for v in 0..n as VertexId {
            for &t in g.out_neighbors(v) {
                b.fill(t, v);
            }
        }
        Bfs { g, transposed: b.finish(), dist: vec![UNSEEN; n], queue: Vec::new() }
    }

    /// Marks every vertex unseen again.
    fn forget(&mut self) {
        self.dist.fill(UNSEEN);
    }

    /// Visits every vertex reachable from `start` through unseen vertices,
    /// handing each to `visit` with its hop count, in visiting order.
    /// `start` must be unseen.
    fn sweep(&mut self, start: VertexId, mut visit: impl FnMut(VertexId, u32)) {
        debug_assert_eq!(self.dist[start as usize], UNSEEN);
        self.queue.clear();
        self.dist[start as usize] = 0;
        self.queue.push(start);
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            let d = self.dist[v as usize];
            visit(v, d);
            let queued = self.queue.len();
            for row in [self.g.out_neighbors(v), self.transposed.out_neighbors(v)] {
                for &t in row {
                    if self.dist[t as usize] == UNSEEN {
                        self.dist[t as usize] = d + 1;
                        self.queue.push(t);
                    }
                }
            }
            self.queue[queued..].sort_unstable();
        }
    }
}

/// (component count, giant fraction, a vertex inside the giant component).
fn component_stats(bfs: &mut Bfs) -> (u64, f64, VertexId) {
    let n = bfs.dist.len();
    if n == 0 {
        return (0, 0.0, 0);
    }
    bfs.forget();
    let mut count = 0u64;
    let mut best_size = 0usize;
    let mut best_seed = 0 as VertexId;
    for start in 0..n as VertexId {
        if bfs.dist[start as usize] != UNSEEN {
            continue;
        }
        count += 1;
        let mut size = 0usize;
        bfs.sweep(start, |_, _| size += 1);
        if size > best_size {
            best_size = size;
            best_seed = start;
        }
    }
    (count, best_size as f64 / n as f64, best_seed)
}

/// Double-sweep pseudo-diameter: BFS from `seed` to find the farthest vertex
/// `u`, then BFS from `u`; the eccentricity of `u` is a lower bound on the
/// diameter that is exact on trees and very tight on road networks — the
/// graph class where diameter matters most in this study.
pub fn pseudo_diameter(g: &CsrGraph, seed: VertexId) -> u64 {
    pseudo_diameter_from(&mut Bfs::new(g), seed)
}

fn pseudo_diameter_from(bfs: &mut Bfs, seed: VertexId) -> u64 {
    let (far, _) = bfs_farthest(bfs, seed);
    let (_, dist) = bfs_farthest(bfs, far);
    dist as u64
}

/// One sweep from `start`; returns (the first vertex visited at the greatest
/// distance, that distance).
fn bfs_farthest(bfs: &mut Bfs, start: VertexId) -> (VertexId, u32) {
    bfs.forget();
    let (mut far, mut far_d) = (start, 0);
    bfs.sweep(start, |v, d| {
        if d > far_d {
            far_d = d;
            far = v;
        }
    });
    (far, far_d)
}

/// Effective diameter: the `percentile` quantile (e.g. 0.9) of pairwise
/// undirected hop distances, estimated from BFS out of `samples` seeded
/// random sources. The paper's Table 3 diameters for the power-law graphs
/// (5.29, 22.78, 15.7) are effective diameters of this kind — fractional
/// values come from interpolating between hop counts.
pub fn effective_diameter(g: &CsrGraph, percentile: f64, samples: usize, seed: u64) -> f64 {
    assert!((0.0..=1.0).contains(&percentile));
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut bfs = Bfs::new(g);
    // Histogram of distances over all sampled source-target pairs; the
    // source itself (distance 0) is not a pair.
    let mut histogram: Vec<u64> = Vec::new();
    for src in sampled_sources(n, samples, seed) {
        bfs.forget();
        bfs.sweep(src, |_, d| {
            if d > 0 {
                if histogram.len() <= d as usize {
                    histogram.resize(d as usize + 1, 0);
                }
                histogram[d as usize] += 1;
            }
        });
    }
    histogram_quantile(&histogram, percentile)
}

/// `samples` (at least one) seeded random vertices of `0..n`.
fn sampled_sources(n: usize, samples: usize, seed: u64) -> impl Iterator<Item = VertexId> {
    // Deterministic xorshift so this crate stays dependency-free.
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..samples.max(1)).map(move |_| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as VertexId
    })
}

/// The `percentile` quantile of a hop-count histogram (`histogram[d]` pairs
/// at distance `d`), interpolated within the hop bucket it falls in.
fn histogram_quantile(histogram: &[u64], percentile: f64) -> f64 {
    let total: u64 = histogram.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = percentile * total as f64;
    let mut acc = 0u64;
    for (d, &count) in histogram.iter().enumerate() {
        let prev = acc as f64;
        acc += count;
        if acc as f64 >= target {
            let frac = if count == 0 { 0.0 } else { (target - prev) / count as f64 };
            return (d as f64 - 1.0 + frac).max(0.0);
        }
    }
    (histogram.len() - 1) as f64
}

/// Out-degree histogram on a log2 scale: `bucket[i]` counts vertices with
/// out-degree in `[2^i, 2^(i+1))`; `bucket[0]` additionally counts degree 0
/// and 1 separately packed as the first two entries of the returned pair.
///
/// Used by tests to assert that generated "social network" datasets are
/// heavy-tailed while road networks are not.
pub fn degree_histogram_log2(g: &CsrGraph) -> Vec<u64> {
    let mut buckets = vec![0u64; 34];
    for v in 0..g.num_vertices() as VertexId {
        let d = g.out_degree(v);
        let b = if d == 0 { 0 } else { 64 - (d.leading_zeros() as usize) };
        buckets[b.min(33)] += 1;
    }
    while buckets.last() == Some(&0) && buckets.len() > 1 {
        buckets.pop();
    }
    buckets
}

/// What the sweeps replaced, kept as the reference the tests compare against:
/// one sorted, deduplicated heap list per vertex and a `VecDeque` BFS per
/// caller.
#[cfg(test)]
mod oracle {
    use crate::{CsrGraph, VertexId};
    use std::collections::VecDeque;

    pub fn undirected_adjacency(g: &CsrGraph) -> Vec<Vec<VertexId>> {
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); g.num_vertices()];
        for (s, d) in g.edges() {
            if s != d {
                adj[s as usize].push(d);
                adj[d as usize].push(s);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        adj
    }

    /// BFS from `start` over the vertices `dist` leaves at `u64::MAX`;
    /// returns them in visiting order.
    fn bfs(adj: &[Vec<VertexId>], dist: &mut [u64], start: VertexId) -> Vec<VertexId> {
        let mut order = Vec::new();
        let mut queue = VecDeque::from([start]);
        dist[start as usize] = 0;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &t in &adj[v as usize] {
                if dist[t as usize] == u64::MAX {
                    dist[t as usize] = dist[v as usize] + 1;
                    queue.push_back(t);
                }
            }
        }
        order
    }

    pub fn component_stats(adj: &[Vec<VertexId>]) -> (u64, f64, VertexId) {
        let n = adj.len();
        if n == 0 {
            return (0, 0.0, 0);
        }
        let mut dist = vec![u64::MAX; n];
        let (mut count, mut best_size, mut best_seed) = (0u64, 0usize, 0 as VertexId);
        for start in 0..n as VertexId {
            if dist[start as usize] != u64::MAX {
                continue;
            }
            count += 1;
            let size = bfs(adj, &mut dist, start).len();
            if size > best_size {
                best_size = size;
                best_seed = start;
            }
        }
        (count, best_size as f64 / n as f64, best_seed)
    }

    pub fn bfs_farthest(adj: &[Vec<VertexId>], start: VertexId) -> (VertexId, u64) {
        let mut dist = vec![u64::MAX; adj.len()];
        let (mut far, mut far_d) = (start, 0u64);
        for v in bfs(adj, &mut dist, start) {
            if dist[v as usize] > far_d {
                far_d = dist[v as usize];
                far = v;
            }
        }
        (far, far_d)
    }

    pub fn pseudo_diameter(adj: &[Vec<VertexId>], seed: VertexId) -> u64 {
        let (far, _) = bfs_farthest(adj, seed);
        bfs_farthest(adj, far).1
    }

    /// Hop-count histogram over the pairs (source, vertex it reaches).
    pub fn distance_histogram(
        adj: &[Vec<VertexId>],
        sources: impl Iterator<Item = VertexId>,
    ) -> Vec<u64> {
        let mut histogram: Vec<u64> = Vec::new();
        for src in sources {
            let mut dist = vec![u64::MAX; adj.len()];
            for &v in &bfs(adj, &mut dist, src)[1..] {
                let d = dist[v as usize] as usize;
                if histogram.len() <= d {
                    histogram.resize(d + 1, 0);
                }
                histogram[d] += 1;
            }
        }
        histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::csr_from_pairs;
    use crate::EdgeList;

    /// A seeded multigraph with everything the sweeps have to get right:
    /// self-edges, duplicate and antiparallel edges, isolated vertices (ids
    /// the edges never name, the last ones included) and several components
    /// (edges stay inside one of `parts` residue classes).
    fn random_multigraph(seed: u64) -> CsrGraph {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) % bound
        };
        let n = 2 + next(60);
        let parts = 1 + next(4);
        let mut el = EdgeList::new(n + next(4));
        for _ in 0..next(4 * n) {
            let s = next(n);
            let d = match next(10) {
                0 => s,
                _ => (s % parts + parts * next(n.div_ceil(parts))).min(n - 1),
            };
            for _ in 0..1 + next(3) / 2 {
                el.push(s as VertexId, d as VertexId);
            }
            if next(5) == 0 {
                el.push(d as VertexId, s as VertexId);
            }
        }
        CsrGraph::from_edge_list(&el)
    }

    #[test]
    fn sweeps_match_the_sorted_list_bfs() {
        let (mut multi_component, mut with_self_edges, mut with_isolated) = (0, 0, 0);
        for seed in 0..300u64 {
            let g = random_multigraph(seed);
            let adj = oracle::undirected_adjacency(&g);
            let mut bfs = Bfs::new(&g);
            assert_eq!(component_stats(&mut bfs), oracle::component_stats(&adj), "seed {seed}");
            for v in 0..g.num_vertices() as VertexId {
                let (far, d) = bfs_farthest(&mut bfs, v);
                assert_eq!(
                    (far, d as u64),
                    oracle::bfs_farthest(&adj, v),
                    "seed {seed}, start {v}"
                );
                assert_eq!(pseudo_diameter(&g, v), oracle::pseudo_diameter(&adj, v));
            }
            let s = compute_stats(&g);
            let (components, giant, giant_seed) = oracle::component_stats(&adj);
            assert_eq!(s.components, components);
            assert_eq!(s.giant_component_fraction.to_bits(), giant.to_bits());
            assert_eq!(s.diameter, oracle::pseudo_diameter(&adj, giant_seed), "seed {seed}");
            for (percentile, samples) in [(0.9, 4), (0.5, 1), (1.0, 7), (0.0, 2)] {
                let sources = sampled_sources(g.num_vertices(), samples, seed);
                let histogram = oracle::distance_histogram(&adj, sources);
                assert_eq!(
                    effective_diameter(&g, percentile, samples, seed).to_bits(),
                    histogram_quantile(&histogram, percentile).to_bits(),
                    "seed {seed}, percentile {percentile}, {samples} samples"
                );
            }
            multi_component += (components > 1) as u32;
            with_self_edges += (s.self_edges > 0) as u32;
            with_isolated += adj.iter().any(Vec::is_empty) as u32;
        }
        // The generator has to produce the shapes the comparison is for.
        assert!(multi_component > 50 && with_self_edges > 50 && with_isolated > 50);
    }

    #[test]
    fn path_graph_stats() {
        // 0 - 1 - 2 - 3 as a directed path.
        let g = csr_from_pairs(&[(0, 1), (1, 2), (2, 3)]);
        let s = compute_stats(&g);
        assert_eq!(s.num_vertices, 4);
        assert_eq!(s.num_edges, 3);
        assert_eq!(s.components, 1);
        assert_eq!(s.diameter, 3);
        assert_eq!(s.max_out_degree, 1);
        assert!((s.giant_component_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_components() {
        let g = csr_from_pairs(&[(0, 1), (2, 3)]);
        let s = compute_stats(&g);
        assert_eq!(s.components, 2);
        assert!((s.giant_component_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn self_edges_counted_but_do_not_connect() {
        let g = csr_from_pairs(&[(0, 0), (1, 2)]);
        let s = compute_stats(&g);
        assert_eq!(s.self_edges, 1);
        assert_eq!(s.components, 2);
    }

    #[test]
    fn star_graph_diameter_two() {
        let g = csr_from_pairs(&[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let s = compute_stats(&g);
        assert_eq!(s.diameter, 2);
        assert_eq!(s.max_out_degree, 4);
    }

    #[test]
    fn cycle_pseudo_diameter_lower_bound() {
        // 6-cycle: true diameter 3; double sweep finds >= 3.
        let g = csr_from_pairs(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert!(pseudo_diameter(&g, 0) >= 3);
    }

    #[test]
    fn histogram_buckets() {
        // degrees: v0=4, v1=1, v2=0, v3=0
        let g = csr_from_pairs(&[(0, 1), (0, 2), (0, 3), (0, 1), (1, 0)]);
        let h = degree_histogram_log2(&g);
        // bucket 0: degree 0 -> two vertices (2 and 3)
        assert_eq!(h[0], 2);
        // degree 1 -> bucket 1, degree 4 -> bucket 3
        assert_eq!(h[1], 1);
        assert_eq!(h[3], 1);
    }

    #[test]
    fn effective_diameter_on_known_shapes() {
        // Star: all pairs within 2 hops; effective diameter in (1, 2].
        let star = csr_from_pairs(&[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let eff = effective_diameter(&star, 0.9, 8, 1);
        assert!(eff > 0.5 && eff <= 2.0, "{eff}");
        // Long path: effective diameter grows with length and stays below
        // the exact diameter.
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i, i + 1)).collect();
        let path = csr_from_pairs(&pairs);
        let eff = effective_diameter(&path, 0.9, 8, 1);
        assert!(eff > 20.0 && eff <= 100.0, "{eff}");
        // Deterministic.
        assert_eq!(eff, effective_diameter(&path, 0.9, 8, 1));
    }

    #[test]
    fn empty_graph() {
        let g = csr_from_pairs(&[]);
        let s = compute_stats(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.diameter, 0);
        assert_eq!(s.components, 0);
    }
}
