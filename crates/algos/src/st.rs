//! Optimized single-thread baselines for the COST experiment (§5.13).
//!
//! Stand-ins for the GAP Benchmark Suite kernels the paper used on a
//! 512 GB machine: pull-based PageRank, direction-optimizing BFS for SSSP
//! (Beamer et al.), and Shiloach–Vishkin WCC. Each kernel returns its result
//! together with an elementary-operation count, which the single-thread
//! "engine" prices through the simulator so the COST factor can be computed
//! against the parallel systems.
//!
//! The paper stresses that these baselines use *better algorithms* than the
//! parallel systems — that, plus no replication and no network, is why 16
//! machines can lose to one thread (Table 9).

use crate::workload::{PageRankConfig, StopCriterion};
use crate::UNREACHABLE;
use graphbench_graph::{CsrGraph, VertexId};

/// A kernel result with its operation count.
#[derive(Debug, Clone, PartialEq)]
pub struct Counted<T> {
    pub value: T,
    /// Elementary operations performed (edge traversals + vertex updates).
    pub ops: u64,
    /// Iterations / passes over the graph.
    pub iterations: u32,
}

/// Pull-based PageRank over the in-edge index: each vertex gathers its
/// in-neighbours' contributions, which is cache-friendlier than push-based
/// scatter and needs no per-edge atomic state.
pub fn pagerank(g: &CsrGraph, cfg: &PageRankConfig) -> Counted<Vec<f64>> {
    let n = g.num_vertices();
    let ins = g.in_index();
    let mut ranks = vec![1.0f64; n];
    let mut contrib = vec![0.0f64; n];
    let mut ops = 0u64;
    let mut iterations = 0u32;
    let max_iters = match cfg.stop {
        StopCriterion::Iterations(k) => k,
        StopCriterion::Tolerance(_) => u32::MAX,
    };
    while iterations < max_iters {
        for v in 0..n as VertexId {
            let deg = g.out_degree(v);
            contrib[v as usize] = if deg == 0 { 0.0 } else { ranks[v as usize] / deg as f64 };
        }
        ops += n as u64;
        let mut max_delta = 0.0f64;
        for (v, rank) in ranks.iter_mut().enumerate() {
            let mut sum = 0.0f64;
            for &u in ins.neighbors(v as VertexId) {
                sum += contrib[u as usize];
            }
            ops += ins.degree(v as VertexId) + 1;
            let new = cfg.damping + (1.0 - cfg.damping) * sum;
            max_delta = max_delta.max((new - *rank).abs());
            *rank = new;
        }
        iterations += 1;
        if let StopCriterion::Tolerance(tol) = cfg.stop {
            if max_delta < tol {
                break;
            }
        }
    }
    Counted { value: ranks, ops, iterations }
}

/// Direction-optimizing BFS (top-down / bottom-up switching) for unit-weight
/// SSSP. The bottom-up passes read the in-edge index. The degree
/// precomputation of the paper's reference implementation corresponds to the
/// CSR offsets being available up front.
pub fn sssp(g: &CsrGraph, source: VertexId) -> Counted<Vec<u32>> {
    let n = g.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    let mut ops = 0u64;
    if n == 0 {
        return Counted { value: dist, ops, iterations: 0 };
    }
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut depth = 0u32;
    // Heuristic from Beamer et al.: go bottom-up when the frontier's edge
    // work exceeds a fraction of the remaining edges.
    let total_edges = g.num_edges();
    while !frontier.is_empty() {
        let frontier_edges: u64 = frontier.iter().map(|&v| g.out_degree(v)).sum();
        let bottom_up = frontier_edges * 10 > total_edges;
        let mut next = Vec::new();
        if bottom_up {
            // Every unvisited vertex scans its in-neighbours for a parent.
            let ins = g.in_index();
            for v in 0..n as VertexId {
                if dist[v as usize] != UNREACHABLE {
                    continue;
                }
                for &u in ins.neighbors(v) {
                    ops += 1;
                    if dist[u as usize] == depth {
                        dist[v as usize] = depth + 1;
                        next.push(v);
                        break; // early exit: the signature bottom-up saving
                    }
                }
            }
        } else {
            for &v in &frontier {
                for &t in g.out_neighbors(v) {
                    ops += 1;
                    if dist[t as usize] == UNREACHABLE {
                        dist[t as usize] = depth + 1;
                        next.push(t);
                    }
                }
            }
        }
        frontier = next;
        depth += 1;
    }
    Counted { value: dist, ops, iterations: depth }
}

/// Shiloach–Vishkin WCC: repeated hooking of trees onto smaller labels plus
///
/// ```
/// use graphbench_algos::st;
/// use graphbench_graph::builder::csr_from_pairs;
///
/// let g = csr_from_pairs(&[(1, 0), (2, 1), (4, 3)]);
/// let out = st::wcc(&g);
/// assert_eq!(out.value, vec![0, 0, 0, 3, 3]);
/// assert!(out.ops > 0);
/// ```
///
/// pointer-jumping (path compression) until no label changes. Converges in
/// O(log n) passes over the edges regardless of diameter — the algorithmic
/// edge over HashMin that the paper credits for the single thread's WCC wins
/// on the road network.
pub fn wcc(g: &CsrGraph) -> Counted<Vec<VertexId>> {
    let n = g.num_vertices();
    let mut label: Vec<VertexId> = (0..n as VertexId).collect();
    let mut ops = 0u64;
    let mut passes = 0u32;
    loop {
        let mut changed = false;
        // Hooking: for every edge, point the larger root at the smaller.
        for (s, d) in g.edges() {
            ops += 1;
            let (ls, ld) = (label[s as usize], label[d as usize]);
            if ls < ld && ld == label[ld as usize] {
                label[ld as usize] = ls;
                changed = true;
            } else if ld < ls && ls == label[ls as usize] {
                label[ls as usize] = ld;
                changed = true;
            }
        }
        // Pointer jumping: flatten trees.
        for v in 0..n {
            while label[v] != label[label[v] as usize] {
                label[v] = label[label[v] as usize];
                ops += 1;
            }
            ops += 1;
        }
        passes += 1;
        if !changed {
            break;
        }
    }
    Counted { value: label, ops, iterations: passes }
}

/// Bounded BFS for K-hop; plain top-down is optimal because the frontier
/// never grows beyond a small neighbourhood.
pub fn khop(g: &CsrGraph, source: VertexId, k: u32) -> Counted<Vec<u32>> {
    let n = g.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    let mut ops = 0u64;
    if n == 0 {
        return Counted { value: dist, ops, iterations: 0 };
    }
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut depth = 0u32;
    while !frontier.is_empty() && depth < k {
        let mut next = Vec::new();
        for &v in &frontier {
            for &t in g.out_neighbors(v) {
                ops += 1;
                if dist[t as usize] == UNREACHABLE {
                    dist[t as usize] = depth + 1;
                    next.push(t);
                }
            }
        }
        frontier = next;
        depth += 1;
    }
    Counted { value: dist, ops, iterations: depth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use graphbench_graph::builder::csr_from_pairs;

    fn with_in_edges(pairs: &[(VertexId, VertexId)]) -> CsrGraph {
        let mut g = csr_from_pairs(pairs);
        g.build_in_edges();
        g
    }

    #[test]
    fn pagerank_matches_reference() {
        let g = with_in_edges(&[(0, 1), (1, 2), (2, 0), (0, 2), (3, 0), (2, 3)]);
        let cfg = PageRankConfig {
            stop: StopCriterion::Tolerance(1e-8),
            ..PageRankConfig::paper_exact()
        };
        let fast = pagerank(&g, &cfg);
        let (slow, _) = reference::pagerank(&g, &cfg);
        for (a, b) in fast.value.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert!(fast.ops > 0);
    }

    #[test]
    fn sssp_matches_reference_on_dense_core() {
        // Star-plus-path forces both a big frontier (bottom-up trigger) and
        // deep levels.
        let mut pairs: Vec<(u32, u32)> = (1..50).map(|i| (0, i)).collect();
        pairs.extend((1..49).map(|i| (i, i + 1)));
        pairs.push((50, 51));
        let g = with_in_edges(&pairs);
        let fast = sssp(&g, 0);
        assert_eq!(fast.value, reference::sssp(&g, 0));
        assert_eq!(fast.value[51], UNREACHABLE);
    }

    #[test]
    fn sssp_on_long_path() {
        let pairs: Vec<(u32, u32)> = (0..200).map(|i| (i, i + 1)).collect();
        let g = with_in_edges(&pairs);
        let fast = sssp(&g, 0);
        assert_eq!(fast.value, reference::sssp(&g, 0));
        assert_eq!(fast.iterations, 201);
    }

    #[test]
    fn wcc_matches_reference() {
        let g = with_in_edges(&[(1, 0), (1, 2), (4, 3), (5, 4), (7, 7)]);
        let fast = wcc(&g);
        assert_eq!(fast.value, reference::wcc(&g));
    }

    #[test]
    fn wcc_passes_beat_diameter_on_paths() {
        // A 500-vertex path has diameter 500 but SV converges in O(log n)
        // passes.
        let pairs: Vec<(u32, u32)> = (0..500).map(|i| (i, i + 1)).collect();
        let g = with_in_edges(&pairs);
        let fast = wcc(&g);
        assert_eq!(fast.value, reference::wcc(&g));
        assert!(fast.iterations < 30, "passes {}", fast.iterations);
    }

    #[test]
    fn khop_matches_reference() {
        let g = with_in_edges(&[(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]);
        let fast = khop(&g, 0, 3);
        assert_eq!(fast.value, reference::khop(&g, 0, 3));
        assert_eq!(fast.iterations, 3);
    }
}
