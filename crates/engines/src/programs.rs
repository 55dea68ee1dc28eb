//! The four workloads as Pregel-style vertex programs (§3), shared by the
//! vertex-centric BSP systems (Giraph, Blogel-V).

use crate::bsp::{Ctx, VertexProgram};
use graphbench_algos::workload::{PageRankConfig, StopCriterion};
use graphbench_algos::UNREACHABLE;
use graphbench_graph::{CsrGraph, VertexId};

/// Synchronous PageRank (§3.1): superstep 0 scatters the initial ranks;
/// superstep `s >= 1` applies `pr = δ + (1 - δ) Σ msgs` and scatters again.
/// Stops on the tolerance aggregated at the master (via the runtime's
/// max-aggregator), or a fixed iteration count.
pub struct PageRankProgram {
    cfg: PageRankConfig,
    /// Custom initial ranks (Blogel-B seeds the vertex phase with
    /// `local_pr(v) * block_pr(b)`, §3.1.2); `None` = all ones.
    init_ranks: Option<Vec<f64>>,
}

impl PageRankProgram {
    pub fn new(cfg: PageRankConfig) -> Self {
        PageRankProgram { cfg, init_ranks: None }
    }

    /// Start from the given per-vertex ranks instead of 1.0.
    pub fn with_init(cfg: PageRankConfig, init_ranks: Vec<f64>) -> Self {
        PageRankProgram { cfg, init_ranks: Some(init_ranks) }
    }

    pub(crate) fn damping(&self) -> f64 {
        self.cfg.damping
    }
}

impl VertexProgram for PageRankProgram {
    type Value = f64;
    type Msg = f64;

    fn init(&mut self, v: VertexId, _g: &CsrGraph) -> (f64, bool) {
        let r = self.init_ranks.as_ref().map_or(1.0, |ranks| ranks[v as usize]);
        (r, true)
    }

    fn compute(
        &self,
        ctx: &mut Ctx<'_, f64>,
        g: &CsrGraph,
        v: VertexId,
        value: &mut f64,
        msgs: &[f64],
    ) -> bool {
        if ctx.superstep > 0 {
            let sum: f64 = msgs.iter().sum();
            let new = self.cfg.damping + (1.0 - self.cfg.damping) * sum;
            ctx.aggregate_max((new - *value).abs());
            *value = new;
        }
        let deg = g.out_degree(v);
        if deg > 0 {
            ctx.send_to_out_neighbors(*value / deg as f64);
        }
        true // all vertices participate until the aggregator stops the run
    }

    fn combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    /// `-0.0`, not `0.0`: `-0.0 + x == x` for every `x`, `0.0 + -0.0 == 0.0`.
    fn identity(&self) -> f64 {
        -0.0
    }

    fn finished(&mut self, superstep: u64, max_aggregate: f64) -> bool {
        match self.cfg.stop {
            // Superstep 0 performs no update; deltas exist from superstep 1.
            StopCriterion::Tolerance(tol) => superstep >= 1 && max_aggregate < tol,
            StopCriterion::Iterations(k) => superstep >= k as u64,
        }
    }

    fn wire_bytes(&self) -> u64 {
        8
    }
}

/// Per-vertex WCC state: the current component label plus the reverse edges
/// discovered in superstep 0 (the Giraph/Blogel materialization, charged via
/// [`Ctx::alloc`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WccState {
    pub label: VertexId,
    pub in_nbrs: Vec<VertexId>,
}

/// HashMin WCC with in-neighbour discovery (§3.2, §5.8): superstep 0 sends
/// vertex ids along out-edges so receivers can create reverse edges (these
/// messages must not be combined); afterwards the minimum label propagates
/// over the now-undirected adjacency.
///
/// Giraph, Blogel-V and Gelly run this program on the label path
/// (`bsp::run_bsp_wcc`), which files no message; this program on
/// [`crate::bsp::run_bsp`] is the label path's reference.
pub struct WccProgram {
    /// Bytes charged per stored reverse edge.
    bytes_per_edge: u64,
}

impl WccProgram {
    pub fn new(bytes_per_edge: u64) -> Self {
        WccProgram { bytes_per_edge }
    }
}

impl VertexProgram for WccProgram {
    type Value = WccState;
    type Msg = VertexId;

    fn init(&mut self, v: VertexId, _g: &CsrGraph) -> (WccState, bool) {
        (WccState { label: v, in_nbrs: Vec::new() }, true)
    }

    fn compute(
        &self,
        ctx: &mut Ctx<'_, VertexId>,
        g: &CsrGraph,
        v: VertexId,
        value: &mut WccState,
        msgs: &[VertexId],
    ) -> bool {
        match ctx.superstep {
            0 => {
                // Discovery: advertise our id along out-edges.
                for &t in g.out_neighbors(v) {
                    if t != v {
                        ctx.send(t, v);
                    }
                }
                true // must run in superstep 1 to process discoveries
            }
            1 => {
                // Store reverse edges and start HashMin.
                for &u in msgs {
                    value.in_nbrs.push(u);
                    ctx.alloc(self.bytes_per_edge);
                }
                let mut label = value.label;
                for &u in msgs {
                    label = label.min(u);
                }
                value.label = label;
                ctx.send_to_out_neighbors(label);
                for i in 0..value.in_nbrs.len() {
                    let t = value.in_nbrs[i];
                    ctx.send(t, label);
                }
                false
            }
            _ => {
                let m = msgs.iter().copied().min().unwrap_or(value.label);
                if m < value.label {
                    value.label = m;
                    ctx.send_to_out_neighbors(m);
                    for i in 0..value.in_nbrs.len() {
                        let t = value.in_nbrs[i];
                        ctx.send(t, m);
                    }
                }
                false
            }
        }
    }

    fn combine(&self, a: VertexId, b: VertexId) -> VertexId {
        a.min(b)
    }

    fn identity(&self) -> VertexId {
        VertexId::MAX
    }

    fn combinable(&self, superstep: u64) -> bool {
        // Discovery messages are identities, not labels (§5.8).
        superstep != 0
    }

    fn wire_bytes(&self) -> u64 {
        4
    }
}

/// Extract the component labels from a WCC run's final states.
pub fn wcc_labels(states: Vec<WccState>) -> Vec<VertexId> {
    states.into_iter().map(|s| s.label).collect()
}

/// BFS SSSP over directed out-edges (§3.3), unit weights.
pub struct SsspProgram {
    source: VertexId,
}

impl SsspProgram {
    pub fn new(source: VertexId) -> Self {
        SsspProgram { source }
    }
}

impl VertexProgram for SsspProgram {
    type Value = u32;
    type Msg = u32;

    fn init(&mut self, v: VertexId, _g: &CsrGraph) -> (u32, bool) {
        if v == self.source {
            (0, true)
        } else {
            (UNREACHABLE, false)
        }
    }

    fn compute(
        &self,
        ctx: &mut Ctx<'_, u32>,
        _g: &CsrGraph,
        v: VertexId,
        value: &mut u32,
        msgs: &[u32],
    ) -> bool {
        let best = msgs.iter().copied().min().unwrap_or(*value).min(*value);
        if best < *value || (ctx.superstep == 0 && v == self.source) {
            *value = best;
            ctx.send_to_out_neighbors(best + 1);
        }
        false
    }

    fn combine(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn identity(&self) -> u32 {
        u32::MAX
    }

    fn wire_bytes(&self) -> u64 {
        4
    }
}

/// K-hop (§3.3): BFS truncated at `k` hops; frontier vertices at depth `k`
/// do not expand further, so the run ends after `k + 1` supersteps at most.
pub struct KHopProgram {
    source: VertexId,
    k: u32,
}

impl KHopProgram {
    pub fn new(source: VertexId, k: u32) -> Self {
        KHopProgram { source, k }
    }
}

impl VertexProgram for KHopProgram {
    type Value = u32;
    type Msg = u32;

    fn init(&mut self, v: VertexId, _g: &CsrGraph) -> (u32, bool) {
        if v == self.source {
            (0, true)
        } else {
            (UNREACHABLE, false)
        }
    }

    fn compute(
        &self,
        ctx: &mut Ctx<'_, u32>,
        _g: &CsrGraph,
        v: VertexId,
        value: &mut u32,
        msgs: &[u32],
    ) -> bool {
        let best = msgs.iter().copied().min().unwrap_or(*value).min(*value);
        if best < *value || (ctx.superstep == 0 && v == self.source) {
            *value = best;
            if best < self.k {
                ctx.send_to_out_neighbors(best + 1);
            }
        }
        false
    }

    fn combine(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn identity(&self) -> u32 {
        u32::MAX
    }

    fn wire_bytes(&self) -> u64 {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::{run_bsp, BspConfig};
    use graphbench_algos::reference;
    use graphbench_graph::builder::csr_from_pairs;
    use graphbench_graph::rng::for_each_seed;
    use graphbench_partition::EdgeCutPartition;
    use graphbench_sim::{Cluster, ClusterSpec, CostProfile};

    fn exec<P: VertexProgram>(g: &CsrGraph, prog: &mut P, machines: usize) -> (Vec<P::Value>, u64) {
        let part = EdgeCutPartition::random(g.num_vertices() as u64, machines, 1);
        let mut cluster =
            Cluster::new(ClusterSpec::r3_xlarge(machines, 1 << 30), CostProfile::cpp_mpi());
        let out = run_bsp(&mut cluster, g, &part, prog, &BspConfig::default()).unwrap();
        (out.states, out.supersteps)
    }

    fn test_graph() -> CsrGraph {
        csr_from_pairs(&[
            (0, 1),
            (1, 2),
            (2, 0),
            (0, 2),
            (3, 2),
            (4, 3),
            (5, 6),
            (6, 5),
            (7, 7), // self edge
        ])
    }

    #[test]
    fn pagerank_matches_reference() {
        let g = test_graph();
        let cfg = PageRankConfig {
            stop: StopCriterion::Tolerance(1e-8),
            ..PageRankConfig::paper_exact()
        };
        let (ranks, _) = exec(&g, &mut PageRankProgram::new(cfg), 3);
        let (want, _) = reference::pagerank(&g, &cfg);
        for (a, b) in ranks.iter().zip(&want) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn pagerank_fixed_iterations_match_reference() {
        let g = test_graph();
        let cfg = PageRankConfig::fixed(5);
        let (ranks, supersteps) = exec(&g, &mut PageRankProgram::new(cfg), 2);
        // Superstep 0 only scatters; 5 update supersteps follow.
        assert_eq!(supersteps, 6);
        let (want, iters) = reference::pagerank(&g, &cfg);
        assert_eq!(iters, 5);
        for (a, b) in ranks.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn wcc_matches_reference_with_direction_blindness() {
        let g = test_graph();
        let mut prog = WccProgram::new(8);
        let (states, _) = exec(&g, &mut prog, 3);
        let labels: Vec<VertexId> = states.iter().map(|s| s.label).collect();
        assert_eq!(labels, reference::wcc(&g));
        // Reverse edges were discovered: vertex 2 has in-neighbours 1, 0, 3.
        let mut nbrs = states[2].in_nbrs.clone();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![0, 1, 3]);
    }

    #[test]
    fn wcc_chain_needs_diameter_supersteps() {
        // Directed path 4 -> 3 -> 2 -> 1 -> 0: label 0 must flow backwards
        // over discovered reverse edges.
        let g = csr_from_pairs(&[(4, 3), (3, 2), (2, 1), (1, 0)]);
        let mut prog = WccProgram::new(8);
        let (states, supersteps) = exec(&g, &mut prog, 2);
        assert_eq!(wcc_labels(states), vec![0, 0, 0, 0, 0]);
        assert!(supersteps >= 5, "supersteps {supersteps}");
    }

    #[test]
    fn sssp_matches_reference() {
        let g = test_graph();
        let (dist, _) = exec(&g, &mut SsspProgram::new(0), 3);
        assert_eq!(dist, reference::sssp(&g, 0));
    }

    #[test]
    fn sssp_unreachable_stays_unreachable() {
        let g = csr_from_pairs(&[(0, 1), (2, 3)]);
        let (dist, _) = exec(&g, &mut SsspProgram::new(0), 2);
        assert_eq!(dist, vec![0, 1, UNREACHABLE, UNREACHABLE]);
    }

    #[test]
    fn khop_matches_reference_and_bounds_supersteps() {
        let pairs: Vec<(u32, u32)> = (0..20).map(|i| (i, i + 1)).collect();
        let g = csr_from_pairs(&pairs);
        let (dist, supersteps) = exec(&g, &mut KHopProgram::new(0, 3), 2);
        assert_eq!(dist, reference::khop(&g, 0, 3));
        assert!(supersteps <= 5, "supersteps {supersteps}");
    }

    /// `combine(identity(), m) == m`, bit for bit, for every workload
    /// program: over ±0.0, subnormals, `f64::MAX` and seeded non-NaN bit
    /// patterns for PageRank; over `0`, `u32::MAX - 1` and seeded ids for
    /// the `min` programs.
    #[test]
    fn every_program_folds_from_an_identity() {
        let pr = PageRankProgram::new(PageRankConfig::fixed(1));
        let (wcc, sssp, khop) = (WccProgram::new(8), SsspProgram::new(0), KHopProgram::new(0, 3));
        for_each_seed(256, |_, rng| {
            let bits = f64::from_bits(rng.next_u64());
            let random = if bits.is_nan() { rng.f64() } else { bits };
            let tiny = f64::from_bits(1 + rng.below(1 << 20) as u64); // subnormal
            for m in [0.0, -0.0, tiny, -tiny, f64::MIN_POSITIVE / 2.0, f64::MAX, -f64::MAX, random]
            {
                assert_eq!(pr.combine(pr.identity(), m).to_bits(), m.to_bits(), "{m:e}");
            }
            for m in [0, u32::MAX - 1, rng.below_u32(u32::MAX)] {
                assert_eq!(wcc.combine(wcc.identity(), m), m);
                assert_eq!(sssp.combine(sssp.identity(), m), m);
                assert_eq!(khop.combine(khop.identity(), m), m);
            }
        });
    }

    /// Why PageRank folds from `-0.0`: `+0.0 + -0.0` is `+0.0`, so a sum
    /// seeded with `+0.0` would turn a lone `-0.0` message into `+0.0`.
    #[test]
    fn plus_zero_is_not_the_pagerank_identity() {
        let pr = PageRankProgram::new(PageRankConfig::fixed(1));
        assert_ne!(pr.combine(0.0, -0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(pr.identity().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn results_stable_across_machine_counts() {
        let g = test_graph();
        for machines in [1, 2, 5] {
            let (states, _) = exec(&g, &mut WccProgram::new(8), machines);
            assert_eq!(wcc_labels(states), reference::wcc(&g), "machines {machines}");
            let (dist, _) = exec(&g, &mut SsspProgram::new(0), machines);
            assert_eq!(dist, reference::sssp(&g, 0), "machines {machines}");
        }
    }
}
