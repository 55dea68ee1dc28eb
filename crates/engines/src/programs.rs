//! PageRank's settings as the vertex-centric BSP systems (Giraph,
//! Blogel-V, Blogel-B's vertex phase, Gelly) run it (§3.1).
//!
//! PageRank is the one workload whose BSP run needs more than its
//! [`graphbench_algos::Workload`]: a damping factor, a stopping rule and,
//! for Blogel-B, seeded initial ranks. [`PageRankProgram`] carries them to
//! the rank path (`bsp::run_bsp_pagerank`). WCC, SSSP and K-hop go to the
//! label path straight from the workload.
//!
//! All four workloads also exist as Pregel-style vertex programs, in the
//! BSP test oracle (`bsp::message`). The oracle's PageRank program is this
//! type, with its stopping rule and initial ranks taken from here, so the
//! product and the oracle stop on the same superstep.

use graphbench_algos::workload::{PageRankConfig, StopCriterion};
use graphbench_graph::VertexId;

/// Synchronous PageRank (§3.1): superstep 0 scatters the initial ranks;
/// superstep `s >= 1` applies `pr = δ + (1 - δ) Σ msgs` and scatters again.
/// Stops on the tolerance aggregated at the master, or a fixed iteration
/// count.
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

    /// Vertex `v`'s rank before superstep 0.
    pub(crate) fn initial_rank(&self, v: VertexId) -> f64 {
        self.init_ranks.as_ref().map_or(1.0, |ranks| ranks[v as usize])
    }

    /// Whether the run stops after `superstep`, whose largest `|Δrank|`
    /// was `max_delta`.
    pub(crate) fn stops(&self, superstep: u64, max_delta: f64) -> bool {
        match self.cfg.stop {
            // Superstep 0 performs no update; deltas exist from superstep 1.
            StopCriterion::Tolerance(tol) => superstep >= 1 && max_delta < tol,
            StopCriterion::Iterations(k) => superstep >= k as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::message::{
        run_bsp, wcc_labels, KHopProgram, SsspProgram, VertexProgram, WccProgram,
    };
    use crate::bsp::BspConfig;
    use graphbench_algos::{reference, UNREACHABLE};
    use graphbench_graph::builder::csr_from_pairs;
    use graphbench_graph::rng::for_each_seed;
    use graphbench_graph::CsrGraph;
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
