//! The paper's experimental environment (§4) at a configurable scale.
//!
//! Everything dataset-gated or hardware-gated in the original study is
//! derived here from one `Scale`:
//!
//! * the four datasets are generated synthetically (see `graphbench-gen`);
//! * the per-machine **memory budget** scales with the data so the paper's
//!   memory-pressure ratios (30.5 GB per machine against a 12.5 GB Twitter
//!   input) — and therefore its OOM matrix — are preserved;
//! * each dataset gets a **work-scale factor** (`paper edges / generated
//!   edges`) so data-proportional simulated time lands at paper magnitude
//!   while fixed overheads stay real (see `graphbench-sim`);
//! * SSSP/K-hop **sources** are drawn once per dataset, seeded, from the
//!   giant component (§3.3 uses one fixed random vertex per dataset).

use graphbench_algos::{Workload, WorkloadKind};
use graphbench_engines::{EngineInput, ScaleInfo};
use graphbench_gen::{Dataset, DatasetKind, Scale};
use graphbench_graph::rng::Rng;
use graphbench_graph::{stats, CsrGraph, VertexId};
use graphbench_sim::ClusterSpec;
use std::collections::HashMap;
use std::sync::Arc;

/// The paper's cluster sizes (§4.1).
pub const CLUSTER_SIZES: [usize; 4] = [16, 32, 64, 128];

/// Memory budget per Twitter edge. The paper pairs a 12.5 GB Twitter `adj`
/// file (8.56 B/edge) with 30.5 GB machines, i.e. ~20.9 budget bytes per
/// Twitter edge; generated text bytes are not used directly because small
/// vertex ids would distort the ratio at reduced scale.
const BUDGET_PER_TWITTER_EDGE: f64 = 20.9;

/// Paper-scale vertex counts (Table 3 datasets).
pub fn paper_vertices(kind: DatasetKind) -> u64 {
    match kind {
        DatasetKind::Twitter => 41_600_000,
        DatasetKind::Wrn => 683_000_000,
        DatasetKind::Uk0705 => 105_000_000,
        DatasetKind::ClueWeb => 978_000_000,
    }
}

/// A generated dataset with everything an experiment needs.
pub struct PreparedDataset {
    pub dataset: Dataset,
    pub graph: CsrGraph,
    /// Fixed traversal source: a seeded random giant-component vertex with
    /// at least one out-edge.
    pub source: VertexId,
    /// Paper-scale counts for mechanistic threshold failures.
    pub scale_info: ScaleInfo,
    /// `paper_edges / generated_edges`.
    pub work_scale: f64,
    /// Pseudo-diameter of the generated graph (double-sweep BFS).
    pub diameter: u64,
}

impl PreparedDataset {
    /// The engine input for one run over this dataset, at its paper-scale
    /// counts.
    pub fn input(&self, workload: Workload, cluster: ClusterSpec, seed: u64) -> EngineInput<'_> {
        EngineInput {
            edges: &self.dataset.edges,
            graph: &self.graph,
            workload,
            cluster,
            seed,
            scale: self.scale_info,
        }
    }
}

/// The experimental environment.
pub struct PaperEnv {
    pub scale: Scale,
    pub seed: u64,
    memory_per_machine: u64,
    cache: HashMap<DatasetKind, Arc<PreparedDataset>>,
}

impl PaperEnv {
    /// Build the environment; generates the Twitter dataset once to size the
    /// memory budget.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let mut env = PaperEnv { scale, seed, memory_per_machine: 0, cache: HashMap::new() };
        let twitter = env.prepare(DatasetKind::Twitter);
        env.memory_per_machine =
            (twitter.graph.num_edges() as f64 * BUDGET_PER_TWITTER_EDGE) as u64;
        env
    }

    /// The scaled per-machine memory budget (the analogue of 30.5 GB).
    pub fn memory_per_machine(&self) -> u64 {
        self.memory_per_machine
    }

    /// Generate (or fetch the cached) dataset.
    pub fn prepare(&mut self, kind: DatasetKind) -> Arc<PreparedDataset> {
        if let Some(d) = self.cache.get(&kind) {
            return Arc::clone(d);
        }
        let dataset = Dataset::generate(kind, self.scale, self.seed);
        let graph = dataset.to_csr();
        let source = pick_source(&graph, self.seed);
        let diameter = stats::pseudo_diameter(&graph, source).max(1);
        let (paper_edges, _, _, _) = kind.paper_stats();
        let actual_edges = graph.num_edges().max(1);
        let prepared = Arc::new(PreparedDataset {
            scale_info: ScaleInfo { paper_vertices: paper_vertices(kind), paper_edges },
            work_scale: paper_edges as f64 / actual_edges as f64,
            diameter,
            source,
            graph,
            dataset,
        });
        self.cache.insert(kind, Arc::clone(&prepared));
        prepared
    }

    /// The cluster spec for a dataset at a machine count: the scaled budget,
    /// the dataset's work-scale factor, and — for diameter-bound workloads —
    /// the superstep-count compensation (generated diameters are compressed
    /// relative to the paper's; SSSP/WCC superstep counts scale with it).
    pub fn cluster_for(
        &mut self,
        kind: DatasetKind,
        machines: usize,
        workload: WorkloadKind,
    ) -> ClusterSpec {
        let ds = self.prepare(kind);
        ClusterSpec {
            work_scale: ds.work_scale,
            superstep_scale: self.superstep_scale(kind, workload),
            ..ClusterSpec::r3_xlarge(machines, self.memory_per_machine)
        }
    }

    /// `paper_diameter / generated_diameter` for the diameter-bound
    /// workloads (SSSP, WCC), 1.0 otherwise. PageRank and K-hop superstep
    /// counts do not depend on the diameter.
    pub fn superstep_scale(&mut self, kind: DatasetKind, workload: WorkloadKind) -> f64 {
        match workload {
            WorkloadKind::Sssp | WorkloadKind::Wcc => {
                let ds = self.prepare(kind);
                let (_, _, _, paper_diameter) = kind.paper_stats();
                (paper_diameter / ds.diameter as f64).max(1.0)
            }
            WorkloadKind::PageRank | WorkloadKind::KHop => 1.0,
        }
    }

    /// The COST experiment's single big machine (512 GB against 30.5 GB
    /// workers ≈ 16.8x the per-worker budget; §5.13).
    pub fn cost_machine_spec(&mut self, kind: DatasetKind) -> ClusterSpec {
        let ds = self.prepare(kind);
        let memory = (self.memory_per_machine as f64 * (512.0 / 30.5)) as u64;
        ClusterSpec {
            machines: 1,
            cores: 1,
            work_scale: ds.work_scale,
            ..ClusterSpec::r3_xlarge(1, memory)
        }
    }

    /// GraphX partition counts from the paper's Table 5, per dataset and
    /// cluster size. ClueWeb is absent from the table (GraphX never ran it);
    /// the HDFS-block default applies.
    pub fn graphx_partitions(&self, kind: DatasetKind, machines: usize) -> Option<usize> {
        let idx = match machines {
            16 => 0,
            32 => 1,
            64 => 2,
            128 => 3,
            _ => return None,
        };
        let table: [usize; 4] = match kind {
            DatasetKind::Twitter => [128, 256, 440, 440],
            DatasetKind::Wrn => [128, 240, 240, 240],
            DatasetKind::Uk0705 => [128, 256, 512, 1024],
            DatasetKind::ClueWeb => return None,
        };
        Some(table[idx])
    }
}

/// A seeded random vertex with out-edges inside the largest weakly
/// connected component.
fn pick_source(g: &CsrGraph, seed: u64) -> VertexId {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    // Union-find over undirected edges.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for (s, d) in g.edges() {
        let (a, b) = (find(&mut parent, s), find(&mut parent, d));
        if a != b {
            parent[a as usize] = b;
        }
    }
    let mut sizes = vec![0u64; n];
    for v in 0..n as u32 {
        sizes[find(&mut parent, v) as usize] += 1;
    }
    let giant = (0..n as u32).max_by_key(|&v| sizes[v as usize]).unwrap();
    let giant_root = find(&mut parent, giant);
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
    loop {
        let v = rng.below_u32(n as u32);
        if g.out_degree(v) > 0 && find(&mut parent, v) == giant_root {
            return v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> PaperEnv {
        PaperEnv::new(Scale { base: 600 }, 11)
    }

    #[test]
    fn budget_tracks_twitter_edges() {
        let mut e = env();
        let tw = e.prepare(DatasetKind::Twitter);
        let ratio = e.memory_per_machine() as f64 / tw.graph.num_edges() as f64;
        assert!((ratio - 20.9).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn datasets_are_cached() {
        let mut e = env();
        let a = e.prepare(DatasetKind::Wrn);
        let b = e.prepare(DatasetKind::Wrn);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn work_scale_matches_paper_ratio() {
        let mut e = env();
        let tw = e.prepare(DatasetKind::Twitter);
        let expect = 1_460_000_000.0 / tw.graph.num_edges() as f64;
        assert!((tw.work_scale - expect).abs() < 1e-9);
        let spec = e.cluster_for(DatasetKind::Twitter, 16, WorkloadKind::PageRank);
        assert_eq!(spec.work_scale, tw.work_scale);
        assert_eq!(spec.machines, 16);
    }

    #[test]
    fn superstep_scale_compensates_compressed_diameters() {
        let mut e = env();
        // The road network's generated diameter is far below 48 000; SSSP
        // and WCC get a large compensation, PageRank and K-hop none.
        let sssp = e.superstep_scale(DatasetKind::Wrn, WorkloadKind::Sssp);
        assert!(sssp > 50.0, "sssp scale {sssp}");
        assert_eq!(e.superstep_scale(DatasetKind::Wrn, WorkloadKind::PageRank), 1.0);
        assert_eq!(e.superstep_scale(DatasetKind::Wrn, WorkloadKind::KHop), 1.0);
        // Web graphs have near-paper diameters already.
        let tw = e.superstep_scale(DatasetKind::Twitter, WorkloadKind::Wcc);
        assert!(tw < 3.0, "twitter scale {tw}");
    }

    #[test]
    fn sources_are_valid_and_deterministic() {
        let mut e1 = env();
        let mut e2 = env();
        for kind in DatasetKind::ALL {
            let a = e1.prepare(kind);
            let b = e2.prepare(kind);
            assert_eq!(a.source, b.source, "{kind:?}");
            assert!(a.graph.out_degree(a.source) > 0);
        }
    }

    #[test]
    fn graphx_partitions_follow_table_5() {
        let e = env();
        assert_eq!(e.graphx_partitions(DatasetKind::Twitter, 64), Some(440));
        assert_eq!(e.graphx_partitions(DatasetKind::Uk0705, 128), Some(1024));
        assert_eq!(e.graphx_partitions(DatasetKind::Wrn, 16), Some(128));
        assert_eq!(e.graphx_partitions(DatasetKind::ClueWeb, 128), None);
        assert_eq!(e.graphx_partitions(DatasetKind::Twitter, 7), None);
    }

    #[test]
    fn cost_machine_is_one_big_node() {
        let mut e = env();
        let spec = e.cost_machine_spec(DatasetKind::Twitter);
        assert_eq!(spec.machines, 1);
        assert!(spec.memory_per_machine > 16 * e.memory_per_machine());
    }

    #[test]
    fn mpi_scale_thresholds() {
        // The datasets whose paper-scale vertex counts overflow a 32-bit
        // MPI aggregation buffer (8 B per vertex) are WRN and ClueWeb.
        for kind in DatasetKind::ALL {
            let overflows = paper_vertices(kind).saturating_mul(8) > i32::MAX as u64;
            let expect = matches!(kind, DatasetKind::Wrn | DatasetKind::ClueWeb);
            assert_eq!(overflows, expect, "{kind:?}");
        }
    }
}
