//! Single-thread COST baseline (§5.13).
//!
//! The paper ran the GAP Benchmark Suite's single-threaded kernels on one
//! 512 GB machine and compared them against the best 16-machine parallel
//! system. This engine runs the optimized kernels from
//! `graphbench_algos::st` on a one-machine "cluster": no partitioning, no
//! replication, no network — but also no parallel speed-up beyond one core,
//! and a memory requirement that can exceed a single cluster node's (the
//! paper needed 112 GB for WCC on the road network).

use crate::{even_share, result_bytes, Engine, EngineInput, RunOutput};
use graphbench_algos::workload::PageRankConfig;
use graphbench_algos::{st, Workload, WorkloadResult};
use graphbench_graph::format::GraphFormat;
use graphbench_sim::{Cluster, CostProfile, Phase, SimError};

/// Single-threaded GAP-style baseline.
#[derive(Debug, Clone, Default)]
pub struct SingleThread;

impl Engine for SingleThread {
    fn short_name(&self) -> String {
        "ST".into()
    }

    fn name(&self) -> String {
        "Single thread (GAP-style)".into()
    }

    fn run(&self, input: &EngineInput<'_>) -> RunOutput {
        let mut cluster = Cluster::new(input.cluster.clone(), CostProfile::single_thread());
        let mut notes = Vec::new();
        let outcome = execute(&mut cluster, input, &mut notes);
        crate::util::output_from(cluster, outcome, notes)
    }
}

fn execute(
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
    _notes: &mut Vec<String>,
) -> Result<WorkloadResult, SimError> {
    assert_eq!(cluster.machines(), 1, "the COST baseline runs on one machine");
    let n = input.graph.num_vertices();
    let profile = *cluster.profile();

    // No framework: load is a local file read plus CSR construction.
    cluster.begin_phase(Phase::Load);
    let bytes = input.graph.text_bytes(GraphFormat::Adj);
    cluster.local_read(&even_share(bytes, 1))?;
    let needs_in_edges = matches!(input.workload, Workload::PageRank(_) | Workload::Sssp { .. });
    let g = input.graph;
    let mut resident = n as u64 * profile.bytes_per_vertex + g.num_edges() * profile.bytes_per_edge;
    if needs_in_edges {
        // Pull-based PageRank and direction-optimizing BFS index both
        // directions — the memory premium the paper notes (112 GB for WRN).
        // The kernels borrow the graph's shared reverse index.
        resident += g.num_edges() * profile.bytes_per_edge + n as u64 * 8;
    }
    cluster.alloc(0, resident)?;
    cluster.set_label("csr_build");
    cluster.advance_compute_on(0, (g.num_edges() + n as u64) as f64)?;
    cluster.sample_trace();

    cluster.begin_phase(Phase::Execute);
    cluster.set_label("kernel");
    let result = match input.workload {
        Workload::PageRank(pr) => {
            let cfg = PageRankConfig { ..pr };
            let out = st::pagerank(g, &cfg);
            cluster.advance_compute_on(0, out.ops as f64)?;
            WorkloadResult::Ranks(out.value)
        }
        Workload::Wcc => {
            let out = st::wcc(g);
            cluster.advance_compute_on(0, out.ops as f64)?;
            WorkloadResult::Labels(out.value)
        }
        Workload::Sssp { source } => {
            let out = st::sssp(g, source);
            cluster.advance_compute_on(0, out.ops as f64)?;
            WorkloadResult::Distances(out.value)
        }
        Workload::KHop { source, k } => {
            let out = st::khop(g, source, k);
            cluster.advance_compute_on(0, out.ops as f64)?;
            WorkloadResult::Distances(out.value)
        }
    };

    cluster.begin_phase(Phase::Save);
    cluster.local_write(&even_share(result_bytes(n as u64), 1))?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScaleInfo;
    use graphbench_algos::reference;
    use graphbench_algos::workload::StopCriterion;
    use graphbench_gen::{Dataset, DatasetKind, Scale};
    use graphbench_graph::{CsrGraph, EdgeList};
    use graphbench_sim::ClusterSpec;

    /// The paper's COST machine: one node, 512 GB (scaled by the caller).
    fn cost_machine(memory: u64) -> ClusterSpec {
        ClusterSpec { machines: 1, cores: 1, ..ClusterSpec::r3_xlarge(1, memory) }
    }

    fn dataset(kind: DatasetKind) -> (EdgeList, CsrGraph) {
        let d = Dataset::generate(kind, Scale { base: 400 }, 3);
        let g = d.to_csr();
        (d.edges, g)
    }

    fn input<'a>(ds: &'a (EdgeList, CsrGraph), workload: Workload) -> EngineInput<'a> {
        EngineInput {
            edges: &ds.0,
            graph: &ds.1,
            workload,
            cluster: cost_machine(1 << 30),
            seed: 7,
            scale: ScaleInfo::actual(&ds.0),
        }
    }

    #[test]
    fn single_thread_matches_reference() {
        let ds = dataset(DatasetKind::Twitter);
        let pr = PageRankConfig {
            stop: StopCriterion::Tolerance(1e-8),
            ..PageRankConfig::paper_exact()
        };
        let out = SingleThread.run(&input(&ds, Workload::PageRank(pr)));
        assert!(out.metrics.status.is_ok());
        let (want, _) = reference::pagerank(&ds.1, &pr);
        match out.result.unwrap() {
            WorkloadResult::Ranks(r) => {
                for (a, b) in r.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-5);
                }
            }
            other => panic!("{other:?}"),
        }
        let wcc = SingleThread.run(&input(&ds, Workload::Wcc));
        assert_eq!(wcc.result.unwrap(), WorkloadResult::Labels(reference::wcc(&ds.1)));
        let sssp = SingleThread.run(&input(&ds, Workload::Sssp { source: 0 }));
        assert_eq!(sssp.result.unwrap(), WorkloadResult::Distances(reference::sssp(&ds.1, 0)));
    }

    #[test]
    fn no_network_traffic() {
        let ds = dataset(DatasetKind::Twitter);
        let out = SingleThread.run(&input(&ds, Workload::Wcc));
        assert_eq!(out.metrics.network_bytes, 0);
        assert_eq!(out.metrics.messages, 0);
    }

    #[test]
    fn wcc_on_road_networks_beats_bsp_supersteps() {
        // Shiloach-Vishkin converges in O(log n) passes; HashMin needs
        // O(diameter). The single thread's iteration count must be tiny.
        let ds = dataset(DatasetKind::Wrn);
        let out = SingleThread.run(&input(&ds, Workload::Wcc));
        assert!(out.metrics.status.is_ok());
        let bv = crate::blogel::BlogelV.run(&crate::EngineInput {
            cluster: ClusterSpec::r3_xlarge(4, 1 << 30),
            ..input(&ds, Workload::Wcc)
        });
        assert!(bv.metrics.iterations > 10 * 3); // BSP pays the diameter
    }

    #[test]
    fn oom_when_graph_exceeds_the_single_machine() {
        let ds = dataset(DatasetKind::Wrn);
        let mut inp = input(&ds, Workload::Wcc);
        inp.cluster = cost_machine(10_000);
        let out = SingleThread.run(&inp);
        assert_eq!(out.metrics.status.code(), "OOM");
    }
}
