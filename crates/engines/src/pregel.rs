//! Giraph: the open-source Pregel (§2.1.1).
//!
//! Vertex-centric BSP on the Hadoop MapReduce platform, executed as a
//! map-only job. Cost signature:
//!
//! * random hash **edge-cut** partitioning; the whole graph must fit in
//!   memory with JVM object overhead (the paper measured 1322 GB of heap for
//!   the 32 GB UK input at 128 machines, Table 8);
//! * message **combiners** where the workload allows them;
//! * **Hadoop start-up/teardown** that grows with the cluster size — the
//!   reason Giraph loses its early lead over GraphLab as clusters grow
//!   (§5.5, §5.7);
//! * four mappers per machine, i.e. all 4 cores compute.

use crate::bsp::{self, BspConfig};
use crate::{even_share, result_bytes, Engine, EngineInput, RunOutput};
use graphbench_algos::WorkloadResult;
use graphbench_graph::format::GraphFormat;
use graphbench_partition::EdgeCutPartition;
use graphbench_sim::{Cluster, CostProfile, Phase, SimError};

/// The Giraph system.
#[derive(Debug, Clone, Default)]
pub struct Giraph {
    /// Run with C++/MPI cost constants instead of the JVM/Hadoop profile —
    /// the controlled language experiment the paper says it could not run
    /// ("we are not aware of a system that has both C++ and Java
    /// implementations", §1/§7). The execution structure is untouched.
    pub native_constants: bool,
    /// Global checkpoint interval in supersteps (Table 1's fault-tolerance
    /// mechanism). `None` = no checkpointing, the study's configuration.
    pub checkpoint_every: Option<u64>,
}

impl Engine for Giraph {
    fn short_name(&self) -> String {
        if self.native_constants {
            "G(C++)".into()
        } else {
            "G".into()
        }
    }

    fn name(&self) -> String {
        if self.native_constants {
            "Giraph (hypothetical C++ build)".into()
        } else {
            "Giraph".into()
        }
    }

    fn run(&self, input: &EngineInput<'_>) -> RunOutput {
        let jvm = CostProfile::jvm_hadoop();
        let profile = if self.native_constants {
            // Language swap only: native per-op and per-object constants,
            // but the Hadoop *platform* costs (job negotiation, superstep
            // coordination) stay — that is the controlled experiment.
            CostProfile {
                job_startup: jvm.job_startup,
                job_startup_per_machine: jvm.job_startup_per_machine,
                superstep_overhead: jvm.superstep_overhead,
                ..CostProfile::cpp_mpi()
            }
        } else {
            jvm
        };
        let mut cluster = Cluster::new(input.cluster.clone(), profile);
        let mut notes = Vec::new();
        let outcome = execute(self, &mut cluster, input, &mut notes);
        crate::util::output_from(cluster, outcome, notes)
    }
}

fn execute(
    engine: &Giraph,
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
    _notes: &mut Vec<String>,
) -> Result<WorkloadResult, SimError> {
    let machines = cluster.machines();
    let n = input.graph.num_vertices();
    let profile = *cluster.profile();

    // Hadoop job negotiation, plus the JVM's fixed per-machine footprint
    // (configured heap headroom, mapper slots, job-tracker state): the
    // component that makes Giraph's total memory *grow* with cluster size
    // in the paper's Table 8. The hypothetical native build keeps the
    // Hadoop platform but drops the JVM heap headroom.
    cluster.begin_phase(Phase::Overhead);
    cluster.charge_startup()?;
    if !engine.native_constants {
        let framework = (input.cluster.memory_per_machine as f64 * 0.18) as u64;
        cluster.alloc_all(&vec![framework; machines])?;
    }

    // Load: read the adj dataset from HDFS, shuffle vertices to their hash
    // machines, and materialize the JVM object graph.
    cluster.begin_phase(Phase::Load);
    let dataset = input.graph.text_bytes(GraphFormat::Adj);
    cluster.hdfs_read(&even_share(dataset, machines))?;
    let part = EdgeCutPartition::random(input.edges.num_vertices, machines, input.seed);
    // Lines read from HDFS blocks land anywhere; (M-1)/M of the bytes move.
    let moved = dataset - dataset / machines as u64;
    let sent = even_share(moved, machines);
    let msgs = even_share(n as u64, machines);
    cluster.set_label("shuffle");
    cluster.exchange(&sent, &sent, &msgs)?;
    cluster.set_label("load");
    // Resident vertex and edge objects.
    let mut resident = vec![0u64; machines];
    for (m, verts) in part.vertices_per_machine().iter().enumerate() {
        let edges: u64 = verts.iter().map(|&v| input.graph.out_degree(v)).sum();
        resident[m] =
            verts.len() as u64 * profile.bytes_per_vertex + edges * profile.bytes_per_edge;
    }
    cluster.alloc_all(&resident)?;
    cluster.sample_trace();

    // Execute the vertex program.
    cluster.begin_phase(Phase::Execute);
    let cfg = BspConfig {
        cores_for_compute: input.cluster.cores,
        checkpoint_every: engine.checkpoint_every,
        // Checkpoints persist vertex values and in-flight messages; the
        // graph structure is re-readable from the immutable input.
        checkpoint_bytes: n as u64 * 16,
        ..BspConfig::default()
    };
    // WCC's reverse edges materialize as boxed objects in a multimap
    // (compact arrays under the hypothetical native build).
    let wcc_bytes_per_edge = if engine.native_constants { 8 } else { 75 };
    let result =
        bsp::run_workload(cluster, input.graph, &part, input.workload, wcc_bytes_per_edge, &cfg)?;

    // Save results to HDFS.
    cluster.begin_phase(Phase::Save);
    cluster.hdfs_write(&even_share(result_bytes(n as u64), machines))?;

    // Job teardown mirrors start-up at half cost (fixed, not data-bound).
    cluster.begin_phase(Phase::Overhead);
    cluster.set_label("teardown");
    let teardown = profile.startup_for(machines) / 2.0;
    cluster.advance_network_wait(&vec![teardown; machines])?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScaleInfo;
    use graphbench_algos::reference;
    use graphbench_algos::workload::{PageRankConfig, StopCriterion};
    use graphbench_algos::Workload;
    use graphbench_gen::{Dataset, DatasetKind, Scale};
    use graphbench_sim::ClusterSpec;

    fn input<'a>(
        ds: &'a (graphbench_graph::EdgeList, graphbench_graph::CsrGraph),
        workload: Workload,
        machines: usize,
        mem: u64,
    ) -> EngineInput<'a> {
        EngineInput {
            edges: &ds.0,
            graph: &ds.1,
            workload,
            cluster: ClusterSpec::r3_xlarge(machines, mem),
            seed: 7,
            scale: ScaleInfo::actual(&ds.0),
        }
    }

    fn twitter_tiny() -> (graphbench_graph::EdgeList, graphbench_graph::CsrGraph) {
        let d = Dataset::generate(DatasetKind::Twitter, Scale { base: 500 }, 3);
        let g = d.to_csr();
        (d.edges, g)
    }

    #[test]
    fn giraph_pagerank_is_correct_and_phased() {
        let ds = twitter_tiny();
        let cfg = PageRankConfig {
            stop: StopCriterion::Tolerance(0.01),
            ..PageRankConfig::paper_exact()
        };
        let out = Giraph::default().run(&input(&ds, Workload::PageRank(cfg), 4, 1 << 30));
        assert!(out.metrics.status.is_ok(), "{:?}", out.metrics.status);
        let (want, _) = reference::pagerank(&ds.1, &cfg);
        match out.result.unwrap() {
            WorkloadResult::Ranks(ranks) => {
                for (a, b) in ranks.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-6);
                }
            }
            other => panic!("wrong result type {other:?}"),
        }
        let p = out.metrics.phases;
        assert!(p.load > 0.0 && p.execute > 0.0 && p.save > 0.0 && p.overhead > 0.0);
        assert!(out.metrics.network_bytes > 0);
        assert!(out.metrics.total_peak_memory() > 0);
    }

    #[test]
    fn giraph_wcc_sssp_khop_match_reference() {
        let ds = twitter_tiny();
        let src = ds.1.out_neighbors(0).first().copied().unwrap_or(0);
        let wcc = Giraph::default().run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        assert_eq!(wcc.result.unwrap(), WorkloadResult::Labels(reference::wcc(&ds.1)));
        let sssp = Giraph::default().run(&input(&ds, Workload::Sssp { source: src }, 4, 1 << 30));
        assert_eq!(sssp.result.unwrap(), WorkloadResult::Distances(reference::sssp(&ds.1, src)));
        let khop = Giraph::default().run(&input(&ds, Workload::khop3(src), 4, 1 << 30));
        assert_eq!(khop.result.unwrap(), WorkloadResult::Distances(reference::khop(&ds.1, src, 3)));
    }

    #[test]
    fn giraph_ooms_with_tiny_budget() {
        let ds = twitter_tiny();
        let out = Giraph::default().run(&input(&ds, Workload::Wcc, 4, 10_000));
        assert_eq!(out.metrics.status.code(), "OOM");
        assert!(out.result.is_none());
    }

    #[test]
    fn startup_overhead_grows_with_cluster() {
        let ds = twitter_tiny();
        let w = Workload::khop3(0);
        let small = Giraph::default().run(&input(&ds, w, 4, 1 << 30));
        let large = Giraph::default().run(&input(&ds, w, 64, 1 << 30));
        assert!(
            large.metrics.phases.overhead > small.metrics.phases.overhead,
            "overheads {} vs {}",
            large.metrics.phases.overhead,
            small.metrics.phases.overhead
        );
    }

    #[test]
    fn wcc_uses_more_memory_than_pagerank() {
        // Reverse-edge discovery plus uncombined first-superstep messages
        // (§5.8) make WCC the most memory-hungry workload.
        let ds = twitter_tiny();
        let pr = Giraph::default().run(&input(
            &ds,
            Workload::PageRank(PageRankConfig::fixed(5)),
            4,
            1 << 30,
        ));
        let wcc = Giraph::default().run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        assert!(
            wcc.metrics.total_peak_memory() > pr.metrics.total_peak_memory(),
            "wcc {} vs pr {}",
            wcc.metrics.total_peak_memory(),
            pr.metrics.total_peak_memory()
        );
    }
}
