//! Flink Gelly (§2.7): graph processing on a batch dataflow engine.
//!
//! Gelly's scatter-gather iterations compile onto Flink's **native delta
//! iterations**: only changed vertices flow through the loop, there is no
//! per-iteration job scheduling (unlike Spark) and no lineage growth. Costs:
//!
//! * managed memory keeps object overhead below a vanilla JVM system but
//!   above the C++ engines;
//! * like Giraph/Blogel, WCC must pre-compute in-neighbours with an extra
//!   uncombinable superstep (§5.8);
//! * Flink does not reclaim all memory between job executions (§5.7): each
//!   previously-run workload leaves a leak behind, and the paper had to
//!   restart Flink between workloads. [`Gelly::prior_jobs`] models how many
//!   workloads ran since the last restart.
//!
//! Execution structure is vertex-centric BSP, so this engine reuses the
//! shared runtime with Flink's cost profile.

use crate::bsp::{self, BspConfig};
use crate::{even_share, result_bytes, Engine, EngineInput, RunOutput};
use graphbench_algos::WorkloadResult;
use graphbench_graph::format::GraphFormat;
use graphbench_partition::EdgeCutPartition;
use graphbench_sim::{Cluster, CostProfile, Phase, SimError};

/// Flink Gelly (batch mode, as in the paper §2.7).
#[derive(Debug, Clone, Default)]
pub struct Gelly {
    /// Workloads executed since the last Flink restart. Each leaves leaked
    /// memory behind; the paper restarted Flink after every workload.
    pub prior_jobs: u32,
    /// Use Gelly's stream approach instead of batch (§2.7): edges are
    /// pushed into the dataflow as they arrive, so reading overlaps the
    /// first iteration and cannot be reported as a separate load phase —
    /// the reason the paper standardizes on batch.
    pub streaming: bool,
}

/// Bytes leaked per completed job per machine, as a fraction of the memory
/// budget (the observed failures took "a few jobs", §5.7).
const LEAK_FRACTION_PER_JOB: f64 = 0.18;

impl Engine for Gelly {
    fn short_name(&self) -> String {
        "FG".into()
    }

    fn name(&self) -> String {
        "Flink Gelly".into()
    }

    fn run(&self, input: &EngineInput<'_>) -> RunOutput {
        let mut cluster = Cluster::new(input.cluster.clone(), CostProfile::jvm_flink());
        let mut notes = Vec::new();
        if self.prior_jobs == 0 {
            notes
                .push("Flink restarted before this workload (the paper's workaround, §5.7)".into());
        }
        let outcome = execute(self, &mut cluster, input, &mut notes);
        crate::util::output_from(cluster, outcome, notes)
    }
}

fn execute(
    engine: &Gelly,
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
    notes: &mut Vec<String>,
) -> Result<WorkloadResult, SimError> {
    let machines = cluster.machines();
    let n = input.graph.num_vertices();
    let profile = *cluster.profile();

    cluster.begin_phase(Phase::Overhead);
    cluster.charge_startup()?;
    // Flink's fixed per-machine footprint (managed memory segments,
    // network buffer pool).
    let framework = (input.cluster.memory_per_machine as f64 * 0.10) as u64;
    cluster.alloc_all(&vec![framework; machines])?;
    // Memory leaked by earlier jobs in this Flink session (§5.7).
    let leak = ((input.cluster.memory_per_machine as f64
        * LEAK_FRACTION_PER_JOB
        * engine.prior_jobs as f64) as u64)
        .min(input.cluster.memory_per_machine);
    if leak > 0 {
        notes.push(format!("{} prior jobs leaked {} bytes per machine", engine.prior_jobs, leak));
        cluster.alloc_all(&vec![leak; machines])?;
    }

    cluster.begin_phase(Phase::Load);
    let dataset = input.graph.text_bytes(GraphFormat::EdgeListFormat);
    if !engine.streaming {
        cluster.hdfs_read(&even_share(dataset, machines))?;
    }
    let part = EdgeCutPartition::random(input.edges.num_vertices, machines, input.seed);
    let moved = dataset - dataset / machines as u64;
    cluster.set_label("shuffle");
    cluster.exchange(
        &even_share(moved, machines),
        &even_share(moved, machines),
        &even_share(n as u64, machines),
    )?;
    let mut resident = vec![0u64; machines];
    for (m, verts) in part.vertices_per_machine().iter().enumerate() {
        let edges: u64 = verts.iter().map(|&v| input.graph.out_degree(v)).sum();
        resident[m] =
            verts.len() as u64 * profile.bytes_per_vertex + edges * profile.bytes_per_edge;
    }
    cluster.set_label("load");
    cluster.alloc_all(&resident)?;
    cluster.sample_trace();

    cluster.begin_phase(Phase::Execute);
    if engine.streaming {
        // Stream mode: the read happens inside the dataflow, partially
        // overlapped with the first iteration's processing.
        notes.push("stream mode: input read overlaps execution (§2.7)".into());
        cluster.set_label("stream_read");
        cluster.hdfs_read(&even_share((dataset as f64 * 0.7) as u64, machines))?;
    }
    // Delta iterations pass the solution set through Flink's managed
    // memory (spilling) every round — the per-iteration floor that makes
    // WCC on the road network take nearly a day (§5.8).
    let cfg = BspConfig {
        cores_for_compute: input.cluster.cores,
        per_superstep_spill_bytes: n as u64 * 36,
        ..BspConfig::default()
    };
    // WCC keeps each discovered in-edge in a 20-byte tuple.
    let result = bsp::run_workload(cluster, input.graph, &part, input.workload, 20, &cfg)?;

    cluster.begin_phase(Phase::Save);
    cluster.hdfs_write(&even_share(result_bytes(n as u64), machines))?;
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
    use graphbench_graph::{CsrGraph, EdgeList};
    use graphbench_sim::ClusterSpec;

    fn dataset() -> (EdgeList, CsrGraph) {
        let d = Dataset::generate(DatasetKind::Twitter, Scale { base: 400 }, 3);
        let g = d.to_csr();
        (d.edges, g)
    }

    fn input<'a>(
        ds: &'a (EdgeList, CsrGraph),
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

    #[test]
    fn gelly_results_match_reference() {
        let ds = dataset();
        let pr = PageRankConfig {
            stop: StopCriterion::Tolerance(0.01),
            ..PageRankConfig::paper_exact()
        };
        let out = Gelly::default().run(&input(&ds, Workload::PageRank(pr), 4, 1 << 30));
        assert!(out.metrics.status.is_ok());
        let (want, _) = reference::pagerank(&ds.1, &pr);
        match out.result.unwrap() {
            WorkloadResult::Ranks(r) => {
                for (a, b) in r.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-6);
                }
            }
            other => panic!("{other:?}"),
        }
        let wcc = Gelly::default().run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        assert_eq!(wcc.result.unwrap(), WorkloadResult::Labels(reference::wcc(&ds.1)));
    }

    #[test]
    fn stream_mode_moves_the_read_into_execution() {
        let ds = dataset();
        let batch = Gelly::default().run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        let stream = Gelly { streaming: true, ..Gelly::default() }.run(&input(
            &ds,
            Workload::Wcc,
            4,
            1 << 30,
        ));
        // Same answer either way.
        assert_eq!(batch.result, stream.result);
        // The read leaves the load phase and lands (partially overlapped)
        // in execution; totals stay in the same ballpark.
        assert!(stream.metrics.phases.load < batch.metrics.phases.load);
        assert!(stream.metrics.phases.execute > batch.metrics.phases.execute);
        let ratio = stream.metrics.total_time() / batch.metrics.total_time();
        assert!((0.8..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn leaked_memory_accumulates_until_oom() {
        let ds = dataset();
        let budget = 2 << 20;
        let fresh =
            Gelly { prior_jobs: 0, ..Gelly::default() }.run(&input(&ds, Workload::Wcc, 4, budget));
        assert!(fresh.metrics.status.is_ok(), "{:?}", fresh.metrics.status);
        // After a few jobs without a restart the same workload dies.
        let stale =
            Gelly { prior_jobs: 5, ..Gelly::default() }.run(&input(&ds, Workload::Wcc, 4, budget));
        assert_eq!(stale.metrics.status.code(), "OOM");
    }

    #[test]
    fn gelly_overhead_is_smaller_than_giraphs() {
        let ds = dataset();
        let w = Workload::khop3(0);
        let fg = Gelly::default().run(&input(&ds, w, 16, 1 << 30));
        let g = crate::pregel::Giraph::default().run(&input(&ds, w, 16, 1 << 30));
        assert!(
            fg.metrics.phases.overhead < g.metrics.phases.overhead,
            "Gelly {} vs Giraph {}",
            fg.metrics.phases.overhead,
            g.metrics.phases.overhead
        );
    }
}
