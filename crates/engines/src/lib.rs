//! The eight distributed graph systems of the paper, reimplemented over the
//! simulated cluster.
//!
//! Every engine *actually executes* its workload — the returned
//! [`WorkloadResult`] is verified against the single-threaded oracles in
//! `graphbench-algos` — while charging compute, network, disk, and memory to
//! a [`graphbench_sim::Cluster`]. The relative performance the paper reports
//! therefore emerges from each paradigm's mechanics, not from baked-in
//! outcomes:
//!
//! | Engine | Paradigm | Cost signature |
//! |---|---|---|
//! | [`pregel::Giraph`] | vertex-centric BSP | JVM memory factor, Hadoop start-up, combiners |
//! | [`gas::GraphLab`] | GAS, sync / async | vertex-cut replication drives memory + mirror sync |
//! | [`blogel::BlogelV`] | vertex-centric BSP | C++/MPI constants, compact memory |
//! | [`blogel::BlogelB`] | block-centric BSP | GVD partitioning, serial in-block compute, few supersteps |
//! | [`hadoop::Hadoop`] | MapReduce | full HDFS re-read/re-write + shuffle per iteration |
//! | [`hadoop::HaLoop`] | MapReduce + caches | loop-invariant cache, fixpoint cache, SHFL bug |
//! | [`graphx::GraphX`] | Spark dataflow | per-iteration jobs, shuffles, RDD lineage growth |
//! | [`gelly::Gelly`] | Flink dataflow | delta iterations, moderate overhead, inter-job leak |
//! | [`vertica::Vertica`] | relational | join + temp table + shuffle per iteration, tiny memory |
//! | [`single::SingleThread`] | 1 thread | COST baseline (GAP-style kernels) |

pub mod blogel;
pub mod bsp;
pub mod exec;
pub mod gas;
pub(crate) mod gather;
pub mod gelly;
pub mod graphx;
pub mod hadoop;
pub mod pregel;
pub mod programs;
pub mod recovery;
pub mod shuffle;
pub mod single;
pub(crate) mod util;
pub mod vertica;

use graphbench_algos::{Workload, WorkloadResult};
use graphbench_graph::{CsrGraph, EdgeList};
use graphbench_sim::{ClusterSpec, HostSpan, Journal, MetricsRegistry, RunMetrics, Trace};

/// Mapping from this run's scaled-down dataset to the paper-scale original,
/// used only by *mechanistic threshold* failures whose trigger is an
/// absolute size (Blogel-B's 32-bit MPI aggregation overflow). Performance
/// and memory budgets scale with the data; hard integer limits do not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleInfo {
    /// Vertex count of the paper-scale dataset this run stands in for.
    pub paper_vertices: u64,
    /// Edge count of the paper-scale dataset.
    pub paper_edges: u64,
}

impl ScaleInfo {
    /// No scaling: the dataset is what it is.
    pub fn actual(el: &EdgeList) -> Self {
        ScaleInfo { paper_vertices: el.num_vertices, paper_edges: el.num_edges() }
    }
}

/// Everything an engine needs for one run.
#[derive(Debug, Clone)]
pub struct EngineInput<'a> {
    /// The dataset as an edge list (what sits in HDFS / the edge table).
    pub edges: &'a EdgeList,
    /// CSR view of the same dataset (built by the harness once, shared).
    pub graph: &'a CsrGraph,
    pub workload: Workload,
    pub cluster: ClusterSpec,
    pub seed: u64,
    pub scale: ScaleInfo,
}

/// What one engine run produces.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub metrics: RunMetrics,
    /// The workload answer; `None` when the run failed.
    pub result: Option<WorkloadResult>,
    /// Per-machine memory time series.
    pub trace: Trace,
    /// Correctness caveats and observations ("dropped 3 self-edges", ...).
    pub notes: Vec<String>,
    /// Vertices updated per iteration, when the engine tracks it (GraphLab
    /// fills this; it is the data behind the paper's Figure 4).
    pub updates_per_iteration: Vec<u64>,
    /// Structured per-charge event log (superstep, phase, label, start,
    /// duration, bytes, memory deltas, per-machine base busy seconds).
    /// `metrics.phases` is its per-phase fold; `journal.timeline()` is the
    /// per-machine view, and replaying it reproduces `runtime` bit-for-bit.
    pub journal: Journal,
    /// Named counters and histograms accumulated during the run.
    pub registry: MetricsRegistry,
    /// The cluster clock when the run ended — the simulated runtime.
    pub runtime: f64,
    /// Host-wallclock executor spans (empty unless tracing is enabled).
    /// Nondeterministic by nature; never compared or serialized.
    pub host_spans: Vec<HostSpan>,
}

/// A system under evaluation.
pub trait Engine {
    /// The paper's abbreviation for this system/variant (BV, BB, G,
    /// GL-S-R-I, HD, HL, S, FG, V, ST).
    fn short_name(&self) -> String;

    /// Full human-readable name.
    fn name(&self) -> String;

    /// Execute the workload on the simulated cluster.
    fn run(&self, input: &EngineInput<'_>) -> RunOutput;
}

/// Shared helper: per-machine byte shares when a byte total is spread
/// evenly (HDFS chunks, hash partitions).
pub fn even_share(total: u64, machines: usize) -> Vec<u64> {
    let base = total / machines as u64;
    let rem = (total % machines as u64) as usize;
    (0..machines).map(|i| base + u64::from(i < rem)).collect()
}

/// Bytes to save a workload result (one `vertex value` line per vertex).
pub fn result_bytes(num_vertices: u64) -> u64 {
    num_vertices * 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_share_sums_to_total() {
        let shares = even_share(103, 4);
        assert_eq!(shares.iter().sum::<u64>(), 103);
        assert_eq!(shares, vec![26, 26, 26, 25]);
    }
}
