//! One cell = one `(system, workload, dataset, machines)` experiment: how it is
//! run, what is remembered of its simulated outcome, and how its answer is
//! checked.

use graphbench::runner::{ExperimentSpec, Runner};
use graphbench::system::{GlStop, SystemId};
use graphbench_algos::{reference, Workload, WorkloadKind, WorkloadResult};
use graphbench_engines::{exec, EngineInput, RunOutput};
use graphbench_gen::DatasetKind;
use graphbench_graph::CsrGraph;
use graphbench_sim::{ClusterObserver, FaultPlan, RunMetrics};
use std::collections::HashMap;
use std::sync::Arc;

/// PageRank answers may differ from the reference by this much (Blogel-B's
/// two-phase schedule gives 4e-7; the others 2e-13).
const RANK_TOLERANCE: f64 = 1e-5;

#[derive(Clone, Copy)]
pub struct Cell {
    pub system: SystemId,
    pub workload: WorkloadKind,
    pub dataset: DatasetKind,
    pub machines: usize,
    /// Status code the paper's matrix has for this cell: `OK`, `OOM`, `TO`, `SHFL`.
    pub expect: &'static str,
}

pub const GL_ITERATIONS: SystemId =
    SystemId::GraphLab { sync: true, auto: false, stop: GlStop::Iterations };
pub const GL_TOLERANCE: SystemId =
    SystemId::GraphLab { sync: true, auto: false, stop: GlStop::Tolerance };

impl Cell {
    pub fn ok(s: SystemId, w: WorkloadKind, d: DatasetKind, machines: usize) -> Cell {
        Cell { system: s, workload: w, dataset: d, machines, expect: "OK" }
    }

    pub fn name(&self) -> String {
        format!(
            "{}-{}-{}@{}",
            self.system.label(),
            self.workload.name(),
            self.dataset.name(),
            self.machines
        )
    }

    pub fn spec(&self) -> ExperimentSpec {
        ExperimentSpec {
            system: self.system,
            workload: self.workload,
            dataset: self.dataset,
            machines: self.machines,
        }
    }

    /// The `engines` module that executes this cell: the span of its direct
    /// `Engine::run` and the stem of its `engines.<module>_s` metric.
    pub fn module(&self) -> &'static str {
        match self.system {
            SystemId::SingleThread => "engines.single",
            SystemId::Giraph | SystemId::BlogelV => "engines.bsp",
            SystemId::BlogelB | SystemId::BlogelBModified => "engines.blogel",
            SystemId::GraphLab { .. } => "engines.gas",
            SystemId::GraphX => "engines.graphx",
            SystemId::Gelly => "engines.gelly",
            SystemId::Hadoop | SystemId::HaLoop => "engines.hadoop",
            SystemId::Vertica => "engines.vertica",
        }
    }
}

/// The simulated outcome of one execution. Deterministic: equal across host
/// thread counts, across `Runner::run` and `Engine::run`, traced or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub status: String,
    pub supersteps: u64,
    pub runtime_bits: u64,
    pub network_bytes: u64,
    pub messages: u64,
}

impl Fingerprint {
    pub fn of(metrics: &RunMetrics, runtime: f64) -> Fingerprint {
        Fingerprint {
            status: metrics.status.code().to_string(),
            supersteps: metrics.iterations,
            runtime_bits: runtime.to_bits(),
            network_bytes: metrics.network_bytes,
            messages: metrics.messages,
        }
    }

    /// One line of `expected/<workload>.seed42.txt`.
    pub fn line(&self, cell: &str) -> String {
        format!(
            "{cell} {} {} {:016x} {} {}",
            self.status, self.supersteps, self.runtime_bits, self.network_bytes, self.messages
        )
    }
}

/// Counts checked operations; a failure prints its reason.
#[derive(Default)]
pub struct Checks {
    pub ops: u64,
    pub failed: u64,
    /// Set during the timed passes. They repeat checks already counted, as
    /// often as the host's speed allows, so there only a failure is counted:
    /// `ops` is the same on every run of the same code that has no failure.
    pub timed: bool,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops += u64::from(!self.timed || !ok);
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// Run the cell the way a user does, through `Runner::run`.
pub fn run_via_runner(runner: &mut Runner, cell: &Cell) -> Fingerprint {
    let rec = runner.run(&cell.spec());
    Fingerprint::of(&rec.metrics, rec.runtime)
}

/// Run the cell by assembling the `EngineInput` as `Runner::run` does and
/// calling `Engine::run`, which hands back the answer `RunRecord` drops.
pub fn run_direct(
    runner: &mut Runner,
    cell: &Cell,
    threads: usize,
    observer: Option<Arc<dyn ClusterObserver>>,
) -> RunOutput {
    exec::set_threads(threads);
    let spec = cell.spec();
    let workload = runner.workload_for(&spec);
    let ds = runner.env.prepare(cell.dataset);
    let mut cluster = if cell.system == SystemId::SingleThread {
        runner.env.cost_machine_spec(cell.dataset)
    } else {
        runner.env.cluster_for(cell.dataset, cell.machines, cell.workload)
    };
    cluster.faults = FaultPlan::none();
    if let Some(obs) = observer {
        cluster.observers.attach(obs);
    }
    let engine = cell.system.build(runner.env.graphx_partitions(cell.dataset, cell.machines));
    let input = EngineInput {
        edges: &ds.dataset.edges,
        graph: &ds.graph,
        workload,
        cluster,
        seed: runner.env.seed,
        scale: ds.scale_info,
    };
    engine.run(&input)
}

/// `algos::reference` answers, computed once per `(workload, dataset)`.
/// GraphLab's PageRank gets a reference of its own: it runs 30 iterations
/// where the rest run to the tolerance, and it drops self-edges at load as
/// the real system does (paper §3.1.1), so its ranks are those of the
/// self-edge-free graph.
#[derive(Default)]
pub struct Oracle {
    answers: HashMap<(WorkloadKind, DatasetKind, bool), WorkloadResult>,
}

impl Oracle {
    /// Whether `got` is the reference answer: exact for labels and distances,
    /// within `RANK_TOLERANCE` for ranks.
    pub fn agrees(&mut self, runner: &mut Runner, cell: &Cell, got: &WorkloadResult) -> bool {
        let workload = runner.workload_for(&cell.spec());
        let graphlab_ranks = matches!(cell.system, SystemId::GraphLab { .. })
            && cell.workload == WorkloadKind::PageRank;
        let ds = runner.env.prepare(cell.dataset);
        let want = self
            .answers
            .entry((cell.workload, cell.dataset, graphlab_ranks))
            .or_insert_with(|| match workload {
                Workload::PageRank(cfg) if graphlab_ranks => {
                    let mut edges = ds.dataset.edges.clone();
                    edges.remove_self_edges();
                    let clean = CsrGraph::from_edge_list(&edges);
                    WorkloadResult::Ranks(reference::pagerank(&clean, &cfg).0)
                }
                Workload::PageRank(cfg) => {
                    WorkloadResult::Ranks(reference::pagerank(&ds.graph, &cfg).0)
                }
                Workload::Wcc => WorkloadResult::Labels(reference::wcc(&ds.graph)),
                Workload::Sssp { source } => {
                    WorkloadResult::Distances(reference::sssp(&ds.graph, source))
                }
                Workload::KHop { source, k } => {
                    WorkloadResult::Distances(reference::khop(&ds.graph, source, k))
                }
            });
        match got {
            WorkloadResult::Ranks(_) => got.max_rank_diff(want) <= RANK_TOLERANCE,
            _ => got.same_labels(want),
        }
    }
}
