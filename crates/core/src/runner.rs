//! Experiment execution.

use crate::paper::PaperEnv;
use crate::stats::MultiRunRecord;
use crate::system::SystemId;
use graphbench_algos::workload::{PageRankConfig, StopCriterion};
use graphbench_algos::{Workload, WorkloadKind, WorkloadResult, UNREACHABLE};
use graphbench_engines::RunOutput;
use graphbench_gen::DatasetKind;
use graphbench_obs::ObserverHub;
use graphbench_sim::{FaultPlan, HostSpan, Journal, MetricsRegistry, RunMetrics, Trace};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// One cell of the paper's experiment matrix (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentSpec {
    pub system: SystemId,
    pub workload: WorkloadKind,
    pub dataset: DatasetKind,
    pub machines: usize,
}

/// Everything recorded about one run. Reads back from a saved
/// `repro_results.json` (`repro render`, `repro prom_dump`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// The paper's label for the system variant (e.g. "GL-S-R-T").
    pub system: String,
    pub workload: String,
    pub dataset: String,
    pub machines: usize,
    pub metrics: RunMetrics,
    pub notes: Vec<String>,
    /// Vertices updated per iteration where tracked (Figure 4).
    pub updates_per_iteration: Vec<u64>,
    /// Per-machine memory time series (Figure 10).
    pub trace: Trace,
    /// Structured per-charge event log — the one record of what each charge
    /// cost. `metrics.phases` is its per-phase fold; `journal.timeline()`
    /// is the per-machine view behind the `--trace` Perfetto export and the
    /// critical-path report, and replaying it reproduces `runtime`
    /// bit-for-bit. Export with [`Journal::to_jsonl`] (`--journal`).
    pub journal: Journal,
    /// Named counters and histograms accumulated during the run.
    pub registry: MetricsRegistry,
    /// The simulated runtime: the cluster clock when the run ended.
    /// `metrics.total_time()` sums the same charges per phase and so can
    /// differ in the last ulps; this field is the clock itself.
    pub runtime: f64,
    /// Host-wallclock executor spans (empty unless tracing is enabled).
    /// Nondeterministic — deliberately excluded from serialization so
    /// golden records and determinism checks never see them.
    #[serde(skip)]
    pub host_spans: Vec<HostSpan>,
    /// Size of the produced result (ranks/labels emitted, vertices
    /// reached), the denominator of the bytes-moved-per-result efficiency
    /// column. Derivable from the result, so excluded from serialization
    /// to keep golden records byte-identical.
    #[serde(skip)]
    pub result_items: u64,
}

impl RunRecord {
    /// The record of one engine run. The answer itself is dropped; its size
    /// stays as `result_items`.
    pub fn new(
        system: String,
        workload: &str,
        dataset: &str,
        machines: usize,
        out: RunOutput,
    ) -> Self {
        let result_items = match &out.result {
            Some(WorkloadResult::Ranks(r)) => r.len() as u64,
            Some(WorkloadResult::Labels(l)) => l.len() as u64,
            // Reachability results only count the vertices actually reached.
            Some(WorkloadResult::Distances(d)) => {
                d.iter().filter(|&&d| d != UNREACHABLE).count() as u64
            }
            None => 0,
        };
        RunRecord {
            system,
            workload: workload.to_string(),
            dataset: dataset.to_string(),
            machines,
            metrics: out.metrics,
            notes: out.notes,
            updates_per_iteration: out.updates_per_iteration,
            trace: out.trace,
            journal: out.journal,
            registry: out.registry,
            runtime: out.runtime,
            host_spans: out.host_spans,
            result_items,
        }
    }

    /// The cell the paper's figures print: total seconds or a failure code.
    pub fn cell(&self) -> String {
        if self.metrics.status.is_ok() {
            format!("{:.0}", self.metrics.total_time())
        } else {
            self.metrics.status.code().to_string()
        }
    }
}

/// Executes experiments against a [`PaperEnv`].
pub struct Runner {
    pub env: PaperEnv,
    /// The seed sweep for `run_multi`/`run_matrix_multi`. Empty means "just
    /// the environment's own seed". `env.seed` should equal the first entry
    /// so single-seed sweeps reuse the primary environment's dataset cache.
    pub seeds: Vec<u64>,
    /// Lazily built environments for the non-primary sweep seeds, each
    /// keeping its own dataset cache across cells.
    alt_envs: HashMap<u64, PaperEnv>,
    /// Fixed iteration count for `-I` PageRank variants (the paper's
    /// configuration studies use 30 and 55).
    pub fixed_pr_iterations: u32,
    /// Tolerance for exact PageRank. The paper stops at the initial rank
    /// (1.0); small synthetic graphs mix much faster than billion-edge
    /// graphs, so a tighter default compensates to keep iteration counts in
    /// the paper's range (~10-20 for Twitter-like inputs).
    pub pr_tolerance: f64,
    /// Host threads for the parallel superstep executor. `None` keeps the
    /// process-wide setting (the `GRAPHBENCH_THREADS` environment variable,
    /// defaulting to the available cores); `Some(1)` forces the serial
    /// path. Thread count never changes any simulated metric.
    pub threads: Option<usize>,
    /// Intra-machine sub-chunk size for the parallel executor. `None` keeps
    /// the process-wide setting (the `GRAPHBENCH_CHUNK` environment
    /// variable, defaulting to 4096). Chunk size never changes any
    /// simulated metric — see the chunk-invariance test suite.
    pub chunk: Option<usize>,
    /// Fault schedule injected into every run (see [`FaultPlan::parse`] for
    /// the `"crash@120:m3; straggler@60+30:m1x2"` grammar). `None` is
    /// fault-free.
    pub faults: Option<FaultPlan>,
    /// Live observability hub (`--serve`/`--progress`/progress logs). When
    /// set, every run is announced to the hub and the hub rides the
    /// cluster's per-barrier observer hook. Strictly read-only: records are
    /// byte-identical with or without it (see `tests/observer_safety.rs`).
    pub obs: Option<Arc<ObserverHub>>,
}

impl Runner {
    pub fn new(env: PaperEnv) -> Self {
        Runner {
            env,
            seeds: Vec::new(),
            alt_envs: HashMap::new(),
            fixed_pr_iterations: 30,
            pr_tolerance: 1e-6,
            threads: None,
            chunk: None,
            faults: None,
            obs: None,
        }
    }

    /// The seeds a multi-run sweep executes, in order: `seeds` when set,
    /// otherwise just the environment's own seed.
    pub fn effective_seeds(&self) -> Vec<u64> {
        if self.seeds.is_empty() {
            vec![self.env.seed]
        } else {
            self.seeds.clone()
        }
    }

    /// The workload instance a spec resolves to (source vertices and
    /// PageRank criteria are environment- and variant-dependent).
    pub fn workload_for(&mut self, spec: &ExperimentSpec) -> Workload {
        let ds = self.env.prepare(spec.dataset);
        match spec.workload {
            WorkloadKind::PageRank => {
                let stop = spec
                    .system
                    .pagerank_stop(self.fixed_pr_iterations)
                    .unwrap_or(StopCriterion::Tolerance(self.pr_tolerance));
                Workload::PageRank(PageRankConfig {
                    damping: graphbench_algos::DAMPING,
                    stop,
                    approximate: spec.system.approximate_pagerank(),
                })
            }
            WorkloadKind::Wcc => Workload::Wcc,
            WorkloadKind::Sssp => Workload::Sssp { source: ds.source },
            WorkloadKind::KHop => Workload::khop3(ds.source),
        }
    }

    /// Execute one experiment.
    pub fn run(&mut self, spec: &ExperimentSpec) -> RunRecord {
        if let Some(t) = self.threads {
            graphbench_engines::exec::set_threads(t);
        }
        if let Some(c) = self.chunk {
            graphbench_engines::exec::set_chunk_size(c);
        }
        let workload = self.workload_for(spec);
        let ds = self.env.prepare(spec.dataset);
        let mut cluster = if spec.system == SystemId::SingleThread {
            self.env.cost_machine_spec(spec.dataset)
        } else {
            self.env.cluster_for(spec.dataset, spec.machines, spec.workload)
        };
        cluster.faults = self.faults.clone().unwrap_or_default();
        if let Some(hub) = &self.obs {
            hub.begin_run(
                &spec.system.label(),
                spec.workload.name(),
                spec.dataset.name(),
                spec.machines,
                self.env.scale.base,
                self.env.seed,
            );
            cluster.observers.attach(Arc::clone(hub) as Arc<dyn graphbench_sim::ClusterObserver>);
        }
        let partitions = self.env.graphx_partitions(spec.dataset, spec.machines);
        let engine = spec.system.build(partitions);
        let mut out = engine.run(&ds.input(workload, cluster, self.env.seed));
        // The dataset's resident share of memory: the runner owns the CSR,
        // so it (not the engine) knows the actual layout bytes.
        out.metrics.dataset_mem_bytes = ds.graph.raw_bytes();
        if let Some(hub) = &self.obs {
            hub.end_run(out.metrics.status.code(), out.runtime, out.journal.to_jsonl());
        }
        RunRecord::new(
            spec.system.label(),
            spec.workload.name(),
            spec.dataset.name(),
            spec.machines,
            out,
        )
    }

    /// Execute one experiment under a specific generator seed, reusing (or
    /// lazily building) the per-seed environment so dataset caches survive
    /// across cells of a sweep.
    pub fn run_seeded(&mut self, spec: &ExperimentSpec, seed: u64) -> RunRecord {
        if seed == self.env.seed {
            return self.run(spec);
        }
        let scale = self.env.scale;
        let mut env = self.alt_envs.remove(&seed).unwrap_or_else(|| PaperEnv::new(scale, seed));
        std::mem::swap(&mut self.env, &mut env);
        let rec = self.run(spec);
        std::mem::swap(&mut self.env, &mut env);
        self.alt_envs.insert(seed, env);
        rec
    }

    /// Execute one experiment at every sweep seed and aggregate the spread.
    /// With a single seed this is `run` wrapped transparently — the record
    /// serializes byte-identically to the legacy path.
    pub fn run_multi(&mut self, spec: &ExperimentSpec) -> MultiRunRecord {
        let seeds = self.effective_seeds();
        let runs = seeds.iter().map(|&s| self.run_seeded(spec, s)).collect();
        MultiRunRecord::new(seeds, runs)
    }

    /// Execute a full matrix (cartesian product) across the seed sweep, in
    /// order: one [`MultiRunRecord`] per cell.
    pub fn run_matrix_multi(
        &mut self,
        systems: &[SystemId],
        workloads: &[WorkloadKind],
        datasets: &[DatasetKind],
        cluster_sizes: &[usize],
    ) -> Vec<MultiRunRecord> {
        let mut records = Vec::new();
        for &dataset in datasets {
            for &workload in workloads {
                for &machines in cluster_sizes {
                    for &system in systems {
                        records.push(self.run_multi(&ExperimentSpec {
                            system,
                            workload,
                            dataset,
                            machines,
                        }));
                    }
                }
            }
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbench_gen::Scale;

    fn runner() -> Runner {
        Runner::new(PaperEnv::new(Scale { base: 600 }, 11))
    }

    #[test]
    fn single_run_produces_a_record() {
        let mut r = runner();
        let rec = r.run(&ExperimentSpec {
            system: SystemId::BlogelV,
            workload: WorkloadKind::KHop,
            dataset: DatasetKind::Twitter,
            machines: 16,
        });
        assert!(rec.metrics.status.is_ok(), "{:?}", rec.metrics.status);
        assert_eq!(rec.system, "BV");
        assert_eq!(rec.dataset, "Twitter");
        assert!(rec.metrics.total_time() > 0.0);
        assert!(rec.cell().parse::<f64>().is_ok());
    }

    #[test]
    fn failures_render_as_codes() {
        let mut r = runner();
        // Blogel-B on WRN: the paper-scale MPI overflow.
        let rec = r.run(&ExperimentSpec {
            system: SystemId::BlogelB,
            workload: WorkloadKind::KHop,
            dataset: DatasetKind::Wrn,
            machines: 16,
        });
        assert_eq!(rec.cell(), "MPI");
    }

    #[test]
    fn gl_variants_resolve_pagerank_stops() {
        let mut r = runner();
        let tol = ExperimentSpec {
            system: SystemId::GraphLab {
                sync: true,
                auto: false,
                stop: crate::system::GlStop::Tolerance,
            },
            workload: WorkloadKind::PageRank,
            dataset: DatasetKind::Twitter,
            machines: 16,
        };
        match r.workload_for(&tol) {
            Workload::PageRank(cfg) => {
                assert_eq!(cfg.stop, StopCriterion::Tolerance(1e-6));
                assert!(cfg.approximate);
            }
            other => panic!("{other:?}"),
        }
        let iters = ExperimentSpec {
            system: SystemId::GraphLab {
                sync: true,
                auto: false,
                stop: crate::system::GlStop::Iterations,
            },
            ..tol
        };
        match r.workload_for(&iters) {
            Workload::PageRank(cfg) => {
                assert_eq!(cfg.stop, StopCriterion::Iterations(30));
                assert!(!cfg.approximate);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn matrix_covers_the_product() {
        let mut r = runner();
        let recs = r.run_matrix_multi(
            &[SystemId::BlogelV, SystemId::Vertica],
            &[WorkloadKind::KHop],
            &[DatasetKind::Twitter],
            &[16, 32],
        );
        assert_eq!(recs.len(), 4);
    }

    #[test]
    fn records_serialize_to_json() {
        let mut r = runner();
        let rec = r.run(&ExperimentSpec {
            system: SystemId::Vertica,
            workload: WorkloadKind::KHop,
            dataset: DatasetKind::Twitter,
            machines: 16,
        });
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("\"system\":\"V\""));
    }
}
