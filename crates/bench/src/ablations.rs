//! Ablations beyond the paper: questions it raises but could not run.

use crate::{write_output, Ctx};
use graphbench::paper::{PaperEnv, CLUSTER_SIZES};
use graphbench::report::{phase_table, Table};
use graphbench::runner::RunRecord;
use graphbench::system::{GlStop, SystemId};
use graphbench_algos::workload::PageRankConfig;
use graphbench_algos::{reference, Workload, WorkloadKind};
use graphbench_engines::blogel::{BlogelB, BlogelPartitioning, BlogelV};
use graphbench_engines::gas::GraphLab;
use graphbench_engines::graphx::GraphX;
use graphbench_engines::hadoop::{HaLoop, Hadoop};
use graphbench_engines::pregel::Giraph;
use graphbench_engines::vertica::Vertica;
use graphbench_engines::{Engine, EngineInput, RunOutput, ScaleInfo};
use graphbench_gen::{DatasetKind, Scale};
use graphbench_sim::{ClusterSpec, FaultEvent, FaultPlan};
use serde::ser::SerializeStruct;
use serde::{Serialize, Serializer};

fn pagerank20() -> Workload {
    Workload::PageRank(PageRankConfig::fixed(20))
}

/// The dataset-specific Blogel partitioners the study skipped (§2.3). How
/// much does the general GVD sampler leave on the table — and would the
/// 2-D partitioner have dodged the MPI overflow on WRN?
pub fn partitioning(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    let wrn = runner.env.prepare(DatasetKind::Wrn);
    let uk = runner.env.prepare(DatasetKind::Uk0705);
    let coords = wrn.dataset.coords.clone().expect("the road network has coordinates");
    let hosts = uk.dataset.hosts.clone().expect("the web graph has hosts");
    let cases = [
        (DatasetKind::Wrn, "GVD (paper)", BlogelPartitioning::Gvd),
        (DatasetKind::Wrn, "2-D cells", BlogelPartitioning::TwoD { coords, cells_per_side: 16 }),
        (DatasetKind::Uk0705, "GVD (paper)", BlogelPartitioning::Gvd),
        (DatasetKind::Uk0705, "host prefix", BlogelPartitioning::Host { hosts }),
    ];
    let mut records = Vec::new();
    for (kind, label, partitioning) in cases {
        let ds = runner.env.prepare(kind);
        let cluster = runner.env.cluster_for(kind, 16, WorkloadKind::Wcc);
        let out = BlogelB { partitioning, ..BlogelB::default() }.run(&ds.input(
            Workload::Wcc,
            cluster,
            ctx.seed(),
        ));
        records.push(RunRecord::new(format!("BB/{label}"), "wcc", kind.name(), 16, out));
    }
    println!("{}", phase_table("Blogel-B WCC @16 by partitioner", &records).render());
    records
}

/// The language question the paper leaves open (§1, §7) — "it can be
/// claimed that some of the performance differences could be due to the
/// choice of the implementation language ... this point requires further
/// study". The simulator can run the controlled experiment: the *same*
/// Giraph execution structure with C++ constants instead of JVM ones.
pub fn language(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    let ds = runner.env.prepare(DatasetKind::Twitter);
    let mut t = Table::new(
        "same execution structure, different language constants",
        &["system", "machines", "load", "execute", "total", "peak mem (KB)"],
    );
    let mut records = Vec::new();
    for machines in [16usize, 64] {
        let cluster =
            runner.env.cluster_for(DatasetKind::Twitter, machines, WorkloadKind::PageRank);
        let engines: [(&str, Box<dyn Engine>); 3] = [
            ("G (JVM)", Box::new(Giraph::default())),
            ("G (C++)", Box::new(Giraph { native_constants: true, ..Giraph::default() })),
            ("BV", Box::new(BlogelV)),
        ];
        for (label, engine) in engines {
            let out = engine.run(&ds.input(pagerank20(), cluster.clone(), ctx.seed()));
            let p = out.metrics.phases;
            t.row(vec![
                label.into(),
                machines.to_string(),
                format!("{:.0}", p.load),
                format!("{:.0}", p.execute),
                format!("{:.0}", p.total()),
                (out.metrics.max_machine_memory() / 1024).to_string(),
            ]);
            records.push(RunRecord::new(label.into(), "pagerank", "Twitter", machines, out));
        }
    }
    println!("{}", t.render());
    records
}

/// GraphX lineage vs checkpointing on the road-network WCC (§5.6): plain
/// Pregel-on-Spark grows the lineage until OOM; checkpointing every two
/// iterations (the GraphFrames default) bounds memory but pays HDFS every
/// checkpoint; hash-to-min cuts the iteration count itself.
pub fn checkpointing(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    let ds = runner.env.prepare(DatasetKind::Wrn);
    let cluster = runner.env.cluster_for(DatasetKind::Wrn, 32, WorkloadKind::Wcc);
    let base = GraphX { num_partitions: Some(240), ..GraphX::default() };
    let variants = [
        ("plain (lineage grows)", base.clone()),
        ("checkpoint every 2", GraphX { checkpoint_every: Some(2), ..base.clone() }),
        ("hash-to-min", GraphX { wcc_hash_to_min: true, ..base.clone() }),
        (
            "hash-to-min + ckpt",
            GraphX { wcc_hash_to_min: true, checkpoint_every: Some(2), ..base.clone() },
        ),
    ];
    let mut records = Vec::new();
    for (label, engine) in variants {
        let out = engine.run(&ds.input(Workload::Wcc, cluster.clone(), ctx.seed()));
        println!(
            "{label:<22} status {:<4} iterations {:>5} peak/machine {} KB",
            out.metrics.status.code(),
            out.metrics.iterations,
            out.metrics.max_machine_memory() / 1024
        );
        records.push(RunRecord::new(label.into(), "wcc", "WRN", 32, out));
    }
    println!();
    println!("{}", phase_table("phase breakdown", &records).render());
    records
}

/// A deferred engine constructor (each trial builds a fresh engine).
type EngineMaker = fn() -> Box<dyn Engine>;

/// One family of mid-run disturbances priced against the same PageRank run
/// (Twitter @16, 20 iterations): every system runs once undisturbed, then
/// once per scenario with the plan built from the undisturbed runtime.
struct Scenarios {
    title: &'static str,
    clean_header: &'static str,
    /// (label, mechanism, engine).
    systems: &'static [(&'static str, &'static str, EngineMaker)],
    /// (table column, JSON key, plan at the undisturbed runtime).
    scenarios: [(&'static str, &'static str, fn(f64) -> FaultPlan); 3],
    /// What the JSON report is, and where it goes.
    report: (&'static str, &'static str),
}

#[derive(Serialize)]
struct ScenarioCost {
    /// `OK`, or the failure code of a run the scenario killed.
    status: String,
    total_secs: f64,
    /// Journal seconds under the `recovery`/`retry`/`straggler` labels.
    fault_secs: f64,
    /// Journal seconds under the `migrate` label: snapshot legs, fragment
    /// exchange, and index rebuild on the receiving machines.
    elastic_secs: f64,
    resizes: u64,
    migrated_bytes: u64,
    migrated_fragments: u64,
}

struct ScenarioRow {
    system: &'static str,
    mechanism: &'static str,
    clean_secs: f64,
    costs: Vec<(&'static str, ScenarioCost)>,
    /// Every disturbed run reproduced the undisturbed answer.
    results_identical: bool,
}

impl Serialize for ScenarioRow {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("ScenarioRow", 4 + self.costs.len())?;
        st.serialize_field("system", self.system)?;
        st.serialize_field("mechanism", self.mechanism)?;
        st.serialize_field("clean_secs", &self.clean_secs)?;
        for (key, cost) in &self.costs {
            st.serialize_field(key, cost)?;
        }
        st.serialize_field("results_identical", &self.results_identical)?;
        st.end()
    }
}

#[derive(Serialize)]
struct ScenarioReport {
    scale_base: u64,
    machines: usize,
    workload: &'static str,
    rows: Vec<ScenarioRow>,
}

impl Scenarios {
    /// Run the family. A disturbed run that fails is a cell showing its
    /// status code, not a crash; one that finishes must reproduce the
    /// undisturbed answer bit-for-bit.
    fn run(&self, ctx: &Ctx) -> Vec<RunRecord> {
        let mut runner = ctx.runner();
        let ds = runner.env.prepare(DatasetKind::Twitter);
        let base_cluster = runner.env.cluster_for(DatasetKind::Twitter, 16, WorkloadKind::PageRank);
        let columns = self.scenarios.map(|(column, _, _)| column);
        let mut t = Table::new(
            self.title,
            &["system", "mechanism", self.clean_header, columns[0], columns[1], columns[2]],
        );
        let mut rows = Vec::new();
        let mut records = Vec::new();
        for &(system, mechanism, make) in self.systems {
            let run = |faults: FaultPlan| -> RunOutput {
                let cluster = ClusterSpec { faults, ..base_cluster.clone() };
                make().run(&ds.input(pagerank20(), cluster, ctx.seed()))
            };
            let clean = run(FaultPlan::none());
            let t_clean = clean.metrics.total_time();
            let mut cells = vec![system.to_string(), mechanism.into(), format!("{t_clean:.0}")];
            let mut costs = Vec::new();
            let mut results_identical = true;
            for (column, key, plan) in self.scenarios {
                let out = run(plan(t_clean));
                let same = clean.result == out.result;
                results_identical &= same;
                if out.metrics.status.is_ok() && clean.metrics.status.is_ok() {
                    assert!(same, "{system}/{column} changed the answer");
                    let pct = (out.metrics.total_time() / t_clean - 1.0) * 100.0;
                    cells.push(format!("{pct:+.0}%"));
                } else {
                    cells.push(out.metrics.status.code().into());
                }
                costs.push((
                    key,
                    ScenarioCost {
                        status: out.metrics.status.code().into(),
                        total_secs: out.metrics.total_time(),
                        fault_secs: out.journal.fault_seconds(),
                        elastic_secs: out.journal.elastic_seconds(),
                        resizes: out.registry.counter("elastic.resizes"),
                        migrated_bytes: out.registry.counter("elastic.migrated.bytes"),
                        migrated_fragments: out.registry.counter("elastic.migrated.fragments"),
                    },
                ));
                let label = format!("{system}/{column}");
                records.push(RunRecord::new(label, "pagerank", "Twitter", 16, out));
            }
            let label = format!("{system}/undisturbed");
            records.push(RunRecord::new(label, "pagerank", "Twitter", 16, clean));
            t.row(cells);
            rows.push(ScenarioRow {
                system,
                mechanism,
                clean_secs: t_clean,
                costs,
                results_identical,
            });
        }
        println!("{}", t.render());
        let report = ScenarioReport {
            scale_base: ctx.cfg.scale.base,
            machines: 16,
            workload: "PageRank-I20",
            rows,
        };
        let (what, file) = self.report;
        let json = serde_json::to_string_pretty(&report).expect("the report serializes");
        write_output(what, file, json);
        println!("{what} -> {file}\n");
        records
    }
}

/// Table 1's fault-tolerance column, exercised. The paper lists each
/// system's mechanism (global checkpoint, re-execution, lineage, none) but
/// never kills a machine; the simulator can. Three fault axes:
///
/// * **crash** — one worker dies 70% of the way through the fault-free
///   runtime; the mechanism's recovery cost is the difference;
/// * **straggler** — one worker runs 2x slow for the middle half of the
///   run (no recovery, just skew the barriers absorb);
/// * **transient** — a lost shuffle fetch and a failed HDFS write, each
///   retried with bounded exponential backoff instead of aborting.
pub fn fault_tolerance(ctx: &Ctx) -> Vec<RunRecord> {
    Scenarios {
        title:
            "fault cost by axis (crash @70%; 2x straggler for the middle half; retried transients)",
        clean_header: "fault-free (s)",
        systems: &[
            ("G (no ckpt)", "restart from input", || Box::new(Giraph::default())),
            ("G (ckpt @5)", "global checkpoint", || {
                Box::new(Giraph { checkpoint_every: Some(5), ..Giraph::default() })
            }),
            ("HD", "task re-execution", || Box::new(Hadoop)),
            ("HL", "task re-execution", || Box::new(HaLoop)),
            ("S (lineage)", "RDD lineage recompute", || {
                Box::new(GraphX { num_partitions: Some(128), ..GraphX::default() })
            }),
            ("S (ckpt @5)", "lineage + checkpoint", || {
                Box::new(GraphX {
                    num_partitions: Some(128),
                    checkpoint_every: Some(5),
                    ..GraphX::default()
                })
            }),
            ("V", "query restart", || Box::new(Vertica::default())),
        ],
        scenarios: [
            ("crash", "crash", |t| FaultPlan::single(t * 0.7, 3)),
            ("straggler", "straggler", |t| FaultPlan {
                events: vec![FaultEvent::Straggler {
                    start: t * 0.25,
                    duration: t * 0.5,
                    machine: 3,
                    slowdown: 2.0,
                }],
            }),
            ("transient", "transient", |t| FaultPlan {
                events: vec![
                    FaultEvent::LostShuffleFetch { at_time: t * 0.4, machine: 3, attempts: 2 },
                    FaultEvent::FailedHdfsWrite { at_time: t * 0.6, machine: 3, attempts: 2 },
                ],
            }),
        ],
        report: ("fault cost decomposition", "BENCH_faults.json"),
    }
    .run(ctx)
}

/// Elastic cluster membership, measured. The paper fixes the machine count
/// per experiment (Table 2: 16..128) and never resizes a running job; the
/// simulator can. Three membership scenarios, on the two engines that
/// migrate live state (Giraph's BSP checkpoint path and GraphX's RDD
/// re-materialization):
///
/// * **scale-in** — half the machines leave 40% of the way through; the
///   departing hosts' fragments are snapshotted to HDFS and rebuilt on the
///   survivors, and every superstep after the cut runs at half width;
/// * **trough** — scale-in at 30%, scale-out back at 60%: the cluster
///   returns to its original placement (the fragment map is deterministic),
///   paying migration twice;
/// * **scale-out** — 8 extra machines join at 40%. Placement granularity is
///   the fragment (one per initial machine), so the newcomers idle and zero
///   bytes move — the honest partition-granularity limitation.
pub fn elastic(ctx: &Ctx) -> Vec<RunRecord> {
    fn resize(at_time: f64, delta: i64) -> FaultEvent {
        FaultEvent::Resize { at_time, delta }
    }
    Scenarios {
        title: "elastic membership cost (16 machines; -m8 = half leave, +m8 = half join)",
        clean_header: "static (s)",
        systems: &[
            ("G (ckpt @5)", "snapshot-assisted migration", || {
                Box::new(Giraph { checkpoint_every: Some(5), ..Giraph::default() })
            }),
            ("S (lineage)", "RDD re-materialization", || {
                Box::new(GraphX { num_partitions: Some(128), ..GraphX::default() })
            }),
        ],
        scenarios: [
            ("scale-in", "scale_in", |t| FaultPlan { events: vec![resize(t * 0.4, -8)] }),
            ("trough", "trough", |t| FaultPlan {
                events: vec![resize(t * 0.3, -8), resize(t * 0.6, 8)],
            }),
            ("scale-out", "scale_out", |t| FaultPlan { events: vec![resize(t * 0.4, 8)] }),
        ],
        report: ("elastic membership cost decomposition", "BENCH_elastic.json"),
    }
    .run(ctx)
}

/// Weak scalability (§5.12). The paper only runs *strong* scaling (fixed
/// datasets) because its datasets are real; with generators the LDBC-style
/// weak experiment is available: grow the graph with the cluster so
/// per-machine load stays constant. Ideal weak scaling = flat total time.
pub fn weak_scaling(ctx: &Ctx) -> Vec<RunRecord> {
    let (base, seed) = (ctx.cfg.scale.base, ctx.seed());
    // Fix the work-scale at the 16-machine baseline so the simulated data
    // volume genuinely grows with the cluster (a per-row paper
    // normalization would collapse this back into strong scaling).
    let mut env16 = PaperEnv::new(Scale { base }, seed);
    let work_scale = env16.prepare(DatasetKind::Twitter).work_scale;
    let budget = env16.memory_per_machine();

    let mut t = Table::new(
        "total seconds with data scaled as machines/16 (flat = ideal)",
        &["machines", "vertices", "BV", "G", "GL-S-R-I", "V"],
    );
    let mut records = Vec::new();
    for machines in CLUSTER_SIZES {
        let mut env = PaperEnv::new(Scale { base: base * machines as u64 / 16 }, seed);
        let ds = env.prepare(DatasetKind::Twitter);
        let cluster = ClusterSpec { work_scale, ..ClusterSpec::r3_xlarge(machines, budget) };
        let engines: [Box<dyn Engine>; 4] = [
            Box::new(BlogelV),
            Box::new(Giraph::default()),
            Box::new(GraphLab::sync_random()),
            Box::new(Vertica::default()),
        ];
        let mut row = vec![machines.to_string(), ds.graph.num_vertices().to_string()];
        for engine in engines {
            let out = engine.run(&EngineInput {
                scale: ScaleInfo::actual(&ds.dataset.edges),
                ..ds.input(pagerank20(), cluster.clone(), seed)
            });
            let rec = RunRecord::new(engine.short_name(), "pagerank", "Twitter", machines, out);
            row.push(rec.cell());
            records.push(rec);
        }
        t.row(row);
    }
    println!("{}", t.render());
    records
}

/// The K in K-hop. The paper fixes K = 3 "to reduce the impact of graph
/// diameter ... and to represent multiple use cases, such as the
/// friends-of-friends query and its potential indexes" (§3.3). Sweeping K
/// shows where the traversal flips from online query to full-graph job.
pub fn khop_sweep(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    let mut records = Vec::new();
    for kind in [DatasetKind::Twitter, DatasetKind::Wrn] {
        let ds = runner.env.prepare(kind);
        let cluster = runner.env.cluster_for(kind, 16, WorkloadKind::KHop);
        let n = ds.graph.num_vertices() as f64;
        let mut t = Table::new(
            format!("{} — K sweep (BV vs GL-S-A)", kind.name()),
            &["K", "reached %", "BV total (s)", "GL total (s)"],
        );
        for k in [1u32, 2, 3, 4, 6] {
            let reached = reference::khop(&ds.graph, ds.source, k)
                .iter()
                .filter(|&&d| d != graphbench_algos::UNREACHABLE)
                .count() as f64;
            let mut row = vec![k.to_string(), format!("{:.1}", 100.0 * reached / n)];
            for system in [
                SystemId::BlogelV,
                SystemId::GraphLab { sync: true, auto: true, stop: GlStop::Iterations },
            ] {
                let workload = Workload::KHop { source: ds.source, k };
                let out = system.build(None).run(&ds.input(workload, cluster.clone(), ctx.seed()));
                row.push(format!("{:.0}", out.metrics.total_time()));
                let label = format!("{}/K={k}", system.label());
                records.push(RunRecord::new(label, "khop", kind.name(), 16, out));
            }
            t.row(row);
        }
        println!("{}", t.render());
    }
    records
}
