//! Tables 3–9.

use crate::Ctx;
use graphbench::paper::{PaperEnv, CLUSTER_SIZES};
use graphbench::report::Table;
use graphbench::runner::{ExperimentSpec, RunRecord};
use graphbench::system::{GlStop, SystemId};
use graphbench_algos::WorkloadKind;
use graphbench_engines::graphx::GraphX;
use graphbench_gen::{Dataset, DatasetKind};
use graphbench_graph::format::GraphFormat;
use graphbench_graph::stats;
use graphbench_partition::{VertexCutPartition, VertexCutStrategy};

/// A row of `kind`'s name, one cell per cluster size, and a paper column.
fn size_row(kind: DatasetKind, cells: Vec<String>, paper: String) -> Vec<String> {
    std::iter::once(kind.name().to_string()).chain(cells).chain([paper]).collect()
}

/// Dataset characteristics — |E|, average/maximum degree, diameter — for
/// the four generated stand-ins, next to the paper's real values.
pub fn table3(ctx: &Ctx) -> Vec<RunRecord> {
    let seed = ctx.seed();
    let mut t = Table::new(
        "Table 3 — generated datasets vs the paper's",
        &[
            "dataset",
            "|E|",
            "avg deg",
            "max deg",
            "diam",
            "eff. diam (90%)",
            "paper |E|",
            "paper avg/max",
            "paper diam",
        ],
    );
    for kind in DatasetKind::ALL {
        let g = Dataset::generate(kind, ctx.cfg.scale, seed).to_csr();
        let s = stats::compute_stats(&g);
        let eff = stats::effective_diameter(&g, 0.9, 4, seed);
        let (pe, pavg, pmax, pdiam) = kind.paper_stats();
        t.row(vec![
            kind.name().into(),
            s.num_edges.to_string(),
            format!("{:.2}", s.avg_out_degree),
            s.max_out_degree.to_string(),
            s.diameter.to_string(),
            format!("{eff:.2}"),
            format!("{:.2e}", pe as f64),
            format!("{pavg} / {pmax}"),
            format!("{pdiam}"),
        ]);
    }
    println!("{}", t.render());
    vec![]
}

/// GraphLab's replication factor, random vs auto partitioning, across
/// datasets and cluster sizes.
pub fn table4(ctx: &Ctx) -> Vec<RunRecord> {
    let seed = ctx.seed();
    // Paper values (dataset, machines) -> (random, auto); NA = failed load.
    let paper = |kind: DatasetKind, m: usize| -> &'static str {
        match (kind, m) {
            (DatasetKind::Twitter, 16) => "9.3 / 5.5",
            (DatasetKind::Twitter, 32) => "13.3 / 9.8",
            (DatasetKind::Twitter, 64) => "17.8 / 9.1",
            (DatasetKind::Twitter, 128) => "22.5 / 15.2",
            (DatasetKind::Wrn, 16) => "NA / NA",
            (DatasetKind::Wrn, 32) => "3.0 / 2.2",
            (DatasetKind::Wrn, 64) => "3.0 / 3.0",
            (DatasetKind::Wrn, 128) => "3.0 / 2.3",
            (DatasetKind::Uk0705, 16) => "5.7 / NA",
            (DatasetKind::Uk0705, 32) => "15.8 / 3.6",
            (DatasetKind::Uk0705, 64) => "21.5 / 10.1",
            (DatasetKind::Uk0705, 128) => "27.1 / 4.5",
            _ => "-",
        }
    };
    let mut t = Table::new(
        "Table 4 — replication factor (measured random / auto vs paper)",
        &["dataset", "machines", "random", "auto", "auto strategy", "paper (rnd/auto)"],
    );
    for kind in [DatasetKind::Twitter, DatasetKind::Wrn, DatasetKind::Uk0705] {
        // GraphLab drops self-edges before partitioning.
        let mut edges = Dataset::generate(kind, ctx.cfg.scale, seed).edges;
        edges.remove_self_edges();
        for machines in CLUSTER_SIZES {
            let build = |strategy| {
                VertexCutPartition::build(&edges, machines, strategy, seed)
                    .expect("the paper's cluster sizes partition")
            };
            let (random, auto) = (build(VertexCutStrategy::Random), build(VertexCutStrategy::Auto));
            t.row(vec![
                kind.name().into(),
                machines.to_string(),
                format!("{:.1}", random.replication_factor()),
                format!("{:.1}", auto.replication_factor()),
                auto.resolved_strategy().name().into(),
                paper(kind, machines).into(),
            ]);
        }
    }
    println!("{}", t.render());
    vec![]
}

/// The GraphX partition counts used at each (dataset, cluster size), plus
/// the HDFS-block default the paper found sub-optimal.
pub fn table5(ctx: &Ctx) -> Vec<RunRecord> {
    let mut env = PaperEnv::new(ctx.cfg.scale, ctx.seed());
    let mut t = Table::new(
        "Table 5 — GraphX partitions per cluster size (paper's tuned values)",
        &["dataset", "16", "32", "64", "128", "default (#blocks, paper)"],
    );
    for (kind, default) in
        [(DatasetKind::Twitter, 440u64), (DatasetKind::Wrn, 240), (DatasetKind::Uk0705, 1200)]
    {
        let cells = CLUSTER_SIZES
            .iter()
            .map(|&m| env.graphx_partitions(kind, m).expect("Table 5 covers the cell").to_string());
        t.row(size_row(kind, cells.collect(), default.to_string()));
    }
    println!("{}", t.render());

    // The default derivation at paper scale: one partition per 64 MB block.
    let ds = env.prepare(DatasetKind::Twitter);
    let bytes = ds.graph.text_bytes(GraphFormat::EdgeListFormat);
    let paper_bytes = (bytes as f64 * ds.work_scale) as u64;
    println!(
        "HDFS-block default for Twitter at paper scale: {} blocks of 64 MB over {:.1} GB \
         (paper: 440)",
        GraphX::default().partitions_for(paper_bytes),
        paper_bytes as f64 / 1e9
    );
    vec![]
}

/// Per-iteration time for Giraph and GraphX on the road network (SSSP and
/// WCC, 16 and 32 machines), and the 24-hour feasibility threshold the
/// paper derives from it.
pub fn table6(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    let wrn = runner.env.prepare(DatasetKind::Wrn);
    let paper_d = 48_000.0f64;
    let measured_d = wrn.diameter as f64;
    let mut t = Table::new(
        "Table 6 — seconds per paper-scale iteration",
        &["system", "workload", "machines", "status", "sec/iter", "paper sec/iter"],
    );
    let paper = |sys: SystemId, w: WorkloadKind, m: usize| -> &'static str {
        match (sys, w, m) {
            (SystemId::Giraph, WorkloadKind::Sssp, 16) => "6",
            (SystemId::Giraph, WorkloadKind::Wcc, 16) => "OOM",
            (SystemId::Giraph, WorkloadKind::Sssp, 32) => "3",
            (SystemId::Giraph, WorkloadKind::Wcc, 32) => "3.2",
            (SystemId::GraphX, WorkloadKind::Sssp, 16) => "120",
            (SystemId::GraphX, WorkloadKind::Wcc, 16) => "420",
            (SystemId::GraphX, WorkloadKind::Sssp, 32) => "17",
            (SystemId::GraphX, WorkloadKind::Wcc, 32) => "30",
            _ => "-",
        }
    };
    let mut records = Vec::new();
    for system in [SystemId::Giraph, SystemId::GraphX] {
        for workload in [WorkloadKind::Sssp, WorkloadKind::Wcc] {
            for machines in [16usize, 32] {
                let rec = runner.run(&ExperimentSpec {
                    system,
                    workload,
                    dataset: DatasetKind::Wrn,
                    machines,
                });
                // One executed superstep stands for superstep_scale paper
                // iterations; report per paper-scale iteration.
                let per_iter = if rec.metrics.iterations > 0 {
                    let paper_iters =
                        rec.metrics.iterations as f64 * (paper_d / measured_d).max(1.0);
                    format!("{:.1}", rec.metrics.phases.execute / paper_iters)
                } else {
                    "-".into()
                };
                t.row(vec![
                    rec.system.clone(),
                    workload.name().into(),
                    machines.to_string(),
                    rec.metrics.status.code().into(),
                    per_iter,
                    paper(system, workload, machines).into(),
                ]);
                records.push(rec);
            }
        }
    }
    println!("{}", t.render());
    records
}

/// Blogel-V phase times on ClueWeb at 128 machines — the only
/// system/dataset pairing that worked at all (§5.9).
pub fn table7(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    let mut clueweb = |system, workload| {
        runner.run(&ExperimentSpec {
            system,
            workload,
            dataset: DatasetKind::ClueWeb,
            machines: 128,
        })
    };
    let mut t = Table::new(
        "Table 7 — Blogel-V phase seconds on ClueWeb, 128 machines",
        &["workload", "read", "execute", "save", "others", "paper (r/e/s/o)"],
    );
    let mut records = Vec::new();
    for (workload, paper) in [
        (WorkloadKind::PageRank, "132.5 / 139.7 / 10.5 / 15.3"),
        (WorkloadKind::Wcc, "134.1 / 152.5 / 11.5 / 10.6"),
        (WorkloadKind::Sssp, "158.3 / 89.3 / 2.2 / 20.7"),
        (WorkloadKind::KHop, "161.6 / 0.03 / 0.2 / 16.4"),
    ] {
        let rec = clueweb(SystemId::BlogelV, workload);
        assert!(rec.metrics.status.is_ok(), "{:?}", rec.metrics.status);
        let p = rec.metrics.phases;
        t.row(vec![
            workload.name().into(),
            format!("{:.1}", p.load),
            format!("{:.1}", p.execute),
            format!("{:.1}", p.save),
            format!("{:.1}", p.overhead),
            paper.into(),
        ]);
        records.push(rec);
    }
    println!("{}", t.render());

    // The paper's companions: every other in-memory system fails here.
    println!("Other systems on ClueWeb @128 (PageRank):");
    for system in [SystemId::Giraph, SystemId::Gelly, SystemId::BlogelB] {
        let rec = clueweb(system, WorkloadKind::PageRank);
        println!("  {:<4} {}", rec.system, rec.metrics.status.code());
        records.push(rec);
    }
    records
}

/// Total Giraph memory across the cluster vs cluster size — the fixed
/// per-machine JVM footprint makes totals *grow* with machines.
pub fn table8(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    let budget = runner.env.memory_per_machine();
    let mut t = Table::new(
        "Table 8 — Giraph peak memory summed across machines (PageRank), as a multiple of one machine's budget",
        &["dataset", "16", "32", "64", "128", "paper GB (16/32/64/128)"],
    );
    let mut records = Vec::new();
    for (kind, p) in [
        (DatasetKind::Twitter, [191.5, 323.6, 606.4, 923.5]),
        (DatasetKind::Uk0705, [264.0, 411.8, 717.6, 1322.6]),
        (DatasetKind::Wrn, [363.7, 475.4, 683.4, 1054.1]),
    ] {
        let mut cells = Vec::new();
        for machines in CLUSTER_SIZES {
            let rec = runner.run(&ExperimentSpec {
                system: SystemId::Giraph,
                workload: WorkloadKind::PageRank,
                dataset: kind,
                machines,
            });
            cells.push(format!("{:.1}", rec.metrics.total_peak_memory() as f64 / budget as f64));
            records.push(rec);
        }
        t.row(size_row(kind, cells, format!("{} / {} / {} / {}", p[0], p[1], p[2], p[3])));
    }
    println!("{}", t.render());
    records
}

/// Table 9 / §5.13: the COST experiment — a single optimized thread vs the
/// best parallel system at 16 machines.
pub fn table9(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    let parallel = [
        SystemId::BlogelB,
        SystemId::BlogelV,
        SystemId::Giraph,
        SystemId::GraphLab { sync: true, auto: true, stop: GlStop::Iterations },
        SystemId::GraphLab { sync: true, auto: false, stop: GlStop::Iterations },
        SystemId::Gelly,
    ];
    let paper = |d: DatasetKind, w: WorkloadKind| -> &'static str {
        match (d, w) {
            (DatasetKind::Twitter, WorkloadKind::PageRank) => "BV=260 vs 490",
            (DatasetKind::Twitter, WorkloadKind::Sssp) => "BV=48.3 vs 422",
            (DatasetKind::Twitter, WorkloadKind::Wcc) => "GL=248 vs 452",
            (DatasetKind::Uk0705, WorkloadKind::PageRank) => "BV=338.7 vs 720",
            (DatasetKind::Uk0705, WorkloadKind::Sssp) => "BV=122.3 vs 610",
            (DatasetKind::Uk0705, WorkloadKind::Wcc) => "GL=492.67 vs 632",
            (DatasetKind::Wrn, WorkloadKind::PageRank) => "BV=268.3 vs 880",
            (DatasetKind::Wrn, WorkloadKind::Sssp) => "BV=11295 vs 455",
            (DatasetKind::Wrn, WorkloadKind::Wcc) => "BV=19831 vs 640",
            _ => "-",
        }
    };
    let mut t = Table::new(
        "Table 9 — best parallel (P) vs single thread (S), seconds",
        &["dataset", "workload", "best P", "P", "S", "COST (S/P)", "paper (P vs S)"],
    );
    let mut records = Vec::new();
    for dataset in [DatasetKind::Twitter, DatasetKind::Uk0705, DatasetKind::Wrn] {
        for workload in [WorkloadKind::PageRank, WorkloadKind::Sssp, WorkloadKind::Wcc] {
            let mut best: Option<(String, f64)> = None;
            for system in parallel {
                let rec = runner.run(&ExperimentSpec { system, workload, dataset, machines: 16 });
                if rec.metrics.status.is_ok() {
                    let time = rec.metrics.total_time();
                    if best.as_ref().is_none_or(|(_, b)| time < *b) {
                        best = Some((rec.system.clone(), time));
                    }
                }
                records.push(rec);
            }
            let st = runner.run(&ExperimentSpec {
                system: SystemId::SingleThread,
                workload,
                dataset,
                machines: 1,
            });
            let s = st.metrics.total_time();
            records.push(st);
            let (name, p) = best.unwrap_or(("none".into(), f64::NAN));
            t.row(vec![
                dataset.name().into(),
                workload.name().into(),
                name,
                format!("{p:.0}"),
                format!("{s:.0}"),
                format!("{:.2}", s / p),
                paper(dataset, workload).into(),
            ]);
        }
    }
    println!("{}", t.render());
    records
}
