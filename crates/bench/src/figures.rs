//! Figures 1–13.

use crate::Ctx;
use graphbench::paper::CLUSTER_SIZES;
use graphbench::report::{cost_breakdown, critical_path_table, figure_grid, phase_table};
use graphbench::runner::{ExperimentSpec, RunRecord, Runner};
use graphbench::stats::MultiRunRecord;
use graphbench::system::{GlStop, SystemId};
use graphbench::viz;
use graphbench_algos::workload::PageRankConfig;
use graphbench_algos::{Workload, WorkloadKind};
use graphbench_engines::gas::{GasMode, GraphLab};
use graphbench_engines::graphx::GraphX;
use graphbench_engines::{Engine, EngineInput, ScaleInfo};
use graphbench_gen::DatasetKind;
use graphbench_partition::metrics::imbalance;

const GL_SYNC_AUTO_I: SystemId =
    SystemId::GraphLab { sync: true, auto: true, stop: GlStop::Iterations };
const GL_SYNC_AUTO_T: SystemId =
    SystemId::GraphLab { sync: true, auto: true, stop: GlStop::Tolerance };

/// One block of a figure grid: a line-up over workloads × datasets, at all
/// four cluster sizes.
pub type GridRow = (fn() -> Vec<SystemId>, &'static [WorkloadKind], &'static [DatasetKind]);

const PAPER_ORDER: &[DatasetKind] = &[DatasetKind::Wrn, DatasetKind::Uk0705, DatasetKind::Twitter];

/// Run the rows in order across the seed sweep.
pub fn run_grid(runner: &mut Runner, rows: &[GridRow]) -> Vec<MultiRunRecord> {
    let mut records = Vec::new();
    for (lineup, workloads, datasets) in rows {
        records.extend(runner.run_matrix_multi(&lineup(), workloads, datasets, &CLUSTER_SIZES));
    }
    records
}

/// Run the rows and print one grid per (dataset, workload). The grids carry
/// the seed spread; the primary-seed records are what is left to export.
fn grid(ctx: &Ctx, rows: &[GridRow]) -> Vec<RunRecord> {
    let records = run_grid(&mut ctx.runner(), rows);
    for table in figure_grid(&records) {
        println!("{}", table.render());
    }
    records.into_iter().map(MultiRunRecord::into_primary).collect()
}

/// GraphLab's cores-for-computation sweep — synchronous mode gains ~40%
/// from using all 4 cores, asynchronous does not (§4.4.2).
pub fn fig01(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    let ds = runner.env.prepare(DatasetKind::Twitter);
    let cluster = runner.env.cluster_for(DatasetKind::Twitter, 16, WorkloadKind::PageRank);
    let mut records = Vec::new();
    let mut items = [Vec::new(), Vec::new()];
    for cores in [1u32, 2, 3, 4] {
        for (mode, items) in [GasMode::Sync, GasMode::Async].into_iter().zip(&mut items) {
            let engine = GraphLab { mode, compute_cores: cores, ..GraphLab::sync_random() };
            let workload = Workload::PageRank(PageRankConfig::fixed(30));
            let out = engine.run(&EngineInput {
                scale: ScaleInfo::actual(&ds.dataset.edges),
                ..ds.input(workload, cluster.clone(), ctx.seed())
            });
            items.push((format!("{cores} cores"), out.metrics.phases.execute));
            let label = format!("{} ({cores} cores)", engine.short_name());
            records.push(RunRecord::new(label, "pagerank", "Twitter", 16, out));
        }
    }
    let [sync, asynchronous] = &items;
    println!("{}", viz::bars("synchronous: execute seconds by compute cores", sync, 50));
    println!("{}", viz::bars("asynchronous: execute seconds by compute cores", asynchronous, 50));
    let sync_gain = sync[1].1 / sync[3].1;
    println!("synchronous speed-up from 2 -> 4 cores: {:.0}%", (sync_gain - 1.0) * 100.0);
    records
}

/// How the GraphX partition count affects performance, for Twitter and UK
/// over 32/64/128 machines.
pub fn fig02(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    let mut records = Vec::new();
    for kind in [DatasetKind::Twitter, DatasetKind::Uk0705] {
        let ds = runner.env.prepare(kind);
        let sweeps: &[usize] = if kind == DatasetKind::Twitter {
            &[100, 128, 256, 440, 880, 2000]
        } else {
            &[128, 256, 512, 1024, 1200, 2000]
        };
        for machines in [32usize, 64, 128] {
            let cluster = runner.env.cluster_for(kind, machines, WorkloadKind::PageRank);
            let mut items = Vec::new();
            for &parts in sweeps {
                let engine = GraphX { num_partitions: Some(parts), ..GraphX::default() };
                let workload = Workload::PageRank(PageRankConfig::fixed(20));
                let out = engine.run(&ds.input(workload, cluster.clone(), ctx.seed()));
                let label = format!("{parts} partitions");
                if out.metrics.status.is_ok() {
                    items.push((label, out.metrics.total_time()));
                } else {
                    items.push((format!("{label} [{}]", out.metrics.status.code()), 0.0));
                }
                let label = format!("S/{parts}");
                records.push(RunRecord::new(label, "pagerank", kind.name(), machines, out));
            }
            let title =
                format!("{} @ {machines} machines: total seconds by partition count", kind.name());
            println!("{}", viz::bars(&title, &items, 46));
        }
    }
    records
}

/// Blogel-B without the HDFS round-trip between partitioning and execution
/// — the paper's proposed modification cuts load time ~50%.
pub fn fig03(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    let mut records = Vec::new();
    for kind in [DatasetKind::Twitter, DatasetKind::Uk0705] {
        for system in [SystemId::BlogelB, SystemId::BlogelBModified] {
            let spec =
                ExperimentSpec { system, workload: WorkloadKind::Wcc, dataset: kind, machines: 16 };
            records.push(runner.run(&spec));
        }
        let [.., stock, modified] = &records[..] else { unreachable!("two runs per dataset") };
        println!(
            "{}: load {:.0}s -> {:.0}s ({:.0}% reduction), identical execution",
            kind.name(),
            stock.metrics.phases.load,
            modified.metrics.phases.load,
            100.0 * (1.0 - modified.metrics.phases.load / stock.metrics.phases.load)
        );
    }
    println!();
    println!("{}", phase_table("Figure 3 — stock BB vs modified BB*", &records).render());
    records
}

/// The fraction of vertices updated per iteration in approximate vs exact
/// PageRank (GraphLab's opt-out, §5.2).
pub fn fig04(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    // The paper's approximate runs use the tolerance criterion at the
    // initial-rank threshold; our compensated tolerance keeps iteration
    // counts comparable (see Runner::pr_tolerance).
    runner.pr_tolerance = 1e-3;
    let mut records = Vec::new();
    for kind in [DatasetKind::Twitter, DatasetKind::Uk0705, DatasetKind::Wrn] {
        let n = runner.env.prepare(kind).graph.num_vertices() as u64;
        let approx = runner.run(&ExperimentSpec {
            system: GL_SYNC_AUTO_T,
            workload: WorkloadKind::PageRank,
            dataset: kind,
            machines: 32,
        });
        if approx.metrics.status.is_ok() {
            let title = format!(
                "{} — % of vertices updated per iteration (approximate; exact = 100% for all {} iterations)",
                kind.name(),
                approx.updates_per_iteration.len()
            );
            let series = viz::update_fraction_series(&title, &approx.updates_per_iteration, n, 40);
            println!("{series}");
        } else {
            println!("{}: {}", kind.name(), approx.metrics.status.code());
        }
        records.push(approx);
    }
    records
}

/// Twitter across all four workloads and all cluster sizes.
pub fn fig05(ctx: &Ctx) -> Vec<RunRecord> {
    const TWITTER: &[DatasetKind] = &[DatasetKind::Twitter];
    let rows: [GridRow; 2] = [
        (
            SystemId::traversal_lineup,
            &[WorkloadKind::KHop, WorkloadKind::Wcc, WorkloadKind::Sssp],
            TWITTER,
        ),
        (SystemId::pagerank_lineup, &[WorkloadKind::PageRank], TWITTER),
    ];
    grid(ctx, &rows)
}

/// PageRank across WRN / UK0705 / Twitter and all cluster sizes, with the
/// full GraphLab variant grid.
pub fn fig06(ctx: &Ctx) -> Vec<RunRecord> {
    let row: GridRow = (SystemId::pagerank_lineup, &[WorkloadKind::PageRank], PAPER_ORDER);
    let records = grid(ctx, &[row]);
    // One phase breakdown, as the figure's stacked bars show.
    let tw16: Vec<&RunRecord> =
        records.iter().filter(|r| r.dataset == "Twitter" && r.machines == 16).collect();
    println!(
        "{}",
        phase_table("Twitter @16 phase breakdown (stacked-bar data)", tw16.iter().copied())
            .render()
    );
    let stacks: Vec<(String, [f64; 4])> = tw16
        .iter()
        .filter(|r| r.metrics.status.is_ok())
        .map(|r| {
            let p = r.metrics.phases;
            (r.system.clone(), [p.load, p.execute, p.save, p.overhead])
        })
        .collect();
    println!("{}", viz::stacked_bars("Twitter @16 (as stacked bars)", &stacks, 60));
    records
}

/// The runs of spaces are what this note has always printed (a lost line
/// continuation); output stays byte-identical.
pub const TRAVERSAL_NOTE: &str = "the WRN row is the story: diameter-bound workloads break most systems (OOM/TO)          while Blogel survives; on the power-law graphs everything finishes and the          ordering is BB/BV, then GL/G, then FG, then S, then HD/HL.";

/// Figures 7–9: one traversal workload across WRN / UK0705 / Twitter and
/// all cluster sizes, for the traversal line-up.
fn traversal_grid(ctx: &Ctx, workload: &'static [WorkloadKind]) -> Vec<RunRecord> {
    grid(ctx, &[(SystemId::traversal_lineup, workload, PAPER_ORDER)])
}

pub fn fig07(ctx: &Ctx) -> Vec<RunRecord> {
    traversal_grid(ctx, &[WorkloadKind::KHop])
}

pub fn fig08(ctx: &Ctx) -> Vec<RunRecord> {
    traversal_grid(ctx, &[WorkloadKind::Sssp])
}

pub fn fig09(ctx: &Ctx) -> Vec<RunRecord> {
    traversal_grid(ctx, &[WorkloadKind::Wcc])
}

/// Per-machine memory time series for GraphLab's synchronous vs
/// asynchronous PageRank on the road network at 128 machines — the
/// asynchronous lock-record pool balloons until the run dies.
pub fn fig10(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    let mut records = Vec::new();
    for (label, sync) in [("synchronous", true), ("asynchronous", false)] {
        let rec = runner.run(&ExperimentSpec {
            system: SystemId::GraphLab { sync, auto: true, stop: GlStop::Tolerance },
            workload: WorkloadKind::PageRank,
            dataset: DatasetKind::Wrn,
            machines: 128,
        });
        println!(
            "{label}: status {}, max memory skew across machines {} B",
            rec.metrics.status.code(),
            rec.trace.max_skew()
        );
        println!("{}", viz::memory_timeseries(&rec.trace, 70, 12));
        // The "why" behind the memory picture: which machines and labels
        // the simulated runtime actually decomposes into.
        println!("{}", critical_path_table(&format!("{label}: critical path"), &rec, 8).render());
        records.push(rec);
    }
    records
}

/// GraphX does not balance partitions across machines — at 128 machines
/// one executor hoards several times the mean.
pub fn fig11(ctx: &Ctx) -> Vec<RunRecord> {
    let assign = GraphX::default().assign_partitions(1200, 128, ctx.seed());
    let mut counts = vec![0u64; 128];
    for &m in &assign {
        counts[m] += 1;
    }
    let max = *counts.iter().max().expect("128 machines");
    let mut hist = vec![0u64; max as usize + 1];
    for &c in &counts {
        hist[c as usize] += 1;
    }
    let items: Vec<(String, f64)> = hist
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(parts, &n)| (format!("{parts:>3} partitions"), n as f64))
        .collect();
    println!("{}", viz::bars("machines by partition count (mean = 1200/128 = 9.4)", &items, 50));
    println!(
        "max on one machine: {max} partitions; imbalance (max/mean): {:.1}",
        imbalance(&counts)
    );
    vec![]
}

/// Vertica vs the graph systems — SSSP and a 55-iteration PageRank on UK
/// at 32 machines.
pub fn fig12(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    // The paper runs PageRank for a fixed 55 iterations here.
    runner.fixed_pr_iterations = 55;
    let mut records = Vec::new();
    for (workload, title) in [
        (WorkloadKind::Sssp, "SSSP on UK @32 — total seconds"),
        (WorkloadKind::PageRank, "PageRank (55 iters for -I) on UK @32 — total seconds"),
    ] {
        let mut items = Vec::new();
        for system in [
            SystemId::Vertica,
            SystemId::BlogelV,
            SystemId::Giraph,
            GL_SYNC_AUTO_I,
            SystemId::Gelly,
        ] {
            let multi = runner.run_multi(&ExperimentSpec {
                system,
                workload,
                dataset: DatasetKind::Uk0705,
                machines: 32,
            });
            let name = multi.system();
            items.push(if !multi.all_ok() {
                (format!("{name} [{}]", multi.unanimous_code().unwrap_or("MIX")), 0.0)
            } else if multi.n() > 1 {
                // Bar length is the mean; the label carries the spread.
                (format!("{name} (±{:.0})", multi.total_time().stddev), multi.total_time().mean)
            } else {
                (name.to_string(), multi.total_time().mean)
            });
            records.push(multi.into_primary());
        }
        println!("{}", viz::bars(title, &items, 50));
    }
    records
}

/// How Vertica uses its resources — small memory footprint but dominant
/// I/O-wait and network, against the in-memory graph systems. (UK PageRank
/// at 64 machines, as in the paper.)
pub fn fig13(ctx: &Ctx) -> Vec<RunRecord> {
    let mut runner = ctx.runner();
    let mut mem_items = Vec::new();
    let mut net_items = Vec::new();
    let mut records = Vec::new();
    for system in
        [SystemId::Vertica, SystemId::BlogelV, SystemId::Giraph, GL_SYNC_AUTO_I, SystemId::Hadoop]
    {
        let rec = runner.run(&ExperimentSpec {
            system,
            workload: WorkloadKind::PageRank,
            dataset: DatasetKind::Uk0705,
            machines: 64,
        });
        print!("{}", viz::utilization(&format!("{:<6}", rec.system), &rec.metrics.cpu));
        mem_items.push((rec.system.clone(), rec.metrics.max_machine_memory() as f64 / 1e3));
        net_items.push((rec.system.clone(), rec.metrics.network_bytes as f64 / 1e9));
        records.push(rec);
    }
    println!();
    // Where inside each run the time goes — the journal's label-level
    // decomposition behind the utilization bars above.
    for rec in &records {
        let title = format!("{} cost decomposition (from the run journal)", rec.system);
        println!("{}", cost_breakdown(&title, rec).render());
    }
    println!("{}", viz::bars("(b) peak memory per machine, KB", &mem_items, 50));
    println!("{}", viz::bars("(c) network traffic, GB (paper-equivalent)", &net_items, 50));
    records
}
