//! The paper's log-visualization tool as a standalone binary: read a
//! `repro_results.json` produced by `repro_all` (or any JSON array of run
//! records) and render figure-style summaries without re-running anything.
//!
//! ```sh
//! cargo run --release -p graphbench-repro --bin repro_all
//! cargo run --release -p graphbench-repro --bin render -- repro_results.json
//! ```

use graphbench::report::{figure_grid, Table};
use graphbench::runner::RunRecord;
use graphbench::viz;
use serde::Deserialize;

/// The subset of [`RunRecord`] the renderer needs (forward-compatible with
/// extra fields in the JSON).
#[derive(Deserialize)]
struct Rec {
    system: String,
    workload: String,
    dataset: String,
    machines: usize,
    metrics: graphbench_sim::RunMetrics,
    #[serde(default)]
    notes: Vec<String>,
    #[serde(default)]
    updates_per_iteration: Vec<u64>,
    #[serde(default)]
    trace: graphbench_sim::Trace,
    #[serde(default)]
    journal: graphbench_sim::Journal,
    #[serde(default)]
    registry: graphbench_sim::MetricsRegistry,
    #[serde(default)]
    runtime: f64,
}

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "repro_results.json".into());
    let data = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let recs: Vec<Rec> = serde_json::from_str(&data).expect("valid run-record JSON");
    println!("loaded {} records from {path}\n", recs.len());

    // Rehydrate into RunRecords for the report machinery. `workload` and
    // `dataset` need 'static strs; intern through leaking (a one-shot CLI).
    let records: Vec<RunRecord> = recs
        .into_iter()
        .map(|r| RunRecord {
            system: r.system,
            workload: Box::leak(r.workload.into_boxed_str()),
            dataset: Box::leak(r.dataset.into_boxed_str()),
            machines: r.machines,
            metrics: r.metrics,
            notes: r.notes,
            updates_per_iteration: r.updates_per_iteration,
            trace: r.trace,
            journal: r.journal,
            registry: r.registry,
            runtime: r.runtime,
            host_spans: vec![],
            result_items: 0,
        })
        .collect();

    // The figure grids.
    for table in figure_grid(&records) {
        println!("{}", table.render());
    }

    // Failure census: the paper's empty-cell legend.
    let mut census: std::collections::BTreeMap<&str, usize> = Default::default();
    for r in &records {
        *census
            .entry(match r.metrics.status.code() {
                "OK" => "OK",
                other => match other {
                    "OOM" => "OOM",
                    "TO" => "TO",
                    "MPI" => "MPI",
                    _ => "SHFL",
                },
            })
            .or_default() += 1;
    }
    let mut t = Table::new("outcome census", &["status", "runs"]);
    for (k, v) in census {
        t.row(vec![k.to_string(), v.to_string()]);
    }
    println!("{}", t.render());

    // The most memory-skewed run gets its trace rendered (Figure 10 style).
    if let Some(worst) = records.iter().max_by_key(|r| r.trace.max_skew()) {
        if !worst.trace.is_empty() {
            println!(
                "most memory-skewed run: {} {} on {} @{} machines",
                worst.system, worst.workload, worst.dataset, worst.machines
            );
            println!("{}", viz::memory_timeseries(&worst.trace, 70, 12));
        }
    }
}
