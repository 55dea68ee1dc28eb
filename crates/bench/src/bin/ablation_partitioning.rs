//! Ablation: the dataset-specific Blogel partitioners the study skipped
//! (§2.3). How much does the general GVD sampler leave on the table — and
//! would the 2-D partitioner have dodged the MPI overflow on WRN?

use graphbench::report::phase_table;
use graphbench::runner::RunRecord;
use graphbench_algos::{Workload, WorkloadKind};
use graphbench_engines::blogel::{BlogelB, BlogelPartitioning};
use graphbench_engines::{Engine, EngineInput};
use graphbench_gen::DatasetKind;

fn main() {
    graphbench_repro::banner(
        "ablation_partitioning",
        "Blogel-B: GVD vs dataset-specific partitioners (WCC @16)",
    );
    let mut runner = graphbench_repro::runner();
    let mut records: Vec<RunRecord> = Vec::new();
    let cases: Vec<(DatasetKind, &str, BlogelPartitioning)> = {
        let wrn = runner.env.prepare(DatasetKind::Wrn);
        let uk = runner.env.prepare(DatasetKind::Uk0705);
        vec![
            (DatasetKind::Wrn, "GVD (paper)", BlogelPartitioning::Gvd),
            (
                DatasetKind::Wrn,
                "2-D cells",
                BlogelPartitioning::TwoD {
                    coords: wrn.dataset.coords.clone().unwrap(),
                    cells_per_side: 16,
                },
            ),
            (DatasetKind::Uk0705, "GVD (paper)", BlogelPartitioning::Gvd),
            (
                DatasetKind::Uk0705,
                "host prefix",
                BlogelPartitioning::Host { hosts: uk.dataset.hosts.clone().unwrap() },
            ),
        ]
    };
    for (kind, label, partitioning) in cases {
        let ds = runner.env.prepare(kind);
        let engine = BlogelB { partitioning, ..BlogelB::default() };
        let out = engine.run(&EngineInput {
            edges: &ds.dataset.edges,
            graph: &ds.graph,
            workload: Workload::Wcc,
            cluster: runner.env.cluster_for(kind, 16, WorkloadKind::Wcc),
            seed: runner.env.seed,
            scale: ds.scale_info,
        });
        records.push(RunRecord {
            system: format!("BB/{label}"),
            workload: "wcc",
            dataset: kind.name(),
            machines: 16,
            metrics: out.metrics,
            notes: out.notes,
            updates_per_iteration: vec![],
            trace: out.trace,
            journal: out.journal,
            registry: out.registry,
            runtime: out.runtime,
            host_spans: out.host_spans,
            result_items: 0,
        });
    }
    println!("{}", phase_table("Blogel-B WCC @16 by partitioner", &records).render());
    graphbench_repro::export_journals(&records);
    graphbench_repro::export_traces(&records);
    graphbench_repro::paper_note(
        "GVD fails WRN with the MPI aggregation overflow; the 2-D partitioner needs no \
         sampling aggregation and completes. On the web graph, host-prefix blocks skip \
         the sampling rounds entirely — the load-time difference is the partitioning \
         cost the paper's general-purpose configuration pays.",
    );
}
