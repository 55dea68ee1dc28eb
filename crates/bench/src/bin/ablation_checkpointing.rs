//! Ablation: GraphX lineage vs checkpointing on the road-network WCC
//! (§5.6): plain Pregel-on-Spark grows the lineage until OOM; checkpointing
//! every two iterations (the GraphFrames default) bounds memory but pays
//! HDFS every checkpoint; hash-to-min cuts the iteration count itself.

use graphbench::report::phase_table;
use graphbench::runner::RunRecord;
use graphbench_algos::{Workload, WorkloadKind};
use graphbench_engines::graphx::GraphX;
use graphbench_engines::{Engine, EngineInput};
use graphbench_gen::DatasetKind;

fn main() {
    graphbench_repro::banner("ablation_checkpointing", "GraphX WCC on WRN @32: lineage strategies");
    let mut runner = graphbench_repro::runner();
    let ds = runner.env.prepare(DatasetKind::Wrn);
    let cluster = runner.env.cluster_for(DatasetKind::Wrn, 32, WorkloadKind::Wcc);
    let variants: Vec<(&str, GraphX)> = vec![
        ("plain (lineage grows)", GraphX { num_partitions: Some(240), ..GraphX::default() }),
        (
            "checkpoint every 2",
            GraphX { num_partitions: Some(240), checkpoint_every: Some(2), ..GraphX::default() },
        ),
        (
            "hash-to-min",
            GraphX { num_partitions: Some(240), wcc_hash_to_min: true, ..GraphX::default() },
        ),
        (
            "hash-to-min + ckpt",
            GraphX {
                num_partitions: Some(240),
                wcc_hash_to_min: true,
                checkpoint_every: Some(2),
                ..GraphX::default()
            },
        ),
    ];
    let mut records = Vec::new();
    for (label, engine) in variants {
        let out = engine.run(&EngineInput {
            edges: &ds.dataset.edges,
            graph: &ds.graph,
            workload: Workload::Wcc,
            cluster: cluster.clone(),
            seed: runner.env.seed,
            scale: ds.scale_info,
        });
        println!(
            "{label:<22} status {:<4} iterations {:>5} peak/machine {} KB",
            out.metrics.status.code(),
            out.metrics.iterations,
            out.metrics.max_machine_memory() / 1024
        );
        records.push(RunRecord {
            system: label.to_string(),
            workload: "wcc",
            dataset: "WRN",
            machines: 32,
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
    println!();
    println!("{}", phase_table("phase breakdown", &records).render());
    graphbench_repro::export_journals(&records);
    graphbench_repro::export_traces(&records);
    graphbench_repro::paper_note(
        "§5.6's full story: lineage kills the plain run; checkpointing survives by \
         paying I/O per checkpoint (the paper saw timeouts at full scale); the \
         hash-to-min algorithm attacks the iteration count itself and was \
         'competitive with hash-min in Blogel'.",
    );
}
