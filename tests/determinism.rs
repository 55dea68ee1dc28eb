//! Repeatability: the harness is a simulation, so identical inputs must
//! produce identical records — across process runs, runner instances, and
//! simulated cluster sizes.

use graphbench::{ExperimentSpec, PaperEnv, Runner, SystemId};
use graphbench_algos::WorkloadKind;
use graphbench_gen::{DatasetKind, Scale};
use graphbench_sim::json;

fn record_json(spec: &ExperimentSpec) -> String {
    let mut r = Runner::new(PaperEnv::new(Scale { base: 600 }, 11));
    json::to_string(&r.run(spec))
}

#[test]
fn identical_inputs_produce_identical_records() {
    for system in [SystemId::BlogelV, SystemId::GraphX, SystemId::Vertica] {
        for workload in [WorkloadKind::Wcc, WorkloadKind::KHop] {
            let spec =
                ExperimentSpec { system, workload, dataset: DatasetKind::Twitter, machines: 16 };
            assert_eq!(
                record_json(&spec),
                record_json(&spec),
                "{system:?}/{workload:?} is not repeatable"
            );
        }
    }
}

#[test]
fn shared_runner_state_does_not_bleed_between_runs() {
    // Running A then B must give the same record for B as running B alone
    // (dataset caches inside PaperEnv must be value-transparent).
    let a = ExperimentSpec {
        system: SystemId::Gelly,
        workload: WorkloadKind::Wcc,
        dataset: DatasetKind::Twitter,
        machines: 16,
    };
    let b = ExperimentSpec { system: SystemId::Hadoop, workload: WorkloadKind::KHop, ..a };
    let mut shared = Runner::new(PaperEnv::new(Scale { base: 600 }, 11));
    shared.run(&a);
    let b_after_a = json::to_string(&shared.run(&b));
    assert_eq!(b_after_a, record_json(&b));
}

#[test]
fn records_do_not_depend_on_which_cells_built_the_dataset_caches() {
    // The reverse index and the text sizes are built by the first cell that
    // needs them and kept with the dataset. A cell's record, its
    // `dataset_mem_bytes` included, must be the same whether it builds them
    // in a fresh environment or finds them built.
    let cell = |system, workload| ExperimentSpec {
        system,
        workload,
        dataset: DatasetKind::Twitter,
        machines: 16,
    };
    let mut warm = Runner::new(PaperEnv::new(Scale { base: 600 }, 11));
    assert!(!warm.env.prepare(DatasetKind::Twitter).graph.has_in_edges());
    warm.run(&cell(SystemId::BlogelV, WorkloadKind::Wcc));
    warm.run(&cell(SystemId::SingleThread, WorkloadKind::Sssp));
    assert!(warm.env.prepare(DatasetKind::Twitter).graph.has_in_edges());
    for spec in [
        cell(SystemId::Giraph, WorkloadKind::KHop),
        cell(SystemId::GraphX, WorkloadKind::Wcc),
        cell(SystemId::SingleThread, WorkloadKind::PageRank),
    ] {
        let after = json::to_string(&warm.run(&spec));
        assert_eq!(after, record_json(&spec), "{:?}/{:?}", spec.system, spec.workload);
    }
}

#[test]
fn results_are_identical_across_cluster_sizes() {
    // Simulated machine count affects metrics, never answers: WCC labels
    // from 4- and 32-machine runs of the same engine must agree.
    use graphbench_algos::{Workload, WorkloadResult};
    use graphbench_engines::vertica::Vertica;
    use graphbench_engines::{Engine, EngineInput, ScaleInfo};
    use graphbench_gen::Dataset;
    use graphbench_sim::ClusterSpec;

    let d = Dataset::generate(DatasetKind::Twitter, Scale { base: 400 }, 3);
    let g = d.to_csr();
    let run = |machines: usize| -> Option<WorkloadResult> {
        Vertica::default()
            .run(&EngineInput {
                edges: &d.edges,
                graph: &g,
                workload: Workload::Wcc,
                cluster: ClusterSpec::r3_xlarge(machines, 1 << 30),
                seed: 7,
                scale: ScaleInfo::actual(&d.edges),
            })
            .result
    };
    let small = run(4);
    assert!(small.is_some());
    assert_eq!(small, run(32));
}
