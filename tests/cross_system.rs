//! Cross-system coherence: every system in the matrix completes the shared
//! workloads on the shared datasets, and — since all engines are unit-tested
//! against the reference algorithms — they agree with each other on answers.

use graphbench::{PaperEnv, Runner, SystemId};
use graphbench_algos::WorkloadKind;
use graphbench_gen::{DatasetKind, Scale};
use std::collections::HashSet;

#[test]
fn every_system_completes_the_shared_matrix_cell() {
    let mut r = Runner::new(PaperEnv::new(Scale { base: 600 }, 11));
    let systems = [
        SystemId::BlogelV,
        SystemId::Giraph,
        SystemId::Hadoop,
        SystemId::HaLoop,
        SystemId::GraphX,
        SystemId::Gelly,
        SystemId::Vertica,
    ];
    let recs = r.run_matrix_multi(&systems, &[WorkloadKind::KHop], &[DatasetKind::Twitter], &[16]);
    assert_eq!(recs.len(), systems.len());
    let mut labels = HashSet::new();
    for rec in recs.iter().map(|m| m.primary()) {
        assert!(rec.metrics.status.is_ok(), "{} failed: {:?}", rec.system, rec.metrics.status);
        assert!(rec.metrics.total_time() > 0.0, "{} reported zero time", rec.system);
        let cell = rec.cell();
        assert!(cell.parse::<f64>().is_ok(), "{} cell {:?}", rec.system, cell);
        assert!(labels.insert(rec.system.clone()), "duplicate label {}", rec.system);
    }
}

#[test]
fn engines_agree_on_wcc_answers() {
    use graphbench_algos::{reference, Workload, WorkloadResult};
    use graphbench_engines::{Engine, EngineInput, ScaleInfo};
    use graphbench_gen::Dataset;
    use graphbench_sim::ClusterSpec;

    let d = Dataset::generate(DatasetKind::Twitter, Scale { base: 400 }, 3);
    let g = d.to_csr();
    let input = EngineInput {
        edges: &d.edges,
        graph: &g,
        workload: Workload::Wcc,
        cluster: ClusterSpec::r3_xlarge(4, 1 << 30),
        seed: 7,
        scale: ScaleInfo::actual(&d.edges),
    };
    let want = WorkloadResult::Labels(reference::wcc(&g));
    let engines: Vec<(&str, Box<dyn Engine>)> = vec![
        ("Blogel-V", Box::new(graphbench_engines::blogel::BlogelV)),
        ("Gelly", Box::new(graphbench_engines::gelly::Gelly::default())),
        ("Hadoop", Box::new(graphbench_engines::hadoop::Hadoop)),
        ("Vertica", Box::new(graphbench_engines::vertica::Vertica::default())),
    ];
    for (name, engine) in engines {
        let out = engine.run(&input);
        assert!(out.metrics.status.is_ok(), "{name}: {:?}", out.metrics.status);
        assert_eq!(out.result.as_ref(), Some(&want), "{name} disagrees with the reference");
    }
}
