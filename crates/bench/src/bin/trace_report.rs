//! Critical-path report: where each engine's simulated runtime actually
//! goes, by (gating machine, label) — the "why" view behind Figure 10 and
//! the §6 discussion. Combine with `--trace <path>` to export the same
//! runs as Perfetto-loadable Chrome trace-event JSON.
//!
//! ```sh
//! cargo run --release -p graphbench-repro --bin trace_report
//! cargo run --release -p graphbench-repro --bin trace_report -- \
//!     --golden --trace golden.trace.json
//! ```
//!
//! `--golden` pins the run to the golden-record configuration (scale base
//! 300, seed 7, 5 PageRank iterations, Giraph PageRank on Twitter @16) so
//! CI can generate the trace artifact for exactly the snapshot the golden
//! suite locks.

use graphbench::report::critical_path_table;
use graphbench::system::GlStop;
use graphbench::{ExperimentSpec, PaperEnv, Runner, SystemId};
use graphbench_algos::WorkloadKind;
use graphbench_gen::{DatasetKind, Scale};

fn main() {
    let golden = std::env::args().any(|a| a == "--golden");
    graphbench_repro::banner("trace_report", "critical-path decomposition per engine");
    let mut runner = if golden {
        // Must match tests/golden_records.rs::runner() exactly. Observers
        // are read-only, so attaching the plane cannot perturb the golden.
        let mut r = Runner::new(PaperEnv::new(Scale { base: 300 }, 7));
        r.fixed_pr_iterations = 5;
        r.obs = graphbench_repro::observability();
        r
    } else {
        graphbench_repro::runner()
    };
    let systems: Vec<SystemId> = if golden {
        vec![SystemId::Giraph]
    } else {
        vec![
            SystemId::Giraph,
            SystemId::GraphLab { sync: true, auto: false, stop: GlStop::Iterations },
            SystemId::BlogelV,
            SystemId::Hadoop,
            SystemId::GraphX,
            SystemId::Vertica,
        ]
    };
    let mut records = Vec::new();
    for system in systems {
        let rec = runner.run(&ExperimentSpec {
            system,
            workload: WorkloadKind::PageRank,
            dataset: DatasetKind::Twitter,
            machines: 16,
        });
        let timeline = rec.journal.timeline();
        let cp = timeline.critical_path();
        // The decomposition contract, stated where it is used: the bucket
        // replay *is* the simulated runtime, to the bit.
        assert_eq!(
            cp.total.to_bits(),
            rec.runtime.to_bits(),
            "{}: critical path does not decompose the runtime",
            rec.system
        );
        let title = format!(
            "{} {} on {} @{} — runtime {:.3}s in {} spans",
            rec.system,
            rec.workload,
            rec.dataset,
            rec.machines,
            rec.runtime,
            timeline.len()
        );
        println!("{}", critical_path_table(&title, &rec, 10).render());
        records.push(rec);
    }
    graphbench_repro::export_journals(&records);
    graphbench_repro::export_traces(&records);
    graphbench_repro::paper_note(
        "the paper could only *infer* which machine gated each barrier (§6); the \
         journal records it per charge, and the per-label skew column prices the \
         imbalance each engine's partitioning leaves behind.",
    );
}
