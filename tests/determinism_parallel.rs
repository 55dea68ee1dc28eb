//! The parallel executor's contract: host thread count changes scheduling
//! only. Serialized [`graphbench::RunRecord`]s — simulated times, memory
//! traces, message counts, results, everything the harness writes — must be
//! bit-for-bit identical between `GRAPHBENCH_THREADS=1` and any other value.

use graphbench::{ExperimentSpec, PaperEnv, Runner, SystemId};
use graphbench_algos::WorkloadKind;
use graphbench_gen::{DatasetKind, Scale};
use graphbench_sim::json;
use std::sync::Mutex;

/// `exec::set_threads` is process-global and cargo runs tests concurrently;
/// every test that flips the thread count serializes on this lock.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// The parallel side of every comparison: `GRAPHBENCH_THREADS` where CI
/// sets one (2: fewer pool helpers than tasks, 8: more than vCPUs), else 4.
fn parallel_threads() -> usize {
    let set = std::env::var("GRAPHBENCH_THREADS").ok().and_then(|raw| raw.parse().ok());
    set.filter(|&t| t > 1).unwrap_or(4)
}

fn record_json(threads: usize, spec: &ExperimentSpec) -> String {
    let mut r = Runner::new(PaperEnv::new(Scale { base: 600 }, 11));
    r.threads = Some(threads);
    json::to_string(&r.run(spec))
}

#[test]
fn run_records_are_bit_identical_across_thread_counts() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let systems =
        [SystemId::BlogelV, SystemId::Gelly, SystemId::GraphX, SystemId::Hadoop, SystemId::Vertica];
    let workloads = [WorkloadKind::Wcc, WorkloadKind::KHop];
    for system in systems {
        for workload in workloads {
            let spec =
                ExperimentSpec { system, workload, dataset: DatasetKind::Twitter, machines: 16 };
            let serial = record_json(1, &spec);
            let threads = parallel_threads();
            let parallel = record_json(threads, &spec);
            assert_eq!(
                serial, parallel,
                "{system:?}/{workload:?} diverged between 1 and {threads} host threads"
            );
        }
    }
}

#[test]
fn journals_and_registries_are_thread_count_invariant() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let rec = |threads: usize| {
        let mut r = Runner::new(PaperEnv::new(Scale { base: 600 }, 11));
        r.threads = Some(threads);
        r.run(&ExperimentSpec {
            system: SystemId::Giraph,
            workload: WorkloadKind::PageRank,
            dataset: DatasetKind::Twitter,
            machines: 16,
        })
    };
    let serial = rec(1);
    let parallel = rec(parallel_threads());
    // The JSONL export is the external contract: byte-for-byte identical.
    assert_eq!(serial.journal.to_jsonl(), parallel.journal.to_jsonl());
    assert_eq!(serial.registry, parallel.registry);
    // Identical runtime bits, and a critical path that decomposes the
    // runtime bit-for-bit at either thread count.
    assert_eq!(serial.runtime.to_bits(), parallel.runtime.to_bits());
    let critical_path = parallel.journal.timeline().critical_path();
    assert_eq!(critical_path.total.to_bits(), parallel.runtime.to_bits());
}
