//! The parallel executor's contract: host thread count changes scheduling
//! only. Serialized [`graphbench::RunRecord`]s — simulated times, memory
//! traces, message counts, results, everything the harness writes — must be
//! bit-for-bit identical between `GRAPHBENCH_THREADS=1` and any other value.

use graphbench::{ExperimentSpec, PaperEnv, Runner, SystemId};
use graphbench_algos::WorkloadKind;
use graphbench_gen::{DatasetKind, Scale};
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
    serde_json::to_string(&r.run(spec)).unwrap()
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

mod parallel_bsp_equals_serial {
    use super::{parallel_threads, THREADS_LOCK};
    use graphbench_algos::reference;
    use graphbench_engines::bsp::{run_bsp, BspConfig};
    use graphbench_engines::exec;
    use graphbench_engines::programs::{wcc_labels, SsspProgram, WccProgram};
    use graphbench_graph::builder::csr_from_pairs;
    use graphbench_graph::rng::{for_each_seed, Rng};
    use graphbench_graph::{CsrGraph, VertexId};
    use graphbench_partition::EdgeCutPartition;
    use graphbench_sim::{Cluster, ClusterSpec, CostProfile};

    fn arb_graph(rng: &mut Rng) -> CsrGraph {
        let pairs: Vec<_> =
            (0..1 + rng.below(119)).map(|_| (rng.below_u32(25), rng.below_u32(25))).collect();
        csr_from_pairs(&pairs)
    }

    fn cluster(machines: usize) -> Cluster {
        Cluster::new(ClusterSpec::r3_xlarge(machines, 1 << 30), CostProfile::cpp_mpi())
    }

    fn wcc(g: &CsrGraph, machines: usize, seed: u64) -> Vec<VertexId> {
        let part = EdgeCutPartition::random(g.num_vertices() as u64, machines, seed);
        let mut cl = cluster(machines);
        let mut prog = WccProgram::new(g.num_vertices(), 8);
        wcc_labels(run_bsp(&mut cl, g, &part, &mut prog, &BspConfig::default()).unwrap().states)
    }

    fn sssp(g: &CsrGraph, machines: usize, seed: u64, src: VertexId) -> Vec<u32> {
        let part = EdgeCutPartition::random(g.num_vertices() as u64, machines, seed);
        let mut cl = cluster(machines);
        let mut prog = SsspProgram::new(src);
        run_bsp(&mut cl, g, &part, &mut prog, &BspConfig::default()).unwrap().states
    }

    #[test]
    fn parallel_bsp_matches_serial_on_random_graphs() {
        for_each_seed(48, |_, rng| {
            let g = arb_graph(rng);
            let machines = 1 + rng.below(8);
            let seed = rng.below(50) as u64;
            let src_raw = rng.below_u32(25);
            let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let src = src_raw % g.num_vertices() as u32;
            exec::set_threads(1);
            let wcc_serial = wcc(&g, machines, seed);
            let sssp_serial = sssp(&g, machines, seed, src);
            exec::set_threads(parallel_threads());
            let wcc_parallel = wcc(&g, machines, seed);
            let sssp_parallel = sssp(&g, machines, seed, src);
            exec::set_threads(1);
            assert_eq!(&wcc_serial, &wcc_parallel);
            assert_eq!(&sssp_serial, &sssp_parallel);
            // And both agree with the single-threaded reference algorithms.
            assert_eq!(wcc_serial, reference::wcc(&g));
            assert_eq!(sssp_serial, reference::sssp(&g, src));
        });
    }
}
