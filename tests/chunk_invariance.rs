//! The chunked executor's contract: `GRAPHBENCH_CHUNK` (the intra-machine
//! sub-chunk size) and `GRAPHBENCH_THREADS` change host scheduling only.
//! Serialized [`graphbench::RunRecord`]s — simulated times, message counts,
//! journals, results, everything the harness writes — must be bit-for-bit
//! identical at any chunk-size × thread-count combination, on clean runs
//! and under injected faults, for every engine that routes per-machine
//! superstep work through `exec::run_chunks` (GAS, Blogel, GraphX, Hadoop,
//! Vertica — the BSP engines are covered by `determinism_parallel.rs`).

use graphbench::system::GlStop;
use graphbench::{ExperimentSpec, PaperEnv, RunRecord, Runner, SystemId};
use graphbench_algos::WorkloadKind;
use graphbench_gen::{DatasetKind, Scale};
use graphbench_sim::FaultPlan;
use std::sync::Mutex;

/// `exec::set_chunk_size`/`set_threads` are process-global and cargo runs
/// tests concurrently; every test that flips them serializes on this lock.
static CHUNK_LOCK: Mutex<()> = Mutex::new(());

/// The default chunk size (`exec::DEFAULT_CHUNK`) paired with a serial
/// host: the reference configuration every variant must reproduce.
const BASELINE: (usize, usize) = (4096, 1);

/// The parallel side of every comparison: `GRAPHBENCH_THREADS` where CI
/// sets one (2: fewer pool helpers than tasks, 8: more than vCPUs), else 4.
fn parallel_threads() -> usize {
    let set = std::env::var("GRAPHBENCH_THREADS").ok().and_then(|raw| raw.parse().ok());
    set.filter(|&t| t > 1).unwrap_or(4)
}

/// The ISSUE grid: degenerate one-item chunks, a prime that never divides
/// a machine's span evenly, and a chunk far larger than any input (one
/// chunk per machine), each at serial and parallel host thread counts.
fn variants() -> [(usize, usize); 6] {
    let t = parallel_threads();
    [(1, 1), (1, t), (97, 1), (97, t), (1_000_000_000, 1), (1_000_000_000, t)]
}

fn gas() -> SystemId {
    SystemId::GraphLab { sync: true, auto: false, stop: GlStop::Iterations }
}

/// The engines newly routed through `exec::run_chunks`.
fn newly_chunked() -> [SystemId; 5] {
    [gas(), SystemId::BlogelB, SystemId::GraphX, SystemId::Hadoop, SystemId::Vertica]
}

fn record(
    (chunk, threads): (usize, usize),
    spec: &ExperimentSpec,
    faults: Option<&FaultPlan>,
) -> RunRecord {
    let mut r = Runner::new(PaperEnv::new(Scale { base: 500 }, 11));
    r.chunk = Some(chunk);
    r.threads = Some(threads);
    r.faults = faults.cloned();
    r.run(spec)
}

fn assert_matches_baseline(spec: &ExperimentSpec, faults: Option<&FaultPlan>) {
    let baseline = record(BASELINE, spec, faults);
    let base_json = serde_json::to_string(&baseline).unwrap();
    let base_journal = baseline.journal.to_jsonl();
    for variant in variants() {
        let rec = record(variant, spec, faults);
        assert_eq!(
            serde_json::to_string(&rec).unwrap(),
            base_json,
            "{:?}/{:?} diverged from the (chunk 4096, 1 thread) baseline at \
             (chunk {}, {} threads)",
            spec.system,
            spec.workload,
            variant.0,
            variant.1,
        );
        assert_eq!(rec.journal.to_jsonl(), base_journal);
    }
}

#[test]
fn clean_runs_are_chunk_and_thread_invariant() {
    let _guard = CHUNK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for system in newly_chunked() {
        for workload in [WorkloadKind::Wcc, WorkloadKind::PageRank, WorkloadKind::KHop] {
            let spec =
                ExperimentSpec { system, workload, dataset: DatasetKind::Twitter, machines: 8 };
            assert_matches_baseline(&spec, None);
        }
    }
}

#[test]
fn faulted_runs_are_chunk_and_thread_invariant() {
    let _guard = CHUNK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A straggler and a network degradation that are active from near t=0
    // for the whole run (so the faulted path is exercised no matter how
    // long the run is), plus a crash that triggers each engine's recovery
    // mechanism when the run lasts that long (out-of-range fault times are
    // ignored by the simulator, which keeps this plan valid everywhere).
    let plan = FaultPlan::parse("straggler@0.5+1e9:m1x2; netdeg@2+1e9:x0.6; crash@300:m3")
        .expect("fault grammar");
    for system in newly_chunked() {
        for workload in [WorkloadKind::Wcc, WorkloadKind::PageRank] {
            let spec =
                ExperimentSpec { system, workload, dataset: DatasetKind::Twitter, machines: 8 };
            assert_matches_baseline(&spec, Some(&plan));
        }
    }
}

#[test]
fn journals_timelines_and_registries_are_chunk_invariant() {
    let _guard = CHUNK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = ExperimentSpec {
        system: SystemId::BlogelB,
        workload: WorkloadKind::PageRank,
        dataset: DatasetKind::Twitter,
        machines: 8,
    };
    let serial = record(BASELINE, &spec, None);
    let chunked = record((97, parallel_threads()), &spec, None);
    // The JSONL export is the external contract: byte-for-byte identical.
    assert_eq!(serial.journal.to_jsonl(), chunked.journal.to_jsonl());
    assert_eq!(serial.registry, chunked.registry);
    assert_eq!(serial.runtime.to_bits(), chunked.runtime.to_bits());
    // The critical path still decomposes the runtime bit-for-bit.
    let critical_path = chunked.journal.timeline().critical_path();
    assert_eq!(critical_path.total.to_bits(), chunked.runtime.to_bits());
}

mod chunked_engines_equal_serial {
    use super::{parallel_threads, CHUNK_LOCK};
    use graphbench_algos::workload::PageRankConfig;
    use graphbench_algos::Workload;
    use graphbench_engines::blogel::BlogelB;
    use graphbench_engines::gas::GraphLab;
    use graphbench_engines::graphx::GraphX;
    use graphbench_engines::hadoop::Hadoop;
    use graphbench_engines::vertica::Vertica;
    use graphbench_engines::{exec, Engine, EngineInput, RunOutput, ScaleInfo};
    use graphbench_graph::builder::{csr_from_pairs, edge_list_from_pairs};
    use graphbench_graph::rng::for_each_seed;
    use graphbench_graph::VertexId;
    use graphbench_sim::ClusterSpec;

    fn engine(idx: usize) -> Box<dyn Engine> {
        match idx % 5 {
            0 => Box::new(GraphLab::sync_random()),
            1 => Box::new(BlogelB::default()),
            2 => Box::new(GraphX::default()),
            3 => Box::new(Hadoop),
            4 => Box::new(Vertica::default()),
            _ => unreachable!(),
        }
    }

    fn workload(idx: usize, n: u32, src: VertexId) -> Workload {
        match idx % 3 {
            0 => Workload::Wcc,
            1 => Workload::PageRank(PageRankConfig::fixed(5)),
            2 => Workload::khop3(src % n),
            _ => unreachable!(),
        }
    }

    fn run_once(
        pairs: &[(VertexId, VertexId)],
        engine_idx: usize,
        workload_idx: usize,
        machines: usize,
        src: VertexId,
    ) -> RunOutput {
        let edges = edge_list_from_pairs(pairs);
        let graph = csr_from_pairs(pairs);
        let scale = ScaleInfo::actual(&edges);
        engine(engine_idx).run(&EngineInput {
            edges: &edges,
            graph: &graph,
            workload: workload(workload_idx, graph.num_vertices() as u32, src),
            cluster: ClusterSpec::r3_xlarge(machines, 1 << 30),
            seed: 7,
            scale,
        })
    }

    fn fingerprint(out: &RunOutput) -> (String, u64, Option<String>) {
        (
            out.journal.to_jsonl(),
            out.runtime.to_bits(),
            out.result.as_ref().map(|r| format!("{r:?}")),
        )
    }

    /// Random graph × engine × workload: every chunk size, serial or
    /// parallel, reproduces the serial default-chunk run exactly.
    #[test]
    fn chunked_matches_serial_on_random_graphs() {
        for_each_seed(24, |_, rng| {
            let pairs: Vec<(VertexId, VertexId)> =
                (0..1 + rng.below(119)).map(|_| (rng.below_u32(25), rng.below_u32(25))).collect();
            let engine_idx = rng.below(5);
            let workload_idx = rng.below(3);
            let machines = 1 + rng.below(5);
            let src = rng.below_u32(25);
            let _guard = CHUNK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            exec::set_threads(1);
            exec::set_chunk_size(4096);
            let baseline = fingerprint(&run_once(&pairs, engine_idx, workload_idx, machines, src));
            let t = parallel_threads();
            for (chunk, threads) in [(1, t), (13, 1), (13, t), (1_000_000_000, t)] {
                exec::set_threads(threads);
                exec::set_chunk_size(chunk);
                let got = fingerprint(&run_once(&pairs, engine_idx, workload_idx, machines, src));
                exec::set_threads(1);
                exec::set_chunk_size(4096);
                assert_eq!(
                    &got, &baseline,
                    "engine {} / workload {} diverged at chunk {} × {} threads",
                    engine_idx, workload_idx, chunk, threads
                );
            }
        });
    }
}
