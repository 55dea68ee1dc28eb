//! Golden-record lockdown: serialized [`RunRecord`]s — metrics, notes,
//! memory traces, the structured journal, and the metrics registry — are
//! snapshotted under `tests/golden/` and compared byte-for-byte on every
//! run. Any behavioural drift in the simulator, the engines, or the
//! observability layer shows up as a diff.
//!
//! Workflow:
//!
//! * the snapshots are committed; a missing golden file fails the test;
//! * `GRAPHBENCH_BLESS=1 cargo test` (re)writes every snapshot, including
//!   the first one of a new cell;
//! * on mismatch the test writes `<name>.actual.json` and
//!   `<name>.journal.jsonl` next to the golden file (CI uploads them as
//!   artifacts) and fails with a pointer to both.
//!
//! The snapshots are host-independent by construction: simulated time is
//! deterministic, and the journal/registry are bit-identical across
//! `GRAPHBENCH_THREADS` settings (see `tests/determinism_parallel.rs`),
//! so the same files verify at any thread count.

use graphbench::system::GlStop;
use graphbench::{ExperimentSpec, MultiRunRecord, PaperEnv, RunRecord, Runner, SystemId};
use graphbench_algos::WorkloadKind;
use graphbench_gen::{DatasetKind, Scale};
use graphbench_sim::{json, FaultEvent, FaultPlan};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core for this test target.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// The goldens' generator seed, pinned explicitly (never via the
/// `GRAPHBENCH_SEED`/`GRAPHBENCH_SEEDS` defaults, which the multi-seed
/// sweeps are free to change). Frozen: changing it invalidates every
/// snapshot.
const GOLDEN_SEED: u64 = 7;

/// The goldens' scale base. Frozen, like [`GOLDEN_SEED`].
const GOLDEN_BASE: u64 = 300;

/// A small, fast, fully deterministic configuration. Changing it
/// invalidates every snapshot, so treat it as frozen.
fn runner() -> Runner {
    let mut r = Runner::new(PaperEnv::new(Scale { base: GOLDEN_BASE }, GOLDEN_SEED));
    // Pin the sweep to the golden seed too: a `seeds`-aware caller (or a
    // future env-driven default) must not widen the golden harness.
    r.seeds = vec![GOLDEN_SEED];
    r.fixed_pr_iterations = 5;
    r
}

fn snapshot_name(system: &str, workload: &str) -> String {
    format!("{}_{}", system.replace(['(', ')', '+'], ""), workload).to_lowercase()
}

fn check_snapshot(name: &str, rec: &RunRecord) {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    let golden = dir.join(format!("{name}.json"));
    let actual = json::to_string_pretty(rec);
    if std::env::var("GRAPHBENCH_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&golden, actual.as_bytes()).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "golden {} unreadable ({e}); bless a new cell with GRAPHBENCH_BLESS=1",
            golden.display()
        )
    });
    if want == actual {
        return;
    }
    // Leave the evidence where CI can pick it up.
    let actual_path = dir.join(format!("{name}.actual.json"));
    std::fs::write(&actual_path, actual.as_bytes()).expect("write actual");
    let journal_path = dir.join(format!("{name}.journal.jsonl"));
    std::fs::write(&journal_path, rec.journal.to_jsonl()).expect("write journal");
    // A compact first-divergence pointer beats a full-file diff in a
    // terminal.
    let diverge = want
        .lines()
        .zip(actual.lines())
        .position(|(a, b)| a != b)
        .map(|i| {
            format!(
                "first differing line {}:\n  golden: {}\n  actual: {}",
                i + 1,
                want.lines().nth(i).unwrap_or(""),
                actual.lines().nth(i).unwrap_or(""),
            )
        })
        .unwrap_or_else(|| "files differ only in length".into());
    panic!(
        "golden mismatch for {name}\n{diverge}\n\
         actual record: {}\njournal: {}\n\
         re-bless with GRAPHBENCH_BLESS=1 if the change is intended",
        actual_path.display(),
        journal_path.display(),
    );
}

fn golden_cell(system: SystemId, workload: WorkloadKind) {
    let mut r = runner();
    let rec =
        r.run(&ExperimentSpec { system, workload, dataset: DatasetKind::Twitter, machines: 16 });
    check_snapshot(&snapshot_name(&rec.system, &rec.workload), &rec);
}

fn gl_sri() -> SystemId {
    SystemId::GraphLab { sync: true, auto: false, stop: GlStop::Iterations }
}

#[test]
fn golden_giraph_pagerank() {
    golden_cell(SystemId::Giraph, WorkloadKind::PageRank);
}

#[test]
fn golden_giraph_wcc() {
    golden_cell(SystemId::Giraph, WorkloadKind::Wcc);
}

/// Giraph SSSP: the unbounded BSP traversal, which stops when no vertex
/// has mail.
#[test]
fn golden_giraph_sssp() {
    golden_cell(SystemId::Giraph, WorkloadKind::Sssp);
}

#[test]
fn golden_graphlab_pagerank() {
    golden_cell(gl_sri(), WorkloadKind::PageRank);
}

/// GL-S-R-T: approximate PageRank to the runner's tolerance, so converged
/// vertices drop out of the gather and apply.
#[test]
fn golden_graphlab_tolerance_pagerank() {
    golden_cell(
        SystemId::GraphLab { sync: true, auto: false, stop: GlStop::Tolerance },
        WorkloadKind::PageRank,
    );
}

#[test]
fn golden_graphlab_wcc() {
    golden_cell(gl_sri(), WorkloadKind::Wcc);
}

/// K-hop: GraphLab's signal-driven traversal over its vertex-cut edge
/// stores.
#[test]
fn golden_graphlab_khop() {
    golden_cell(gl_sri(), WorkloadKind::KHop);
}

#[test]
fn golden_blogel_v_pagerank() {
    golden_cell(SystemId::BlogelV, WorkloadKind::PageRank);
}

#[test]
fn golden_blogel_v_wcc() {
    golden_cell(SystemId::BlogelV, WorkloadKind::Wcc);
}

/// Blogel-V K-hop: the bounded BSP traversal, a superstep per hop.
#[test]
fn golden_blogel_v_khop() {
    golden_cell(SystemId::BlogelV, WorkloadKind::KHop);
}

/// Gelly: the BSP runtime under Flink's cost profile and its per-superstep
/// spill.
#[test]
fn golden_gelly_pagerank() {
    golden_cell(SystemId::Gelly, WorkloadKind::PageRank);
}

/// Gelly WCC: in-neighbour discovery, then HashMin, with the per-superstep
/// spill.
#[test]
fn golden_gelly_wcc() {
    golden_cell(SystemId::Gelly, WorkloadKind::Wcc);
}

/// Blogel-B: the block-local and block-graph phases, then the vertex phase
/// seeded with `local_pr(v) * block_pr(b)`.
#[test]
fn golden_blogel_b_pagerank() {
    golden_cell(SystemId::BlogelB, WorkloadKind::PageRank);
}

/// Blogel-B WCC: union-find inside each block, then HashMin over the graph
/// of local components.
#[test]
fn golden_blogel_b_wcc() {
    golden_cell(SystemId::BlogelB, WorkloadKind::Wcc);
}

/// Blogel-B K-hop: a serial BFS inside each block, a superstep per
/// block-graph hop.
#[test]
fn golden_blogel_b_khop() {
    golden_cell(SystemId::BlogelB, WorkloadKind::KHop);
}

/// GL-A-R-T: the asynchronous (Gauss–Seidel) PageRank, whose sweep and
/// queue order follow the machines' edge stores.
#[test]
fn golden_graphlab_async_pagerank() {
    golden_cell(
        SystemId::GraphLab { sync: false, auto: false, stop: GlStop::Tolerance },
        WorkloadKind::PageRank,
    );
}

#[test]
fn golden_hadoop_pagerank() {
    golden_cell(SystemId::Hadoop, WorkloadKind::PageRank);
}

#[test]
fn golden_hadoop_wcc() {
    golden_cell(SystemId::Hadoop, WorkloadKind::Wcc);
}

/// K-hop: a MapReduce job per wave, every edge charged every iteration.
#[test]
fn golden_hadoop_khop() {
    golden_cell(SystemId::Hadoop, WorkloadKind::KHop);
}

/// SSSP: the unbounded traversal, which stops on an empty frontier.
#[test]
fn golden_hadoop_sssp() {
    golden_cell(SystemId::Hadoop, WorkloadKind::Sssp);
}

#[test]
fn golden_graphx_pagerank() {
    golden_cell(SystemId::GraphX, WorkloadKind::PageRank);
}

#[test]
fn golden_graphx_wcc() {
    golden_cell(SystemId::GraphX, WorkloadKind::Wcc);
}

/// K-hop: GraphX's traversal over its vertex-cut edge partitions.
#[test]
fn golden_graphx_khop() {
    golden_cell(SystemId::GraphX, WorkloadKind::KHop);
}

#[test]
fn golden_vertica_pagerank() {
    golden_cell(SystemId::Vertica, WorkloadKind::PageRank);
}

#[test]
fn golden_vertica_wcc() {
    golden_cell(SystemId::Vertica, WorkloadKind::Wcc);
}

/// K-hop: the ACTIVE-table join, whose refresh IO is the wave's size.
#[test]
fn golden_vertica_khop() {
    golden_cell(SystemId::Vertica, WorkloadKind::KHop);
}

/// A faulted run is as deterministic as a fault-free one: the same golden
/// snapshot verifies at 1 and 4 host threads, and the journal decomposes
/// the injected fault cost under the `recovery`/`straggler`/`retry`
/// labels. The plan (a crash, a straggler window, a lost shuffle fetch) is
/// derived from the clean run's phase times, which are themselves frozen
/// by the cell's fault-free golden.
fn golden_faulted(workload: WorkloadKind, name: &str) {
    let spec = ExperimentSpec {
        system: SystemId::Giraph,
        workload,
        dataset: DatasetKind::Twitter,
        machines: 16,
    };
    let clean = runner().run(&spec);
    let p = clean.metrics.phases;
    let exec_at = |alpha: f64| p.overhead + p.load + alpha * p.execute;
    let plan = FaultPlan {
        events: vec![
            FaultEvent::Straggler {
                start: exec_at(0.1),
                duration: 0.2 * p.execute,
                machine: 1,
                slowdown: 2.0,
            },
            FaultEvent::Crash { at_time: exec_at(0.5), machine: 3 },
            FaultEvent::LostShuffleFetch { at_time: exec_at(0.75), machine: 2, attempts: 2 },
        ],
    };
    let rec = |threads: usize| {
        let mut r = runner();
        r.threads = Some(threads);
        r.faults = Some(plan.clone());
        r.run(&spec)
    };
    let serial = rec(1);
    let parallel = rec(4);
    assert_eq!(
        json::to_string(&serial),
        json::to_string(&parallel),
        "faulted record diverged between 1 and 4 host threads"
    );
    // Every injected event left its mark: recovery + straggler surplus +
    // retry backoff all contribute simulated seconds.
    for label in ["recovery", "straggler", "retry"] {
        assert!(
            serial.journal.events().iter().any(|e| e.label == label),
            "no `{label}` event in the faulted journal"
        );
    }
    assert!(serial.journal.fault_seconds() > 0.0);
    assert!(serial.metrics.total_time() > clean.metrics.total_time());
    check_snapshot(name, &serial);
}

#[test]
fn golden_giraph_pagerank_faulted() {
    golden_faulted(WorkloadKind::PageRank, "giraph_pagerank_faulted");
}

/// The same plan on WCC: the crash restores a label-path snapshot and
/// replays it.
#[test]
fn golden_giraph_wcc_faulted() {
    golden_faulted(WorkloadKind::Wcc, "giraph_wcc_faulted");
}

/// The multi-seed wrapper is invisible at one seed: a [`MultiRunRecord`]
/// holding a single seeded run serializes byte-identically to the legacy
/// [`RunRecord`] path, so the golden snapshots (and any saved
/// `repro_results.json`) never re-bless just because the sweep machinery
/// produced them.
#[test]
fn single_seed_multi_record_serializes_as_legacy_record() {
    let spec = ExperimentSpec {
        system: SystemId::Giraph,
        workload: WorkloadKind::PageRank,
        dataset: DatasetKind::Twitter,
        machines: 16,
    };
    let legacy = json::to_string_pretty(&runner().run(&spec));
    let multi = runner().run_multi(&spec);
    assert_eq!(multi.seeds(), &[GOLDEN_SEED]);
    assert_eq!(
        json::to_string_pretty(&multi),
        legacy,
        "single-seed MultiRunRecord must serialize exactly like RunRecord"
    );
    // And the explicit wrapper built from the same run agrees too.
    let direct = MultiRunRecord::single(GOLDEN_SEED, runner().run(&spec));
    assert_eq!(json::to_string_pretty(&direct), legacy);
}

/// Every engine in both paper line-ups (plus the COST baseline) satisfies
/// the journal/metrics contract: the journal is non-empty, the registry's
/// per-kind event counters sum to the journal length, and network bytes
/// agree between journal, registry and metrics.
#[test]
fn every_engine_journal_agrees_with_its_metrics() {
    let mut cells: Vec<(SystemId, WorkloadKind)> = Vec::new();
    for s in SystemId::traversal_lineup() {
        cells.push((s, WorkloadKind::Wcc));
    }
    for s in SystemId::pagerank_lineup() {
        cells.push((s, WorkloadKind::PageRank));
    }
    cells.push((SystemId::SingleThread, WorkloadKind::Wcc));
    for (system, workload) in cells {
        let mut r = runner();
        let machines = if system == SystemId::SingleThread { 1 } else { 16 };
        let rec =
            r.run(&ExperimentSpec { system, workload, dataset: DatasetKind::Twitter, machines });
        let label = format!("{} {}", rec.system, rec.workload);
        assert!(!rec.journal.is_empty(), "{label}: empty journal");
        let counted: u64 = rec
            .registry
            .counters()
            .filter(|(name, _)| name.starts_with("events."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(counted, rec.journal.len() as u64, "{label} event counters");
        // Network accounting agrees between journal, registry, and metrics.
        let net: u64 = rec.journal.events().iter().map(|ev| ev.net_bytes).sum();
        assert_eq!(net, rec.metrics.network_bytes, "{label} net bytes");
        assert_eq!(net, rec.registry.counter("net.bytes"), "{label} net.bytes counter");
    }
}
