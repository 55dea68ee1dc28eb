//! Chaos harness: seeded, generated multi-event fault plans thrown at the
//! Table 1 recovery mechanisms.
//!
//! Every generated case runs one engine/workload cell clean, then replays
//! it under growing time-ordered prefixes of a generated [`FaultPlan`],
//! asserting the fault subsystem's whole contract:
//!
//! 1. **answers survive** — every faulted run reproduces the fault-free
//!    result bit-for-bit (checkpoint replay and lineage recompute actually
//!    restore state; the cost-only mechanisms never touch it), and the
//!    fault-free answer itself matches `algos::reference`;
//! 2. **thread-count invariance** — the faulted run's metrics, journal,
//!    registry, and result are bit-identical at 1 and 4 host threads;
//! 3. **monotonic cost** — simulated runtime never decreases as the next
//!    scheduled event is appended to the plan (prefixes are taken in
//!    trigger-time order and windows are capped at the next trigger, the
//!    form for which this is a theorem — see DESIGN.md). Exempt once a
//!    prefix contains a `resize`: scaling back out after a scale-in can
//!    legitimately make the run *faster* than the scaled-in prefix;
//! 4. **nothing vanishes** — every scheduled event is either consumed
//!    (counted in the `faults.*` registry counters) or reported in
//!    `notes` as `fault event unreached: ...`.
//!
//! Case `i` draws from `Rng::seed_from_u64(i)`, so CI failures reproduce
//! locally; scale the case count with `GRAPHBENCH_CHAOS_CASES`.

use graphbench_algos::workload::PageRankConfig;
use graphbench_algos::{reference, Workload, WorkloadResult};
use graphbench_engines::graphx::GraphX;
use graphbench_engines::hadoop::Hadoop;
use graphbench_engines::pregel::Giraph;
use graphbench_engines::vertica::Vertica;
use graphbench_engines::{exec, Engine, EngineInput, RunOutput, ScaleInfo};
use graphbench_gen::{Dataset, DatasetKind, Scale};
use graphbench_graph::rng::{for_each_seed, Rng};
use graphbench_graph::{CsrGraph, EdgeList};
use graphbench_sim::{ClusterSpec, FaultEvent, FaultPlan, RETRY_MAX_ATTEMPTS};
use std::sync::{Mutex, OnceLock};

/// `exec::set_threads` is process-global and cargo runs tests concurrently;
/// the thread-invariance check serializes on this lock.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

const MACHINES: usize = 8;

fn dataset() -> &'static (EdgeList, CsrGraph) {
    static DS: OnceLock<(EdgeList, CsrGraph)> = OnceLock::new();
    DS.get_or_init(|| {
        let d = Dataset::generate(DatasetKind::Twitter, Scale { base: 400 }, 3);
        let g = d.to_csr();
        (d.edges, g)
    })
}

/// The four Table 1 mechanisms, one representative cell each.
fn cell(idx: usize) -> (&'static str, Box<dyn Engine>, Workload) {
    let pr = Workload::PageRank(PageRankConfig::fixed(8));
    match idx % 4 {
        0 => (
            "Giraph/ckpt3/PageRank",
            Box::new(Giraph { checkpoint_every: Some(3), ..Giraph::default() }),
            pr,
        ),
        1 => (
            "GraphX/lineage/Wcc",
            Box::new(GraphX { num_partitions: Some(64), ..GraphX::default() }),
            Workload::Wcc,
        ),
        2 => ("Hadoop/reexec/PageRank", Box::new(Hadoop), pr),
        3 => ("Vertica/restart/Wcc", Box::new(Vertica::default()), Workload::Wcc),
        _ => unreachable!(),
    }
}

fn run_cell(idx: usize, faults: FaultPlan) -> RunOutput {
    let ds = dataset();
    let (_, engine, workload) = cell(idx);
    let mut cluster = ClusterSpec::r3_xlarge(MACHINES, 1 << 30);
    cluster.work_scale = 10_000.0; // long enough to fault into
    cluster.faults = faults;
    engine.run(&EngineInput {
        edges: &ds.0,
        graph: &ds.1,
        workload,
        cluster,
        seed: 7,
        scale: ScaleInfo::actual(&ds.0),
    })
}

/// One abstract fault in a slot, expressed in fractions of the fault-free
/// runtime so the same generated value works across engines of different
/// speeds. `kind` selects the variant, the other fields parameterize it.
#[derive(Debug, Clone)]
struct AbstractFault {
    kind: u8,
    /// Position inside the slot, `0..1`.
    offset: f64,
    machine: usize,
    slowdown: f64,
    factor: f64,
    attempts: u32,
    /// Window length as a share of the gap to the next trigger, `0..1`.
    dur_scale: f64,
}

fn arb_fault(rng: &mut Rng) -> AbstractFault {
    AbstractFault {
        kind: rng.below(6) as u8,
        offset: 0.6 * rng.f64(),
        machine: rng.below(MACHINES),
        slowdown: 1.5 + 1.5 * rng.f64(),
        factor: 0.3 + 0.6 * rng.f64(),
        attempts: 1 + rng.below_u32(RETRY_MAX_ATTEMPTS),
        dur_scale: 0.1 + 0.8 * rng.f64(),
    }
}

/// Materialize abstract faults against a concrete fault-free runtime.
///
/// Slot `i` of `n` owns the fraction interval `[0.05 + 0.85*i/n, 0.05 +
/// 0.85*(i+1)/n)`; triggers land in the lower 60% of their slot and
/// windows are capped at the next slot's trigger, so prefixes taken in
/// order are genuinely time-ordered and window effects never straddle a
/// later event's trigger (the precondition of the monotonicity theorem).
/// At most two crashes per plan: restart-style recovery doubles the
/// remaining runtime per crash, and the cap keeps every prefix far from
/// the 24 h simulated deadline.
///
/// Resize events walk a running machine count (start [`MACHINES`], kept
/// within `[2, 12]`), and machine-indexed events target `machine % count`
/// so they always hit a member of the cluster in effect at their trigger —
/// the same rule `FaultPlan::validate` enforces.
fn materialize(abstracts: &[AbstractFault], t_clean: f64) -> FaultPlan {
    let n = abstracts.len();
    let frac = |i: usize, off: f64| 0.05 + 0.85 * (i as f64 + off) / n as f64;
    let mut crashes = 0;
    let mut count = MACHINES as i64;
    let mut events = Vec::with_capacity(n);
    for (i, a) in abstracts.iter().enumerate() {
        let start = frac(i, a.offset) * t_clean;
        let gap = (frac(i + 1, 0.0) - frac(i, a.offset)) * t_clean;
        let duration = a.dur_scale * gap;
        let mut kind = a.kind;
        if kind == 0 {
            crashes += 1;
            if crashes > 2 {
                kind = 3; // demote surplus crashes to transients
            }
        }
        let machine = a.machine % count.max(1) as usize;
        events.push(match kind {
            0 => FaultEvent::Crash { at_time: start, machine },
            1 => FaultEvent::Straggler { start, duration, machine, slowdown: a.slowdown },
            2 => FaultEvent::NetworkDegradation { start, duration, factor: a.factor },
            3 => FaultEvent::LostShuffleFetch { at_time: start, machine, attempts: a.attempts },
            4 => FaultEvent::FailedHdfsWrite { at_time: start, machine, attempts: a.attempts },
            5 => {
                // ±1..2 machines, preferring the direction the generated
                // bit picks but clamped so membership stays within [2, 12].
                let mag = 1 + (a.attempts as i64 & 1);
                let delta = if a.machine % 2 == 0 && count + mag <= 12 {
                    mag
                } else if count - mag >= 2 {
                    -mag
                } else {
                    mag
                };
                count += delta;
                FaultEvent::Resize { at_time: start, delta }
            }
            _ => unreachable!(),
        });
    }
    FaultPlan { events }
}

/// Events the run consumed, per the registry's fault counters.
fn consumed(out: &RunOutput) -> u64 {
    [
        "faults.crash.recovered",
        "faults.fetch.retried",
        "faults.hdfs.retried",
        "faults.straggler.applied",
        "faults.netdeg.applied",
        "faults.resize.applied",
    ]
    .iter()
    .map(|name| out.registry.counter(name))
    .sum()
}

fn unreached(out: &RunOutput) -> u64 {
    out.notes.iter().filter(|n| n.starts_with("fault event unreached:")).count() as u64
}

/// The serialized faces of a run that must be thread-count invariant.
fn fingerprint(out: &RunOutput) -> (String, String, String) {
    (
        serde_json::to_string(&out.metrics).expect("metrics serialize"),
        out.journal.to_jsonl(),
        serde_json::to_string(&out.registry).expect("registry serializes"),
    )
}

/// The clean answer must be *right*, not merely stable: ranks within 1e-9
/// of the serial reference fold, labels exactly equal.
fn check_reference(idx: usize, label: &str, clean: &RunOutput) {
    let ds = dataset();
    let (_, _, workload) = cell(idx);
    let got = clean.result.as_ref().expect("clean result");
    match workload {
        Workload::PageRank(cfg) => {
            let want = WorkloadResult::Ranks(reference::pagerank(&ds.1, &cfg).0);
            let diff = got.max_rank_diff(&want);
            assert!(diff <= 1e-9, "{label}: ranks off reference by {diff}");
        }
        _ => {
            let want = WorkloadResult::Labels(reference::wcc(&ds.1));
            assert!(got.same_labels(&want), "{label}: labels diverge from reference");
        }
    }
}

fn check_case(idx: usize, abstracts: &[AbstractFault]) {
    let (label, _, _) = cell(idx);
    let clean = run_cell(idx, FaultPlan::none());
    assert!(clean.metrics.status.is_ok(), "{label}: clean run failed");
    check_reference(idx, label, &clean);
    let t_clean = clean.metrics.total_time();
    let plan = materialize(abstracts, t_clean);
    // The harness captures this and shows it when the case fails, under
    // the case index `for_each_seed` prints.
    eprintln!("{label}, clean runtime {t_clean}: {plan:?}");

    // 3+4: each time-ordered prefix costs at least as much as the last,
    // and accounts for every scheduled event.
    let mut prev = t_clean;
    let mut resized = false;
    for k in 1..=plan.events.len() {
        let prefix = FaultPlan { events: plan.events[..k].to_vec() };
        let out = run_cell(idx, prefix);
        assert!(out.metrics.status.is_ok(), "{label}: prefix {k}: {:?}", out.metrics.status);
        // 1: the answer survives every fault combination.
        assert_eq!(&clean.result, &out.result, "{} prefix {}: answer changed", label, k);
        resized |= matches!(plan.events[k - 1], FaultEvent::Resize { .. });
        let t = out.metrics.total_time();
        assert!(
            resized || t >= prev - 1e-9,
            "{} prefix {}: runtime decreased {} -> {}",
            label,
            k,
            prev,
            t
        );
        prev = t;
        assert_eq!(
            consumed(&out) + unreached(&out),
            k as u64,
            "{} prefix {}: events neither consumed nor reported",
            label,
            k
        );
    }

    // 2: the full faulted run is bit-identical across host thread counts.
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    exec::set_threads(1);
    let serial = run_cell(idx, plan.clone());
    exec::set_threads(4);
    let parallel = run_cell(idx, plan);
    exec::set_threads(1);
    assert_eq!(&serial.result, &parallel.result, "{}: result diverged across threads", label);
    assert_eq!(fingerprint(&serial), fingerprint(&parallel), "{}: record diverged", label);
}

#[test]
fn chaos_generated_fault_plans_uphold_the_recovery_contract() {
    let cases =
        std::env::var("GRAPHBENCH_CHAOS_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(6);
    for_each_seed(cases, |_, rng| {
        let idx = rng.below(4);
        let abstracts: Vec<AbstractFault> = (0..1 + rng.below(4)).map(|_| arb_fault(rng)).collect();
        check_case(idx, &abstracts);
    });
}

/// The empty plan is the identity: a `FaultPlan::none()` run is
/// byte-identical to one with no plan field set at all (the legacy
/// default), for every mechanism cell.
#[test]
fn empty_plan_is_byte_identical_to_fault_free() {
    for idx in 0..4 {
        let (label, _, _) = cell(idx);
        let a = run_cell(idx, FaultPlan::none());
        let b = run_cell(idx, FaultPlan::default());
        assert_eq!(a.result, b.result, "{label}");
        assert_eq!(fingerprint(&a), fingerprint(&b), "{label}");
        assert_eq!(a.journal.fault_seconds(), 0.0, "{label}: fault cost on a fault-free run");
    }
}
