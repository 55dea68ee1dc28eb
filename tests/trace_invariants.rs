//! The contract of the journal's timed events (the spans of
//! `Journal::timeline`), checked on every engine×workload golden cell:
//!
//! * spans are contiguous and nest cleanly under the derived phase /
//!   superstep blocks (each block owns a half-open span range, the ranges
//!   partition the timeline);
//! * every per-machine vector is either empty (cluster-wide charge) or one
//!   entry per machine, bounded by the span duration, with the gating
//!   machine's entry equal to it bit-for-bit;
//! * each machine's busy sum is bounded by the makespan;
//! * the critical path partitions the spans and its total reproduces
//!   `RunRecord.runtime` bit-for-bit — on fault-free *and* faulted runs;
//! * the Chrome trace export parses as valid trace-event JSON with one
//!   named track per simulated machine;
//! * a `--journal` export, parsed back, replays the critical path and the
//!   phase times of the run bit-for-bit.
//!
//! Thread-count invariance of all of it is covered by
//! `tests/determinism_parallel.rs` (the journal is compared across
//! `GRAPHBENCH_THREADS` ∈ {1, 4} there).

use graphbench::system::GlStop;
use graphbench::{ExperimentSpec, PaperEnv, RunRecord, Runner, SystemId};
use graphbench_algos::WorkloadKind;
use graphbench_gen::{DatasetKind, Scale};
use graphbench_sim::{json, FaultEvent, FaultPlan, Journal, Phase, Timeline};

/// The golden-record configuration (tests/golden_records.rs); the cells
/// checked here are exactly the goldened engine×workload matrix.
fn runner() -> Runner {
    let mut r = Runner::new(PaperEnv::new(Scale { base: 300 }, 7));
    r.fixed_pr_iterations = 5;
    r
}

fn lineup() -> Vec<SystemId> {
    vec![
        SystemId::Giraph,
        SystemId::GraphLab { sync: true, auto: false, stop: GlStop::Iterations },
        SystemId::BlogelV,
        SystemId::Hadoop,
        SystemId::GraphX,
        SystemId::Vertica,
    ]
}

fn cell(system: SystemId, workload: WorkloadKind) -> RunRecord {
    runner().run(&ExperimentSpec { system, workload, dataset: DatasetKind::Twitter, machines: 16 })
}

fn assert_spans_well_formed(tl: &Timeline<'_>, label: &str) {
    assert!(!tl.is_empty(), "{label}: empty timeline");
    let spans = tl.spans();
    assert_eq!(spans[0].start, 0.0, "{label}: first span starts at the epoch");
    for (i, w) in spans.windows(2).enumerate() {
        assert_eq!(
            w[0].end().to_bits(),
            w[1].start.to_bits(),
            "{label}: span {i} does not abut span {}",
            i + 1
        );
    }
    for (i, s) in spans.iter().enumerate() {
        assert!(s.dt >= 0.0 && s.dt.is_finite(), "{label}: span {i} bad dt {}", s.dt);
        assert!(s.barrier_wait >= 0.0, "{label}: span {i} negative wait");
        if s.per_machine.is_empty() {
            assert_eq!(s.gating_machine(), None, "{label}: span {i}");
            continue;
        }
        let mut max = 0.0f64;
        for (m, &t) in s.per_machine.iter().enumerate() {
            assert!(t >= 0.0, "{label}: span {i} machine {m} negative");
            assert!(t <= s.dt, "{label}: span {i} machine {m} exceeds dt");
            max = max.max(t);
        }
        // The charge *is* its slowest machine — even on faulted runs,
        // where the vector stores base (unslowed) times and fault surplus
        // is a separate cluster-wide stall.
        assert_eq!(max.to_bits(), s.dt.to_bits(), "{label}: span {i} max != dt");
        let g = s.gating_machine().expect("non-empty vector has a gating machine");
        assert_eq!(s.per_machine[g].to_bits(), s.dt.to_bits(), "{label}: span {i}");
    }
}

fn assert_blocks_partition(tl: &Timeline<'_>, label: &str) {
    let phases = tl.phase_blocks();
    let mut next = 0usize;
    for b in &phases {
        assert_eq!(b.first, next, "{label}: phase block gap at {}", b.name);
        assert!(b.last > b.first, "{label}: empty phase block {}", b.name);
        assert_eq!(b.start.to_bits(), tl.spans()[b.first].start.to_bits(), "{label}");
        assert_eq!(b.end.to_bits(), tl.spans()[b.last - 1].end().to_bits(), "{label}");
        next = b.last;
    }
    assert_eq!(next, tl.len(), "{label}: phase blocks do not cover the timeline");
    // Superstep blocks live inside the execute phase and never overlap.
    let mut prev_end = 0usize;
    for b in tl.superstep_blocks() {
        assert!(b.first >= prev_end, "{label}: superstep blocks overlap");
        assert!(
            tl.spans()[b.first..b.last].iter().all(|s| s.phase == Phase::Execute),
            "{label}: superstep block {} leaves the execute phase",
            b.name
        );
        prev_end = b.last;
    }
}

fn assert_critical_path_decomposes(tl: &Timeline<'_>, runtime: f64, label: &str) {
    let cp = tl.critical_path();
    assert_eq!(cp.total.to_bits(), runtime.to_bits(), "{label}: critical path total != runtime");
    assert_eq!(tl.total_time().to_bits(), runtime.to_bits(), "{label}: replay != runtime");
    let spans: u64 = cp.rows.iter().map(|r| r.spans).sum();
    assert_eq!(spans, tl.len() as u64, "{label}: rows do not partition the spans");
    for w in cp.rows.windows(2) {
        assert!(w[0].seconds >= w[1].seconds, "{label}: rows not sorted");
    }
    for m in 0..tl.machines() {
        assert!(
            tl.machine_busy(m) <= tl.total_time(),
            "{label}: machine {m} busier than the makespan"
        );
    }
}

fn assert_chrome_trace_valid(tl: &Timeline<'_>, rec: &RunRecord, label: &str) {
    let trace = tl.chrome_trace_with_host(&rec.host_spans);
    let v = json::parse(&trace).unwrap_or_else(|e| panic!("{label}: trace is not valid JSON: {e}"));
    let events = v["traceEvents"].as_array().unwrap_or_else(|| panic!("{label}: no traceEvents"));
    let mut machine_tracks = 0usize;
    for e in events {
        assert!(e["ph"].as_str().is_some(), "{label}: {e}");
        assert!(e["pid"].as_u64().is_some() && e["tid"].as_u64().is_some(), "{label}: {e}");
        match e["ph"].as_str().unwrap() {
            "X" => {
                assert!(e["ts"].as_f64().is_some(), "{label}: {e}");
                assert!(e["dur"].as_f64().is_some_and(|d| d >= 0.0), "{label}: {e}");
            }
            "M" => {
                if e["name"] == "thread_name"
                    && e["args"]["name"].as_str().is_some_and(|n| n.starts_with("machine "))
                {
                    machine_tracks += 1;
                }
            }
            other => panic!("{label}: unexpected ph {other:?}"),
        }
    }
    // One track per machine: the width of every per-machine vector.
    assert_eq!(machine_tracks, rec.machines, "{label}: one track per machine");
    assert_eq!(machine_tracks, tl.machines(), "{label}");
}

fn assert_all(rec: &RunRecord) {
    let label = format!("{} {}", rec.system, rec.workload);
    // Every event, memory events included, sits where the clock stood.
    for w in rec.journal.events().windows(2) {
        assert_eq!(w[0].end().to_bits(), w[1].start.to_bits(), "{label}: gap after {}", w[0].seq);
    }
    let tl = rec.journal.timeline();
    assert_spans_well_formed(&tl, &label);
    assert_blocks_partition(&tl, &label);
    assert_critical_path_decomposes(&tl, rec.runtime, &label);
    assert_chrome_trace_valid(&tl, rec, &label);
}

#[test]
fn every_golden_cell_satisfies_the_timeline_contract() {
    for system in lineup() {
        for workload in [WorkloadKind::PageRank, WorkloadKind::Wcc] {
            assert_all(&cell(system, workload));
        }
    }
}

/// Fault injection must not break the decomposition: base per-machine
/// vectors still gate their spans exactly, surplus stalls are cluster-wide
/// spans of their own, and the replay still reproduces the (longer)
/// faulted runtime bit-for-bit.
#[test]
fn faulted_runs_still_decompose_bit_for_bit() {
    let spec = ExperimentSpec {
        system: SystemId::Giraph,
        workload: WorkloadKind::PageRank,
        dataset: DatasetKind::Twitter,
        machines: 16,
    };
    let clean = runner().run(&spec);
    let p = clean.metrics.phases;
    let mut r = runner();
    r.faults = Some(FaultPlan {
        events: vec![
            FaultEvent::Straggler {
                start: p.overhead + p.load + 0.1 * p.execute,
                duration: 0.3 * p.execute,
                machine: 2,
                slowdown: 3.0,
            },
            FaultEvent::Crash { at_time: p.overhead + p.load + 0.6 * p.execute, machine: 5 },
        ],
    });
    let rec = r.run(&spec);
    assert!(rec.runtime > clean.runtime, "faults should cost simulated time");
    assert_all(&rec);
    // The surplus shows up as cluster-wide stall spans, not as distortion
    // of the base vectors.
    assert!(
        rec.journal
            .events()
            .iter()
            .any(|s| s.label == "straggler" && s.per_machine.is_empty() && s.dt > 0.0),
        "no straggler stall event in the faulted journal"
    );
}

/// The journal export is enough to replay a run: parsed back, it gives the
/// record's critical-path total and phase times to the bit — for the
/// line-up on all four workloads, and under a straggler+crash plan.
#[test]
fn reparsed_journals_replay_the_run_bit_for_bit() {
    let mut records: Vec<RunRecord> = Vec::new();
    for system in lineup() {
        for workload in WorkloadKind::ALL {
            records.push(cell(system, workload));
        }
    }
    let spec = ExperimentSpec {
        system: SystemId::Giraph,
        workload: WorkloadKind::PageRank,
        dataset: DatasetKind::Twitter,
        machines: 16,
    };
    let p = runner().run(&spec).metrics.phases;
    let exec_at = |alpha: f64| p.overhead + p.load + alpha * p.execute;
    let mut r = runner();
    r.faults = Some(FaultPlan {
        events: vec![
            FaultEvent::Straggler {
                start: exec_at(0.1),
                duration: 0.3 * p.execute,
                machine: 2,
                slowdown: 3.0,
            },
            FaultEvent::Crash { at_time: exec_at(0.6), machine: 5 },
        ],
    });
    records.push(r.run(&spec));
    for rec in &records {
        let label = format!("{} {} ({})", rec.system, rec.workload, rec.metrics.status.code());
        let back =
            Journal::from_jsonl(&rec.journal.to_jsonl()).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(back, rec.journal, "{label}");
        let total = back.timeline().critical_path().total;
        assert_eq!(total.to_bits(), rec.runtime.to_bits(), "{label}: critical path total");
        let bits = |p: graphbench_sim::PhaseTimes| {
            [p.load, p.execute, p.save, p.overhead].map(f64::to_bits)
        };
        assert_eq!(bits(back.phase_times()), bits(rec.metrics.phases), "{label}: phase times");
    }
}
