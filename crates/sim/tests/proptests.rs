//! Properties, over seeded op sequences, of the cluster simulator's
//! accounting invariants,
//! including the journal/registry observability contract: every charge is
//! journaled, journal durations replay the clock bit-for-bit, and the
//! registry's counters and histograms agree with the event log. The JSONL
//! round trip is a property of its own, so the accounting half does not
//! need a working `serde_json`.

use graphbench_graph::rng::{for_each_seed, Rng};
use graphbench_sim::{Cluster, ClusterSpec, CostProfile, Journal, Phase};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Compute(Vec<u16>),
    Exchange(Vec<u16>, Vec<u16>),
    Barrier,
    HdfsRead(Vec<u16>),
    Alloc(usize, u16),
    Free(usize, u16),
    Phase(u8),
}

fn arb_op(rng: &mut Rng, machines: usize) -> Op {
    let v = |rng: &mut Rng| (0..machines).map(|_| rng.below(1000) as u16).collect();
    match rng.below(7) {
        0 => Op::Compute(v(rng)),
        1 => Op::Exchange(v(rng), v(rng)),
        2 => Op::Barrier,
        3 => Op::HdfsRead(v(rng)),
        4 => Op::Alloc(rng.below(machines), rng.below(1000) as u16),
        5 => Op::Free(rng.below(machines), rng.below(1000) as u16),
        _ => Op::Phase(rng.below(4) as u8),
    }
}

/// Apply one op to the cluster, mirroring memory and barrier counts in the
/// caller's model.
fn apply(c: &mut Cluster, op: Op, in_use: &mut [u64], barriers: &mut u64) {
    let machines = in_use.len();
    let cut = |v: Vec<u16>| -> Vec<u64> { v.into_iter().take(machines).map(u64::from).collect() };
    match op {
        Op::Compute(o) => {
            let o: Vec<f64> = o.into_iter().take(machines).map(f64::from).collect();
            c.advance_compute(&o, 2).unwrap();
        }
        Op::Exchange(a, b) => c.exchange(&cut(a), &cut(b), &vec![1; machines]).unwrap(),
        Op::Barrier => {
            c.barrier().unwrap();
            *barriers += 1;
        }
        Op::HdfsRead(b) => c.hdfs_read(&cut(b)).unwrap(),
        Op::Alloc(m, bytes) => {
            let m = m % machines;
            if c.alloc(m, bytes as u64).is_ok() {
                in_use[m] += bytes as u64;
            }
        }
        Op::Free(m, bytes) => {
            let m = m % machines;
            c.free(m, bytes as u64);
            in_use[m] = in_use[m].saturating_sub(bytes as u64);
        }
        Op::Phase(p) => c.begin_phase(match p {
            0 => Phase::Load,
            1 => Phase::Execute,
            2 => Phase::Save,
            _ => Phase::Overhead,
        }),
    }
}

fn cluster(machines: usize) -> Cluster {
    Cluster::new(ClusterSpec::r3_xlarge(machines, 1 << 20), CostProfile::cpp_mpi())
}

#[test]
fn accounting_invariants_hold_for_any_op_sequence() {
    for_each_seed(256, |_, rng| {
        let machines = 1 + rng.below(4);
        let ops: Vec<Op> = (0..rng.below(60)).map(|_| arb_op(rng, 4)).collect();
        let mut c = cluster(machines);
        let mut in_use = vec![0u64; machines];
        let mut barriers = 0u64;
        for op in ops {
            let before = c.elapsed();
            apply(&mut c, op, &mut in_use, &mut barriers);
            // Clock is monotone and equals the phase-time sum.
            assert!(c.elapsed() >= before);
            assert!((c.phase_times().total() - c.elapsed()).abs() < 1e-6);
        }
        assert_eq!(c.supersteps(), barriers);
        for (m, &want) in in_use.iter().enumerate() {
            assert_eq!(c.mem_in_use(m), want);
            assert!(c.mem_peaks()[m] >= c.mem_in_use(m));
            assert!(c.mem_peaks()[m] <= 1 << 20);
        }
        let cpu = c.cpu_breakdown();
        assert!(cpu.user_avg >= 0.0 && cpu.user_avg <= 1.0 + 1e-9);
        assert!(cpu.io_wait_avg >= 0.0 && cpu.io_wait_avg <= 1.0 + 1e-9);

        // --- Journal invariants -------------------------------------------
        let j = c.journal();
        // Event durations sum to the simulated clock, bit-for-bit: both
        // fold the same charge sequence in the same order.
        assert_eq!(j.total_time(), c.elapsed());
        // Sequence numbers are the event index; superstep is monotone and
        // every event starts where its predecessor ended.
        for (i, ev) in j.events().iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
        }
        for w in j.events().windows(2) {
            assert!(w[0].superstep <= w[1].superstep);
            assert_eq!(w[0].end().to_bits(), w[1].start.to_bits());
        }
        // A charge is its slowest machine, bit-for-bit.
        for ev in j.events().iter().filter(|ev| !ev.per_machine.is_empty()) {
            assert_eq!(ev.per_machine.len(), machines);
            let max = ev.per_machine.iter().fold(0.0f64, |a, &b| a.max(b));
            assert_eq!(max.to_bits(), ev.dt.to_bits());
        }
        // Memory deltas replay to the memory in use.
        for m in 0..machines {
            let replayed: i64 = j.events().iter().filter_map(|ev| ev.mem_delta.get(m)).sum();
            assert_eq!(replayed, c.mem_in_use(m) as i64);
        }

        // --- Registry invariants ------------------------------------------
        let reg = c.registry();
        // Per-kind: histogram observation count == event counter == number
        // of journal events of that kind.
        let mut events_by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut hist_by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        for ev in j.events() {
            *events_by_kind.entry(ev.kind.counter()).or_default() += 1;
            *hist_by_kind.entry(ev.kind.seconds_histogram()).or_default() += 1;
        }
        for (name, n) in events_by_kind {
            assert_eq!(reg.counter(name), n, "counter {}", name);
        }
        for (name, n) in hist_by_kind {
            let h = reg.histogram(name).unwrap();
            assert_eq!(h.count(), n, "histogram {}", name);
            // Bucket counts always sum to the total observation count.
            assert_eq!(h.counts().iter().sum::<u64>(), h.count());
        }
        // Byte and message totals match the event log.
        let net: u64 = j.events().iter().map(|ev| ev.net_bytes).sum();
        assert_eq!(reg.counter("net.bytes"), net);
        let msgs: u64 = j.events().iter().map(|ev| ev.messages).sum();
        assert_eq!(reg.counter("net.messages"), msgs);
    });
}

#[test]
fn jsonl_export_round_trips_losslessly() {
    for_each_seed(256, |_, rng| {
        let machines = 1 + rng.below(4);
        let ops: Vec<Op> = (0..rng.below(60)).map(|_| arb_op(rng, 4)).collect();
        let mut c = cluster(machines);
        let (mut in_use, mut barriers) = (vec![0u64; machines], 0u64);
        for op in ops {
            apply(&mut c, op, &mut in_use, &mut barriers);
        }
        let rt = Journal::from_jsonl(&c.journal().to_jsonl()).unwrap();
        assert_eq!(&rt, c.journal());
    });
}
