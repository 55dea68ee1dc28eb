//! Per-machine timeline, critical-path attribution, and Chrome trace-event
//! export — all folds over the journal's timed events.
//!
//! A [`crate::JournalEvent`] carries the cluster-aggregate duration of its
//! charge (the slowest machine under BSP semantics), its simulated start
//! and the per-machine **base** (fault-free) busy vector the cluster
//! computed to derive `dt` and `barrier_wait`. [`Timeline`] borrows the
//! events that went through the clock (every kind but `alloc`/`free`) and
//! answers the paper's *why* questions (§6): which machine gated each
//! barrier, how much of a label's cost is skew, where simulated time
//! actually went per machine. It stores nothing of its own, so a journal
//! re-parsed from a `--journal` export gives the same answers.
//!
//! Invariants of the data, locked by `tests/trace_invariants.rs`:
//!
//! * timed events are contiguous: `ev[i].start + ev[i].dt` equals
//!   `ev[i+1].start` bit-for-bit (both are the same f64 addition the
//!   cluster clock performed);
//! * replaying durations in order ([`Timeline::total_time`],
//!   [`CriticalPath::total`]) reproduces the run's simulated runtime
//!   bit-for-bit;
//! * `per_machine[i] <= dt` for every event (the charge *is* its slowest
//!   machine), so each machine's busy sum is bounded by the makespan;
//! * all of it is invariant across host thread counts.
//!
//! [`Timeline::chrome_trace`] exports the Chrome trace-event JSON that
//! <https://ui.perfetto.dev> (or `chrome://tracing`) loads directly: a
//! `cluster` track nesting run → phase → superstep → charge, one track per
//! simulated machine with its busy portion of each charge, and — when host
//! tracing is enabled — one track per host thread with real wallclock
//! executor spans, so simulated and host cost can be compared per label.

use crate::cluster::Phase;
use crate::hosttrace::HostSpan;
use crate::journal::{Journal, JournalEvent};
use crate::MachineId;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One (gating machine, label) bucket of the critical path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathRow {
    /// `None` attributes to the cluster as a whole (barriers, start-up,
    /// recovery stalls — charges no single machine gates).
    pub machine: Option<MachineId>,
    pub label: String,
    /// Simulated seconds of the spans this bucket gates, accumulated in
    /// span order.
    pub seconds: f64,
    /// Skew seconds: how long the rest of the cluster waited for the
    /// gating machine inside those spans.
    pub skew: f64,
    /// Number of spans in the bucket.
    pub spans: u64,
}

/// The run's critical path: every span attributed to exactly one
/// (gating machine, label) bucket. The buckets partition the spans, so
/// [`CriticalPath::total`] — the in-order replay of all span durations —
/// decomposes the simulated runtime bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Replay of every span duration in commit order; bit-identical to the
    /// run's simulated runtime.
    pub total: f64,
    /// Buckets sorted by `seconds` descending (ties: first appearance).
    pub rows: Vec<CriticalPathRow>,
}

/// A contiguous block of spans sharing one grouping key (phase or
/// superstep) — the derived middle levels of the run → phase → superstep →
/// charge → machine hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Span index range `[first, last)` into [`Timeline::spans`].
    pub first: usize,
    pub last: usize,
}

/// The timed events of one journal, in commit order: one span per charge.
#[derive(Debug, Clone)]
pub struct Timeline<'a> {
    spans: Vec<&'a JournalEvent>,
}

impl<'a> Timeline<'a> {
    pub(crate) fn new(journal: &'a Journal) -> Self {
        Timeline { spans: journal.events().iter().filter(|e| e.kind.is_timed()).collect() }
    }

    /// Simulated machines that ever carried a charge (one export track
    /// each): the widest `per_machine` vector in the run. After an elastic
    /// scale-out that is the widest membership charged; earlier spans keep
    /// their narrower vectors, and departed machines keep their tracks.
    pub fn machines(&self) -> usize {
        self.spans.iter().map(|s| s.per_machine.len()).max().unwrap_or(0)
    }

    pub fn spans(&self) -> &[&'a JournalEvent] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Replay of span durations in commit order — bit-identical to the
    /// cluster clock.
    pub fn total_time(&self) -> f64 {
        let mut t = 0.0;
        for s in &self.spans {
            t += s.dt;
        }
        t
    }

    /// Machine `m`'s base busy seconds, accumulated in span order. Bounded
    /// by [`Timeline::total_time`]: every addend is `<=` the corresponding
    /// span's `dt` and f64 addition is monotone.
    pub fn machine_busy(&self, m: MachineId) -> f64 {
        let mut t = 0.0;
        for s in &self.spans {
            if let Some(&b) = s.per_machine.get(m) {
                t += b;
            }
        }
        t
    }

    /// Critical-path extraction: attribute each span's full duration to
    /// its gating (machine, label) bucket, replaying in span order so the
    /// bucket sums decompose the simulated runtime bit-for-bit.
    pub fn critical_path(&self) -> CriticalPath {
        let mut total = 0.0;
        let mut rows: Vec<CriticalPathRow> = Vec::new();
        for s in &self.spans {
            total += s.dt;
            let machine = s.gating_machine();
            let idx = match rows.iter().position(|r| r.machine == machine && r.label == s.label) {
                Some(i) => i,
                None => {
                    rows.push(CriticalPathRow {
                        machine,
                        label: s.label.clone(),
                        seconds: 0.0,
                        skew: 0.0,
                        spans: 0,
                    });
                    rows.len() - 1
                }
            };
            let row = &mut rows[idx];
            row.seconds += s.dt;
            row.skew += s.barrier_wait;
            row.spans += 1;
        }
        rows.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
        CriticalPath { total, rows }
    }

    /// Contiguous phase blocks, in time order.
    pub fn phase_blocks(&self) -> Vec<Block> {
        self.blocks(|s| Some(s.phase.name().to_string()))
    }

    /// Contiguous superstep blocks within the execute phase.
    pub fn superstep_blocks(&self) -> Vec<Block> {
        self.blocks(|s| (s.phase == Phase::Execute).then(|| format!("superstep {}", s.superstep)))
    }

    /// Maximal runs of adjacent spans sharing a key; `None` leaves a span
    /// out of every block.
    fn blocks(&self, key: impl Fn(&JournalEvent) -> Option<String>) -> Vec<Block> {
        let mut blocks: Vec<Block> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let Some(k) = key(s) else { continue };
            match blocks.last_mut() {
                Some(b) if b.name == k && b.last == i => {
                    b.end = s.end();
                    b.last = i + 1;
                }
                _ => blocks.push(Block {
                    name: k,
                    start: s.start,
                    end: s.end(),
                    first: i,
                    last: i + 1,
                }),
            }
        }
        blocks
    }

    /// Chrome trace-event JSON for the simulated run only (no host track).
    pub fn chrome_trace(&self) -> String {
        self.chrome_trace_with_host(&[])
    }

    /// Chrome trace-event JSON with an additional host process whose
    /// tracks carry real wallclock executor spans (see
    /// [`crate::hosttrace`]). Loads directly in Perfetto.
    pub fn chrome_trace_with_host(&self, host: &[HostSpan]) -> String {
        // Trace-event timestamps are microseconds.
        let us = |secs: f64| secs * 1e6;
        let mut ev = ChromeEvents::new();
        ev.meta(SIM_PID, 0, "process_name", "simulated cluster");
        ev.meta(SIM_PID, 0, "thread_name", "cluster (critical path)");
        for m in 0..self.machines() {
            ev.meta(SIM_PID, 1 + m as u64, "thread_name", &format!("machine {m}"));
        }
        if let (Some(first), Some(last)) = (self.spans.first(), self.spans.last()) {
            ev.complete(
                SIM_PID,
                0,
                "run",
                "run",
                us(first.start),
                us(last.end() - first.start),
                None,
            );
        }
        for b in self.phase_blocks() {
            ev.complete(SIM_PID, 0, &b.name, "phase", us(b.start), us(b.end - b.start), None);
        }
        for b in self.superstep_blocks() {
            ev.complete(SIM_PID, 0, &b.name, "superstep", us(b.start), us(b.end - b.start), None);
        }
        for s in &self.spans {
            let args = format!(
                "{{\"seq\":{},\"superstep\":{},\"barrier_wait\":{},\"gating_machine\":{}}}",
                s.seq,
                s.superstep,
                json_f64(s.barrier_wait),
                match s.gating_machine() {
                    Some(m) => m.to_string(),
                    None => "null".to_string(),
                },
            );
            ev.complete(SIM_PID, 0, &s.label, s.kind.name(), us(s.start), us(s.dt), Some(&args));
            for (m, &busy) in s.per_machine.iter().enumerate() {
                if busy > 0.0 {
                    ev.complete(
                        SIM_PID,
                        1 + m as u64,
                        &s.label,
                        s.kind.name(),
                        us(s.start),
                        us(busy),
                        None,
                    );
                }
            }
        }
        if !host.is_empty() {
            ev.meta(HOST_PID, 0, "process_name", "host threads (wallclock)");
            let mut threads: Vec<usize> = host.iter().map(|h| h.thread).collect();
            threads.sort_unstable();
            threads.dedup();
            for &t in &threads {
                ev.meta(HOST_PID, t as u64, "thread_name", &format!("host thread {t}"));
            }
            for h in host {
                ev.complete(
                    HOST_PID,
                    h.thread as u64,
                    &h.label,
                    "host",
                    h.start_us as f64,
                    h.dur_us as f64,
                    None,
                );
            }
        }
        ev.finish()
    }
}

/// pid of the simulated-cluster process in the exported trace.
const SIM_PID: u64 = 1;
/// pid of the host-thread process in the exported trace.
const HOST_PID: u64 = 2;

/// Minimal Chrome trace-event writer. The format is JSON (an object with a
/// `traceEvents` array of `"M"` metadata and `"X"` complete events); the
/// writer emits it directly so the export needs no intermediate value tree.
struct ChromeEvents {
    out: String,
    any: bool,
}

impl ChromeEvents {
    fn new() -> Self {
        ChromeEvents { out: String::from("{\"traceEvents\":[\n"), any: false }
    }

    fn sep(&mut self) {
        if self.any {
            self.out.push_str(",\n");
        }
        self.any = true;
    }

    /// An `"M"` metadata event naming a process or thread.
    fn meta(&mut self, pid: u64, tid: u64, what: &str, name: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{what}\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name),
        );
    }

    /// An `"X"` complete event: one span with a start and a duration.
    fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        cat: &str,
        ts_us: f64,
        dur_us: f64,
        args: Option<&str>,
    ) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{}\",\"cat\":\"{}\",\
             \"ts\":{},\"dur\":{}",
            escape(name),
            escape(cat),
            json_f64(ts_us),
            json_f64(dur_us),
        );
        if let Some(a) = args {
            let _ = write!(self.out, ",\"args\":{a}");
        }
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        self.out
    }
}

/// JSON number for an f64 (finite by construction; `1e21`-style exponents
/// from `{}` formatting are valid JSON numbers).
fn json_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "non-finite trace value {v}");
    // `{}` prints integral floats without a dot; that is still a JSON
    // number, so no fixup is needed.
    format!("{v}")
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{test_event, EventKind};

    fn ev(
        superstep: u64,
        phase: Phase,
        label: &str,
        kind: EventKind,
        dt: f64,
        per_machine: Vec<f64>,
    ) -> JournalEvent {
        JournalEvent { superstep, per_machine, ..test_event(kind, phase, label, dt) }
    }

    /// Six charges with a memory event in the middle; `seq` and `start`
    /// are assigned the way the cluster clock would.
    fn demo() -> Journal {
        use EventKind::*;
        use Phase::*;
        let mut alloc = ev(0, Execute, "superstep", Alloc, 0.0, vec![]);
        alloc.mem_delta = vec![64, 64];
        let mut j = Journal::new();
        let mut clock = 0.0;
        for mut e in [
            ev(0, Load, "load", HdfsRead, 2.0, vec![2.0, 1.0]),
            ev(0, Execute, "superstep", Compute, 3.0, vec![1.0, 3.0]),
            alloc,
            ev(0, Execute, "shuffle", Network, 1.0, vec![1.0, 0.5]),
            ev(0, Execute, "barrier", Barrier, 0.5, vec![]),
            ev(1, Execute, "superstep", Compute, 2.0, vec![2.0, 1.0]),
            ev(1, Save, "save", HdfsWrite, 1.0, vec![1.0, 1.0]),
        ] {
            e.seq = j.len() as u64;
            e.start = clock;
            clock += e.dt;
            j.push(e);
        }
        j
    }

    #[test]
    fn spans_are_the_timed_events_and_total_replays_the_clock() {
        let j = demo();
        let t = j.timeline();
        assert_eq!(t.len(), j.len() - 1, "the alloc is not a span");
        assert!(t.spans().iter().all(|s| s.kind.is_timed()));
        for w in t.spans().windows(2) {
            assert_eq!(w[0].end().to_bits(), w[1].start.to_bits());
        }
        assert_eq!(t.total_time(), 9.5);
        assert_eq!(t.machines(), 2);
    }

    #[test]
    fn gating_machine_is_the_slowest_and_first_wins_ties() {
        let j = demo();
        let t = j.timeline();
        assert_eq!(t.spans()[0].gating_machine(), Some(0));
        assert_eq!(t.spans()[1].gating_machine(), Some(1));
        assert_eq!(t.spans()[3].gating_machine(), None); // barrier
        assert_eq!(t.spans()[5].gating_machine(), Some(0)); // tie -> first
    }

    #[test]
    fn machine_busy_is_bounded_by_the_makespan() {
        let j = demo();
        let t = j.timeline();
        assert_eq!(t.machine_busy(0), 7.0);
        assert_eq!(t.machine_busy(1), 6.5);
        assert!(t.machine_busy(0) <= t.total_time());
        assert!(t.machine_busy(1) <= t.total_time());
    }

    #[test]
    fn critical_path_partitions_spans_and_reproduces_the_total() {
        let j = demo();
        let t = j.timeline();
        let cp = t.critical_path();
        assert_eq!(cp.total.to_bits(), t.total_time().to_bits());
        assert_eq!(cp.rows.iter().map(|r| r.spans).sum::<u64>(), t.len() as u64);
        // Machine 0 gates load (2s) + superstep 1 (2s) + shuffle (1s) +
        // save (1s); machine 1 gates superstep 0 (3s); nobody gates the
        // barrier (0.5s).
        let top = &cp.rows[0];
        assert_eq!((top.machine, top.label.as_str()), (Some(1), "superstep"));
        assert_eq!(top.seconds, 3.0);
        let barrier = cp.rows.iter().find(|r| r.label == "barrier").unwrap();
        assert_eq!(barrier.machine, None);
        assert_eq!(barrier.seconds, 0.5);
        // Same-label spans gated by different machines land in distinct
        // rows: "superstep" appears for machine 0 and machine 1.
        let superstep_rows: Vec<_> = cp.rows.iter().filter(|r| r.label == "superstep").collect();
        assert_eq!(superstep_rows.len(), 2);
    }

    #[test]
    fn blocks_derive_the_phase_and_superstep_hierarchy() {
        let j = demo();
        let t = j.timeline();
        let phases = t.phase_blocks();
        let names: Vec<&str> = phases.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, vec!["load", "execute", "save"]);
        let steps = t.superstep_blocks();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].name, "superstep 0");
        assert_eq!((steps[0].first, steps[0].last), (1, 4));
        assert_eq!(steps[1].name, "superstep 1");
        assert_eq!(steps[0].end, steps[1].start);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_track_per_machine() {
        let j = demo();
        let host = vec![HostSpan { thread: 0, label: "superstep".into(), start_us: 10, dur_us: 5 }];
        let trace = j.timeline().chrome_trace_with_host(&host);
        let v: serde_json::Value = serde_json::from_str(&trace).expect("valid JSON");
        let events = v["traceEvents"].as_array().expect("traceEvents array");
        // Metadata names one track per simulated machine.
        let machine_tracks: Vec<&serde_json::Value> = events
            .iter()
            .filter(|e| {
                e["ph"] == "M"
                    && e["name"] == "thread_name"
                    && e["args"]["name"].as_str().is_some_and(|n| n.starts_with("machine "))
            })
            .collect();
        assert_eq!(machine_tracks.len(), 2);
        // Every complete event is well-formed.
        let xs: Vec<&serde_json::Value> = events.iter().filter(|e| e["ph"] == "X").collect();
        assert!(!xs.is_empty());
        for x in &xs {
            assert!(x["ts"].as_f64().is_some(), "{x}");
            assert!(x["dur"].as_f64().is_some_and(|d| d >= 0.0), "{x}");
            assert!(x["name"].as_str().is_some(), "{x}");
        }
        // The host process contributed its track.
        assert!(xs.iter().any(|x| x["pid"].as_u64() == Some(2)));
        // The run envelope covers the whole clock.
        let run = xs.iter().find(|x| x["name"] == "run").unwrap();
        assert_eq!(run["dur"].as_f64().unwrap(), 9.5e6);
    }

    #[test]
    fn empty_journal_exports_an_empty_but_valid_trace() {
        let j = Journal::new();
        assert_eq!(j.timeline().machines(), 0);
        let v: serde_json::Value = serde_json::from_str(&j.timeline().chrome_trace()).unwrap();
        assert!(v["traceEvents"].as_array().unwrap().iter().all(|e| e["ph"] == "M"));
    }

    #[test]
    fn labels_are_json_escaped() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
