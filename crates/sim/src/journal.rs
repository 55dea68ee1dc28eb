//! Structured run journal: one event per cluster charge — the run's only
//! record of what each charge cost.
//!
//! The paper's analysis tool (Figure 10, Tables 6–8) decomposes every run
//! into compute, network, disk, and memory components over time. The
//! [`Journal`] is that decomposition's raw data: every time- or
//! memory-charge the [`crate::Cluster`] accepts appends one
//! [`JournalEvent`] carrying the superstep index, the accounting phase, an
//! engine-chosen activity label ("superstep", "shuffle", "hdfs_write",
//! ...), the simulated start and duration, the bytes that moved, the
//! straggler imbalance and, for charges a machine gates, the per-machine
//! base busy seconds. Everything else is a fold over these events:
//! [`Journal::phase_times`] is the run's [`PhaseTimes`], and
//! [`Journal::timeline`] is the per-machine view behind the critical path
//! and the Perfetto export.
//!
//! [`Journal::to_jsonl`] / [`Journal::from_jsonl`] give the
//! one-object-per-line format `repro --journal <path>` exports. Floats keep
//! their bits through it ([`crate::json`]), so a re-parsed export yields
//! the same timeline, critical path and phase times as the live journal,
//! bit for bit.

use crate::cluster::Phase;
use crate::json::{self, Error, FromJson, ToJson, Value, Writer};
use crate::metrics::PhaseTimes;
use crate::timeline::Timeline;
use crate::MachineId;

/// What kind of charge produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// One-time framework start-up ([`crate::Cluster::charge_startup`]).
    Startup,
    /// Parallel or master-side compute.
    Compute,
    /// A message exchange over the network.
    Network,
    /// Latency-bound waiting (lock round trips, driver scheduling).
    NetworkWait,
    /// Parallel HDFS read.
    HdfsRead,
    /// Parallel HDFS write (3-way replicated).
    HdfsWrite,
    /// Parallel local-disk read.
    LocalRead,
    /// Parallel local-disk write.
    LocalWrite,
    /// A BSP barrier closing one superstep.
    Barrier,
    /// A recovery stall (no machine is busy).
    Stall,
    /// Memory allocated (zero duration).
    Alloc,
    /// Memory released (zero duration).
    Free,
}

impl EventKind {
    /// Every kind, in declaration order (test iteration helper).
    pub const ALL: [EventKind; 12] = [
        EventKind::Startup,
        EventKind::Compute,
        EventKind::Network,
        EventKind::NetworkWait,
        EventKind::HdfsRead,
        EventKind::HdfsWrite,
        EventKind::LocalRead,
        EventKind::LocalWrite,
        EventKind::Barrier,
        EventKind::Stall,
        EventKind::Alloc,
        EventKind::Free,
    ];

    /// The snake_case name this kind serializes to.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Startup => "startup",
            EventKind::Compute => "compute",
            EventKind::Network => "network",
            EventKind::NetworkWait => "network_wait",
            EventKind::HdfsRead => "hdfs_read",
            EventKind::HdfsWrite => "hdfs_write",
            EventKind::LocalRead => "local_read",
            EventKind::LocalWrite => "local_write",
            EventKind::Barrier => "barrier",
            EventKind::Stall => "stall",
            EventKind::Alloc => "alloc",
            EventKind::Free => "free",
        }
    }

    /// Registry counter incremented once per event of this kind.
    pub fn counter(self) -> &'static str {
        match self {
            EventKind::Startup => "events.startup",
            EventKind::Compute => "events.compute",
            EventKind::Network => "events.network",
            EventKind::NetworkWait => "events.network_wait",
            EventKind::HdfsRead => "events.hdfs_read",
            EventKind::HdfsWrite => "events.hdfs_write",
            EventKind::LocalRead => "events.local_read",
            EventKind::LocalWrite => "events.local_write",
            EventKind::Barrier => "events.barrier",
            EventKind::Stall => "events.stall",
            EventKind::Alloc => "events.alloc",
            EventKind::Free => "events.free",
        }
    }

    /// Registry histogram observing each event's duration.
    pub fn seconds_histogram(self) -> &'static str {
        match self {
            EventKind::Startup => "seconds.startup",
            EventKind::Compute => "seconds.compute",
            EventKind::Network => "seconds.network",
            EventKind::NetworkWait => "seconds.network_wait",
            EventKind::HdfsRead => "seconds.hdfs_read",
            EventKind::HdfsWrite => "seconds.hdfs_write",
            EventKind::LocalRead => "seconds.local_read",
            EventKind::LocalWrite => "seconds.local_write",
            EventKind::Barrier => "seconds.barrier",
            EventKind::Stall => "seconds.stall",
            EventKind::Alloc => "seconds.alloc",
            EventKind::Free => "seconds.free",
        }
    }

    /// Registry counter accumulating this kind's disk bytes, if it is a
    /// disk channel.
    pub fn bytes_counter(self) -> Option<&'static str> {
        match self {
            EventKind::HdfsRead => Some("disk.hdfs_read.bytes"),
            EventKind::HdfsWrite => Some("disk.hdfs_write.bytes"),
            EventKind::LocalRead => Some("disk.local_read.bytes"),
            EventKind::LocalWrite => Some("disk.local_write.bytes"),
            _ => None,
        }
    }

    /// Whether charges of this kind go through the cluster clock. Memory
    /// events do not: they have zero duration and no place on a timeline.
    pub fn is_timed(self) -> bool {
        !matches!(self, EventKind::Alloc | EventKind::Free)
    }

    /// Broad resource class for cost-breakdown tables.
    pub fn class(self) -> &'static str {
        match self {
            EventKind::Compute => "compute",
            EventKind::Network | EventKind::NetworkWait => "network",
            EventKind::HdfsRead
            | EventKind::HdfsWrite
            | EventKind::LocalRead
            | EventKind::LocalWrite => "disk",
            EventKind::Barrier => "barrier",
            EventKind::Startup | EventKind::Stall => "other",
            EventKind::Alloc | EventKind::Free => "memory",
        }
    }
}

impl ToJson for EventKind {
    fn write_json(&self, w: &mut Writer) {
        self.name().write_json(w);
    }
}

impl FromJson for EventKind {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let name = String::from_json(v)?;
        EventKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| Error::new(format!("unknown event kind {name:?}")))
    }
}

/// One cluster charge. Its JSON line leaves out `barrier_wait`, the byte
/// and message counts and the vectors when they are zero or empty.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEvent {
    /// Position in the run's charge sequence (0-based).
    pub seq: u64,
    /// Superstep the charge belongs to: the number of barriers passed when
    /// it was recorded (a [`EventKind::Barrier`] event closes its own
    /// superstep).
    pub superstep: u64,
    /// Accounting phase (`"load"`, `"execute"`, `"save"`, `"overhead"` in
    /// JSON).
    pub phase: Phase,
    /// Engine-chosen activity label ("superstep", "shuffle", ...); defaults
    /// to the phase name.
    pub label: String,
    pub kind: EventKind,
    /// Simulated start: the cluster clock when the charge was recorded.
    pub start: f64,
    /// Simulated seconds this charge advanced the wall clock (slowest
    /// machine under BSP semantics). Zero for memory events.
    pub dt: f64,
    /// Straggler imbalance: the fastest machine waited this long for the
    /// slowest one inside this charge.
    pub barrier_wait: f64,
    /// Paper-equivalent bytes over the network, including framing.
    pub net_bytes: u64,
    /// Paper-equivalent application messages.
    pub messages: u64,
    /// Paper-equivalent bytes through the disk channel named by `kind`.
    pub disk_bytes: u64,
    /// Per-machine memory delta in bytes (positive: alloc, negative: free).
    pub mem_delta: Vec<i64>,
    /// Base (fault-free) busy seconds per machine. Empty for
    /// charges no single machine gates — start-up, barriers, stalls,
    /// memory events. Fault surpluses are separate labeled stalls, so
    /// `max(per_machine) == dt` holds bitwise even on faulted runs.
    pub per_machine: Vec<f64>,
}

impl JournalEvent {
    /// Simulated end time. Bit-identical to the next event's `start`.
    pub fn end(&self) -> f64 {
        self.start + self.dt
    }

    /// The machine that gated this charge — the first machine whose base
    /// busy time equals the duration. `None` for cluster-wide charges.
    pub fn gating_machine(&self) -> Option<MachineId> {
        let mut best: Option<(MachineId, f64)> = None;
        for (i, &t) in self.per_machine.iter().enumerate() {
            match best {
                Some((_, bt)) if t <= bt => {}
                _ => best = Some((i, t)),
            }
        }
        best.map(|(i, _)| i)
    }
}

impl ToJson for JournalEvent {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("seq", &self.seq);
        w.field("superstep", &self.superstep);
        w.field("phase", &self.phase);
        w.field("label", &self.label);
        w.field("kind", &self.kind);
        w.field("start", &self.start);
        w.field("dt", &self.dt);
        if self.barrier_wait != 0.0 {
            w.field("barrier_wait", &self.barrier_wait);
        }
        for (key, n) in [
            ("net_bytes", self.net_bytes),
            ("messages", self.messages),
            ("disk_bytes", self.disk_bytes),
        ] {
            if n != 0 {
                w.field(key, &n);
            }
        }
        if !self.mem_delta.is_empty() {
            w.field("mem_delta", &self.mem_delta);
        }
        if !self.per_machine.is_empty() {
            w.field("per_machine", &self.per_machine);
        }
        w.end_object();
    }
}

/// Everything after `dt` may be absent (omitted when zero), and so may
/// `start` (lines written before it existed).
impl FromJson for JournalEvent {
    fn from_json(v: &Value) -> Result<Self, Error> {
        Ok(JournalEvent {
            seq: v.field("seq")?,
            superstep: v.field("superstep")?,
            phase: v.field("phase")?,
            label: v.field("label")?,
            kind: v.field("kind")?,
            start: v.field_or_default("start")?,
            dt: v.field("dt")?,
            barrier_wait: v.field_or_default("barrier_wait")?,
            net_bytes: v.field_or_default("net_bytes")?,
            messages: v.field_or_default("messages")?,
            disk_bytes: v.field_or_default("disk_bytes")?,
            mem_delta: v.field_or_default("mem_delta")?,
            per_machine: v.field_or_default("per_machine")?,
        })
    }
}

/// Aggregate cost of one activity label — a row of the paper's Figure 10
/// decomposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabelCost {
    pub label: String,
    /// Number of journal events attributed to the label.
    pub events: u64,
    /// Simulated seconds per resource class.
    pub compute: f64,
    pub network: f64,
    pub disk: f64,
    pub barrier: f64,
    /// Start-up + recovery stalls.
    pub other: f64,
    pub net_bytes: u64,
    pub disk_bytes: u64,
    pub messages: u64,
}

impl LabelCost {
    /// Total simulated seconds attributed to the label.
    pub fn total(&self) -> f64 {
        self.compute + self.network + self.disk + self.barrier + self.other
    }
}

/// The ordered event log of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    events: Vec<JournalEvent>,
}

crate::json_struct!(Journal { events });

impl Journal {
    pub fn new() -> Self {
        Journal::default()
    }

    pub fn push(&mut self, ev: JournalEvent) {
        self.events.push(ev);
    }

    pub fn events(&self) -> &[JournalEvent] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sum of event durations, accumulated in event order (bit-identical to
    /// the cluster's clock when no charge was recorded outside the journal).
    pub fn total_time(&self) -> f64 {
        let mut t = 0.0;
        for ev in &self.events {
            t += ev.dt;
        }
        t
    }

    /// Sum of event durations in one phase, in event order.
    #[cfg(test)]
    pub fn phase_time(&self, phase: Phase) -> f64 {
        let mut t = 0.0;
        for ev in &self.events {
            if ev.phase == phase {
                t += ev.dt;
            }
        }
        t
    }

    /// The run's time per phase: event durations summed per phase, in
    /// event order.
    pub fn phase_times(&self) -> PhaseTimes {
        let mut pt = PhaseTimes::default();
        for ev in &self.events {
            match ev.phase {
                Phase::Load => pt.load += ev.dt,
                Phase::Execute => pt.execute += ev.dt,
                Phase::Save => pt.save += ev.dt,
                Phase::Overhead => pt.overhead += ev.dt,
            }
        }
        pt
    }

    /// The per-machine view over this journal's timed events.
    pub fn timeline(&self) -> Timeline<'_> {
        Timeline::new(self)
    }

    /// Total paper-equivalent network bytes across events.
    pub fn net_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.net_bytes).sum()
    }

    /// Simulated seconds attributable to injected faults: the sum over
    /// events labeled `recovery` (crash recovery), `retry` (transient
    /// backoff), and `straggler` (slowdown / degradation surplus). Zero on
    /// a fault-free run.
    pub fn fault_seconds(&self) -> f64 {
        let mut t = 0.0;
        for ev in &self.events {
            if matches!(ev.label.as_str(), "recovery" | "retry" | "straggler") {
                t += ev.dt;
            }
        }
        t
    }

    /// Total paper-equivalent disk bytes across events (all channels).
    pub fn disk_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.disk_bytes).sum()
    }

    /// All bytes that moved during the run — network plus every disk
    /// channel. The numerator of the bytes-moved-per-result efficiency
    /// metric.
    pub fn bytes_moved(&self) -> u64 {
        self.net_bytes() + self.disk_bytes()
    }

    /// Integrated memory footprint in byte-seconds (the resource-efficiency
    /// literature's "memory-seconds"): replay the per-machine memory deltas
    /// in event order and integrate the cluster-wide in-use total over each
    /// charge's duration. Memory events themselves have zero duration, so
    /// the integral only accumulates across the timed charges between them.
    pub fn memory_byte_seconds(&self) -> f64 {
        let mut in_use: i64 = 0;
        let mut total = 0.0;
        for ev in &self.events {
            for &d in &ev.mem_delta {
                in_use += d;
            }
            total += ev.dt * in_use.max(0) as f64;
        }
        total
    }

    /// Per-label cost decomposition, ordered by first appearance.
    pub fn breakdown(&self) -> Vec<LabelCost> {
        let mut rows: Vec<LabelCost> = Vec::new();
        for ev in &self.events {
            let idx = match rows.iter().position(|r| r.label == ev.label) {
                Some(i) => i,
                None => {
                    rows.push(LabelCost { label: ev.label.clone(), ..LabelCost::default() });
                    rows.len() - 1
                }
            };
            let row = &mut rows[idx];
            row.events += 1;
            match ev.kind.class() {
                "compute" => row.compute += ev.dt,
                "network" => row.network += ev.dt,
                "disk" => row.disk += ev.dt,
                "barrier" => row.barrier += ev.dt,
                _ => row.other += ev.dt,
            }
            row.net_bytes += ev.net_bytes;
            row.disk_bytes += ev.disk_bytes;
            row.messages += ev.messages;
        }
        rows
    }

    /// One compact JSON object per line, in event order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&json::to_string(ev));
            out.push('\n');
        }
        out
    }

    /// Parse a [`Journal::to_jsonl`] export (blank lines are skipped). The
    /// error names the 1-based line it stopped at.
    pub fn from_jsonl(s: &str) -> Result<Journal, Error> {
        let mut events = Vec::new();
        for (i, line) in s.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            events.push(json::from_str(line).map_err(|e| e.context(format!("line {}", i + 1)))?);
        }
        Ok(Journal { events })
    }
}

/// A bare event for this crate's tests; they override what they look at.
#[cfg(test)]
pub(crate) fn test_event(kind: EventKind, phase: Phase, label: &str, dt: f64) -> JournalEvent {
    JournalEvent {
        seq: 0,
        superstep: 0,
        phase,
        label: label.to_string(),
        kind,
        start: 0.0,
        dt,
        barrier_wait: 0.0,
        net_bytes: 0,
        messages: 0,
        disk_bytes: 0,
        mem_delta: Vec::new(),
        per_machine: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::test_event as ev;
    use super::*;

    #[test]
    fn jsonl_round_trips() {
        let mut j = Journal::new();
        let mut e = ev(EventKind::Network, Phase::Execute, "shuffle", 1.5);
        e.net_bytes = 1000;
        e.messages = 10;
        e.barrier_wait = 0.25;
        j.push(e);
        j.push(ev(EventKind::Alloc, Phase::Load, "load", 0.0));
        let text = j.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = Journal::from_jsonl(&text).unwrap();
        assert_eq!(back, j);
    }

    /// Zero and empty fields stay out of the line; `start` and a non-empty
    /// `per_machine` survive the round trip, so a `--journal` export alone
    /// reproduces the live critical path bit-for-bit. Values are dyadic so
    /// the comparison does not lean on the JSON float parser.
    #[test]
    fn zero_fields_are_omitted_from_jsonl() {
        let mut j = Journal::new();
        let mut compute = ev(EventKind::Compute, Phase::Execute, "superstep", 1.5);
        compute.barrier_wait = 1.25;
        compute.per_machine = vec![0.25, 1.5];
        j.push(compute);
        let mut barrier = ev(EventKind::Barrier, Phase::Execute, "barrier", 0.125);
        barrier.seq = 1;
        barrier.start = 1.5;
        j.push(barrier);
        let text = j.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"per_machine\":[0.25,1.5]"), "{text}");
        assert!(lines[0].contains("\"phase\":\"execute\""), "{text}");
        assert!(lines[1].contains("\"start\":1.5"), "{text}");
        assert!(lines[1].contains("\"kind\":\"barrier\""), "{text}");
        for absent in ["per_machine", "net_bytes", "mem_delta", "barrier_wait"] {
            assert!(!lines[1].contains(absent), "{absent} in {}", lines[1]);
        }
        let back = Journal::from_jsonl(&text).unwrap();
        assert_eq!(back, j);
        assert_eq!(back.events()[1].start.to_bits(), 1.5f64.to_bits());
        let live = j.timeline().critical_path();
        assert_eq!(format!("{live:?}"), format!("{:?}", back.timeline().critical_path()));
        assert_eq!((live.rows[0].machine, live.total), (Some(1), 1.625));
        // Lines written before the merge carry neither field and still parse.
        let old =
            r#"{"seq":0,"superstep":0,"phase":"load","label":"load","kind":"stall","dt":2.0}"#;
        let parsed = Journal::from_jsonl(old).unwrap();
        assert_eq!(parsed.events()[0].start, 0.0);
        assert!(parsed.events()[0].per_machine.is_empty());
    }

    #[test]
    fn phase_times_and_totals_add_up() {
        let mut j = Journal::new();
        j.push(ev(EventKind::HdfsRead, Phase::Load, "load", 2.0));
        j.push(ev(EventKind::Compute, Phase::Execute, "superstep", 3.0));
        j.push(ev(EventKind::Barrier, Phase::Execute, "barrier", 0.5));
        j.push(ev(EventKind::HdfsWrite, Phase::Save, "save", 1.0));
        let pt = j.phase_times();
        assert_eq!(pt.load, 2.0);
        assert_eq!(pt.execute, 3.5);
        assert_eq!(pt.save, 1.0);
        assert_eq!(pt.overhead, 0.0);
        assert_eq!(j.total_time(), pt.total());
        assert_eq!(j.phase_time(Phase::Execute), 3.5);
    }

    #[test]
    fn breakdown_groups_by_label_in_first_appearance_order() {
        let mut j = Journal::new();
        let mut net = ev(EventKind::Network, Phase::Execute, "shuffle", 1.0);
        net.net_bytes = 500;
        net.messages = 5;
        j.push(ev(EventKind::Compute, Phase::Execute, "superstep", 2.0));
        j.push(net);
        j.push(ev(EventKind::Compute, Phase::Execute, "superstep", 4.0));
        j.push(ev(EventKind::Barrier, Phase::Execute, "barrier", 0.25));
        let rows = j.breakdown();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].label, "superstep");
        assert_eq!(rows[0].events, 2);
        assert_eq!(rows[0].compute, 6.0);
        assert_eq!(rows[1].label, "shuffle");
        assert_eq!(rows[1].network, 1.0);
        assert_eq!(rows[1].net_bytes, 500);
        assert_eq!(rows[1].messages, 5);
        assert_eq!(rows[2].barrier, 0.25);
        assert_eq!(rows[2].total(), 0.25);
    }

    #[test]
    fn fault_seconds_sums_only_fault_labels() {
        let mut j = Journal::new();
        j.push(ev(EventKind::Compute, Phase::Execute, "superstep", 2.0));
        j.push(ev(EventKind::Stall, Phase::Execute, "recovery", 3.0));
        j.push(ev(EventKind::Stall, Phase::Execute, "retry", 0.5));
        j.push(ev(EventKind::Stall, Phase::Execute, "straggler", 1.5));
        j.push(ev(EventKind::Barrier, Phase::Execute, "barrier", 0.25));
        assert_eq!(j.fault_seconds(), 5.0);
        assert_eq!(Journal::new().fault_seconds(), 0.0);
    }

    #[test]
    fn memory_byte_seconds_integrates_in_use_over_time() {
        let mut j = Journal::new();
        let mut alloc = ev(EventKind::Alloc, Phase::Load, "load", 0.0);
        alloc.mem_delta = vec![100, 100]; // 200 B in use
        j.push(alloc);
        j.push(ev(EventKind::Compute, Phase::Execute, "superstep", 2.0)); // 400 B·s
        let mut free = ev(EventKind::Free, Phase::Execute, "superstep", 0.0);
        free.mem_delta = vec![-100, 0]; // 100 B in use
        j.push(free);
        j.push(ev(EventKind::Compute, Phase::Execute, "superstep", 3.0)); // 300 B·s
        assert_eq!(j.memory_byte_seconds(), 700.0);
        assert_eq!(Journal::new().memory_byte_seconds(), 0.0);
    }

    #[test]
    fn bytes_moved_sums_network_and_disk() {
        let mut j = Journal::new();
        let mut net = ev(EventKind::Network, Phase::Execute, "shuffle", 1.0);
        net.net_bytes = 500;
        let mut disk = ev(EventKind::HdfsWrite, Phase::Save, "save", 1.0);
        disk.disk_bytes = 250;
        j.push(net);
        j.push(disk);
        assert_eq!(j.bytes_moved(), 750);
    }

    #[test]
    fn kind_names_match_registry_names() {
        for kind in EventKind::ALL {
            assert_eq!(kind.counter(), format!("events.{}", kind.name()));
            assert_eq!(kind.seconds_histogram(), format!("seconds.{}", kind.name()));
            if let Some(b) = kind.bytes_counter() {
                assert_eq!(b, format!("disk.{}.bytes", kind.name()));
            }
        }
    }

    /// Every kind and phase is written as its `name()` and read back from
    /// it, and `ALL` lists each variant once.
    #[test]
    fn kind_and_phase_names_round_trip() {
        for kind in EventKind::ALL {
            let text = json::to_string(&kind);
            assert_eq!(text, format!("\"{}\"", kind.name()), "{kind:?}");
            assert_eq!(json::from_str::<EventKind>(&text), Ok(kind));
        }
        for phase in Phase::ALL {
            let text = json::to_string(&phase);
            assert_eq!(text, format!("\"{}\"", phase.name()), "{phase:?}");
            assert_eq!(json::from_str::<Phase>(&text), Ok(phase));
        }
        assert!(json::from_str::<EventKind>("\"Compute\"").is_err());
    }

    #[test]
    fn a_bad_line_is_named_in_the_error() {
        let good =
            r#"{"seq":0,"superstep":0,"phase":"load","label":"load","kind":"stall","dt":2.0}"#;
        let text = format!("{good}\n\n{good}\n{{\"seq\":1,");
        let e = Journal::from_jsonl(&text).unwrap_err();
        assert!(e.to_string().starts_with("line 4: "), "{e}");
        let e = Journal::from_jsonl(&good.replace("2.0", "\"x\"")).unwrap_err();
        assert_eq!(e.to_string(), "line 1: dt: expected a number");
    }
}
