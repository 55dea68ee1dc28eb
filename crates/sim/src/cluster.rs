//! The cluster simulator engines drive.

use crate::cost::CostProfile;
use crate::hosttrace;
use crate::journal::{EventKind, Journal, JournalEvent};
use crate::metrics::{CpuBreakdown, PhaseTimes};
use crate::observer::SuperstepSnapshot;
use crate::registry::{MetricsRegistry, SECONDS_BUCKETS};
use crate::spec::{ClusterSpec, FaultEvent};
use crate::trace::Trace;
use crate::{MachineId, SimError};
use serde::{Deserialize, Serialize};

/// Elementary operations a migration receiver pays per byte landed to
/// rebuild its fragment-local indexes (dense-id tables, adjacency offsets)
/// after an elastic resize. A cost-model device like the `CostProfile`
/// rates, kept out of the profile struct so existing profiles are
/// untouched.
pub const ELASTIC_REBUILD_OPS_PER_BYTE: f64 = 0.25;

/// A transient fault taken from the plan: the engine retries it with a
/// bounded backoff instead of aborting (`attempts` failed tries, each paying
/// a backoff stall, then success).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientFault {
    /// A shuffle fetch from `machine` was lost and must be re-requested.
    LostShuffleFetch { machine: MachineId, attempts: u32 },
    /// An HDFS write on `machine` failed and must be re-issued.
    FailedHdfsWrite { machine: MachineId, attempts: u32 },
}

impl TransientFault {
    /// Failed attempts before the retry succeeds.
    pub fn attempts(&self) -> u32 {
        match *self {
            TransientFault::LostShuffleFetch { attempts, .. }
            | TransientFault::FailedHdfsWrite { attempts, .. } => attempts,
        }
    }
}

/// End-to-end processing phases, matching the paper's reporting (§4.2):
/// load (read + partition), execute, save, and overhead (everything else —
/// start-up, synchronization, repartitioning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Phase {
    Load,
    Execute,
    Save,
    Overhead,
}

impl Phase {
    /// Lower-case name: the default label, and what the phase serializes to.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Load => "load",
            Phase::Execute => "execute",
            Phase::Save => "save",
            Phase::Overhead => "overhead",
        }
    }
}

/// One pending charge on its way into the journal.
#[derive(Default)]
struct Charge {
    dt: f64,
    barrier_wait: f64,
    net_bytes: u64,
    messages: u64,
    disk_bytes: u64,
    mem_delta: Vec<i64>,
    /// Base (fault-free) busy seconds per machine. Empty for cluster-wide
    /// charges no single machine gates.
    per_machine: Vec<f64>,
}

/// Per-machine running state.
#[derive(Debug, Clone, Default)]
struct Machine {
    mem_in_use: u64,
    mem_peak: u64,
    busy_user: f64,
    busy_io: f64,
    busy_net: f64,
}

/// A simulated cluster executing one workload run.
///
/// ```
/// use graphbench_sim::{Cluster, ClusterSpec, CostProfile, Phase};
///
/// let mut c = Cluster::new(ClusterSpec::r3_xlarge(4, 1 << 20), CostProfile::cpp_mpi());
/// c.begin_phase(Phase::Execute);
/// c.advance_compute(&[1e6, 2e6, 1e6, 1e6], 4).unwrap();   // BSP: slowest machine wins
/// c.barrier().unwrap();
/// assert_eq!(c.supersteps(), 1);
/// assert!(c.phase_times().execute > 0.0);
/// c.alloc(0, 1 << 19).unwrap();
/// assert!(c.alloc(0, 1 << 20).is_err()); // over budget -> OOM
/// ```
///
/// Engines call the `advance_*` methods to charge work; the cluster advances
/// a simulated wall clock, enforces per-machine memory budgets and the
/// 24-hour deadline, and records resource traces. All time-advancing methods
/// return `Err(SimError::Timeout)` once the deadline passes, so engine code
/// simply propagates with `?`.
///
/// # Fragments vs physical machines
///
/// Engines address work by **logical fragment** — there are exactly
/// `spec.machines` of them, fixed for the whole run, and every `advance_*`
/// slice is fragment-indexed. Elastic `resize` events never change the
/// fragments; they remap them onto a varying set of **physical machines**
/// ([`Cluster::apply_resize`]), and the cluster folds fragment charges onto
/// physical machines at the commit point. Computation therefore stays keyed
/// to the fixed fragments and every answer (and every fold order inside the
/// engines) is bit-identical to the static-cluster run; only the *cost* of a
/// charge changes when fragments share a machine. While the fragment map is
/// the identity (any run without an applied resize), each fold has exactly
/// one term per machine and the accounting is bit-identical to a cluster
/// without this layer.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
    profile: CostProfile,
    clock: f64,
    /// Physical machine slots ever provisioned; the first `physical` are
    /// active. Departed machines keep their busy/peak history (they existed
    /// and their utilization is part of the run) but receive no new charges.
    machines: Vec<Machine>,
    /// Active physical machine count; `resize` events change it.
    physical: usize,
    /// Logical fragment -> active physical machine; always `spec.machines`
    /// long. Identity until the first applied resize.
    frag_map: Vec<usize>,
    /// Memory owned by each logical fragment. Journal deltas and
    /// [`Cluster::mem_in_use`] stay fragment-indexed; budget enforcement
    /// uses the physical residency in `machines`.
    frag_mem: Vec<u64>,
    phase: Phase,
    trace: Trace,
    supersteps: u64,
    total_net_bytes: u64,
    total_messages: u64,
    /// One consumption flag per `spec.faults` event; set the first time an
    /// event affects the run, so unconsumed events can be reported instead
    /// of silently dropped.
    fault_consumed: Vec<bool>,
    /// Fast-path flags so fault-free runs never scan the plan per charge.
    has_stragglers: bool,
    has_net_degradation: bool,
    /// Active-vertex count the engine reported for the superstep in flight
    /// via [`Cluster::report_active`]; surfaced to observers at the next
    /// barrier, never part of any simulated cost or record.
    active_hint: u64,
    label: &'static str,
    journal: Journal,
    registry: MetricsRegistry,
}

impl Cluster {
    /// Build a cluster for one run.
    ///
    /// # Panics
    ///
    /// Panics when `spec.faults` fails [`crate::FaultPlan::validate`]: an
    /// event that could never fire (machine out of range, trigger past the
    /// deadline) is a harness bug, not a runtime condition.
    pub fn new(spec: ClusterSpec, profile: CostProfile) -> Self {
        if let Err(why) = spec.faults.validate(spec.machines, spec.deadline) {
            panic!("invalid fault plan: {why}");
        }
        let machines_count = spec.machines;
        let machines = vec![Machine::default(); spec.machines];
        let fault_consumed = vec![false; spec.faults.events.len()];
        let has_stragglers =
            spec.faults.events.iter().any(|e| matches!(e, FaultEvent::Straggler { .. }));
        let has_net_degradation =
            spec.faults.events.iter().any(|e| matches!(e, FaultEvent::NetworkDegradation { .. }));
        Cluster {
            spec,
            profile,
            clock: 0.0,
            machines,
            physical: machines_count,
            frag_map: (0..machines_count).collect(),
            frag_mem: vec![0; machines_count],
            phase: Phase::Overhead,
            trace: Trace::new(),
            supersteps: 0,
            total_net_bytes: 0,
            total_messages: 0,
            fault_consumed,
            has_stragglers,
            has_net_degradation,
            active_hint: 0,
            label: Phase::Overhead.name(),
            journal: Journal::new(),
            registry: MetricsRegistry::new(),
        }
    }

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    pub fn profile(&self) -> &CostProfile {
        &self.profile
    }

    /// Number of logical fragments (the initial worker-machine count).
    /// Engines size every per-machine slice with this; it never changes,
    /// even across elastic resizes.
    pub fn machines(&self) -> usize {
        self.spec.machines
    }

    /// Active physical machines right now; changes when a resize applies.
    pub fn physical_machines(&self) -> usize {
        self.physical
    }

    /// Current physical home of each logical fragment.
    pub fn frag_map(&self) -> &[usize] {
        &self.frag_map
    }

    /// Whether two logical fragments currently live on the same physical
    /// machine (their traffic never crosses the wire).
    pub fn frags_colocated(&self, a: usize, b: usize) -> bool {
        self.frag_map[a] == self.frag_map[b]
    }

    /// Simulated seconds since the run started.
    pub fn elapsed(&self) -> f64 {
        self.clock
    }

    /// Supersteps / iterations recorded via [`Cluster::barrier`].
    pub fn supersteps(&self) -> u64 {
        self.supersteps
    }

    /// Total bytes that crossed the network.
    pub fn total_net_bytes(&self) -> u64 {
        self.total_net_bytes
    }

    /// Total application messages exchanged.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Switch the accounting phase. Also resets the journal label to the
    /// phase name.
    pub fn begin_phase(&mut self, phase: Phase) {
        self.phase = phase;
        self.label = phase.name();
        hosttrace::set_label(self.label);
    }

    /// Name the activity subsequent charges are attributed to in the
    /// journal ("superstep", "shuffle", "hdfs_write", ...). Reset to the
    /// phase name by [`Cluster::begin_phase`]. When host tracing is
    /// enabled, the executor tags its wallclock spans with this label too.
    pub fn set_label(&mut self, label: &'static str) {
        self.label = label;
        hosttrace::set_label(label);
    }

    /// The label currently attributed to charges.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Structured event journal of every charge so far — the one record
    /// phase times, the per-machine timeline and the critical path are
    /// folds over.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Named counters and histograms accumulated by the charges.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Accumulated time per phase so far (a fold over the journal).
    pub fn phase_times(&self) -> PhaseTimes {
        self.journal.phase_times()
    }

    /// Give up the finished run's records — memory trace, journal,
    /// registry — without copying them.
    pub fn into_records(self) -> (Trace, Journal, MetricsRegistry) {
        (self.trace, self.journal, self.registry)
    }

    /// Append a journal event and update the registry for one charge.
    /// Zero-duration memory charges call this directly; timed charges go
    /// through [`Cluster::commit`].
    fn record(&mut self, kind: EventKind, c: Charge) {
        self.registry.inc(kind.counter(), 1);
        self.registry.observe(kind.seconds_histogram(), &SECONDS_BUCKETS, c.dt);
        if c.net_bytes > 0 {
            self.registry.inc("net.bytes", c.net_bytes);
        }
        if c.messages > 0 {
            self.registry.inc("net.messages", c.messages);
        }
        if c.disk_bytes > 0 {
            if let Some(name) = kind.bytes_counter() {
                self.registry.inc(name, c.disk_bytes);
            }
        }
        for &d in &c.mem_delta {
            if d > 0 {
                self.registry.inc("mem.alloc.bytes", d as u64);
            } else if d < 0 {
                self.registry.inc("mem.free.bytes", (-d) as u64);
            }
        }
        self.journal.push(JournalEvent {
            seq: self.journal.len() as u64,
            superstep: self.supersteps,
            phase: self.phase,
            label: self.label.to_string(),
            kind,
            start: self.clock,
            dt: c.dt,
            barrier_wait: c.barrier_wait,
            net_bytes: c.net_bytes,
            messages: c.messages,
            disk_bytes: c.disk_bytes,
            mem_delta: c.mem_delta,
            per_machine: c.per_machine,
        });
    }

    /// The single commit point for timed charges: one journal event, the
    /// registry, the clock. Every time-advancing method funnels through
    /// here, so replaying journal durations in order reproduces the clock
    /// bit-for-bit (zero-duration memory events bypass this and never
    /// advance it). The event is recorded even when its duration trips the
    /// 24-hour deadline — the timeout is then visible *in* the journal.
    fn commit(&mut self, kind: EventKind, c: Charge) -> Result<(), SimError> {
        let dt = c.dt;
        debug_assert!(dt >= 0.0 && dt.is_finite(), "bad time delta {dt}");
        self.record(kind, c);
        self.clock += dt;
        if self.clock > self.spec.deadline {
            return Err(SimError::Timeout);
        }
        Ok(())
    }

    /// Commit a surplus `Stall` under its own journal label (`straggler`,
    /// `recovery`, `retry`) without disturbing the caller's label, so fault
    /// cost is attributable in `Journal::breakdown` while the surrounding
    /// charge stream stays exactly as in a fault-free run.
    fn commit_labeled_stall(&mut self, label: &'static str, dt: f64) -> Result<(), SimError> {
        let saved = self.label;
        self.label = label;
        let r = self.commit(EventKind::Stall, Charge { dt, ..Charge::default() });
        self.label = saved;
        r
    }

    /// Busy-time slowdown factors per *physical* machine for a charge
    /// starting at the current clock, or `None` when no straggler window is
    /// active (the fault-free fast path). Marks newly-applied windows
    /// consumed. A window naming a machine that does not physically exist
    /// yet (scheduled after a scale-out whose barrier has not been reached)
    /// stays unconsumed until the machine joins.
    fn straggler_factors(&mut self) -> Option<Vec<f64>> {
        if !self.has_stragglers {
            return None;
        }
        let mut factors: Option<Vec<f64>> = None;
        for i in 0..self.spec.faults.events.len() {
            if let FaultEvent::Straggler { start, duration, machine, slowdown } =
                self.spec.faults.events[i]
            {
                if self.clock >= start && self.clock < start + duration && machine < self.physical {
                    factors.get_or_insert_with(|| vec![1.0; self.machines.len()])[machine] *=
                        slowdown;
                    if !self.fault_consumed[i] {
                        self.fault_consumed[i] = true;
                        self.registry.inc("faults.straggler.applied", 1);
                    }
                }
            }
        }
        factors
    }

    /// Combined bandwidth multiplier for an exchange starting at the
    /// current clock, or `None` when no degradation window is active.
    fn net_degradation_factor(&mut self) -> Option<f64> {
        if !self.has_net_degradation {
            return None;
        }
        let mut factor: Option<f64> = None;
        for i in 0..self.spec.faults.events.len() {
            if let FaultEvent::NetworkDegradation { start, duration, factor: f } =
                self.spec.faults.events[i]
            {
                if self.clock >= start && self.clock < start + duration {
                    *factor.get_or_insert(1.0) *= f;
                    if !self.fault_consumed[i] {
                        self.fault_consumed[i] = true;
                        self.registry.inc("faults.netdeg.applied", 1);
                    }
                }
            }
        }
        factor
    }

    /// Charge the framework's one-time start-up for this cluster size.
    pub fn charge_startup(&mut self) -> Result<(), SimError> {
        let dt = self.profile.startup_for(self.spec.machines);
        self.commit(EventKind::Startup, Charge { dt, ..Charge::default() })
    }

    /// Charge compute work: `ops[f]` elementary operations on fragment `f`,
    /// spread over `cores` cores. Fragment ops fold onto their physical
    /// machines; wall time is the slowest machine's time (BSP semantics),
    /// so fragments packed onto one machine by a scale-in serialize. Every
    /// machine's busy time is recorded for the utilization breakdown. An
    /// active straggler window slows the affected machine's busy time; the
    /// surplus over the fault-free wall time is committed as a separate
    /// `straggler`-labeled stall so the base charge stream stays
    /// bit-identical to a fault-free run.
    pub fn advance_compute(&mut self, ops: &[f64], cores: u32) -> Result<(), SimError> {
        assert_eq!(ops.len(), self.spec.machines, "one ops entry per fragment");
        assert!(cores >= 1);
        let per_core = self.profile.sec_per_op * self.spec.work_scale;
        let mut per_machine = vec![0.0f64; self.physical];
        for (f, &o) in ops.iter().enumerate() {
            per_machine[self.frag_map[f]] += o * per_core / cores as f64;
        }
        self.commit_compute(per_machine)
    }

    /// Commit per-physical-machine compute seconds: the shared tail of
    /// [`Cluster::advance_compute`] and the migration rebuild charge.
    fn commit_compute(&mut self, per_machine: Vec<f64>) -> Result<(), SimError> {
        let slow = self.straggler_factors();
        let mut max_t = 0.0f64;
        let mut min_t = f64::INFINITY;
        let mut max_slowed = 0.0f64;
        for (i, &t) in per_machine.iter().enumerate() {
            let ts = match &slow {
                Some(s) => t * s[i],
                None => t,
            };
            self.machines[i].busy_user += ts;
            max_t = max_t.max(t);
            min_t = min_t.min(t);
            max_slowed = max_slowed.max(ts);
        }
        let wait = (max_t - min_t).max(0.0);
        self.commit(
            EventKind::Compute,
            Charge { dt: max_t, barrier_wait: wait, per_machine, ..Charge::default() },
        )?;
        if slow.is_some() {
            self.commit_labeled_stall("straggler", (max_slowed - max_t).max(0.0))?;
        }
        Ok(())
    }

    /// Charge serial compute on a single fragment's machine (e.g.
    /// master-side work).
    pub fn advance_compute_on(&mut self, machine: MachineId, ops: f64) -> Result<(), SimError> {
        let p = self.frag_map[machine];
        let slow = self.straggler_factors();
        let t = ops * self.profile.sec_per_op * self.spec.work_scale;
        let ts = match &slow {
            Some(s) => t * s[p],
            None => t,
        };
        self.machines[p].busy_user += ts;
        // Every other machine idles for the full charge.
        let wait = if self.physical > 1 { t } else { 0.0 };
        let mut per_machine = vec![0.0f64; self.physical];
        per_machine[p] = t;
        self.commit(
            EventKind::Compute,
            Charge { dt: t, barrier_wait: wait, per_machine, ..Charge::default() },
        )?;
        if slow.is_some() {
            self.commit_labeled_stall("straggler", (ts - t).max(0.0))?;
        }
        Ok(())
    }

    /// Charge a message exchange: fragment `f` sends `sent[f]` bytes in
    /// `msgs[f]` messages and receives `recv[f]` bytes. Fragment traffic
    /// folds onto physical NICs; each machine's NIC is the bottleneck: its
    /// transfer time is `max(sent+overhead, recv+overhead) / bandwidth`;
    /// the superstep takes as long as the busiest NIC.
    pub fn exchange(&mut self, sent: &[u64], recv: &[u64], msgs: &[u64]) -> Result<(), SimError> {
        assert_eq!(sent.len(), self.spec.machines);
        assert_eq!(recv.len(), self.spec.machines);
        assert_eq!(msgs.len(), self.spec.machines);
        let mut p_sent = vec![0u64; self.physical];
        let mut p_recv = vec![0u64; self.physical];
        let mut p_msgs = vec![0u64; self.physical];
        for (f, &p) in self.frag_map.iter().enumerate() {
            p_sent[p] += sent[f];
            p_recv[p] += recv[f];
            p_msgs[p] += msgs[f];
        }
        self.exchange_physical(p_sent, p_recv, p_msgs)
    }

    /// The physical tail of [`Cluster::exchange`], also used for fragment
    /// migration: vectors are per physical machine (and may be wider than
    /// the active set mid-resize, covering departing machines).
    fn exchange_physical(
        &mut self,
        sent: Vec<u64>,
        recv: Vec<u64>,
        msgs: Vec<u64>,
    ) -> Result<(), SimError> {
        let deg = self.net_degradation_factor();
        let bw = self.spec.net.bandwidth / self.spec.work_scale;
        let ovh = self.spec.net.per_message_overhead;
        let mut max_t = 0.0f64;
        let mut min_t = f64::INFINITY;
        let mut max_degraded = 0.0f64;
        let mut bytes = 0u64;
        let mut messages = 0u64;
        let mut per_machine = vec![0.0f64; sent.len()];
        for i in 0..sent.len() {
            let wire_sent = sent[i] + ovh * msgs[i];
            let t = (wire_sent.max(recv[i])) as f64 / bw;
            let td = match deg {
                Some(f) => t / f,
                None => t,
            };
            self.machines[i].busy_net += td;
            per_machine[i] = t;
            max_t = max_t.max(t);
            min_t = min_t.min(t);
            max_degraded = max_degraded.max(td);
            // Reported bytes are paper-equivalent (scaled) totals.
            bytes += (wire_sent as f64 * self.spec.work_scale) as u64;
            messages += (msgs[i] as f64 * self.spec.work_scale) as u64;
        }
        self.total_net_bytes += bytes;
        self.total_messages += messages;
        let wait = (max_t - min_t).max(0.0);
        self.commit(
            EventKind::Network,
            Charge {
                dt: max_t,
                barrier_wait: wait,
                net_bytes: bytes,
                messages,
                per_machine,
                ..Charge::default()
            },
        )?;
        if deg.is_some() {
            self.commit_labeled_stall("straggler", (max_degraded - max_t).max(0.0))?;
        }
        Ok(())
    }

    /// Report the next due machine crash from the fault plan. Each crash is
    /// returned exactly once; engines call this at their recovery points
    /// (superstep barriers, iteration boundaries) and then charge whatever
    /// their Table 1 fault-tolerance mechanism costs.
    pub fn take_crash(&mut self) -> Option<MachineId> {
        for i in 0..self.spec.faults.events.len() {
            if self.fault_consumed[i] {
                continue;
            }
            if let FaultEvent::Crash { at_time, machine } = self.spec.faults.events[i] {
                if self.clock >= at_time {
                    self.fault_consumed[i] = true;
                    self.registry.inc("faults.crash.recovered", 1);
                    return Some(machine);
                }
            }
        }
        None
    }

    /// Report the next due transient fault (lost shuffle fetch, failed HDFS
    /// write). Each event is returned exactly once; engines charge the
    /// bounded retry/backoff stalls and continue.
    pub fn take_transient(&mut self) -> Option<TransientFault> {
        for i in 0..self.spec.faults.events.len() {
            if self.fault_consumed[i] {
                continue;
            }
            match self.spec.faults.events[i] {
                FaultEvent::LostShuffleFetch { at_time, machine, attempts }
                    if self.clock >= at_time =>
                {
                    self.fault_consumed[i] = true;
                    self.registry.inc("faults.fetch.retried", 1);
                    return Some(TransientFault::LostShuffleFetch { machine, attempts });
                }
                FaultEvent::FailedHdfsWrite { at_time, machine, attempts }
                    if self.clock >= at_time =>
                {
                    self.fault_consumed[i] = true;
                    self.registry.inc("faults.hdfs.retried", 1);
                    return Some(TransientFault::FailedHdfsWrite { machine, attempts });
                }
                _ => {}
            }
        }
        None
    }

    /// Whether the plan schedules any machine crash (engines only maintain
    /// recovery snapshots when one can actually fire).
    pub fn plan_has_crashes(&self) -> bool {
        self.spec.faults.has_crashes()
    }

    /// Whether the plan schedules any elastic membership change.
    pub fn plan_has_resizes(&self) -> bool {
        self.spec.faults.has_resizes()
    }

    /// Report the next due elastic resize from the plan, earliest trigger
    /// first (plan order on ties — the same order [`crate::FaultPlan`]
    /// validation walks, so a validated plan can never shrink past zero at
    /// runtime). Each event is returned exactly once; the recovery layer
    /// computes the new fragment map and calls [`Cluster::apply_resize`].
    pub fn take_resize(&mut self) -> Option<i64> {
        let mut best: Option<(f64, usize, i64)> = None;
        for i in 0..self.spec.faults.events.len() {
            if self.fault_consumed[i] {
                continue;
            }
            if let FaultEvent::Resize { at_time, delta } = self.spec.faults.events[i] {
                if self.clock >= at_time && best.map_or(true, |(t, _, _)| at_time < t) {
                    best = Some((at_time, i, delta));
                }
            }
        }
        let (_, i, delta) = best?;
        self.fault_consumed[i] = true;
        self.registry.inc("faults.resize.applied", 1);
        Some(delta)
    }

    /// Apply an elastic membership change: move to `new_machines` physical
    /// machines, with `new_map[f]` the new physical home of logical
    /// fragment `f`. Charges the migration under the `migrate` label:
    /// fragments leaving a *departing* machine go snapshot-assisted (HDFS
    /// write by the departing host, read by the receiver — its state
    /// survives the machine), other moves are direct network transfers, and
    /// every receiver pays local-index rebuild CPU proportional to the
    /// bytes landed. Physical memory residency moves with the fragments
    /// without journal deltas (bytes change hosts, they are neither
    /// allocated nor freed — fragment-indexed journal sums stay intact); a
    /// receiver driven past its budget fails with an honest OOM before any
    /// cost is charged.
    pub fn apply_resize(&mut self, new_machines: usize, new_map: &[usize]) -> Result<(), SimError> {
        assert_eq!(new_map.len(), self.spec.machines, "one map entry per fragment");
        assert!(new_machines >= 1, "cannot scale below one machine");
        assert!(
            new_map.iter().all(|&m| m < new_machines),
            "fragment mapped past the new machine set"
        );
        let old_physical = self.physical;
        if self.machines.len() < new_machines {
            self.machines.resize(new_machines, Machine::default());
        }

        // Migration legs per physical machine, over the union of the old
        // and new machine sets.
        let width = old_physical.max(new_machines);
        let mut sent = vec![0u64; width];
        let mut recv = vec![0u64; width];
        let mut msgs = vec![0u64; width];
        let mut snap_write = vec![0u64; width];
        let mut snap_read = vec![0u64; width];
        let mut mem_delta = vec![0i64; width];
        let mut moved_frags = 0u64;
        let mut moved_bytes = 0u64;
        for (f, (&from, &to)) in self.frag_map.iter().zip(new_map).enumerate() {
            if from == to {
                continue;
            }
            let bytes = self.frag_mem[f];
            moved_frags += 1;
            moved_bytes += bytes;
            mem_delta[from] -= bytes as i64;
            mem_delta[to] += bytes as i64;
            if from >= new_machines {
                snap_write[from] += bytes;
                snap_read[to] += bytes;
            } else {
                sent[from] += bytes;
                recv[to] += bytes;
                msgs[from] += 1;
            }
        }

        // Budget check on the post-migration residency before anything is
        // charged or mutated (sources release before receivers pack).
        for (p, &d) in mem_delta.iter().enumerate() {
            let next = (self.machines[p].mem_in_use as i64 + d) as u64;
            if next > self.spec.memory_per_machine {
                return Err(SimError::Oom {
                    machine: p,
                    requested: d.max(0) as u64,
                    in_use: self.machines[p].mem_in_use,
                    budget: self.spec.memory_per_machine,
                });
            }
        }

        let saved = self.label;
        self.label = "migrate";
        let charged = self.charge_migration(&sent, &recv, &msgs, &snap_write, &snap_read);
        self.label = saved;
        charged?;

        for (p, &d) in mem_delta.iter().enumerate() {
            let m = &mut self.machines[p];
            m.mem_in_use = (m.mem_in_use as i64 + d) as u64;
            m.mem_peak = m.mem_peak.max(m.mem_in_use);
        }
        self.frag_map.copy_from_slice(new_map);
        self.physical = new_machines;

        self.registry.inc("elastic.resizes", 1);
        if new_machines > old_physical {
            self.registry.inc("elastic.scale_out", 1);
            self.registry.inc("elastic.machines.added", (new_machines - old_physical) as u64);
        } else if new_machines < old_physical {
            self.registry.inc("elastic.scale_in", 1);
            self.registry.inc("elastic.machines.removed", (old_physical - new_machines) as u64);
        }
        if moved_frags > 0 {
            self.registry.inc("elastic.migrated.fragments", moved_frags);
            self.registry.inc("elastic.migrated.bytes", moved_bytes);
        }
        Ok(())
    }

    /// The timed charges of one applied resize, all labeled `migrate`:
    /// departing-machine snapshots out, direct transfers, snapshot loads,
    /// then receiver-side index rebuild.
    fn charge_migration(
        &mut self,
        sent: &[u64],
        recv: &[u64],
        msgs: &[u64],
        snap_write: &[u64],
        snap_read: &[u64],
    ) -> Result<(), SimError> {
        if snap_write.iter().any(|&b| b > 0) {
            let bps = self.spec.disk.hdfs_write;
            self.disk_physical(EventKind::HdfsWrite, snap_write.to_vec(), bps)?;
        }
        if sent.iter().any(|&b| b > 0) || msgs.iter().any(|&m| m > 0) {
            self.exchange_physical(sent.to_vec(), recv.to_vec(), msgs.to_vec())?;
        }
        if snap_read.iter().any(|&b| b > 0) {
            let bps = self.spec.disk.hdfs_read;
            self.disk_physical(EventKind::HdfsRead, snap_read.to_vec(), bps)?;
        }
        let per_core = self.profile.sec_per_op * self.spec.work_scale;
        let cores = self.spec.cores as f64;
        let rebuild: Vec<f64> = recv
            .iter()
            .zip(snap_read)
            .map(|(&a, &b)| (a + b) as f64 * ELASTIC_REBUILD_OPS_PER_BYTE * per_core / cores)
            .collect();
        if rebuild.iter().any(|&t| t > 0.0) {
            self.commit_compute(rebuild)?;
        }
        Ok(())
    }

    /// Scheduled fault events that never affected the run (e.g. triggers
    /// past the point where the workload finished). Reported in
    /// `RunRecord.notes` so plans are never silently dropped.
    pub fn unreached_faults(&self) -> Vec<String> {
        self.spec
            .faults
            .events
            .iter()
            .zip(&self.fault_consumed)
            .filter(|&(_, &consumed)| !consumed)
            .map(|(e, _)| e.to_string())
            .collect()
    }

    /// Advance the clock without attributing busy time to any machine:
    /// recovery stalls where workers wait for a replacement to catch up.
    pub fn advance_stall(&mut self, secs: f64) -> Result<(), SimError> {
        assert!(secs >= 0.0 && secs.is_finite());
        self.commit(EventKind::Stall, Charge { dt: secs, ..Charge::default() })
    }

    /// Charge latency-bound waiting (e.g. distributed-lock round trips)
    /// per fragment; colocated fragments wait concurrently (their machine
    /// waits the longest of them). Wall time is the slowest machine's wait,
    /// accounted as network time.
    pub fn advance_network_wait(&mut self, secs: &[f64]) -> Result<(), SimError> {
        assert_eq!(secs.len(), self.spec.machines);
        let mut per_machine = vec![0.0f64; self.physical];
        for (f, &t) in secs.iter().enumerate() {
            let p = self.frag_map[f];
            per_machine[p] = per_machine[p].max(t);
        }
        let mut max_t = 0.0f64;
        let mut min_t = f64::INFINITY;
        for (i, &t) in per_machine.iter().enumerate() {
            self.machines[i].busy_net += t;
            max_t = max_t.max(t);
            min_t = min_t.min(t);
        }
        let wait = (max_t - min_t).max(0.0);
        self.commit(
            EventKind::NetworkWait,
            Charge { dt: max_t, barrier_wait: wait, per_machine, ..Charge::default() },
        )
    }

    /// Whether any live observers are attached. Engines may use this to
    /// skip the bookkeeping behind [`Cluster::report_active`]; nothing in
    /// the simulation itself ever branches on it.
    pub fn has_observers(&self) -> bool {
        !self.spec.observers.is_empty()
    }

    /// Report how many vertices are active in the superstep in flight. A
    /// pure observability hint: it feeds the next barrier's
    /// [`SuperstepSnapshot`] and nothing else — no cost, no journal entry,
    /// no registry change — so reporting it (or not) cannot perturb a run.
    pub fn report_active(&mut self, vertices: u64) {
        self.active_hint = vertices;
    }

    /// Charge one BSP barrier and count a superstep. The barrier cost is
    /// multiplied by `superstep_scale`: one executed superstep stands in for
    /// that many paper-scale supersteps on diameter-compressed datasets.
    ///
    /// After the charge commits, attached [`crate::ClusterObserver`]s see a
    /// [`SuperstepSnapshot`] of the run so far (even when this barrier trips
    /// the deadline — the timeout is then visible live, as in the journal).
    /// Observers get `&`-references only; the simulated outcome is the same
    /// with or without them.
    pub fn barrier(&mut self) -> Result<(), SimError> {
        let n = self.physical as f64;
        let dt = (self.spec.net.barrier_base
            + self.spec.net.barrier_per_machine * n
            + self.profile.superstep_overhead)
            * self.spec.superstep_scale;
        // The event carries the index of the superstep it closes; the
        // counter is bumped even when the barrier trips the deadline.
        let r = self.commit(EventKind::Barrier, Charge { dt, ..Charge::default() });
        self.supersteps += 1;
        if !self.spec.observers.is_empty() {
            let snapshot = SuperstepSnapshot {
                superstep: self.supersteps - 1,
                clock: self.clock,
                active_vertices: self.active_hint,
                messages: self.total_messages,
                net_bytes: self.total_net_bytes,
                journal_events: self.journal.len() as u64,
            };
            for obs in self.spec.observers.iter() {
                obs.on_superstep(&snapshot, &self.registry);
            }
        }
        self.active_hint = 0;
        r
    }

    fn disk(&mut self, kind: EventKind, bytes: &[u64], bps: f64) -> Result<(), SimError> {
        assert_eq!(bytes.len(), self.spec.machines);
        let mut folded = vec![0u64; self.physical];
        for (f, &p) in self.frag_map.iter().enumerate() {
            folded[p] += bytes[f];
        }
        self.disk_physical(kind, folded, bps)
    }

    /// The physical tail of [`Cluster::disk`], also used for the
    /// snapshot-assisted legs of fragment migration.
    fn disk_physical(
        &mut self,
        kind: EventKind,
        bytes: Vec<u64>,
        bps: f64,
    ) -> Result<(), SimError> {
        let slow = self.straggler_factors();
        let mut max_t = 0.0f64;
        let mut min_t = f64::INFINITY;
        let mut max_slowed = 0.0f64;
        let mut total = 0u64;
        let mut per_machine = vec![0.0f64; bytes.len()];
        for (i, &b) in bytes.iter().enumerate() {
            let t = b as f64 * self.spec.work_scale / bps;
            let ts = match &slow {
                Some(s) => t * s[i],
                None => t,
            };
            self.machines[i].busy_io += ts;
            per_machine[i] = t;
            max_t = max_t.max(t);
            min_t = min_t.min(t);
            max_slowed = max_slowed.max(ts);
            // Reported bytes are paper-equivalent (scaled), as for network.
            total += (b as f64 * self.spec.work_scale) as u64;
        }
        let wait = (max_t - min_t).max(0.0);
        self.commit(
            kind,
            Charge {
                dt: max_t,
                barrier_wait: wait,
                disk_bytes: total,
                per_machine,
                ..Charge::default()
            },
        )?;
        if slow.is_some() {
            self.commit_labeled_stall("straggler", (max_slowed - max_t).max(0.0))?;
        }
        Ok(())
    }

    /// Charge a parallel HDFS read (`bytes[i]` read by machine `i`).
    pub fn hdfs_read(&mut self, bytes: &[u64]) -> Result<(), SimError> {
        let bps = self.spec.disk.hdfs_read;
        self.disk(EventKind::HdfsRead, bytes, bps)
    }

    /// Charge a parallel HDFS write (3-way replicated, the slowest channel).
    pub fn hdfs_write(&mut self, bytes: &[u64]) -> Result<(), SimError> {
        let bps = self.spec.disk.hdfs_write;
        self.disk(EventKind::HdfsWrite, bytes, bps)
    }

    /// Charge a parallel local-disk read.
    pub fn local_read(&mut self, bytes: &[u64]) -> Result<(), SimError> {
        let bps = self.spec.disk.local_read;
        self.disk(EventKind::LocalRead, bytes, bps)
    }

    /// Charge a parallel local-disk write.
    pub fn local_write(&mut self, bytes: &[u64]) -> Result<(), SimError> {
        let bps = self.spec.disk.local_write;
        self.disk(EventKind::LocalWrite, bytes, bps)
    }

    fn alloc_inner(&mut self, machine: MachineId, bytes: u64) -> Result<(), SimError> {
        let p = self.frag_map[machine];
        let m = &mut self.machines[p];
        if m.mem_in_use + bytes > self.spec.memory_per_machine {
            return Err(SimError::Oom {
                machine: p,
                requested: bytes,
                in_use: m.mem_in_use,
                budget: self.spec.memory_per_machine,
            });
        }
        m.mem_in_use += bytes;
        m.mem_peak = m.mem_peak.max(m.mem_in_use);
        self.frag_mem[machine] += bytes;
        Ok(())
    }

    /// Allocate `bytes` for fragment `machine`, failing with OOM past its
    /// physical machine's budget (fragments packed together by a scale-in
    /// share one budget — memory pressure is an honest cost of elasticity).
    /// Successful non-zero allocations are journaled with a per-fragment
    /// delta; a failed allocation changes nothing and records nothing (the
    /// OOM surfaces in the run status instead).
    pub fn alloc(&mut self, machine: MachineId, bytes: u64) -> Result<(), SimError> {
        self.alloc_inner(machine, bytes)?;
        if bytes > 0 {
            let mut delta = vec![0i64; self.spec.machines];
            delta[machine] = bytes as i64;
            self.record(EventKind::Alloc, Charge { mem_delta: delta, ..Charge::default() });
        }
        Ok(())
    }

    /// Allocate on every machine at once (`bytes[i]` on machine `i`). On
    /// OOM, machines before the failing one keep their allocation (as with
    /// repeated [`Cluster::alloc`] calls) and the partial delta is
    /// journaled, so journal deltas always sum to the memory in use.
    pub fn alloc_all(&mut self, bytes: &[u64]) -> Result<(), SimError> {
        assert_eq!(bytes.len(), self.spec.machines);
        let mut delta = vec![0i64; self.spec.machines];
        let mut failure = None;
        for (i, &b) in bytes.iter().enumerate() {
            match self.alloc_inner(i, b) {
                Ok(()) => delta[i] = b as i64,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        if delta.iter().any(|&d| d != 0) {
            self.record(EventKind::Alloc, Charge { mem_delta: delta, ..Charge::default() });
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn free_inner(&mut self, machine: MachineId, bytes: u64) -> u64 {
        let freed = bytes.min(self.frag_mem[machine]);
        self.frag_mem[machine] -= freed;
        self.machines[self.frag_map[machine]].mem_in_use -= freed;
        freed
    }

    /// Release memory owned by fragment `machine`. Saturates at zero (frees
    /// of estimated sizes may round differently than the matching alloc);
    /// the journal records the bytes actually released.
    pub fn free(&mut self, machine: MachineId, bytes: u64) {
        let freed = self.free_inner(machine, bytes);
        if freed > 0 {
            let mut delta = vec![0i64; self.spec.machines];
            delta[machine] = -(freed as i64);
            self.record(EventKind::Free, Charge { mem_delta: delta, ..Charge::default() });
        }
    }

    /// Release memory on every machine.
    pub fn free_all(&mut self, bytes: &[u64]) {
        assert_eq!(bytes.len(), self.spec.machines);
        let mut delta = vec![0i64; self.spec.machines];
        let mut any = false;
        for (i, &b) in bytes.iter().enumerate() {
            let freed = self.free_inner(i, b);
            if freed > 0 {
                delta[i] = -(freed as i64);
                any = true;
            }
        }
        if any {
            self.record(EventKind::Free, Charge { mem_delta: delta, ..Charge::default() });
        }
    }

    /// Current memory owned by fragment `machine`.
    pub fn mem_in_use(&self, machine: MachineId) -> u64 {
        self.frag_mem[machine]
    }

    /// Peak memory per physical machine so far, including machines that
    /// have since departed (their peaks are part of the run's history).
    pub fn mem_peaks(&self) -> Vec<u64> {
        self.machines.iter().map(|m| m.mem_peak).collect()
    }

    /// Record a memory-trace sample at the current clock, one entry per
    /// *active* physical machine (samples narrow after a scale-in; the
    /// trace's peak logic tolerates varying widths).
    pub fn sample_trace(&mut self) {
        let mems: Vec<u64> = self.machines[..self.physical].iter().map(|m| m.mem_in_use).collect();
        self.trace.record(self.clock, &mems);
    }

    /// The recorded memory time series.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// CPU/network/disk utilization breakdown over the whole run, averaged
    /// across machines (the paper's Figure 13 reports the maxima, also
    /// provided).
    pub fn cpu_breakdown(&self) -> CpuBreakdown {
        let elapsed = self.clock.max(1e-12);
        let n = self.machines.len().max(1) as f64;
        let mut user_sum = 0.0;
        let mut io_sum = 0.0;
        let mut net_sum = 0.0;
        let mut user_max = 0.0f64;
        let mut io_max = 0.0f64;
        for m in &self.machines {
            // A machine's busy fractions are relative to total elapsed time.
            user_sum += m.busy_user / elapsed;
            io_sum += m.busy_io / elapsed;
            net_sum += m.busy_net / elapsed;
            user_max = user_max.max(m.busy_user / elapsed);
            io_max = io_max.max(m.busy_io / elapsed);
        }
        CpuBreakdown {
            user_avg: user_sum / n,
            io_wait_avg: io_sum / n,
            net_avg: net_sum / n,
            user_max,
            io_wait_max: io_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterSpec;

    fn cluster(machines: usize, mem: u64) -> Cluster {
        Cluster::new(ClusterSpec::r3_xlarge(machines, mem), CostProfile::cpp_mpi())
    }

    #[test]
    fn compute_takes_slowest_machine() {
        let mut c = cluster(2, 1 << 30);
        c.advance_compute(&[1.0e9, 2.0e9], 1).unwrap();
        // The slowest machine (2e9 ops) defines wall time.
        let want = 2.0e9 * CostProfile::cpp_mpi().sec_per_op;
        assert!((c.elapsed() - want).abs() < 1e-9, "{}", c.elapsed());
    }

    #[test]
    fn cores_divide_compute_time() {
        let mut a = cluster(1, 1 << 30);
        a.advance_compute(&[4.0e9], 1).unwrap();
        let mut b = cluster(1, 1 << 30);
        b.advance_compute(&[4.0e9], 4).unwrap();
        assert!((a.elapsed() / b.elapsed() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn exchange_charges_busiest_nic_and_overhead() {
        let mut c = cluster(2, 1 << 30);
        // Machine 0 sends 125 MB in 1 msg; machine 1 receives it.
        c.exchange(&[125_000_000, 0], &[0, 125_000_000], &[1, 0]).unwrap();
        assert!((c.elapsed() - 1.0).abs() < 1e-3, "{}", c.elapsed());
        assert_eq!(c.total_net_bytes(), 125_000_016);
        assert_eq!(c.total_messages(), 1);
    }

    #[test]
    fn per_message_overhead_dominates_small_messages() {
        let mut many = cluster(1, 1 << 30);
        many.exchange(&[1_000], &[0], &[1_000]).unwrap(); // 1000 tiny messages
        let mut one = cluster(1, 1 << 30);
        one.exchange(&[1_000], &[0], &[1]).unwrap(); // one 1 kB message
        assert!(many.elapsed() > 10.0 * one.elapsed());
    }

    #[test]
    fn barrier_counts_supersteps_and_scales_with_machines() {
        let mut small = cluster(16, 1 << 30);
        small.barrier().unwrap();
        let mut large = cluster(128, 1 << 30);
        large.barrier().unwrap();
        assert_eq!(small.supersteps(), 1);
        assert!(large.elapsed() > small.elapsed());
    }

    #[test]
    fn oom_fires_at_budget() {
        let mut c = cluster(2, 1_000);
        c.alloc(0, 900).unwrap();
        let err = c.alloc(0, 200).unwrap_err();
        assert_eq!(err.code(), "OOM");
        // The other machine is unaffected.
        c.alloc(1, 1_000).unwrap();
        // Freeing makes room again.
        c.free(0, 500);
        c.alloc(0, 500).unwrap();
        assert_eq!(c.mem_peaks(), vec![900, 1_000]);
    }

    #[test]
    fn deadline_produces_timeout() {
        let mut c = Cluster::new(
            ClusterSpec { deadline: 1.0, ..ClusterSpec::r3_xlarge(1, 1 << 30) },
            CostProfile::cpp_mpi(),
        );
        let err = c.advance_compute(&[1.0e12], 1).unwrap_err();
        assert_eq!(err, SimError::Timeout);
    }

    #[test]
    fn phase_accounting() {
        let mut c = cluster(1, 1 << 30);
        c.begin_phase(Phase::Load);
        c.hdfs_read(&[100_000_000]).unwrap(); // 1 s at 100 MB/s
        c.begin_phase(Phase::Execute);
        let ops = 1.0 / CostProfile::cpp_mpi().sec_per_op; // exactly 1 s
        c.advance_compute(&[ops], 1).unwrap();
        let p = c.phase_times();
        assert!((p.load - 1.0).abs() < 1e-6);
        assert!((p.execute - 1.0).abs() < 1e-6);
        assert_eq!(p.save, 0.0);
    }

    #[test]
    fn trace_records_memory_over_time() {
        let mut c = cluster(2, 1 << 30);
        c.alloc(0, 10).unwrap();
        c.sample_trace();
        c.advance_compute(&[1.0e9, 1.0e9], 1).unwrap();
        c.alloc(1, 20).unwrap();
        c.sample_trace();
        let t = c.trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t.samples()[0].mem_per_machine, vec![10, 0]);
        assert_eq!(t.samples()[1].mem_per_machine, vec![10, 20]);
        assert!(t.samples()[1].time > t.samples()[0].time);
    }

    #[test]
    fn cpu_breakdown_distinguishes_categories() {
        let mut c = cluster(1, 1 << 30);
        let ops = 1.0 / CostProfile::cpp_mpi().sec_per_op; // 1 s user
        c.advance_compute(&[ops], 1).unwrap();
        c.local_read(&[150_000_000]).unwrap(); // 1 s io
        let b = c.cpu_breakdown();
        assert!((b.user_avg - 0.5).abs() < 0.01, "{b:?}");
        assert!((b.io_wait_avg - 0.5).abs() < 0.01, "{b:?}");
        assert!(b.net_avg < 0.01);
    }

    fn faulted(machines: usize, plan: crate::FaultPlan) -> Cluster {
        Cluster::new(
            ClusterSpec { faults: plan, ..ClusterSpec::r3_xlarge(machines, 1 << 30) },
            CostProfile::cpp_mpi(),
        )
    }

    #[test]
    fn fault_is_reported_exactly_once_after_its_time() {
        let mut c = faulted(2, crate::FaultPlan::single(5.0, 1));
        assert_eq!(c.take_crash(), None); // not yet
        c.advance_stall(10.0).unwrap();
        assert_eq!(c.take_crash(), Some(1));
        assert_eq!(c.take_crash(), None); // only once
        assert_eq!(c.registry().counter("faults.crash.recovered"), 1);
        assert!(c.unreached_faults().is_empty());
    }

    #[test]
    fn multiple_crashes_fire_in_schedule_order() {
        let plan = crate::FaultPlan {
            events: vec![
                crate::FaultEvent::Crash { at_time: 2.0, machine: 0 },
                crate::FaultEvent::Crash { at_time: 5.0, machine: 1 },
            ],
        };
        let mut c = faulted(2, plan);
        c.advance_stall(3.0).unwrap();
        assert_eq!(c.take_crash(), Some(0));
        assert_eq!(c.take_crash(), None); // second not due yet
        c.advance_stall(3.0).unwrap();
        assert_eq!(c.take_crash(), Some(1));
        assert_eq!(c.take_crash(), None);
        assert_eq!(c.registry().counter("faults.crash.recovered"), 2);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn construction_rejects_impossible_fault_plans() {
        // Machine 5 does not exist in a 2-machine cluster.
        faulted(2, crate::FaultPlan::single(5.0, 5));
    }

    #[test]
    fn unreached_faults_are_reported_not_dropped() {
        let mut c = faulted(2, crate::FaultPlan::single(100.0, 1));
        c.advance_stall(1.0).unwrap();
        assert_eq!(c.take_crash(), None);
        let unreached = c.unreached_faults();
        assert_eq!(unreached, vec!["crash@100:m1".to_string()]);
    }

    #[test]
    fn unreached_resize_is_reported_not_dropped() {
        let plan = crate::FaultPlan {
            events: vec![crate::FaultEvent::Resize { at_time: 100.0, delta: 2 }],
        };
        let mut c = faulted(2, plan);
        c.advance_stall(1.0).unwrap();
        assert_eq!(c.take_resize(), None);
        assert_eq!(c.unreached_faults(), vec!["resize@100:+m2".to_string()]);
        assert_eq!(c.registry().counter("faults.resize.applied"), 0);
    }

    #[test]
    fn due_resizes_are_consumed_in_trigger_time_order() {
        // Scheduled out of plan order: the earlier trigger must come out
        // first (the order the validation walk assumed).
        let plan = crate::FaultPlan {
            events: vec![
                crate::FaultEvent::Resize { at_time: 5.0, delta: 2 },
                crate::FaultEvent::Resize { at_time: 1.0, delta: -1 },
            ],
        };
        let mut c = faulted(2, plan);
        c.advance_stall(10.0).unwrap();
        assert_eq!(c.take_resize(), Some(-1));
        assert_eq!(c.take_resize(), Some(2));
        assert_eq!(c.take_resize(), None);
        assert_eq!(c.registry().counter("faults.resize.applied"), 2);
        assert!(c.unreached_faults().is_empty());
    }

    #[test]
    fn straggler_window_charges_a_labeled_surplus_stall() {
        let plan = crate::FaultPlan {
            events: vec![crate::FaultEvent::Straggler {
                start: 0.0,
                duration: 10.0,
                machine: 1,
                slowdown: 3.0,
            }],
        };
        let mut c = faulted(2, plan);
        c.advance_compute(&[1.0e9, 1.0e9], 1).unwrap();
        let base = 1.0e9 * CostProfile::cpp_mpi().sec_per_op;
        // Base compute event is exactly the fault-free charge; the surplus
        // (slowdown-1)x lands in a separate straggler-labeled stall.
        let events = c.journal().events();
        assert_eq!(events[0].kind, EventKind::Compute);
        assert!((events[0].dt - base).abs() < 1e-9);
        assert_eq!(events[1].kind, EventKind::Stall);
        assert_eq!(events[1].label, "straggler");
        assert!((events[1].dt - 2.0 * base).abs() < 1e-9, "{}", events[1].dt);
        assert_eq!(c.registry().counter("faults.straggler.applied"), 1);
        assert!(c.unreached_faults().is_empty());
        // Outside the window the surplus disappears.
        let mut late = faulted(
            2,
            crate::FaultPlan {
                events: vec![crate::FaultEvent::Straggler {
                    start: 50.0,
                    duration: 1.0,
                    machine: 1,
                    slowdown: 3.0,
                }],
            },
        );
        late.advance_compute(&[1.0e9, 1.0e9], 1).unwrap();
        assert_eq!(late.journal().len(), 1);
        assert_eq!(late.unreached_faults().len(), 1);
    }

    #[test]
    fn straggler_leaves_fault_free_charges_bit_identical() {
        let plan = crate::FaultPlan {
            events: vec![crate::FaultEvent::Straggler {
                start: 0.0,
                duration: 10.0,
                machine: 0,
                slowdown: 2.0,
            }],
        };
        let mut with = faulted(2, plan);
        let mut without = faulted(2, crate::FaultPlan::none());
        for c in [&mut with, &mut without] {
            c.advance_compute(&[1.0e9, 2.0e9], 2).unwrap();
        }
        let (a, b) = (&with.journal().events()[0], &without.journal().events()[0]);
        assert_eq!(a.dt.to_bits(), b.dt.to_bits());
        assert_eq!(a.barrier_wait.to_bits(), b.barrier_wait.to_bits());
    }

    #[test]
    fn network_degradation_charges_a_labeled_surplus_stall() {
        let plan = crate::FaultPlan {
            events: vec![crate::FaultEvent::NetworkDegradation {
                start: 0.0,
                duration: 10.0,
                factor: 0.5,
            }],
        };
        let mut c = faulted(2, plan);
        c.exchange(&[125_000_000, 0], &[0, 125_000_000], &[1, 0]).unwrap();
        let events = c.journal().events();
        assert_eq!(events[0].kind, EventKind::Network);
        assert!((events[0].dt - 1.0).abs() < 1e-3); // base, as fault-free
        assert_eq!(events[1].kind, EventKind::Stall);
        assert_eq!(events[1].label, "straggler");
        assert!((events[1].dt - 1.0).abs() < 1e-3, "{}", events[1].dt); // 2x - 1x
        assert_eq!(c.registry().counter("faults.netdeg.applied"), 1);
    }

    #[test]
    fn transient_faults_are_taken_exactly_once() {
        let plan = crate::FaultPlan {
            events: vec![
                crate::FaultEvent::LostShuffleFetch { at_time: 1.0, machine: 0, attempts: 2 },
                crate::FaultEvent::FailedHdfsWrite { at_time: 1.0, machine: 1, attempts: 1 },
            ],
        };
        let mut c = faulted(2, plan);
        assert_eq!(c.take_transient(), None);
        c.advance_stall(2.0).unwrap();
        assert_eq!(
            c.take_transient(),
            Some(TransientFault::LostShuffleFetch { machine: 0, attempts: 2 })
        );
        assert_eq!(
            c.take_transient(),
            Some(TransientFault::FailedHdfsWrite { machine: 1, attempts: 1 })
        );
        assert_eq!(c.take_transient(), None);
        assert_eq!(c.registry().counter("faults.fetch.retried"), 1);
        assert_eq!(c.registry().counter("faults.hdfs.retried"), 1);
    }

    #[test]
    fn stall_advances_clock_without_busy_time() {
        let mut c = cluster(2, 1 << 30);
        c.advance_stall(3.0).unwrap();
        assert!((c.elapsed() - 3.0).abs() < 1e-12);
        let b = c.cpu_breakdown();
        assert_eq!(b.user_avg, 0.0);
        assert_eq!(b.net_avg, 0.0);
    }

    #[test]
    fn startup_charges_profile_cost() {
        let mut c = Cluster::new(ClusterSpec::r3_xlarge(128, 1 << 30), CostProfile::jvm_hadoop());
        c.charge_startup().unwrap();
        assert!(c.elapsed() > 60.0);
    }

    #[test]
    fn journal_events_carry_phase_label_and_superstep() {
        let mut c = cluster(2, 1 << 30);
        c.begin_phase(Phase::Execute);
        c.set_label("superstep");
        c.advance_compute(&[1.0e6, 1.0e6], 1).unwrap();
        c.set_label("shuffle");
        c.exchange(&[10, 10], &[10, 10], &[1, 1]).unwrap();
        c.barrier().unwrap();
        c.set_label("superstep");
        c.advance_compute(&[1.0e6, 1.0e6], 1).unwrap();
        let events = c.journal().events();
        assert_eq!(events[0].label, "superstep");
        assert_eq!(events[0].phase, Phase::Execute);
        assert_eq!(events[0].superstep, 0);
        assert_eq!(events[1].label, "shuffle");
        assert_eq!(events[1].kind, EventKind::Network);
        // The barrier closes superstep 0; the next compute is in superstep 1.
        assert_eq!(events[2].kind, EventKind::Barrier);
        assert_eq!(events[2].superstep, 0);
        assert_eq!(events[3].superstep, 1);
        // begin_phase resets the label.
        c.begin_phase(Phase::Save);
        assert_eq!(c.label(), "save");
    }

    #[test]
    fn journal_barrier_wait_measures_stragglers() {
        let mut c = cluster(2, 1 << 30);
        c.advance_compute(&[1.0e9, 3.0e9], 1).unwrap();
        let ev = &c.journal().events()[0];
        let per_op = CostProfile::cpp_mpi().sec_per_op;
        assert!((ev.dt - 3.0e9 * per_op).abs() < 1e-9);
        assert!((ev.barrier_wait - 2.0e9 * per_op).abs() < 1e-9);
    }

    #[test]
    fn memory_events_record_actual_deltas() {
        let mut c = cluster(2, 1_000);
        c.alloc(0, 400).unwrap();
        c.alloc_all(&[100, 200]).unwrap();
        c.free(0, 10_000); // saturates: only 500 in use
        let events = c.journal().events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Alloc);
        assert_eq!(events[0].mem_delta, vec![400, 0]);
        assert_eq!(events[1].mem_delta, vec![100, 200]);
        assert_eq!(events[2].kind, EventKind::Free);
        assert_eq!(events[2].mem_delta, vec![-500, 0]);
        assert_eq!(events[2].dt, 0.0);
        // Deltas sum to the memory in use.
        assert_eq!(c.mem_in_use(0), 0);
        assert_eq!(c.mem_in_use(1), 200);
        assert_eq!(c.registry().counter("mem.alloc.bytes"), 700);
        assert_eq!(c.registry().counter("mem.free.bytes"), 500);
    }

    #[test]
    fn registry_histogram_counts_match_event_counters() {
        let mut c = cluster(2, 1 << 30);
        c.charge_startup().unwrap();
        c.advance_compute(&[1.0e6, 1.0e6], 1).unwrap();
        c.advance_compute(&[2.0e6, 1.0e6], 1).unwrap();
        c.exchange(&[10, 10], &[10, 10], &[1, 1]).unwrap();
        c.barrier().unwrap();
        c.alloc(0, 100).unwrap();
        for kind in EventKind::ALL {
            let n = c.registry().counter(kind.counter());
            let h = c.registry().histogram(kind.seconds_histogram());
            assert_eq!(h.map(|h| h.count()).unwrap_or(0), n, "{}", kind.name());
        }
        assert_eq!(c.registry().counter("events.compute"), 2);
        assert_eq!(c.registry().counter("net.bytes"), c.total_net_bytes());
    }

    #[test]
    fn observers_fire_at_barrier_and_leave_the_run_bit_identical() {
        use crate::observer::{ClusterObserver, ObserverSet, SuperstepSnapshot};
        use std::sync::{Arc, Mutex};

        struct Recorder(Mutex<Vec<SuperstepSnapshot>>);
        impl ClusterObserver for Recorder {
            fn on_superstep(&self, snap: &SuperstepSnapshot, registry: &MetricsRegistry) {
                // The registry borrow is live: barrier events are visible.
                assert_eq!(registry.counter("events.barrier"), snap.superstep + 1);
                self.0.lock().unwrap().push(*snap);
            }
        }

        let recorder = Arc::new(Recorder(Mutex::new(Vec::new())));
        let mut observers = ObserverSet::new();
        observers.attach(recorder.clone());
        let mut observed = Cluster::new(
            ClusterSpec { observers, ..ClusterSpec::r3_xlarge(2, 1 << 30) },
            CostProfile::cpp_mpi(),
        );
        let mut plain = cluster(2, 1 << 30);
        for c in [&mut observed, &mut plain] {
            c.begin_phase(Phase::Execute);
            for step in 0..3u64 {
                c.advance_compute(&[1.0e6, 2.0e6], 4).unwrap();
                c.exchange(&[100, 200], &[200, 100], &[1, 2]).unwrap();
                c.report_active(10 - step);
                c.barrier().unwrap();
            }
        }

        let snaps = recorder.0.lock().unwrap();
        assert_eq!(snaps.len(), 3);
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.superstep, i as u64);
            assert_eq!(s.active_vertices, 10 - i as u64);
            // Totals are cumulative and every superstep exchanges the same.
            assert_eq!(s.net_bytes * 3, observed.total_net_bytes() * (i as u64 + 1));
            assert!(s.clock <= observed.elapsed());
        }
        assert_eq!(snaps[2].clock.to_bits(), observed.elapsed().to_bits());

        // Read-only contract: every simulated record is bit-identical.
        assert_eq!(observed.elapsed().to_bits(), plain.elapsed().to_bits());
        assert_eq!(observed.journal().to_jsonl(), plain.journal().to_jsonl());
        assert!(observed.has_observers());
        assert!(!plain.has_observers());
    }

    #[test]
    fn timeout_charge_is_still_journaled() {
        let mut c = Cluster::new(
            ClusterSpec { deadline: 1.0, ..ClusterSpec::r3_xlarge(1, 1 << 30) },
            CostProfile::cpp_mpi(),
        );
        assert_eq!(c.advance_compute(&[1.0e12], 1).unwrap_err(), SimError::Timeout);
        assert_eq!(c.journal().len(), 1);
        assert_eq!(c.journal().total_time(), c.elapsed());
    }
}
