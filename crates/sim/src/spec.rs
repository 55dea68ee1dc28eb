//! Cluster hardware description.
//!
//! Defaults model the paper's EC2 `r3.xlarge` fleet (§4.1): 4 cores,
//! memory-optimized, SSD, "moderate" (~1 Gb/s) networking, HDFS with 3-way
//! replication. Memory is expressed as an explicit budget because the
//! datasets in this reproduction are scaled down; the harness scales the
//! budget by the same factor so the paper's memory-pressure ratios — and
//! hence its OOM matrix — are preserved.

use serde::{Deserialize, Serialize};

/// Network capabilities of one machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Sustained point-to-point bandwidth per machine NIC, bytes/second.
    pub bandwidth: f64,
    /// Added latency of one BSP barrier with the master, seconds.
    pub barrier_base: f64,
    /// Extra barrier latency per participating machine, seconds.
    pub barrier_per_machine: f64,
    /// Framing overhead charged per application message, bytes.
    pub per_message_overhead: u64,
}

impl Default for NetworkSpec {
    fn default() -> Self {
        NetworkSpec {
            bandwidth: 125.0e6, // ~1 Gb/s
            barrier_base: 0.02,
            barrier_per_machine: 0.0005,
            per_message_overhead: 16,
        }
    }
}

/// Disk and HDFS throughput of one machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskSpec {
    /// Local SSD sequential read, bytes/second.
    pub local_read: f64,
    /// Local SSD sequential write, bytes/second.
    pub local_write: f64,
    /// HDFS read throughput per machine (short-circuit reads, mostly local).
    pub hdfs_read: f64,
    /// HDFS write throughput per machine (3-way replication makes this the
    /// slowest channel).
    pub hdfs_write: f64,
}

impl Default for DiskSpec {
    fn default() -> Self {
        DiskSpec {
            local_read: 150.0e6,
            local_write: 100.0e6,
            hdfs_read: 100.0e6,
            hdfs_write: 45.0e6,
        }
    }
}

/// Most failed attempts a transient fault may charge before it must
/// succeed: the bounded retry/backoff model never aborts a run.
pub const RETRY_MAX_ATTEMPTS: u32 = 3;

/// Largest physical machine count a resize may reach. A backstop against
/// runaway `resize@T:+mM` plans (each physical slot carries accounting
/// state), far above the paper's 128-machine ceiling.
pub const MAX_ELASTIC_MACHINES: usize = 1024;

/// One scheduled fault event. Times are simulated seconds; an event fires
/// when the simulated clock first reaches its trigger time at the charge or
/// barrier where the affected engine can observe it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Machine `machine` dies at `at_time`; the engine detects it at its
    /// next barrier and pays its Table 1 recovery mechanism's cost.
    Crash { at_time: f64, machine: usize },
    /// Machine `machine` runs `slowdown`× slower for busy-time charges
    /// (compute and disk) that *start* inside `[start, start + duration)`.
    /// The surplus over the fault-free charge is journaled as a `Stall`
    /// labeled `straggler`, so the base charge stream stays bit-identical.
    Straggler { start: f64, duration: f64, machine: usize, slowdown: f64 },
    /// Cluster-wide bandwidth multiplier `factor` (0 < factor ≤ 1) for
    /// exchanges that start inside `[start, start + duration)`. Surplus
    /// transfer time is journaled as a `Stall` labeled `straggler`.
    NetworkDegradation { start: f64, duration: f64, factor: f64 },
    /// A shuffle fetch from `machine` is lost at `at_time`; the engine
    /// retries with exponential backoff (`attempts` failed tries, each
    /// charged as a `Stall` labeled `retry`) and then succeeds.
    LostShuffleFetch { at_time: f64, machine: usize, attempts: u32 },
    /// An HDFS write on `machine` fails at `at_time`; retried with the same
    /// bounded backoff model as a lost fetch.
    FailedHdfsWrite { at_time: f64, machine: usize, attempts: u32 },
    /// Elastic membership change at `at_time`: `delta > 0` machines join,
    /// `delta < 0` machines leave. The cluster applies it at the next
    /// barrier — the superstep suspends, fragments are deterministically
    /// remapped onto the new machine set, migration cost (bytes moved over
    /// the network model plus index-rebuild CPU, snapshot-assisted when the
    /// source machine is departing) is charged under the `migrate` label,
    /// and the run resumes. Because computation stays keyed to the fixed
    /// logical fragments, the answer is bit-identical to the static run.
    Resize { at_time: f64, delta: i64 },
}

impl FaultEvent {
    /// The simulated time at which the event becomes eligible to fire.
    pub fn trigger_time(&self) -> f64 {
        match *self {
            FaultEvent::Crash { at_time, .. }
            | FaultEvent::LostShuffleFetch { at_time, .. }
            | FaultEvent::FailedHdfsWrite { at_time, .. }
            | FaultEvent::Resize { at_time, .. } => at_time,
            FaultEvent::Straggler { start, .. } | FaultEvent::NetworkDegradation { start, .. } => {
                start
            }
        }
    }

    /// Short grammar keyword (also the prefix used by [`FaultPlan::parse`]).
    pub fn keyword(&self) -> &'static str {
        match self {
            FaultEvent::Crash { .. } => "crash",
            FaultEvent::Straggler { .. } => "straggler",
            FaultEvent::NetworkDegradation { .. } => "netdeg",
            FaultEvent::LostShuffleFetch { .. } => "fetch",
            FaultEvent::FailedHdfsWrite { .. } => "hdfs",
            FaultEvent::Resize { .. } => "resize",
        }
    }
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultEvent::Crash { at_time, machine } => write!(f, "crash@{at_time}:m{machine}"),
            FaultEvent::Straggler { start, duration, machine, slowdown } => {
                write!(f, "straggler@{start}+{duration}:m{machine}x{slowdown}")
            }
            FaultEvent::NetworkDegradation { start, duration, factor } => {
                write!(f, "netdeg@{start}+{duration}:x{factor}")
            }
            FaultEvent::LostShuffleFetch { at_time, machine, attempts } => {
                write!(f, "fetch@{at_time}:m{machine}x{attempts}")
            }
            FaultEvent::FailedHdfsWrite { at_time, machine, attempts } => {
                write!(f, "hdfs@{at_time}:m{machine}x{attempts}")
            }
            FaultEvent::Resize { at_time, delta } => {
                let sign = if delta < 0 { '-' } else { '+' };
                write!(f, "resize@{at_time}:{sign}m{}", delta.unsigned_abs())
            }
        }
    }
}

/// An ordered, seed-reproducible schedule of fault events injected into one
/// run. The empty plan is the fault-free default and charges nothing.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// A single machine kill: `machine` dies at simulated time `at_time`
    /// (Table 1's fault-tolerance column is exercised by killing a worker
    /// mid-execution and watching each system's recovery mechanism pay).
    pub fn single(at_time: f64, machine: usize) -> Self {
        FaultPlan { events: vec![FaultEvent::Crash { at_time, machine }] }
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether any scheduled event is a machine crash (engines only
    /// maintain recovery snapshots when one can actually fire).
    pub fn has_crashes(&self) -> bool {
        self.events.iter().any(|e| matches!(e, FaultEvent::Crash { .. }))
    }

    /// Whether any scheduled event is an elastic membership change.
    pub fn has_resizes(&self) -> bool {
        self.events.iter().any(|e| matches!(e, FaultEvent::Resize { .. }))
    }

    /// Validate every event against the cluster shape. Rejects events that
    /// could never fire (machine out of range, trigger past the deadline,
    /// non-positive times) or that break model invariants (slowdown < 1,
    /// bandwidth factor outside (0, 1], retry attempts outside
    /// `1..=RETRY_MAX_ATTEMPTS`, resizes that would shrink the cluster
    /// below one machine or past [`MAX_ELASTIC_MACHINES`]).
    ///
    /// Events are checked in trigger-time order (ties broken by plan
    /// position — the order the cluster consumes them) so machine indices
    /// and resize deltas are validated against the membership in effect
    /// when each event fires.
    pub fn validate(&self, machines: usize, deadline: f64) -> Result<(), String> {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by(|&a, &b| {
            self.events[a]
                .trigger_time()
                .partial_cmp(&self.events[b].trigger_time())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        // Running physical machine count as resizes apply.
        let mut count = machines;
        for i in order {
            let e = &self.events[i];
            let fail = |why: String| Err(format!("fault event #{i} ({e}): {why}"));
            let t = e.trigger_time();
            if !t.is_finite() || t < 0.0 {
                return fail(format!("trigger time {t} is not a non-negative finite number"));
            }
            if t > deadline {
                return fail(format!("trigger time {t} is past the {deadline}s deadline"));
            }
            match *e {
                FaultEvent::Crash { machine, .. }
                | FaultEvent::LostShuffleFetch { machine, .. }
                | FaultEvent::FailedHdfsWrite { machine, .. }
                | FaultEvent::Straggler { machine, .. }
                    if machine >= count =>
                {
                    return fail(format!("machine {machine} >= cluster size {count}"));
                }
                FaultEvent::Resize { delta, .. } => {
                    if delta == 0 {
                        return fail("resize delta must be non-zero".to_string());
                    }
                    let next = count as i64 + delta;
                    if next < 1 {
                        return fail(format!("scale-in past zero ({count} machines {delta:+})"));
                    }
                    if next > MAX_ELASTIC_MACHINES as i64 {
                        return fail(format!(
                            "scale-out past {MAX_ELASTIC_MACHINES} machines ({count} {delta:+})"
                        ));
                    }
                    count = next as usize;
                }
                FaultEvent::Straggler { duration, slowdown, .. } => {
                    if !duration.is_finite() || duration < 0.0 {
                        return fail(format!("duration {duration} must be >= 0"));
                    }
                    if !slowdown.is_finite() || slowdown < 1.0 {
                        return fail(format!("slowdown {slowdown} must be >= 1"));
                    }
                }
                FaultEvent::NetworkDegradation { duration, factor, .. } => {
                    if !duration.is_finite() || duration < 0.0 {
                        return fail(format!("duration {duration} must be >= 0"));
                    }
                    if !factor.is_finite() || factor <= 0.0 || factor > 1.0 {
                        return fail(format!("bandwidth factor {factor} must be in (0, 1]"));
                    }
                }
                FaultEvent::LostShuffleFetch { attempts, .. }
                | FaultEvent::FailedHdfsWrite { attempts, .. } => {
                    if attempts == 0 || attempts > RETRY_MAX_ATTEMPTS {
                        return fail(format!(
                            "attempts {attempts} must be in 1..={RETRY_MAX_ATTEMPTS}"
                        ));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Parse the `GRAPHBENCH_FAULTS` grammar: semicolon-separated events,
    ///
    /// ```text
    /// crash@T:mM            straggler@T+D:mMxS     netdeg@T+D:xF
    /// fetch@T:mM[xA]        hdfs@T:mM[xA]          resize@T:+mM | resize@T:-mM
    /// ```
    ///
    /// where `T`/`D` are seconds, `M` a machine index (for `resize`, a
    /// machine *count* to add or remove), `S` a slowdown factor, `F` a
    /// bandwidth multiplier and `A` a retry-attempt count (default 1).
    ///
    /// Errors name the offending token and its byte offset in the input.
    pub fn parse(s: &str) -> Result<Self, String> {
        let base = s.as_ptr() as usize;
        let mut events = Vec::new();
        for raw in s.split(';') {
            let part = raw.trim();
            if part.is_empty() {
                continue;
            }
            // `part` is a subslice of `s`, so pointer distance is its offset.
            let offset = part.as_ptr() as usize - base;
            events.push(Self::parse_event(part, offset)?);
        }
        Ok(FaultPlan { events })
    }

    fn parse_event(part: &str, offset: usize) -> Result<FaultEvent, String> {
        // Every token handed to `err` is a subslice of `part`, so its byte
        // offset in the full plan string is recoverable by pointer distance.
        let err = |tok: &str, why: &str| {
            let at = offset + ((tok.as_ptr() as usize).saturating_sub(part.as_ptr() as usize));
            format!("cannot parse fault event {part:?}: token {tok:?} at byte {at}: {why}")
        };
        let (kind, rest) = part.split_once('@').ok_or_else(|| err(part, "missing '@'"))?;
        let (when, body) = rest.split_once(':').ok_or_else(|| err(rest, "missing ':'"))?;
        let time = |s: &str| s.trim().parse::<f64>().map_err(|_| err(s.trim(), "bad time"));
        let (start, duration) = match when.split_once('+') {
            Some((t, d)) => (time(t)?, Some(time(d)?)),
            None => (time(when)?, None),
        };
        let machine = |s: &str| -> Result<usize, String> {
            let t = s.trim();
            t.strip_prefix('m')
                .and_then(|m| m.parse::<usize>().ok())
                .ok_or_else(|| err(t, "expected mN machine index"))
        };
        match kind.trim() {
            "crash" => Ok(FaultEvent::Crash { at_time: start, machine: machine(body)? }),
            "straggler" => {
                let (m, s) = body.split_once('x').ok_or_else(|| err(body, "expected mMxS"))?;
                Ok(FaultEvent::Straggler {
                    start,
                    duration: duration.ok_or_else(|| err(when, "straggler needs @T+D"))?,
                    machine: machine(m)?,
                    slowdown: s.trim().parse().map_err(|_| err(s.trim(), "bad slowdown"))?,
                })
            }
            "netdeg" => Ok(FaultEvent::NetworkDegradation {
                start,
                duration: duration.ok_or_else(|| err(when, "netdeg needs @T+D"))?,
                factor: {
                    let t = body.trim();
                    t.strip_prefix('x')
                        .and_then(|f| f.parse::<f64>().ok())
                        .ok_or_else(|| err(t, "expected xF factor"))?
                },
            }),
            "fetch" | "hdfs" => {
                let (m, attempts) = match body.split_once('x') {
                    Some((m, a)) => (
                        m,
                        a.trim().parse::<u32>().map_err(|_| err(a.trim(), "bad attempt count"))?,
                    ),
                    None => (body, 1),
                };
                let machine = machine(m)?;
                Ok(if kind.trim() == "fetch" {
                    FaultEvent::LostShuffleFetch { at_time: start, machine, attempts }
                } else {
                    FaultEvent::FailedHdfsWrite { at_time: start, machine, attempts }
                })
            }
            "resize" => {
                let t = body.trim();
                let (sign, m) = match (t.strip_prefix("+m"), t.strip_prefix("-m")) {
                    (Some(m), _) => (1i64, m),
                    (_, Some(m)) => (-1i64, m),
                    _ => return Err(err(t, "expected +mN or -mN machine delta")),
                };
                let n = m
                    .parse::<i64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err(t, "machine delta must be a positive integer"))?;
                Ok(FaultEvent::Resize { at_time: start, delta: sign * n })
            }
            other => Err(err(kind.trim(), &format!("unknown event kind {other:?}"))),
        }
    }
}

/// A shared-nothing cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Worker machines (the paper's counts exclude the master).
    pub machines: usize,
    /// Cores per machine (r3.xlarge: 4).
    pub cores: u32,
    /// Memory budget per machine, bytes.
    pub memory_per_machine: u64,
    pub net: NetworkSpec,
    pub disk: DiskSpec,
    /// Simulated-time deadline, seconds (paper: 24 hours).
    pub deadline: f64,
    /// Work-scale multiplier applied to *data-proportional* time charges
    /// (compute ops, network bytes, disk bytes). The harness sets it to
    /// `paper_edges / generated_edges` so that a scaled-down dataset costs
    /// paper-magnitude time while *fixed* overheads (barriers, job
    /// start-up, driver scheduling) stay at their real values — preserving
    /// the paper's compute-to-overhead ratios, crossover points, and
    /// 24-hour timeouts. Memory accounting is never scaled (budgets are
    /// scaled down with the data instead).
    pub work_scale: f64,
    /// Superstep-count compensation for diameter-bound workloads (SSSP,
    /// WCC): the generated road network preserves "diameter >> web
    /// diameters" but compresses the absolute value (~hundreds instead of
    /// 48 000), so each executed superstep stands for `superstep_scale`
    /// paper supersteps. Applied to per-superstep *fixed* costs (barriers)
    /// and, by engines, to per-iteration full-scan costs; frontier-
    /// proportional work is already correct because its sum over supersteps
    /// is data-proportional.
    pub superstep_scale: f64,
    /// Fault events injected during the run. Engines detect crashes at
    /// their natural recovery points (superstep barriers, iteration
    /// boundaries) via [`crate::Cluster::take_crash`] and charge their
    /// fault-tolerance mechanism's recovery cost; stragglers and network
    /// degradation apply inside the charge primitives; transients surface
    /// through [`crate::Cluster::take_transient`]. The plan is validated at
    /// [`crate::Cluster::new`].
    pub faults: FaultPlan,
    /// Live superstep observers (the observability plane). Strictly
    /// read-only at the cluster's commit point and invisible to serde and
    /// equality — see [`crate::observer::ObserverSet`] — so records are
    /// byte-identical with or without them.
    #[serde(skip)]
    pub observers: crate::observer::ObserverSet,
}

impl ClusterSpec {
    /// The paper's cluster at a given machine count, with a memory budget
    /// chosen by the caller (scaled to dataset size).
    pub fn r3_xlarge(machines: usize, memory_per_machine: u64) -> Self {
        ClusterSpec {
            machines,
            cores: 4,
            memory_per_machine,
            net: NetworkSpec::default(),
            disk: DiskSpec::default(),
            deadline: 24.0 * 3600.0,
            work_scale: 1.0,
            superstep_scale: 1.0,
            faults: FaultPlan::none(),
            observers: crate::observer::ObserverSet::new(),
        }
    }

    /// Total memory across the cluster.
    pub fn total_memory(&self) -> u64 {
        self.memory_per_machine * self.machines as u64
    }

    /// Total cores across the cluster.
    pub fn total_cores(&self) -> u32 {
        self.cores * self.machines as u32
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec::r3_xlarge(16, 32 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r3_defaults() {
        let s = ClusterSpec::r3_xlarge(128, 1 << 30);
        assert_eq!(s.machines, 128);
        assert_eq!(s.cores, 4);
        assert_eq!(s.total_cores(), 512);
        assert_eq!(s.total_memory(), 128 << 30);
        assert_eq!(s.deadline, 86_400.0);
    }

    #[test]
    fn hdfs_write_is_the_slowest_channel() {
        let d = DiskSpec::default();
        assert!(d.hdfs_write < d.hdfs_read);
        assert!(d.hdfs_write < d.local_write);
    }

    #[test]
    fn fault_plan_parses_the_env_grammar() {
        let plan = FaultPlan::parse(
            "crash@5:m1; straggler@2+3:m0x2.5; netdeg@1+4:x0.5; fetch@6:m2; hdfs@7:m3x2",
        )
        .unwrap();
        assert_eq!(
            plan.events,
            vec![
                FaultEvent::Crash { at_time: 5.0, machine: 1 },
                FaultEvent::Straggler { start: 2.0, duration: 3.0, machine: 0, slowdown: 2.5 },
                FaultEvent::NetworkDegradation { start: 1.0, duration: 4.0, factor: 0.5 },
                FaultEvent::LostShuffleFetch { at_time: 6.0, machine: 2, attempts: 1 },
                FaultEvent::FailedHdfsWrite { at_time: 7.0, machine: 3, attempts: 2 },
            ]
        );
        assert!(plan.has_crashes());
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("crash@x:m1").is_err());
        assert!(FaultPlan::parse("explode@5:m1").is_err());
        assert!(FaultPlan::parse("straggler@5:m1x2").is_err(), "straggler requires a duration");
    }

    #[test]
    fn fault_plan_display_round_trips_through_parse() {
        let plan = FaultPlan::parse("crash@5:m1; straggler@2+3:m0x2.5; netdeg@1+4:x0.5").unwrap();
        let printed = plan.events.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("; ");
        assert_eq!(FaultPlan::parse(&printed).unwrap(), plan);
    }

    #[test]
    fn fault_plan_validation_rejects_unreachable_events() {
        let deadline = 100.0;
        let ok = FaultPlan::single(5.0, 3);
        assert!(ok.validate(4, deadline).is_ok());
        assert!(FaultPlan::single(5.0, 4).validate(4, deadline).is_err(), "machine out of range");
        assert!(FaultPlan::single(101.0, 0).validate(4, deadline).is_err(), "past the deadline");
        assert!(FaultPlan::single(-1.0, 0).validate(4, deadline).is_err(), "negative time");
        let bad_slow = FaultPlan {
            events: vec![FaultEvent::Straggler {
                start: 1.0,
                duration: 1.0,
                machine: 0,
                slowdown: 0.5,
            }],
        };
        assert!(bad_slow.validate(4, deadline).is_err(), "slowdown < 1");
        let bad_factor = FaultPlan {
            events: vec![FaultEvent::NetworkDegradation { start: 1.0, duration: 1.0, factor: 1.5 }],
        };
        assert!(bad_factor.validate(4, deadline).is_err(), "factor > 1");
        let bad_attempts = FaultPlan {
            events: vec![FaultEvent::LostShuffleFetch {
                at_time: 1.0,
                machine: 0,
                attempts: RETRY_MAX_ATTEMPTS + 1,
            }],
        };
        assert!(bad_attempts.validate(4, deadline).is_err(), "too many retry attempts");
    }

    #[test]
    fn resize_events_parse_and_round_trip() {
        let plan = FaultPlan::parse("resize@5:+m2; resize@9.5:-m1").unwrap();
        assert_eq!(
            plan.events,
            vec![
                FaultEvent::Resize { at_time: 5.0, delta: 2 },
                FaultEvent::Resize { at_time: 9.5, delta: -1 },
            ]
        );
        assert!(plan.has_resizes());
        assert!(!plan.has_crashes());
        let printed = plan.events.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("; ");
        assert_eq!(printed, "resize@5:+m2; resize@9.5:-m1");
        assert_eq!(FaultPlan::parse(&printed).unwrap(), plan);
        assert!(FaultPlan::parse("resize@5:m2").is_err(), "delta needs a sign");
        assert!(FaultPlan::parse("resize@5:+m0").is_err(), "zero delta");
        assert!(FaultPlan::parse("resize@5:+m-1").is_err(), "mangled delta");
    }

    #[test]
    fn parse_errors_carry_byte_offset_and_token() {
        let err = FaultPlan::parse("crash@5:m1; straggler@7:m0x2").unwrap_err();
        assert!(err.contains("at byte 22"), "{err}");
        assert!(err.contains("\"7\""), "{err}");
        let err = FaultPlan::parse("crash@5:m1; explode@9:m0").unwrap_err();
        assert!(err.contains("\"explode\""), "{err}");
        assert!(err.contains("at byte 12"), "{err}");
        let err = FaultPlan::parse("resize@1:xm2").unwrap_err();
        assert!(err.contains("at byte 9"), "{err}");
        assert!(err.contains("\"xm2\""), "{err}");
    }

    #[test]
    fn resize_validation_walks_the_running_machine_count() {
        let deadline = 100.0;
        let ok = FaultPlan::parse("resize@5:-m2; resize@9:+m1").unwrap();
        assert!(ok.validate(4, deadline).is_ok());
        // 4 - 2 - 2 hits zero at the second event.
        let zero = FaultPlan::parse("resize@5:-m2; resize@9:-m2").unwrap();
        assert!(zero.validate(4, deadline).is_err());
        // Machine indices are checked against the count in effect at their
        // trigger time: m5 only exists after the scale-out at t=5.
        let grown = FaultPlan::parse("resize@5:+m4; crash@9:m5").unwrap();
        assert!(grown.validate(4, deadline).is_ok());
        let early = FaultPlan::parse("crash@3:m5; resize@5:+m4").unwrap();
        assert!(early.validate(4, deadline).is_err());
        // Plan order, not schedule order, is irrelevant: the walk sorts by
        // trigger time before checking.
        let reordered = FaultPlan::parse("crash@9:m5; resize@5:+m4").unwrap();
        assert!(reordered.validate(4, deadline).is_ok());
        let cap = FaultPlan::parse(&format!("resize@5:+m{MAX_ELASTIC_MACHINES}")).unwrap();
        assert!(cap.validate(4, deadline).is_err(), "past the machine-count cap");
    }

    mod props {
        use super::*;
        use graphbench_graph::rng::{for_each_seed, hostile_text, Rng};

        /// Any event kind: times below 1e5 s, windows below 1e4 s, machines
        /// below 256, resize deltas of ±1..=64.
        fn arb_event(rng: &mut Rng) -> FaultEvent {
            let at_time = 1e5 * rng.f64();
            let duration = 1e4 * rng.f64();
            let machine = rng.below(256);
            let attempts = 1 + rng.below_u32(RETRY_MAX_ATTEMPTS);
            match rng.below(6) {
                0 => FaultEvent::Crash { at_time, machine },
                1 => {
                    let slowdown = 1.0 + 63.0 * rng.f64();
                    FaultEvent::Straggler { start: at_time, duration, machine, slowdown }
                }
                2 => {
                    let factor = 0.001 + 0.999 * rng.f64();
                    FaultEvent::NetworkDegradation { start: at_time, duration, factor }
                }
                3 => FaultEvent::LostShuffleFetch { at_time, machine, attempts },
                4 => FaultEvent::FailedHdfsWrite { at_time, machine, attempts },
                _ => {
                    let delta = 1 + rng.below(64) as i64;
                    let delta = if rng.below(2) == 0 { -delta } else { delta };
                    FaultEvent::Resize { at_time, delta }
                }
            }
        }

        /// Plans the parser accepts, for the hostile text to cut short.
        const VALID: [&str; 3] = [
            "crash@5:m1; straggler@7.5+30:m0x2.5",
            "netdeg@1e2+20:x0.5; fetch@3:m2x2; hdfs@4:m1",
            "resize@5:-m2; resize@9:+m4",
        ];

        // The parser is total: arbitrary input produces Ok or Err,
        // never a panic (slicing, unwraps, arithmetic are all safe).
        #[test]
        fn parse_never_panics() {
            assert!(VALID.iter().all(|plan| FaultPlan::parse(plan).is_ok()));
            for_each_seed(256, |_, rng| {
                let s = hostile_text(rng, &VALID);
                let _ = FaultPlan::parse(&s);
            });
        }

        // Display of any representable plan round-trips through parse.
        #[test]
        fn display_round_trips_for_any_plan() {
            for_each_seed(256, |_, rng| {
                let events: Vec<FaultEvent> = (0..rng.below(8)).map(|_| arb_event(rng)).collect();
                let plan = FaultPlan { events };
                let printed =
                    plan.events.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("; ");
                assert_eq!(FaultPlan::parse(&printed).unwrap(), plan);
            });
        }

        // Validation never panics either, whatever the plan shape.
        #[test]
        fn validate_never_panics() {
            for_each_seed(256, |_, rng| {
                let events: Vec<FaultEvent> = (0..rng.below(8)).map(|_| arb_event(rng)).collect();
                let machines = 1 + rng.below(31);
                let _ = FaultPlan { events }.validate(machines, 86_400.0);
            });
        }
    }
}
