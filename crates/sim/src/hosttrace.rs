//! Host-wallclock span collector for the parallel executor.
//!
//! Simulated time is deterministic and lives in the [`crate::Journal`];
//! host time is whatever the machine running the benchmark actually does.
//! When tracing is enabled (the bench bins' `--trace` flag), the executor
//! in `graphbench-engines` records one [`HostSpan`] per machine-shard
//! closure it runs, labeled with the cluster's current activity label, so
//! the exported Perfetto trace can put real executor wallclock next to the
//! simulated tracks and the two can be compared per label.
//!
//! Host spans are inherently nondeterministic (they measure the host), so
//! they are **never** serialized into `RunRecord`s or golden snapshots —
//! they only ever reach the exported trace file. The collector is
//! process-global and off by default: a disabled run takes one relaxed
//! atomic load per executor call and records nothing.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One executor closure run on a real host thread, in microseconds since
/// the process's first recorded span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostSpan {
    /// Executor worker index, always below the thread count: 0 on the
    /// serial path *and for the dispatching thread*, `k + 1` for pool
    /// helper `k`.
    pub thread: usize,
    /// The cluster's activity label when the span ended.
    pub label: String,
    pub start_us: u64,
    pub dur_us: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct State {
    label: &'static str,
    spans: Vec<HostSpan>,
}

static STATE: Mutex<State> = Mutex::new(State { label: "run", spans: Vec::new() });

/// Turn host-span collection on for the rest of the process. There is no
/// `disable`: tracing is a per-invocation decision made before any run
/// starts (the bench bins enable it when a `--trace` path is configured).
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether the executor should time its closures at all.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Called by the cluster on every label change so host spans carry the
/// activity the engine was simulating at the time. A no-op when disabled.
pub fn set_label(label: &'static str) {
    if enabled() {
        lock().label = label;
    }
}

/// Record one closure execution that started at `started` on executor
/// worker `thread`. Call only when [`enabled`] — the caller keeps the
/// disabled fast path free of `Instant::now` syscalls.
pub fn record(thread: usize, started: Instant) {
    let epoch = *EPOCH.get_or_init(Instant::now);
    let end = Instant::now();
    let start_us = started.saturating_duration_since(epoch).as_micros() as u64;
    let dur_us = end.saturating_duration_since(started).as_micros() as u64;
    let mut s = lock();
    let label = s.label.to_string();
    s.spans.push(HostSpan { thread, label, start_us, dur_us });
}

/// Take every span recorded since the last drain. Engines drain at the end
/// of each run, so a run's `RunOutput` carries exactly its own spans.
pub fn drain() -> Vec<HostSpan> {
    std::mem::take(&mut lock().spans)
}

fn lock() -> std::sync::MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test owns the process-global collector: splitting these
    // assertions across tests would race under cargo's parallel runner.
    #[test]
    fn record_and_drain_round_trip() {
        let t0 = Instant::now();
        record(3, t0);
        let spans = drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].thread, 3);
        assert!(drain().is_empty());
    }
}
