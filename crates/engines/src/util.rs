//! Shared engine plumbing.

use crate::{exec, RunOutput};
use graphbench_algos::WorkloadResult;
use graphbench_sim::{Cluster, RunMetrics, RunStatus, SimError};

/// Build a [`RunOutput`] from a finished (or failed) cluster run.
pub(crate) fn output_from(
    cluster: Cluster,
    outcome: Result<WorkloadResult, SimError>,
    mut notes: Vec<String>,
) -> RunOutput {
    let (status, result) = match outcome {
        Ok(r) => (RunStatus::Ok, Some(r)),
        Err(e) => (RunStatus::from_error(&e), None),
    };
    // Scheduled fault events the run never reached (e.g. a crash timed
    // after the last barrier) are surfaced, not silently dropped.
    for f in cluster.unreached_faults() {
        notes.push(format!("fault event unreached: {f}"));
    }
    let metrics = RunMetrics {
        status,
        phases: cluster.phase_times(),
        iterations: cluster.supersteps(),
        network_bytes: cluster.total_net_bytes(),
        messages: cluster.total_messages(),
        mem_peaks: cluster.mem_peaks(),
        cpu: cluster.cpu_breakdown(),
        // Filled by the runner, which holds the dataset's CSR.
        dataset_mem_bytes: 0,
    };
    let runtime = cluster.elapsed();
    let (trace, journal, registry) = cluster.into_records();
    RunOutput {
        metrics,
        result,
        trace,
        notes,
        updates_per_iteration: Vec::new(),
        journal,
        registry,
        runtime,
        // Runs execute sequentially within a process, so the global
        // collector holds exactly this run's spans.
        host_spans: graphbench_sim::hosttrace::drain(),
    }
}

/// One PageRank apply step over the whole rank vector:
/// `rank = damping + (1 - damping) · incoming`, returning the largest
/// `|Δrank|`. Chunked over disjoint rank windows; the per-chunk max deltas
/// fold in chunk order (f64 max over non-negative values is exact), so the
/// result does not depend on thread count or chunk size.
pub(crate) fn pagerank_apply(ranks: &mut [f64], incoming: &[f64], damping: f64) -> f64 {
    let mut tasks: Vec<(usize, &mut [f64])> = Vec::new();
    let mut rest: &mut [f64] = ranks;
    for (s, e) in exec::uniform_spans(rest.len(), exec::chunk_size()) {
        let (window, tail) = rest.split_at_mut(e - s);
        tasks.push((s, window));
        rest = tail;
    }
    let deltas = exec::run_chunks(&mut tasks, |_, (base, window)| {
        let mut md = 0.0f64;
        for (i, r) in window.iter_mut().enumerate() {
            let new = damping + (1.0 - damping) * incoming[*base + i];
            md = md.max((new - *r).abs());
            *r = new;
        }
        md
    });
    deltas.into_iter().fold(0.0f64, f64::max)
}
