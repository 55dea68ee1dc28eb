//! Micro-probes of the traced run: layers whose cost per call is too small to
//! see as a span inside a pass, called directly in a loop.

use crate::cells::{run_direct, Cell};
use crate::measure::rss_kb;
use graphbench::runner::Runner;
use graphbench_algos::workload::{PageRankConfig, StopCriterion};
use graphbench_algos::{st, DAMPING};
use graphbench_engines::{exec, shuffle};
use graphbench_graph::{CsrGraph, VertexId};
use graphbench_obs::recorder::FlightRecorder;
use graphbench_obs::ObserverHub;
use graphbench_sim::{Cluster, ClusterObserver, ClusterSpec, CostProfile, Phase};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const MACHINES: usize = 16;

/// Microseconds per `exec::run_chunks` call over 16 no-op tasks.
pub fn exec_dispatch_us(threads: usize) -> f64 {
    const CALLS: u32 = 2_000;
    exec::set_threads(threads);
    let mut tasks = vec![0u64; MACHINES];
    let t0 = Instant::now();
    for _ in 0..CALLS {
        black_box(exec::run_chunks(black_box(&mut tasks), |i, t| *t += i as u64));
    }
    t0.elapsed().as_secs_f64() * 1e6 / CALLS as f64
}

/// Million messages per second through `shuffle::par_scatter` (4 M `(dst, f64)`
/// items into 16 buckets) and through `Combiner::combine_bucket` over them.
pub fn shuffle_mmsgs_per_s(threads: usize) -> (f64, f64) {
    const ITEMS: usize = 4_000_000;
    const TARGETS: u32 = 1 << 20;
    exec::set_threads(threads);
    // An LCG, so the targets are spread and the same on every run.
    let mut x = 0x2545_f491u32;
    let items: Vec<(VertexId, f64)> = (0..ITEMS)
        .map(|i| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((x >> 8) % TARGETS, i as f64)
        })
        .collect();
    let mut buckets: Vec<Vec<(VertexId, f64)>> = vec![Vec::new(); MACHINES];
    let t0 = Instant::now();
    shuffle::par_scatter(
        &items,
        MACHINES,
        |_, &(t, v)| (t as usize % MACHINES, (t, v)),
        &mut buckets,
    );
    let scatter_s = t0.elapsed().as_secs_f64();

    let locals = TARGETS as usize / MACHINES;
    let mut combiner = shuffle::Combiner::<f64>::with_capacity(locals);
    let t0 = Instant::now();
    for bucket in &mut buckets {
        combiner.combine_bucket(locals, |t| t / MACHINES as u32, bucket, |a, b| a + b);
    }
    let combine_s = t0.elapsed().as_secs_f64();
    black_box(&buckets);
    (ITEMS as f64 / scatter_s / 1e6, ITEMS as f64 / combine_s / 1e6)
}

/// The commit point alone: `(µs, journal events, resident kB)` per superstep of
/// `advance_compute` + `exchange` + `barrier` on a 16-machine cluster.
pub fn sim_superstep() -> (f64, f64, f64) {
    // Enough rounds that the growth outruns memory the allocator has kept from
    // earlier phases and hands back before the resident set grows.
    const ROUNDS: u32 = 20_000;
    let spec = ClusterSpec { deadline: f64::MAX, ..ClusterSpec::r3_xlarge(MACHINES, 1 << 40) };
    let mut cluster = Cluster::new(spec, CostProfile::cpp_mpi());
    cluster.begin_phase(Phase::Execute);
    let (ops, bytes, msgs) = ([1e6; MACHINES], [1u64 << 16; MACHINES], [1u64 << 10; MACHINES]);
    let rss0 = rss_kb();
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        cluster.advance_compute(&ops, 4).expect("compute");
        cluster.exchange(&bytes, &bytes, &msgs).expect("exchange");
        cluster.barrier().expect("barrier");
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    let events = cluster.journal().len() as f64 / ROUNDS as f64;
    let kb = (rss_kb() - rss0).max(0.0) / ROUNDS as f64;
    black_box(&cluster);
    (us, events, kb)
}

/// The observability plane's price: seconds for `cells` with an `ObserverHub`
/// and a `FlightRecorder` sink attached, and milliseconds to render the
/// recorder's registries as a Prometheus page.
pub fn obs_pass(runner: &mut Runner, cells: &[Cell], threads: usize) -> (f64, f64) {
    let hub = Arc::new(ObserverHub::new());
    let recorder = Arc::new(FlightRecorder::new(64));
    hub.add_sink(recorder.clone());
    let t0 = Instant::now();
    for cell in cells {
        hub.begin_run(
            &cell.system.label(),
            cell.workload.name(),
            cell.dataset.name(),
            cell.machines,
            runner.env.scale.base,
            runner.env.seed,
        );
        let out = run_direct(runner, cell, threads, Some(hub.clone() as Arc<dyn ClusterObserver>));
        // No journal text: the serde stand-ins cannot write it.
        hub.end_run(out.metrics.status.code(), out.runtime, String::new());
    }
    let pass_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    black_box(recorder.render_prom());
    (pass_s, t0.elapsed().as_secs_f64() * 1e3)
}

/// The single-thread kernels on `graph`, called directly:
/// `(PageRank 10⁶ edges/s, SSSP ms, WCC ms)`.
pub fn st_kernels(graph: &CsrGraph, source: VertexId) -> (f64, f64, f64) {
    let mut g = graph.clone();
    g.build_in_edges();
    let cfg = PageRankConfig {
        damping: DAMPING,
        stop: StopCriterion::Tolerance(1e-6),
        approximate: false,
    };
    let t0 = Instant::now();
    let pr = black_box(st::pagerank(&g, &cfg));
    let pr_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    black_box(st::sssp(&g, source));
    let sssp_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    black_box(st::wcc(&g));
    let wcc_ms = t0.elapsed().as_secs_f64() * 1e3;
    (pr.iterations as f64 * g.num_edges() as f64 / pr_s / 1e6, sssp_ms, wcc_ms)
}
