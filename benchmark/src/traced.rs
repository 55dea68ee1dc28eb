//! The traced run: the per-layer metrics. Spans around the calls of the
//! untraced pass, the same cells through `Engine::run`, one ingest pass over
//! the workload's datasets, then the micro-probes.

use crate::cells::{run_direct, Cell, Checks};
use crate::measure::{median, timed};
use crate::spans::{Recorder, Span};
use crate::workloads::{engine_pass, ingest_pass, parallel_threads, Via, Workload};
use crate::{check_committed, probes, Args, Report};
use graphbench::system::SystemId;
use std::path::Path;

/// Passes of each kind.
const TRACED_PASSES: usize = 3;
/// Rounds of a pass at T threads and a pass at one, for `exec.parallel_*`.
const EXEC_ROUNDS: usize = 5;
/// `trace.unaccounted_frac` above this fails the run.
const MAX_UNACCOUNTED: f64 = 0.02;

/// Median over `passes` of the seconds in spans `name`; 0 without passes.
fn span_median(rec: &Recorder, name: &str, passes: &[u32]) -> f64 {
    if passes.is_empty() {
        return 0.0;
    }
    median(&passes.iter().map(|&p| rec.seconds_in(name, p)).collect::<Vec<_>>())
}

const ENGINE_MODULES: [&str; 8] = [
    "engines.single",
    "engines.bsp",
    "engines.blogel",
    "engines.gas",
    "engines.graphx",
    "engines.gelly",
    "engines.hadoop",
    "engines.vertica",
];

/// Spans of `ingest_pass`; each feeds the metric `<span>_s`.
const INGEST_SPANS: [&str; 11] = [
    "gen.generate",
    "gen.generate_csr",
    "graph.csr_build",
    "graph.stats",
    "graph.save",
    "graph.load",
    "partition.edge_cut",
    "partition.local_index",
    "partition.vertex_cut_random",
    "partition.vertex_cut_oblivious",
    "partition.voronoi",
];

/// `a / b`, and 0 for a layer the workload never entered.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn traced(w: &Workload, args: &Args, scratch: &Path, checks: &mut Checks, report: &mut Report) {
    let mut rec = Recorder::new(true);
    let mut off = Recorder::new(false);
    let threads = w.threads();

    // Set-up and warm-up, as in the untraced run.
    let mut runner = rec.span("core.prepare", w.name, |_| w.prepare());
    let prepare_s = rec.seconds_in("core.prepare", 0);
    let baseline = engine_pass(w, &mut runner, Via::Runner, None, checks, &mut off);
    check_committed(w, args, false, &baseline, checks);

    // Rounds of: the pass of the untraced run without spans, the same with
    // spans, and the same cells through `Engine::run` (the engines' own time).
    // Interleaved, so that drift of the host does not pass for a difference.
    let mut untraced = Vec::new();
    let mut traced_walls = Vec::new();
    let mut unaccounted = Vec::new();
    let mut ingest_sizes = Default::default();
    let (mut runner_passes, mut direct_passes) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_PASSES {
        for traced in [false, true] {
            let recorder = if traced { &mut rec } else { &mut off };
            let pass = recorder.next_pass();
            let ((), wall, _) = timed(|| {
                recorder.span("pass", w.name, |r| {
                    if w.cells.is_empty() {
                        ingest_sizes = ingest_pass(w, args.seed, scratch, checks, r);
                    } else {
                        engine_pass(w, &mut runner, Via::Runner, Some(&baseline), checks, r);
                    }
                })
            });
            if traced {
                traced_walls.push(wall);
                runner_passes.push(pass);
                let pass_s = rec.seconds_in("pass", pass);
                unaccounted.push((pass_s - rec.child_seconds("pass", pass)) / pass_s);
            } else {
                untraced.push(wall);
            }
        }
        if !w.cells.is_empty() {
            direct_passes.push(rec.next_pass());
            engine_pass(w, &mut runner, Via::Engine, Some(&baseline), checks, &mut rec);
        }
    }

    // gen / graph / partition: the ingest pass itself, or one ingest pass over
    // this workload's datasets.
    let ingest_passes = if w.cells.is_empty() {
        runner_passes.clone()
    } else {
        let pass = rec.next_pass();
        ingest_sizes = ingest_pass(w, args.seed, scratch, checks, &mut rec);
        vec![pass]
    };
    for span in INGEST_SPANS {
        report.push(format!("{span}_s"), span_median(&rec, span, &ingest_passes), "s");
    }
    let generate_s = span_median(&rec, "gen.generate", &ingest_passes);
    report.push("gen.medges_per_s", ingest_sizes.edges as f64 / generate_s / 1e6, "1e6/s");
    report.push("graph.file_mb", ingest_sizes.file_bytes as f64 / 1e6, "MB");
    report.push("graph.csr_mb", ingest_sizes.csr_bytes as f64 / 1e6, "MB");

    // core and engines.
    let engines_s: f64 = ENGINE_MODULES.iter().map(|m| span_median(&rec, m, &direct_passes)).sum();
    let runner_s = span_median(&rec, "core.run", &runner_passes);
    report.push("core.prepare_s", prepare_s, "s");
    report.push("core.run_self_s", runner_s - engines_s, "s");
    let mut supersteps_total = 0u64;
    for module in ENGINE_MODULES {
        let seconds = span_median(&rec, module, &direct_passes);
        report.push(format!("{module}_s"), seconds, "s");
        let supersteps: u64 = w
            .cells
            .iter()
            .zip(&baseline)
            .filter(|(c, _)| c.module() == module)
            .map(|(_, fp)| fp.supersteps)
            .sum();
        supersteps_total += supersteps;
        if module != "engines.single" {
            let us = ratio(seconds * 1e6, supersteps as f64);
            report.push(format!("{module}_us_per_superstep"), us, "us");
        }
    }
    report.push("engines.supersteps", supersteps_total as f64, "count");

    // The parallel executor against the serial path, on this workload's cells.
    // Alternating passes and the fastest of each side: this host's second vCPU
    // goes missing for tens of seconds at a time, which slows only one side.
    let mut cells_at = |threads: usize| {
        let cells = || w.cells.iter().for_each(|c| drop(run_direct(&mut runner, c, threads, None)));
        timed(cells).1
    };
    let (mut parallel, mut serial) = (Vec::new(), Vec::new());
    if !w.cells.is_empty() {
        for _ in 0..EXEC_ROUNDS {
            parallel.push(cells_at(parallel_threads()));
            serial.push(cells_at(1));
        }
    }
    let fastest = |passes: &[f64]| passes.iter().copied().reduce(f64::min).unwrap_or(0.0);
    report.push("exec.parallel_pass_s", fastest(&parallel), "s");
    report.push("exec.parallel_over_serial", ratio(fastest(&parallel), fastest(&serial)), "ratio");

    // Micro-probes.
    report.push("exec.dispatch_us", probes::exec_dispatch_us(parallel_threads()), "us");
    report.push("exec.dispatch_serial_us", probes::exec_dispatch_us(1), "us");
    let (scatter, combine) = probes::shuffle_mmsgs_per_s(parallel_threads());
    report.push("shuffle.scatter_mmsgs_per_s", scatter, "1e6/s");
    report.push("shuffle.combine_mmsgs_per_s", combine, "1e6/s");
    let (us, events, kb) = probes::sim_superstep();
    report.push("sim.superstep_us", us, "us");
    report.push("sim.events_per_superstep", events, "count");
    report.push("sim.kb_per_superstep", kb, "kB");

    let first = runner.env.prepare(w.datasets[0]);
    let (pr_medges, sssp_ms, wcc_ms) = probes::st_kernels(&first.graph, first.source);
    report.push("algos.st.pagerank_medges_per_s", pr_medges, "1e6/s");
    report.push("algos.st.sssp_ms", sssp_ms, "ms");
    report.push("algos.st.wcc_ms", wcc_ms, "ms");
    report.push("cost.bsp_over_st", bsp_over_st(w, &rec, &direct_passes), "ratio");

    // Observability plane: on, against the direct passes above (off).
    let (hub_s, prom_ms) = probes::obs_pass(&mut runner, &w.cells, threads);
    report.push("obs.hub_overhead_frac", ratio(hub_s - engines_s, engines_s), "ratio");
    report.push("obs.prom_render_ms", prom_ms, "ms");

    // Worker busy time needs the library's own executor spans, which cannot be
    // switched off again: last.
    graphbench_sim::hosttrace::enable();
    let (mut busy_us, mut wall_s) = (0u64, 0.0);
    for cell in &w.cells {
        let (out, wall, _) = timed(|| run_direct(&mut runner, cell, threads, None));
        busy_us += out.host_spans.iter().map(|s| s.dur_us).sum::<u64>();
        wall_s += wall;
    }
    report.push("exec.busy_frac", ratio(busy_us as f64 * 1e-6, threads as f64 * wall_s), "ratio");

    // The harness itself.
    let unaccounted_frac = median(&unaccounted);
    report.push("trace.unaccounted_frac", unaccounted_frac, "ratio");
    report.push("trace.overhead_frac", median(&traced_walls) / median(&untraced) - 1.0, "ratio");
    checks.check(unaccounted_frac < MAX_UNACCOUNTED, || {
        format!("spans leave {unaccounted_frac} of a pass unaccounted, limit {MAX_UNACCOUNTED}")
    });

    let path = scratch.join(format!("trace.{}.json", w.name));
    std::fs::write(&path, rec.to_json()).expect("write trace");
    println!("# {} spans written to {}", rec.spans().len(), path.display());
}

/// Giraph's time over the single-thread engine's on the first cell both run.
fn bsp_over_st(w: &Workload, rec: &Recorder, passes: &[u32]) -> f64 {
    let cell_s = |system: SystemId, like: &Cell| {
        let cell = w.cells.iter().find(|c| {
            c.system == system
                && c.workload == like.workload
                && c.dataset == like.dataset
                && c.machines == like.machines
        })?;
        let name = cell.name();
        let per_pass: Vec<f64> = passes
            .iter()
            .map(|&p| {
                rec.spans()
                    .iter()
                    .filter(|s| s.pass == p && s.subject == name && s.name == cell.module())
                    .map(Span::seconds)
                    .sum()
            })
            .collect();
        Some(median(&per_pass))
    };
    let Some(st) = w.cells.iter().find(|c| c.system == SystemId::SingleThread) else { return 0.0 };
    match (cell_s(SystemId::Giraph, st), cell_s(SystemId::SingleThread, st)) {
        (Some(g), Some(s)) => {
            println!("# cost.bsp_over_st = {g:.4} s (G) / {s:.4} s (ST) on {}", st.name());
            g / s
        }
        _ => 0.0,
    }
}
