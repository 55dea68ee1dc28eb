//! Layered host-time benchmark of graphbench. One process runs one workload,
//! untraced (`--trace 0`: the end-to-end metrics) or traced (`--trace 1`: the
//! per-layer metrics). See ../README.md.

mod cells;
mod compare;
mod measure;
mod probes;
mod spans;
mod traced;
mod workloads;

use cells::{run_direct, Checks, Fingerprint, Oracle};
use graphbench::runner::Runner;
use measure::{five_numbers, median, peak_rss_mb, timed};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{engine_pass, ingest_pass, parallel_threads, Via, Workload};

/// Times the set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;
/// Fewest timed passes, however short `--seconds` is.
const MIN_PASSES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Rewrite `expected/<workload>.seed42.txt` instead of comparing with it.
    bless: bool,
    /// Where `expected/` lives and `out/` is written: the benchmark's directory.
    dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: graphbench-benchmark --dir DIR --workload NAME [--seed N] [--seconds S] \
         [--trace 0|1] [--bless]\n       graphbench-benchmark --compare BENCHMARK.json A.txt B.txt\n\
         workloads: {}",
        workloads::NAMES.join(" ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        bless: false,
        dir: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--dir" => args.dir = PathBuf::from(value()),
            "--bless" => args.bless = true,
            "--compare" => std::process::exit(compare::compare(&value(), &value(), &value())),
            _ => usage(),
        }
    }
    if args.dir.as_os_str().is_empty() {
        usage();
    }
    args
}

/// A metric as printed and as written into the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }
}

fn main() {
    let args = parse_args();
    // 18 knobs are read from the environment across the crates; a run that
    // inherits one measures something else.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("GRAPHBENCH_"))
    {
        eprintln!(
            "refusing to run with {} set: unset every GRAPHBENCH_* variable",
            k.to_string_lossy()
        );
        std::process::exit(2);
    }
    let Some(w) = workloads::by_name(&args.workload) else { usage() };
    let out_dir = args.dir.join("out");
    std::fs::create_dir_all(&out_dir).expect("create out/");
    graphbench_gen::stream::set_threads(parallel_threads());

    let mut checks = Checks::default();
    let mut report = Report::default();
    println!(
        "# {} seed={} base={} T={} nproc={} trace={}",
        w.name,
        args.seed,
        w.base,
        w.threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        u8::from(args.trace)
    );
    match (args.trace, w.cells.is_empty()) {
        (false, false) => engines_untraced(&w, &args, &mut checks, &mut report),
        (false, true) => ingest_untraced(&w, &args, &out_dir, &mut checks, &mut report),
        (true, _) => traced::traced(&w, &args, &out_dir, &mut checks, &mut report),
    }

    for m in &report.metrics {
        println!("{} {} {} {}", w.name, m.name, m.value, m.unit);
    }
    println!("{} ops {} count", w.name, checks.ops);
    println!("{} ops_failed {} count", w.name, checks.failed);
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.ops,
        checks.failed,
        metrics.join(", ")
    );
    if checks.failed > 0 {
        std::process::exit(1);
    }
}

/// Compare (or, with `--bless`, write) the committed fingerprints. The engine
/// workloads do not take `--seed`, so this holds on every run.
fn check_committed(
    w: &Workload,
    args: &Args,
    bless: bool,
    baseline: &[Fingerprint],
    checks: &mut Checks,
) {
    let path = args.dir.join(format!("expected/{}.seed42.txt", w.name));
    let lines: Vec<String> =
        w.cells.iter().zip(baseline).map(|(c, fp)| fp.line(&c.name())).collect();
    if bless {
        std::fs::write(&path, lines.join("\n") + "\n").expect("write expected fingerprints");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    let committed: Vec<&str> = committed.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let want = committed.get(i).copied().unwrap_or("<missing>");
        checks.check(line == want, || format!("fingerprint `{line}`, committed `{want}`"));
    }
}

/// The untimed verification step: status, thread invariance and answer of
/// every cell, and `Engine::run` against `baseline`, which `Runner::run` gave.
fn verify(
    w: &Workload,
    args: &Args,
    runner: &mut Runner,
    baseline: &[Fingerprint],
    checks: &mut Checks,
) {
    let mut oracle = Oracle::default();
    // The other side of the 1-thread / T-thread comparison.
    let other_threads = if w.serial { parallel_threads() } else { 1 };
    for (cell, want) in w.cells.iter().zip(baseline) {
        let name = cell.name();
        let out = run_direct(runner, cell, w.threads(), None);
        let fp = Fingerprint::of(&out.metrics, out.runtime);
        checks.check(fp.status == cell.expect, || {
            format!(
                "{name}: status {}, expected {} ({:?})",
                fp.status, cell.expect, out.metrics.status
            )
        });
        checks.check(&fp == want, || format!("{name}: Engine::run {fp:?}, Runner::run {want:?}"));
        let other = run_direct(runner, cell, other_threads, None);
        let other = Fingerprint::of(&other.metrics, other.runtime);
        checks.check(other == fp, || {
            format!("{name}: {other:?} at {other_threads} threads, {fp:?} at {}", w.threads())
        });
        match &out.result {
            Some(answer) => checks.check(oracle.agrees(runner, cell, answer), || {
                format!("{name}: answer differs from algos::reference")
            }),
            None => checks.check(cell.expect != "OK", || format!("{name}: no answer")),
        }
    }
    check_committed(w, args, args.bless, baseline, checks);
}

/// `pass_s`, `cpu_s` and `medges_per_s` from the timed passes. The lower
/// quartile, not the median: the passes are identical work and a shared host
/// only ever slows one, and across ten runs the lower quartile spread 3-5 %
/// where the median spread 5-8 %.
fn report_passes(report: &mut Report, walls: &[f64], cpus: &[f64], work_edges: u64) {
    let [min, q1, med, q3, max] = five_numbers(walls);
    println!(
        "# pass_s n={} min={min:.4} q1={q1:.4} median={med:.4} q3={q3:.4} max={max:.4}",
        walls.len()
    );
    println!("# medges_per_s is computed: {work_edges} edges per pass / pass_s");
    report.push("pass_s", q1, "s");
    report.push("cpu_s", five_numbers(cpus)[1], "s");
    report.push("medges_per_s", work_edges as f64 / q1 / 1e6, "1e6/s");
}

/// Run `pass` until `seconds` have gone by, at least `MIN_PASSES` times.
fn timed_passes(
    seconds: f64,
    checks: &mut Checks,
    mut pass: impl FnMut(&mut Checks),
) -> (Vec<f64>, Vec<f64>) {
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    checks.timed = true;
    let t0 = Instant::now();
    while walls.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let ((), wall, cpu) = timed(|| pass(checks));
        walls.push(wall);
        cpus.push(cpu);
    }
    checks.timed = false;
    (walls, cpus)
}

fn engines_untraced(w: &Workload, args: &Args, checks: &mut Checks, report: &mut Report) {
    let mut rec = Recorder::new(false);
    // Set-up: environment, datasets, and the cold pass that fills lazy state.
    // Every later execution of a cell is checked against its first.
    let mut setups = Vec::new();
    let mut state: Option<(Runner, Vec<Fingerprint>)> = None;
    for _ in 0..SETUPS {
        let baseline = state.take().map(|(_, baseline)| baseline);
        let t0 = Instant::now();
        let mut runner = w.prepare();
        let cold = engine_pass(w, &mut runner, Via::Runner, baseline.as_deref(), checks, &mut rec);
        setups.push(t0.elapsed().as_secs_f64());
        state = Some((runner, baseline.unwrap_or(cold)));
    }
    let (mut runner, baseline) = state.expect("SETUPS > 0");

    let (walls, cpus) = timed_passes(args.seconds, checks, |checks| {
        engine_pass(w, &mut runner, Via::Runner, Some(&baseline), checks, &mut rec);
    });
    report.push("setup_s", median(&setups), "s");
    report_passes(report, &walls, &cpus, w.pass_edges(&mut runner, &baseline));
    // Before the verification step: its oracles and second thread count are
    // the harness's memory, not the program's.
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
    verify(w, args, &mut runner, &baseline, checks);
}

fn ingest_untraced(
    w: &Workload,
    args: &Args,
    scratch: &Path,
    checks: &mut Checks,
    report: &mut Report,
) {
    let mut rec = Recorder::new(false);
    // Nothing is kept between ingest passes, so set-up is the cold pass alone.
    let mut setups = Vec::new();
    let mut sizes = Default::default();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        sizes = ingest_pass(w, args.seed, scratch, checks, &mut rec);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (walls, cpus) = timed_passes(args.seconds, checks, |checks| {
        ingest_pass(w, args.seed, scratch, checks, &mut rec);
    });
    report.push("setup_s", median(&setups), "s");
    // Each edge is generated, built into a CSR, and generated again streamed.
    report_passes(report, &walls, &cpus, 3 * sizes.edges);
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
}
