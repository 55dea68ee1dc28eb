//! The whole matrix and its gate, the critical-path report, the scale-up
//! benchmark, and the file tools over saved results and traces.

use crate::figures::{run_grid, GridRow};
use crate::{fail, write_output, Ctx};
use graphbench::findings::{self, FindingsSweep, FINDINGS};
use graphbench::report::{critical_path_table, efficiency_table, figure_grid, to_json, Table};
use graphbench::runner::{ExperimentSpec, RunRecord, Runner};
use graphbench::stats::MultiRunRecord;
use graphbench::system::{GlStop, SystemId};
use graphbench::{viz, PaperEnv};
use graphbench_algos::WorkloadKind;
use graphbench_gen::rmat::{rmat_csr, RmatConfig};
use graphbench_gen::{DatasetKind, Scale};
use graphbench_graph::{disk, CsrGraph};
use graphbench_obs::prom;
use serde::Serialize;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Run the full reproduction matrix and dump machine-readable results:
/// every figure grid on stdout plus `repro_results.json` (all records).
/// Expect this to take a while at larger scales.
///
/// `--check` skips the matrix and runs the findings gate instead: the nine
/// paper-finding predicates (`graphbench::findings`) are evaluated over the
/// seed sweep, written to `findings_verdicts.json`, and compared against
/// the committed EXPERIMENTS.md table. A verdict flip writes
/// `findings_verdict.diff` and exits nonzero — the CI regression gate that
/// stops a perf PR from silently un-reproducing a paper finding.
pub fn all(ctx: &Ctx) -> Vec<RunRecord> {
    if ctx.cfg.check {
        return check(ctx);
    }
    const DATASETS: &[DatasetKind] = &[DatasetKind::Twitter, DatasetKind::Uk0705, DatasetKind::Wrn];
    let rows: [GridRow; 4] = [
        // Traversal workloads: 9-system line-up.
        (SystemId::traversal_lineup, &[WorkloadKind::KHop], DATASETS),
        (SystemId::traversal_lineup, &[WorkloadKind::Sssp], DATASETS),
        (SystemId::traversal_lineup, &[WorkloadKind::Wcc], DATASETS),
        // PageRank: 13-variant line-up.
        (SystemId::pagerank_lineup, &[WorkloadKind::PageRank], DATASETS),
    ];
    let mut runner = ctx.runner();
    let mut records = run_grid(&mut runner, &rows);
    // ClueWeb: only the 128-machine cluster can hold it (Table 7).
    for workload in WorkloadKind::ALL {
        for system in [SystemId::BlogelV, SystemId::Giraph, SystemId::Gelly, SystemId::Hadoop] {
            records.push(runner.run_multi(&ExperimentSpec {
                system,
                workload,
                dataset: DatasetKind::ClueWeb,
                machines: 128,
            }));
        }
    }
    for table in figure_grid(&records) {
        println!("{}", table.render());
    }
    // The resource-efficiency view (memory-seconds, bytes moved per
    // result) — most interesting under a multi-seed sweep, printed for
    // the Twitter WCC column either way.
    let eff = records
        .iter()
        .filter(|r| r.dataset() == "Twitter" && r.workload() == "wcc" && r.machines() == 16);
    println!("{}", efficiency_table("resource efficiency (Twitter WCC @16)", eff).render());
    write_output("results", "repro_results.json", to_json(&records));
    println!("wrote {} records to repro_results.json", records.len());
    records.into_iter().map(MultiRunRecord::into_primary).collect()
}

/// The findings gate.
fn check(ctx: &Ctx) -> Vec<RunRecord> {
    let mut sweep = FindingsSweep::new(ctx.runner());
    sweep.set_perturb(ctx.cfg.findings_perturb);
    let verdicts = sweep.evaluate_all();

    let mut table = Table::new("machine-checked findings", &["#", "section", "finding", "verdict"]);
    for v in &verdicts {
        table.row(vec![
            v.finding.to_string(),
            v.section.to_string(),
            v.name.to_string(),
            if v.holds { "HOLDS".into() } else { format!("FAILS ({})", v.detail) },
        ]);
    }
    println!("{}", table.render());

    let json = serde_json::to_string_pretty(&verdicts).expect("verdicts serialize");
    write_output("findings verdicts", "findings_verdicts.json", json);
    println!("wrote {} verdicts to findings_verdicts.json", verdicts.len());

    // The committed EXPERIMENTS.md: next to the working directory (repo
    // root, the usual `cargo run` case) or relative to this crate's
    // manifest (when run from elsewhere).
    let candidates = [
        PathBuf::from("EXPERIMENTS.md"),
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md"),
    ];
    let Some(md) = candidates.iter().find_map(|p| std::fs::read_to_string(p).ok()) else {
        fail("all --check: EXPERIMENTS.md not found; cannot compare verdicts");
    };
    let expected = findings::parse_expected(&md);
    if expected.len() != FINDINGS.len() {
        eprintln!(
            "all --check: EXPERIMENTS.md verdict table has {} of {} findings",
            expected.len(),
            FINDINGS.len()
        );
    }
    let diff = findings::verdict_diff(&verdicts, &expected);
    if !diff.is_empty() {
        write_output("verdict diff", "findings_verdict.diff", &diff);
        eprintln!("verdict drift against EXPERIMENTS.md (wrote findings_verdict.diff):");
        eprint!("{diff}");
        std::process::exit(1);
    }
    println!(
        "{}/{} findings match the committed EXPERIMENTS.md verdicts (seeds {:?})",
        verdicts.len(),
        FINDINGS.len(),
        ctx.cfg.seeds
    );
    vec![]
}

/// Critical-path report: where each engine's simulated runtime actually
/// goes, by (gating machine, label) — the "why" view behind Figure 10 and
/// the §6 discussion. Combine with `--trace <path>` to export the same
/// runs as Perfetto-loadable Chrome trace-event JSON.
///
/// `--golden` pins the run to the golden-record configuration (scale base
/// 300, seed 7, 5 PageRank iterations, Giraph PageRank on Twitter @16) so
/// CI can generate the trace artifact for exactly the snapshot the golden
/// suite locks.
pub fn trace_report(ctx: &Ctx) -> Vec<RunRecord> {
    let (mut runner, systems): (Runner, &[SystemId]) = if ctx.cfg.golden {
        // Must match tests/golden_records.rs::runner() exactly. Observers
        // are read-only, so attaching the plane cannot perturb the golden.
        let mut r = ctx.runner_at(PaperEnv::new(Scale { base: 300 }, 7));
        r.fixed_pr_iterations = 5;
        (r, &[SystemId::Giraph])
    } else {
        let lineup = &[
            SystemId::Giraph,
            SystemId::GraphLab { sync: true, auto: false, stop: GlStop::Iterations },
            SystemId::BlogelV,
            SystemId::Hadoop,
            SystemId::GraphX,
            SystemId::Vertica,
        ];
        (ctx.runner(), lineup)
    };
    let mut records = Vec::new();
    for &system in systems {
        let rec = runner.run(&ExperimentSpec {
            system,
            workload: WorkloadKind::PageRank,
            dataset: DatasetKind::Twitter,
            machines: 16,
        });
        let timeline = rec.journal.timeline();
        // The decomposition contract, stated where it is used: the bucket
        // replay *is* the simulated runtime, to the bit.
        assert_eq!(
            timeline.critical_path().total.to_bits(),
            rec.runtime.to_bits(),
            "{}: critical path does not decompose the runtime",
            rec.system
        );
        let title = format!(
            "{} {} on {} @{} — runtime {:.3}s in {} spans",
            rec.system,
            rec.workload,
            rec.dataset,
            rec.machines,
            rec.runtime,
            timeline.len()
        );
        println!("{}", critical_path_table(&title, &rec, 10).render());
        records.push(rec);
    }
    records
}

#[derive(Serialize)]
struct ScaleupReport {
    host_cores: usize,
    threads: usize,
    rmat_scale: u32,
    num_vertices: usize,
    num_edges: u64,
    /// Stage wallclock, seconds.
    gen_secs: f64,
    save_secs: f64,
    load_secs: f64,
    compute_secs: f64,
    /// Resident bytes of the in-memory CSR (actual layout).
    csr_bytes: u64,
    /// Offset width the compact layout chose (4 when `num_edges < 2³²`).
    offset_width_bytes: u64,
    /// Bytes a materialized edge list would have cost (the streaming
    /// generator never allocates this).
    edge_list_bytes_avoided: u64,
    /// On-disk dataset file size.
    file_bytes: u64,
    /// The dataset file already existed and was reused (save skipped).
    cache_hit: bool,
    /// Whether the reloaded graph is memory-mapped (vs buffered fallback).
    loaded_via_mmap: bool,
    /// Peak RSS of this process (VmHWM), bytes; 0 where unavailable.
    peak_rss_bytes: u64,
    /// Reloaded CSR equals the freshly generated one.
    cached_equals_fresh: bool,
}

/// Peak RSS from `/proc/self/status` (`VmHWM`), in bytes.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// One PageRank iteration (push-style, damping 0.15) over the CSR — enough
/// compute to stream every adjacency list once, like the CI smoke budget
/// wants, without multi-minute convergence runs at 10⁸ edges.
fn pagerank_superstep(g: &CsrGraph) -> f64 {
    let n = g.num_vertices();
    let damping = graphbench_algos::DAMPING;
    let mut next = vec![0.0f64; n];
    for v in 0..n as u32 {
        let outs = g.out_neighbors(v);
        if outs.is_empty() {
            continue;
        }
        let share = 1.0 / outs.len() as f64;
        for &t in outs {
            next[t as usize] += share;
        }
    }
    next.iter().map(|&r| damping + (1.0 - damping) * r).sum::<f64>() / n as f64
}

/// Scale-up benchmark: generate → persist → mmap-reload → compute on one
/// host, timing each stage with the host clock and reporting the memory
/// footprint at every step.
///
/// An R-MAT dataset (`GRAPHBENCH_SCALEUP_EDGES`, default 10⁷, up to 10⁸+)
/// streams straight into a CSR without ever materializing an edge list,
/// persists in the binary disk format, reloads via mmap, and runs one
/// PageRank iteration over the reloaded graph. The reloaded CSR must equal
/// the freshly generated one — the cached-vs-fresh half of the determinism
/// contract — and the report records how many bytes the streaming path
/// never allocated.
///
/// Output: a stage/byte breakdown to `BENCH_scaleup.json` (`--out <path>`
/// to change). The dataset file lands under `GRAPHBENCH_DATA_DIR` when set
/// (and is reused if already present — CI caches it), else a temp dir.
pub fn bench_scaleup(ctx: &Ctx) -> Vec<RunRecord> {
    let edges = ctx.cfg.scaleup_edges;
    // Average degree 16, like Graph500's edgefactor: scale = log2(n).
    let scale = (64 - (edges / 16).max(2).leading_zeros()).clamp(10, 30);
    let cfg =
        RmatConfig { scale, num_edges: edges, shuffle_ids: true, seed: 42, ..Default::default() };

    let t0 = Instant::now();
    let fresh = rmat_csr(&cfg);
    let gen_secs = t0.elapsed().as_secs_f64();
    println!(
        "gen      {gen_secs:8.3}s  {} vertices, {} edges, {} MB resident",
        fresh.num_vertices(),
        fresh.num_edges(),
        fresh.raw_bytes() >> 20
    );

    let key = format!("rmat-scale{scale}-m{edges}-s42");
    let path = graphbench_gen::cache::cache_path(&key).unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("graphbench-scaleup-{}", std::process::id()))
            .join(format!("{key}-v{}.gbcsr", disk::FORMAT_VERSION))
    });
    let cache_failed = |at: &Path, e: std::io::Error| -> ! {
        fail(&format!("cannot write dataset cache to {}: {e}", at.display()))
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| cache_failed(dir, e));
    }
    // A pre-existing cache file (e.g. CI's cached dataset directory) is
    // reused as-is; the equality check below still validates it against the
    // fresh generation, so a stale or corrupt file fails loudly rather than
    // poisoning the timings.
    let cache_hit = path.is_file();
    let save_secs = if cache_hit {
        println!("save     (skipped: reusing {})", path.display());
        0.0
    } else {
        let t0 = Instant::now();
        disk::save_csr(&fresh, &path).unwrap_or_else(|e| cache_failed(&path, e));
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "save     {secs:8.3}s  {} MB -> {}",
            std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) >> 20,
            path.display()
        );
        secs
    };
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let t0 = Instant::now();
    let loaded = disk::load_csr(&path)
        .unwrap_or_else(|e| fail(&format!("cannot load dataset cache {}: {e}", path.display())));
    let load_secs = t0.elapsed().as_secs_f64();
    println!("load     {load_secs:8.3}s  mmap {}", loaded.is_mapped());

    let cached_equals_fresh = loaded == fresh;
    assert!(cached_equals_fresh, "reloaded CSR differs from the freshly generated one");

    let t0 = Instant::now();
    let mean_rank = pagerank_superstep(&loaded);
    let compute_secs = t0.elapsed().as_secs_f64();
    println!("compute  {compute_secs:8.3}s  one PageRank superstep, mean rank {mean_rank:.6}");

    let report = ScaleupReport {
        host_cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        threads: graphbench_gen::stream::threads(),
        rmat_scale: scale,
        num_vertices: fresh.num_vertices(),
        num_edges: fresh.num_edges(),
        gen_secs,
        save_secs,
        load_secs,
        compute_secs,
        csr_bytes: fresh.raw_bytes(),
        offset_width_bytes: fresh.offset_width(),
        edge_list_bytes_avoided: fresh.num_edges()
            * std::mem::size_of::<graphbench_graph::Edge>() as u64,
        file_bytes,
        cache_hit,
        loaded_via_mmap: loaded.is_mapped(),
        peak_rss_bytes: peak_rss_bytes(),
        cached_equals_fresh,
    };
    let out = ctx.cfg.out.as_deref().unwrap_or("BENCH_scaleup.json");
    let json = serde_json::to_string_pretty(&report).expect("the report serializes");
    write_output("scaleup report", out, json);
    let total = gen_secs + save_secs + load_secs + compute_secs;
    println!(
        "\ntotal {total:.3}s (gen {:.0}% / save {:.0}% / load {:.0}% / compute {:.0}%), peak RSS {} MB -> {out}",
        100.0 * gen_secs / total,
        100.0 * save_secs / total,
        100.0 * load_secs / total,
        100.0 * compute_secs / total,
        report.peak_rss_bytes >> 20
    );
    vec![]
}

/// A saved `repro_results.json` (the `all` dump: a JSON array of run
/// records; seed sweeps are not replayable).
fn saved_records(path: &str) -> Vec<RunRecord> {
    let data =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    serde_json::from_str(&data)
        .unwrap_or_else(|e| fail(&format!("{path} is not a JSON array of run records: {e}")))
}

/// The paper's log-visualization tool: read a `repro_results.json` and
/// render figure-style summaries without re-running anything.
pub fn render(ctx: &Ctx) -> Vec<RunRecord> {
    let path = ctx.cfg.input.as_deref().unwrap_or("repro_results.json");
    let records = saved_records(path);
    println!("loaded {} records from {path}\n", records.len());

    for table in figure_grid(&records) {
        println!("{}", table.render());
    }

    // Failure census: the paper's empty-cell legend.
    let mut census: std::collections::BTreeMap<&str, usize> = Default::default();
    for r in &records {
        let code = match r.metrics.status.code() {
            code @ ("OK" | "OOM" | "TO" | "MPI") => code,
            _ => "SHFL",
        };
        *census.entry(code).or_default() += 1;
    }
    let mut t = Table::new("outcome census", &["status", "runs"]);
    for (k, v) in census {
        t.row(vec![k.to_string(), v.to_string()]);
    }
    println!("{}", t.render());

    // The most memory-skewed run gets its trace rendered (Figure 10 style).
    if let Some(worst) = records.iter().max_by_key(|r| r.trace.max_skew()) {
        if !worst.trace.is_empty() {
            println!(
                "most memory-skewed run: {} {} on {} @{} machines",
                worst.system, worst.workload, worst.dataset, worst.machines
            );
            println!("{}", viz::memory_timeseries(&worst.trace, 70, 12));
        }
    }
    vec![]
}

/// Render metrics as Prometheus text exposition (format 0.0.4) — offline
/// from a saved `repro_results.json`, or by scraping a live `--serve`
/// endpoint. Used by CI's `obs` job and for feeding saved runs into any
/// Prometheus-compatible toolchain.
///
/// ```sh
/// repro prom_dump <repro_results.json> [--check] [--out <path>]
/// repro prom_dump --scrape <host:port> [--retry N] [--check] [--out <path>]
/// ```
///
/// `--check` runs the in-repo exposition conformance checker over the
/// output and exits nonzero on any violation (printing all of them).
/// `--scrape` speaks plain HTTP/1.1 over `std::net::TcpStream` — no curl
/// required — and `--retry N` retries the connection up to N times at one
/// second apart, for scripts that race a freshly started run.
pub fn prom_dump(ctx: &Ctx) -> Vec<RunRecord> {
    let cfg = ctx.cfg;
    let text = match (&cfg.scrape, &cfg.input) {
        (Some(addr), None) => scrape_metrics(addr, cfg.retry),
        (None, Some(path)) => {
            // Every saved record, with per-run labels.
            let records = saved_records(path);
            let series: Vec<prom::Series<'_>> = records
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let labels = [
                        ("run", format!("{i:04}")),
                        ("system", r.system.clone()),
                        ("workload", r.workload.clone()),
                        ("dataset", r.dataset.clone()),
                        ("machines", r.machines.to_string()),
                    ];
                    (labels.map(|(k, v)| (k.to_string(), v)).to_vec(), &r.registry)
                })
                .collect();
            prom::render_many(&series)
        }
        _ => fail("prom_dump takes <repro_results.json> or --scrape <host:port>, not both"),
    };
    if cfg.check {
        if let Err(violations) = prom::check_exposition(&text) {
            for v in &violations {
                eprintln!("prom_dump: conformance: {v}");
            }
            fail(&format!("prom_dump: {} conformance violation(s)", violations.len()));
        }
        eprintln!("prom_dump: exposition conforms to text format 0.0.4");
    }
    match &cfg.out {
        Some(path) => {
            write_output("exposition", path, &text);
            println!("wrote {} bytes of exposition to {path}", text.len());
        }
        None => print!("{text}"),
    }
    vec![]
}

/// GET /metrics from a live observability server over plain std TCP.
fn scrape_metrics(addr: &str, retry: u32) -> String {
    let timeout = Duration::from_secs(10);
    let mut last_err = String::new();
    for attempt in 0..=retry {
        if attempt > 0 {
            std::thread::sleep(Duration::from_secs(1));
        }
        match graphbench_obs::http_get(addr, "/metrics", timeout) {
            Ok((200, body)) => return body,
            Ok((status, _)) => last_err = format!("HTTP {status} from {addr}/metrics"),
            Err(e) => last_err = format!("{addr}: {e}"),
        }
    }
    fail(&format!("scrape failed after {} attempt(s): {last_err}", retry + 1));
}

/// Validate that an exported trace file is well-formed Chrome trace-event
/// JSON — the format <https://ui.perfetto.dev> and `chrome://tracing`
/// consume. Used by CI on the golden trace artifact.
///
/// Checks: the file parses as JSON with a `traceEvents` array; every event
/// has a string `ph`, numeric `pid`/`tid`, and a string `name`; every `"X"`
/// complete event has a numeric `ts` and a non-negative `dur`. With
/// `--machines N`, additionally requires exactly one named track per
/// simulated machine (`machine 0` .. `machine N-1`). Any violation prints
/// what failed and exits nonzero.
pub fn trace_schema_check(ctx: &Ctx) -> Vec<RunRecord> {
    let Some(path) = ctx.cfg.input.as_deref() else {
        fail("trace_schema_check takes <trace.json> [--machines N]");
    };
    let data =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let v: Value = serde_json::from_str(&data)
        .unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")));
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(&format!("{path} has no traceEvents array")));
    let mut complete = 0usize;
    let mut tracks: Vec<String> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .unwrap_or_else(|| fail(&format!("event {i} has no string ph: {e}")));
        if e.get("pid").and_then(Value::as_u64).is_none()
            || e.get("tid").and_then(Value::as_u64).is_none()
        {
            fail(&format!("event {i} lacks numeric pid/tid: {e}"));
        }
        if e.get("name").and_then(Value::as_str).is_none() {
            fail(&format!("event {i} has no string name: {e}"));
        }
        match ph {
            "X" => {
                if e.get("ts").and_then(Value::as_f64).is_none() {
                    fail(&format!("complete event {i} has no numeric ts: {e}"));
                }
                if !e.get("dur").and_then(Value::as_f64).is_some_and(|d| d >= 0.0) {
                    fail(&format!("complete event {i} has no non-negative dur: {e}"));
                }
                complete += 1;
            }
            "M" => {
                if e["name"] == "thread_name" {
                    if let Some(n) = e["args"]["name"].as_str() {
                        tracks.push(n.to_string());
                    }
                }
            }
            other => fail(&format!("event {i} has unexpected ph {other:?}: {e}")),
        }
    }
    for m in 0..ctx.cfg.machines.unwrap_or(0) {
        let want = format!("machine {m}");
        let found = tracks.iter().filter(|t| **t == want).count();
        if found != 1 {
            fail(&format!("expected one {want:?} track, found {found}"));
        }
    }
    println!(
        "{path}: OK ({} events, {complete} complete spans, {} named tracks)",
        events.len(),
        tracks.len()
    );
    vec![]
}
