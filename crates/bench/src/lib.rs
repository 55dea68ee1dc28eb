//! Reproduction harness: one binary per table and figure of the paper.
//!
//! Every binary regenerates the rows/series its table or figure reports,
//! printing measured values next to the paper's where the paper gives
//! numbers. Absolute seconds come from the simulated cluster (see
//! `graphbench-sim`); the claims under reproduction are the *relative*
//! ones — who wins, by roughly what factor, and where systems fail.
//!
//! | target | reproduces |
//! |---|---|
//! | `table3` | dataset characteristics |
//! | `table4` | GraphLab replication factors (random vs auto) |
//! | `table5` | GraphX partition counts |
//! | `table6` | per-iteration times, Giraph & GraphX on WRN |
//! | `table7` | Blogel-V phase times on ClueWeb @128 |
//! | `table8` | Giraph total memory vs cluster size |
//! | `table9` | COST: single thread vs best parallel |
//! | `fig01` | GraphLab compute-cores sweep, sync vs async |
//! | `fig02` | GraphX partition-count sweep |
//! | `fig03` | Blogel-B without the HDFS round-trip |
//! | `fig04` | approximate vs exact PageRank update fractions |
//! | `fig05` | Twitter: all workloads × cluster sizes |
//! | `fig06`-`fig09` | PageRank / K-hop / SSSP / WCC grids |
//! | `fig10` | GraphLab memory time series, sync vs async |
//! | `fig11` | GraphX partition imbalance |
//! | `fig12` | Vertica vs graph systems |
//! | `fig13` | resource utilization breakdowns |
//! | `repro_all` | everything above, plus a JSON dump |
//! | `render` | replay a saved `repro_results.json` without re-running |
//! | `trace_report` | per-engine critical-path decomposition (top-k gating machines/labels) |
//! | `trace_schema_check` | validate an exported Chrome trace-event JSON file |
//!
//! Ablations beyond the paper (questions it raises but could not run):
//!
//! | target | question |
//! |---|---|
//! | `ablation_partitioning` | Blogel's dataset-specific partitioners vs GVD (§2.3) |
//! | `ablation_language` | C++ vs Java with identical execution structure (§1/§7) |
//! | `ablation_checkpointing` | GraphX lineage vs checkpoints vs hash-to-min (§5.6) |
//! | `ablation_fault_tolerance` | Table 1's FT mechanisms, priced under a real fault |
//! | `ablation_weak_scaling` | the LDBC-style weak experiment (§5.12) |
//! | `ablation_khop_sweep` | why K = 3 (§3.3) |
//!
//! Scale is controlled with `GRAPHBENCH_BASE` (Twitter-like vertex count;
//! default 1500) and `GRAPHBENCH_SEED` (default 42). `GRAPHBENCH_SEEDS`
//! (comma-separated, e.g. `42,43,44`) sweeps the matrix bins over several
//! generator seeds and reports `mean ± stddev [CI]` cells; `repro_all
//! --check` evaluates the nine paper-finding predicates over the sweep.

use graphbench::paper::PaperEnv;
use graphbench::report::figure_grid;
use graphbench::runner::{RunRecord, Runner};
use graphbench::stats::MultiRunRecord;
use graphbench::system::SystemId;
use graphbench_algos::WorkloadKind;
use graphbench_gen::{DatasetKind, Scale};
use graphbench_obs::{FlightRecorder, JsonlSink, ObserverHub, TtySink};
use std::sync::{Arc, OnceLock};

/// Environment-configured scale (`GRAPHBENCH_BASE`, default 1500 — the
/// calibrated test scale; raise for heavier runs).
pub fn scale() -> Scale {
    let base = std::env::var("GRAPHBENCH_BASE").ok().and_then(|v| v.parse().ok()).unwrap_or(1_500);
    Scale { base }
}

/// Environment-configured seed (`GRAPHBENCH_SEED`, default 42).
pub fn seed() -> u64 {
    std::env::var("GRAPHBENCH_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42)
}

static WARN_BAD_SEEDS: std::sync::Once = std::sync::Once::new();

/// The configured seed sweep: `GRAPHBENCH_SEEDS` as a comma-separated
/// list (duplicates removed, order kept), defaulting to the single
/// [`seed`]. Malformed entries are warned about once on stderr (matching
/// the `GRAPHBENCH_THREADS`/`GRAPHBENCH_CHUNK` handling in the engines
/// crate) and skipped; an entirely unparseable value falls back to the
/// single-seed default.
pub fn seeds() -> Vec<u64> {
    let Ok(raw) = std::env::var("GRAPHBENCH_SEEDS") else { return vec![seed()] };
    let mut out: Vec<u64> = Vec::new();
    let mut bad: Vec<String> = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match part.parse::<u64>() {
            Ok(s) => {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
            Err(_) => bad.push(format!("{part:?}")),
        }
    }
    if !bad.is_empty() {
        WARN_BAD_SEEDS.call_once(|| {
            eprintln!(
                "graphbench: GRAPHBENCH_SEEDS={raw:?} has non-integer entries ({}); \
                 ignoring them",
                bad.join(", ")
            );
        });
    }
    if out.is_empty() {
        vec![seed()]
    } else {
        out
    }
}

/// A runner at the configured scale. Its primary environment uses the
/// first sweep seed and its `seeds` field carries the whole sweep, so
/// `run_multi`/`run_matrix_multi` honor `GRAPHBENCH_SEEDS` while plain
/// `run` keeps the legacy single-seed behaviour.
pub fn runner() -> Runner {
    let seeds = seeds();
    let mut r = Runner::new(PaperEnv::new(scale(), seeds[0]));
    r.seeds = seeds;
    r.obs = observability();
    r
}

/// Standard banner: what this target reproduces and at what scale. Also
/// the process-wide switch-on point for host-wallclock tracing: every bin
/// prints its banner before running anything, so enabling here guarantees
/// the executor records host spans for all of the bin's runs when a
/// `--trace` destination is configured.
pub fn banner(target: &str, what: &str) {
    if trace_path().is_some() {
        graphbench_sim::hosttrace::enable();
    }
    // Bring the observability plane up before any run starts, so a scraper
    // attached from the first printed line onward never misses a superstep.
    observability();
    println!("=== {target}: {what} ===");
    let sweep = seeds();
    if sweep.len() > 1 {
        let list = sweep.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        println!(
            "scale base {} (set GRAPHBENCH_BASE to change), seed sweep {} \
             (cells show mean ±stddev [±95% CI])\n",
            scale().base,
            list
        );
    } else {
        println!(
            "scale base {} (set GRAPHBENCH_BASE to change), seed {}\n",
            scale().base,
            sweep[0]
        );
    }
}

/// Paper-vs-measured footnote. Also the last thing every bin prints, which
/// makes it the natural place to honor `GRAPHBENCH_SERVE_LINGER`.
pub fn paper_note(note: &str) {
    println!("\npaper: {note}");
    serve_linger();
}

/// Hold the process open after its final output when `--serve` is active
/// and `GRAPHBENCH_SERVE_LINGER=<seconds>` is set, so scrapers (CI jobs,
/// the serve tests) get a deterministic window in which every run has
/// completed but `/metrics` is still up. A no-op otherwise.
fn serve_linger() {
    if serve_addr().is_none() {
        return;
    }
    let Some(secs) = std::env::var("GRAPHBENCH_SERVE_LINGER")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&s| s > 0)
    else {
        return;
    };
    println!("observability plane lingering {secs}s for scrapers");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    std::thread::sleep(std::time::Duration::from_secs(secs));
}

/// The value of `<flag> <value>` (or `<flag>=<value>`) on the command line,
/// else of the environment variable `env`. `what` names the value in the
/// panic for a flag given last with nothing after it.
fn flag_or_env(flag: &str, env: &str, what: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return Some(args.next().unwrap_or_else(|| panic!("{flag} takes {what}")));
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|rest| rest.strip_prefix('=')) {
            return Some(v.to_string());
        }
    }
    std::env::var(env).ok()
}

/// The journal export destination, if any: `--journal <path>`, else
/// `GRAPHBENCH_JOURNAL`.
pub fn journal_path() -> Option<String> {
    flag_or_env("--journal", "GRAPHBENCH_JOURNAL", "a path")
}

/// The Perfetto/Chrome trace export destination, if any: `--trace <path>`,
/// else `GRAPHBENCH_TRACE`.
pub fn trace_path() -> Option<String> {
    flag_or_env("--trace", "GRAPHBENCH_TRACE", "a path")
}

/// An export the user explicitly asked for could not be written. Silent
/// loss (or a panic with a backtrace) would be worse than stopping: say
/// exactly what failed and exit nonzero so scripts notice.
pub fn fail_export(what: &str, path: &str, err: &std::io::Error) -> ! {
    eprintln!("graphbench: cannot write {what} to {path}: {err}");
    std::process::exit(1);
}

/// The metrics-server bind address, if serving was requested: `--serve
/// <addr>`, else `GRAPHBENCH_SERVE` (e.g. `127.0.0.1:9184`, or port `0`
/// for an ephemeral port printed at startup).
pub fn serve_addr() -> Option<String> {
    flag_or_env("--serve", "GRAPHBENCH_SERVE", "an address")
}

/// The JSONL progress-log destination, if any: `--progress-log <path>`,
/// else `GRAPHBENCH_PROGRESS_LOG`.
pub fn progress_log_path() -> Option<String> {
    flag_or_env("--progress-log", "GRAPHBENCH_PROGRESS_LOG", "a path")
}

/// Whether the live TTY progress renderer was requested (`--progress`, or
/// `GRAPHBENCH_PROGRESS=1`).
pub fn progress_enabled() -> bool {
    std::env::args().any(|a| a == "--progress")
        || std::env::var("GRAPHBENCH_PROGRESS").is_ok_and(|v| v == "1")
}

/// The process-wide observability plane, built once on first call (the
/// [`banner`] every bin prints first) from [`serve_addr`],
/// [`progress_log_path`], and [`progress_enabled`]. Returns `None` when
/// nothing was requested — the runner then carries no observers and the
/// per-barrier hook is never armed.
///
/// Failures follow the explicit-export convention ([`fail_export`]): an
/// unbindable or malformed `--serve`/`GRAPHBENCH_SERVE` address and an
/// unwritable progress log each print exactly what failed and exit 1 —
/// silently dropping observability the user asked for would be worse.
pub fn observability() -> Option<Arc<ObserverHub>> {
    static HUB: OnceLock<Option<Arc<ObserverHub>>> = OnceLock::new();
    HUB.get_or_init(|| {
        let serve = serve_addr();
        let log = progress_log_path();
        let tty = progress_enabled();
        if serve.is_none() && log.is_none() && !tty {
            return None;
        }
        let hub = Arc::new(ObserverHub::new());
        let recorder = Arc::new(FlightRecorder::default());
        hub.add_sink(recorder.clone());
        if let Some(addr) = serve {
            match graphbench_obs::serve(&addr, recorder) {
                Ok(server) => {
                    println!("serving observability plane at http://{}", server.local_addr());
                    // Flush past any pipe buffering: scrape scripts parse
                    // this line from a live child process.
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                }
                Err(e) => {
                    eprintln!("graphbench: cannot bind {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = log {
            match JsonlSink::create(std::path::Path::new(&path)) {
                Ok(sink) => hub.add_sink(Arc::new(sink)),
                Err(e) => fail_export("progress log", &path, &e),
            }
        }
        if tty {
            hub.add_sink(Arc::new(TtySink));
        }
        Some(hub)
    })
    .clone()
}

/// Write every record's structured journal to one JSONL file when a
/// destination is configured (see [`journal_path`]); a no-op otherwise.
/// Each run contributes a `{"run": ...}` header line identifying it,
/// followed by its events, one JSON object per line. An unwritable path
/// prints a clear message and exits nonzero.
pub fn export_journals(records: &[RunRecord]) {
    let Some(path) = journal_path() else { return };
    let mut out = String::new();
    for r in records {
        let header = serde_json::json!({
            "run": {
                "system": r.system,
                "workload": r.workload,
                "dataset": r.dataset,
                "machines": r.machines,
                "status": r.metrics.status.code(),
                "events": r.journal.len(),
            }
        });
        out.push_str(&header.to_string());
        out.push('\n');
        out.push_str(&r.journal.to_jsonl());
    }
    if let Err(e) = std::fs::write(&path, out) {
        fail_export("journal", &path, &e);
    }
    println!("wrote {} journals to {path}", records.len());
}

/// Write each record's Chrome trace-event JSON (simulated machine tracks +
/// host-thread wallclock tracks) when a destination is configured (see
/// [`trace_path`]); a no-op otherwise. A single record writes exactly the
/// configured path; multiple records derive one file each by inserting
/// `<index>.<system>.<workload>` before the extension. An unwritable path
/// prints a clear message and exits nonzero. Load the files at
/// <https://ui.perfetto.dev>.
pub fn export_traces(records: &[RunRecord]) {
    let Some(path) = trace_path() else { return };
    for (i, r) in records.iter().enumerate() {
        let file = if records.len() == 1 { path.clone() } else { derive_trace_path(&path, i, r) };
        let timeline = r.journal.timeline();
        let json = timeline.chrome_trace_with_host(&r.host_spans);
        if let Err(e) = std::fs::write(&file, json) {
            fail_export("trace", &file, &e);
        }
        println!(
            "wrote trace ({} spans, {} machines, {} host spans) to {file}",
            timeline.len(),
            timeline.machines(),
            r.host_spans.len()
        );
    }
}

/// The primary (first-seed) record of each sweep cell — what the journal
/// and trace exporters, phase tables, and other single-record consumers
/// operate on. With one seed these are exactly the legacy records.
pub fn primary_records(records: &[MultiRunRecord]) -> Vec<RunRecord> {
    records.iter().map(|m| m.primary().clone()).collect()
}

fn derive_trace_path(path: &str, index: usize, r: &RunRecord) -> String {
    let tag = format!("{:03}.{}.{}", index, r.system, r.workload);
    match path.rsplit_once('.') {
        // Only treat the suffix as an extension when it looks like one
        // (no path separator after the dot).
        Some((stem, ext)) if !ext.contains('/') => format!("{stem}.{tag}.{ext}"),
        _ => format!("{path}.{tag}"),
    }
}

/// Figures 7–9: one traversal workload across WRN / UK0705 / Twitter and
/// all cluster sizes, for the traversal line-up.
pub fn traversal_grid(target: &str, workload: WorkloadKind) {
    banner(target, &format!("{workload:?} grid (3 datasets x 4 cluster sizes x 9 systems)"));
    let mut runner = runner();
    let records = runner.run_matrix_multi(
        &SystemId::traversal_lineup(),
        &[workload],
        &[DatasetKind::Wrn, DatasetKind::Uk0705, DatasetKind::Twitter],
        &[16, 32, 64, 128],
    );
    for table in figure_grid(&records) {
        println!("{}", table.render());
    }
    let primaries = primary_records(&records);
    export_journals(&primaries);
    export_traces(&primaries);
    paper_note(
        "the WRN row is the story: diameter-bound workloads break most systems (OOM/TO)          while Blogel survives; on the power-law graphs everything finishes and the          ordering is BB/BV, then GL/G, then FG, then S, then HD/HL.",
    );
}
