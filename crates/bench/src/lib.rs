//! Reproduction harness: `repro <target>` regenerates one table, figure or
//! ablation of the paper, printing measured values next to the paper's
//! where the paper gives numbers. Absolute seconds come from the simulated
//! cluster (see `graphbench-sim`); the claims under reproduction are the
//! *relative* ones — who wins, by roughly what factor, and where systems
//! fail.
//!
//! [`TARGETS`] and [`TOOLS`] are the index (`repro list` prints them);
//! [`config::Config`] is everything a run can be told. The driver in
//! [`main`] owns what every target used to repeat: banner, host tracing,
//! the observability plane, journal and trace export of whatever records
//! the target returns, the paper note and the serve linger.

pub mod config;

mod ablations;
mod figures;
mod tables;
mod tools;

use config::Config;
use graphbench::paper::PaperEnv;
use graphbench::runner::{RunRecord, Runner};
use graphbench_obs::{FlightRecorder, JsonlSink, ObserverHub, TtySink};
use std::io::Write as _;
use std::sync::Arc;

/// One thing `repro` can do.
pub struct Target {
    pub name: &'static str,
    /// What it reproduces: the banner line and the `repro list` entry.
    pub what: &'static str,
    /// Runs it, printing its tables; the returned records are what
    /// `--journal` and `--trace` export.
    pub run: fn(&Ctx) -> Vec<RunRecord>,
    /// The paper-vs-measured footnote; empty for none.
    pub note: &'static str,
}

/// What a target runs with: the parsed configuration and the one
/// observability hub built from it.
pub struct Ctx<'a> {
    pub cfg: &'a Config,
    obs: Option<Arc<ObserverHub>>,
}

impl Ctx<'_> {
    /// The primary generator seed.
    pub fn seed(&self) -> u64 {
        self.cfg.seeds[0]
    }

    /// A runner at the configured scale, seed sweep and fault plan, with
    /// the observability hub attached.
    pub fn runner(&self) -> Runner {
        self.runner_at(PaperEnv::new(self.cfg.scale, self.seed()))
    }

    /// [`Ctx::runner`] over an environment of the target's choosing.
    pub fn runner_at(&self, env: PaperEnv) -> Runner {
        let mut r = Runner::new(env);
        r.seeds = self.cfg.seeds.clone();
        r.faults = self.cfg.faults.clone();
        r.obs = self.obs.clone();
        r
    }
}

/// The experiments: each prints a banner, runs at the configured scale and
/// seeds, and ends with its paper note.
pub const TARGETS: &[Target] = &[
    Target {
        name: "table3",
        what: "dataset characteristics",
        run: tables::table3,
        note: "the reproduction preserves the paper's relative characteristics: the road \
               network's diameter is orders of magnitude above the power-law graphs', its max \
               degree is bounded; web/social graphs are heavy-tailed with tiny diameters. \
               Absolute counts are scaled down by design.",
    },
    Target {
        name: "table4",
        what: "GraphLab replication factors",
        run: tables::table4,
        note: "shapes to check: random >= auto everywhere; WRN's factors are small and flat \
               (low constant degree); the power-law graphs' factors grow with machines; auto \
               resolves to Grid at 16/64 and falls back to Oblivious at 32/128 (§4.4.1).",
    },
    Target {
        name: "table5",
        what: "GraphX partition counts",
        run: tables::table5,
        note: "the counts are configuration, reproduced verbatim; fig02 sweeps them to show \
               why the defaults are not optimal (§4.4.3).",
    },
    Target {
        name: "table6",
        what: "per-iteration times on WRN (Giraph, GraphX)",
        run: tables::table6,
        note: "for SSSP and WCC to finish WRN's ~48K iterations inside 24 hours, an iteration \
               must cost under 2.4s / 1.8s; both systems' measured per-iteration costs explain \
               the TO/OOM column of Figures 8-9.",
    },
    Target {
        name: "table7",
        what: "Blogel-V on ClueWeb @128",
        run: tables::table7,
        note: "Blogel-V is the only system that completes any ClueWeb workload; traversals \
               spend almost everything on load, K-hop's execute is negligible.",
    },
    Target {
        name: "table8",
        what: "Giraph total memory vs cluster size",
        run: tables::table8,
        note: "the unit differs (the paper reports GB; we report budget-multiples at reduced \
               scale) but the shape is the point: totals grow with cluster size because every \
               JVM carries a fixed footprint, and the vertex-heavy WRN costs more than \
               Twitter despite having half the edges.",
    },
    Target {
        name: "table9",
        what: "COST: single thread vs best parallel @16",
        run: tables::table9,
        note: "shape: PageRank parallelizes (COST ~2-3); reachability on the power-law graphs \
               is marginal (COST 0.5-1-ish in the paper's direction); on the road network the \
               single thread's better algorithms beat the cluster outright (COST << 1).",
    },
    Target {
        name: "fig01",
        what: "GraphLab compute-cores sweep (PR, 30 iters, Twitter@16)",
        run: figures::fig01,
        note: "the paper measured ~40% improvement for synchronous computation with all 4 \
               cores; asynchronous gains little or regresses because vertices compute and \
               communicate simultaneously and extra threads just context-switch.",
    },
    Target {
        name: "fig02",
        what: "GraphX partition-count sweep (PageRank)",
        run: figures::fig02,
        note: "the defaults (440 for Twitter, 1200 for UK) are not optimal everywhere: too \
               many partitions multiply task overhead and replication, too few leave cores \
               idle; the paper picks #blocks capped at ~2x the core count (§4.4.3, Table 5).",
    },
    Target {
        name: "fig03",
        what: "modified Blogel-B (no HDFS round-trip), WCC @16",
        run: figures::fig03,
        note: "removing the write-to-HDFS + read-back between GVD partitioning and execution \
               reduced end-to-end response ~50% in the paper.",
    },
    Target {
        name: "fig04",
        what: "approximate vs exact PageRank update fractions",
        run: figures::fig04,
        note: "most vertices converge within the first few iterations, so approximate \
               PageRank does a shrinking fraction of the exact version's updates — the only \
               implementation that ever beat Blogel's exact one (§5.2).",
    },
    Target {
        name: "fig05",
        what: "Twitter: all workloads x cluster sizes",
        run: figures::fig05,
        note: "shapes: Blogel-B has the shortest execution for reachability workloads, \
               Blogel-V the best end-to-end; Hadoop/HaLoop are 1-2 orders slower; HaLoop \
               hits SHFL at 64/128 on iterative workloads; GraphX trails the natives.",
    },
    Target {
        name: "fig06",
        what: "PageRank grid (3 datasets x 4 cluster sizes x 13 systems)",
        run: figures::fig06,
        note: "expected failures: GL tolerance variants OOM on UK@16 (random) and WRN@16 \
               (both); HaLoop SHFL at 64/128; the rest complete, with BV leading end-to-end.",
    },
    Target {
        name: "fig07",
        what: "KHop grid (3 datasets x 4 cluster sizes x 9 systems)",
        run: figures::fig07,
        note: figures::TRAVERSAL_NOTE,
    },
    Target {
        name: "fig08",
        what: "Sssp grid (3 datasets x 4 cluster sizes x 9 systems)",
        run: figures::fig08,
        note: figures::TRAVERSAL_NOTE,
    },
    Target {
        name: "fig09",
        what: "Wcc grid (3 datasets x 4 cluster sizes x 9 systems)",
        run: figures::fig09,
        note: figures::TRAVERSAL_NOTE,
    },
    Target {
        name: "fig10",
        what: "GraphLab memory traces, sync vs async (WRN PR @128)",
        run: figures::fig10,
        note: "in the paper's asynchronous run, unreleased allocations from distributed \
               locking made several machines balloon away from the rest until the \
               computation failed; the synchronous run stayed flat and finished.",
    },
    Target {
        name: "fig11",
        what: "GraphX partition imbalance @128 (1200 partitions)",
        run: figures::fig11,
        note: "the paper observed one machine holding 54 of 1200 partitions against a 9.4 \
               mean; with synchronous supersteps the hoarder becomes the straggler everyone \
               waits for (§5.6).",
    },
    Target {
        name: "fig12",
        what: "Vertica vs graph systems (UK @32)",
        run: figures::fig12,
        note: "unlike the 4-machine study the paper refutes, Vertica is not competitive at \
               cluster scale: per-iteration temp-table churn and join shuffles grow with the \
               machine count (§5.11).",
    },
    Target {
        name: "fig13",
        what: "resource utilization: Vertica vs graph systems (UK PR @64)",
        run: figures::fig13,
        note: "Vertica's footprint is the smallest, but its I/O-wait and network dominate and \
               grow with the cluster; the in-memory graph systems spend their time in user \
               compute instead (§5.11).",
    },
    Target { name: "all", what: "full experiment matrix", run: tools::all, note: "" },
    Target {
        name: "trace_report",
        what: "critical-path decomposition per engine",
        run: tools::trace_report,
        note: "the paper could only *infer* which machine gated each barrier (§6); the \
               journal records it per charge, and the per-label skew column prices the \
               imbalance each engine's partitioning leaves behind.",
    },
    Target {
        name: "ablation_partitioning",
        what: "Blogel-B: GVD vs dataset-specific partitioners (WCC @16)",
        run: ablations::partitioning,
        note: "GVD fails WRN with the MPI aggregation overflow; the 2-D partitioner needs no \
               sampling aggregation and completes. On the web graph, host-prefix blocks skip \
               the sampling rounds entirely — the load-time difference is the partitioning \
               cost the paper's general-purpose configuration pays.",
    },
    Target {
        name: "ablation_language",
        what: "Giraph with JVM vs hypothetical C++ constants (Twitter PageRank)",
        run: ablations::language,
        note: "the gap between G(JVM) and G(C++) is the language share; the remaining gap \
               between G(C++) and BV is the Hadoop platform share (job negotiation, HDFS \
               coupling). The paper conjectured language is not the main factor — the \
               decomposition quantifies how much of Giraph's deficit each part explains.",
    },
    Target {
        name: "ablation_checkpointing",
        what: "GraphX WCC on WRN @32: lineage strategies",
        run: ablations::checkpointing,
        note: "§5.6's full story: lineage kills the plain run; checkpointing survives by \
               paying I/O per checkpoint (the paper saw timeouts at full scale); the \
               hash-to-min algorithm attacks the iteration count itself and was \
               'competitive with hash-min in Blogel'.",
    },
    Target {
        name: "ablation_fault_tolerance",
        what: "crash / straggler / transient faults mid-PageRank: cost by FT mechanism",
        run: ablations::fault_tolerance,
        note: "Table 1 claims without measurements, measured: checkpointing turns a \
               restart-the-world failure into a bounded rollback; MapReduce's re-execution \
               granularity loses almost nothing; lineage without checkpoints replays \
               everything (wide shuffle dependencies); Vertica restarts the statement. \
               Stragglers cost every system about the slowdown surplus (BSP barriers wait \
               for the slowest worker), and transients cost only their retry backoff.",
    },
    Target {
        name: "ablation_elastic",
        what: "live scale-in / scale-out mid-PageRank: migration cost and bit-identical answers",
        run: ablations::elastic,
        note: "The paper's clusters are static; elasticity measured: scale-in costs one \
               HDFS round-trip for the departing fragments plus the rebuild, then every \
               barrier runs narrower but each survivor computes more; the trough pays \
               migration twice and returns to the original placement deterministically; \
               scale-out past the fragment count moves zero bytes and buys zero compute \
               — placement granularity is the partition, exactly as in Giraph's \
               partitions-per-worker and Spark's RDD partitions.",
    },
    Target {
        name: "ablation_weak_scaling",
        what: "weak scaling: Twitter-like data grows with the cluster (PageRank, 20 iters)",
        run: ablations::weak_scaling,
        note: "no system weak-scales flat: per-machine compute stays constant, but \
               sender-side combining dilutes as machines multiply, so each machine's \
               received message volume grows with the cluster (the all-to-all floor). \
               Giraph adds its per-machine start-up negotiation on top. This is the \
               experiment LDBC runs and the paper's fixed real datasets could not (§5.12).",
    },
    Target {
        name: "ablation_khop_sweep",
        what: "K-hop for K = 1..6 (Twitter & WRN @16)",
        run: ablations::khop_sweep,
        note: "on the power-law graph a couple of hops already reach most vertices (the \
               friends-of-friends explosion), so K-hop cost saturates early; on the road \
               network coverage grows slowly and the query stays cheap at any small K — \
               the contrast behind fixing K = 3.",
    },
    Target {
        name: "bench_scaleup",
        what: "streaming R-MAT gen/save/load/compute wallclock",
        run: tools::bench_scaleup,
        note: "",
    },
];

/// File tools: no banner, no scale or seed, nothing simulated.
pub const TOOLS: &[Target] = &[
    Target {
        name: "render",
        what: "replay a saved repro_results.json as figure grids, without re-running",
        run: tools::render,
        note: "",
    },
    Target {
        name: "prom_dump",
        what: "Prometheus exposition of a saved repro_results.json or a live --scrape",
        run: tools::prom_dump,
        note: "",
    },
    Target {
        name: "trace_schema_check",
        what: "validate an exported Chrome trace-event JSON file",
        run: tools::trace_schema_check,
        note: "",
    },
];

/// The one failure path: say what went wrong and exit 1, so scripts notice
/// and no backtrace buries the message.
pub fn fail(msg: &str) -> ! {
    eprintln!("graphbench: {msg}");
    std::process::exit(1);
}

/// Write an output file the user asked for (or a target always produces).
/// Silent loss would be worse than stopping.
pub fn write_output(what: &str, path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(&format!("cannot write {what} to {path}: {e}"));
    }
}

/// `repro`: parse the configuration, find the target, drive it.
pub fn main() {
    let (name, cfg) = Config::from_process().unwrap_or_else(|e| fail(&e));
    if name == "list" {
        for t in TARGETS.iter().chain(TOOLS) {
            println!("{:<26}{}", t.name, t.what);
        }
        return;
    }
    let experiment = TARGETS.iter().find(|t| t.name == name);
    let Some(target) = experiment.or_else(|| TOOLS.iter().find(|t| t.name == name)) else {
        fail(&format!("{name}: unknown target (`repro list` prints them)"));
    };
    if cfg.trace.is_some() {
        graphbench_sim::hosttrace::enable();
    }
    // The plane comes up before the banner, so a scraper attached from the
    // first printed line onward never misses a superstep.
    let ctx = Ctx { cfg: &cfg, obs: observability(&cfg) };
    if experiment.is_some() {
        banner(&cfg, target);
    }
    let records = (target.run)(&ctx);
    if records.is_empty() && (cfg.journal.is_some() || cfg.trace.is_some()) {
        fail(&format!("{name}: returns no run records for --journal/--trace to export"));
    }
    if let Some(path) = &cfg.journal {
        export_journals(path, &records);
    }
    if let Some(path) = &cfg.trace {
        export_traces(path, &records);
    }
    if !target.note.is_empty() {
        println!("\npaper: {}", target.note);
    }
    // Hold the process open after its final output, so scrapers get a
    // window in which every run has completed but `/metrics` is still up.
    if cfg.serve.is_some() && cfg.serve_linger > 0 {
        println!("observability plane lingering {}s for scrapers", cfg.serve_linger);
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_secs(cfg.serve_linger));
    }
}

fn banner(cfg: &Config, target: &Target) {
    println!("=== {}: {} ===", target.name, target.what);
    let base = cfg.scale.base;
    if let [seed] = cfg.seeds[..] {
        println!("scale base {base} (set GRAPHBENCH_BASE to change), seed {seed}\n");
    } else {
        let list = cfg.seeds.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        println!(
            "scale base {base} (set GRAPHBENCH_BASE to change), seed sweep {list} \
             (cells show mean ±stddev [±95% CI])\n"
        );
    }
}

/// The observability plane `--serve`, `--progress-log` and `--progress`
/// ask for; `None` when none did — the runner then carries no observers
/// and the per-barrier hook is never armed. An unbindable address or an
/// unwritable progress log stops the run: silently dropping observability
/// the user asked for would be worse.
fn observability(cfg: &Config) -> Option<Arc<ObserverHub>> {
    if cfg.serve.is_none() && cfg.progress_log.is_none() && !cfg.progress {
        return None;
    }
    let hub = Arc::new(ObserverHub::new());
    let recorder = Arc::new(FlightRecorder::default());
    hub.add_sink(recorder.clone());
    if let Some(addr) = &cfg.serve {
        match graphbench_obs::serve(addr, recorder) {
            Ok(server) => {
                println!("serving observability plane at http://{}", server.local_addr());
                // Flush past any pipe buffering: scrape scripts parse this
                // line from a live child process.
                let _ = std::io::stdout().flush();
            }
            Err(e) => fail(&format!("cannot bind {e}")),
        }
    }
    if let Some(path) = &cfg.progress_log {
        match JsonlSink::create(std::path::Path::new(path)) {
            Ok(sink) => hub.add_sink(Arc::new(sink)),
            Err(e) => fail(&format!("cannot write progress log to {path}: {e}")),
        }
    }
    if cfg.progress {
        hub.add_sink(Arc::new(TtySink));
    }
    Some(hub)
}

/// Every record's structured journal in one JSONL file: per run a
/// `{"run": ...}` header line identifying it, then its events, one JSON
/// object per line.
fn export_journals(path: &str, records: &[RunRecord]) {
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
    write_output("journal", path, out);
    println!("wrote {} journals to {path}", records.len());
}

/// Each record's Chrome trace-event JSON (simulated machine tracks plus
/// host-thread wallclock tracks; load at <https://ui.perfetto.dev>). A
/// single record writes exactly `path`; several derive one file each by
/// inserting `<index>.<system>.<workload>` before the extension.
fn export_traces(path: &str, records: &[RunRecord]) {
    for (i, r) in records.iter().enumerate() {
        // Ablation labels like `BB/2-D cells` must not name a directory.
        let tag = format!("{i:03}.{}.{}", r.system, r.workload).replace('/', "-");
        let file = match path.rsplit_once('.') {
            _ if records.len() == 1 => path.to_string(),
            // Only treat the suffix as an extension when it looks like one
            // (no path separator after the dot).
            Some((stem, ext)) if !ext.contains('/') => format!("{stem}.{tag}.{ext}"),
            _ => format!("{path}.{tag}"),
        };
        let timeline = r.journal.timeline();
        write_output("trace", &file, timeline.chrome_trace_with_host(&r.host_spans));
        println!(
            "wrote trace ({} spans, {} machines, {} host spans) to {file}",
            timeline.len(),
            timeline.machines(),
            r.host_spans.len()
        );
    }
}
