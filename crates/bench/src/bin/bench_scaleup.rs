//! Scale-up benchmark: generate → persist → mmap-reload → compute on one
//! host, timing each stage with the host clock and reporting the memory
//! footprint at every step.
//!
//! This is the end-to-end path the tentpole optimizes: an R-MAT dataset
//! (default 10⁷ edges, `GRAPHBENCH_SCALEUP_EDGES` up to 10⁸+) streams
//! straight into a CSR without ever materializing an edge list, persists in
//! the binary disk format, reloads via mmap, and runs one PageRank
//! iteration over the reloaded graph. The reloaded CSR must equal the
//! freshly generated one — the cached-vs-fresh half of the determinism
//! contract — and the report records how many bytes the streaming path
//! never allocated.
//!
//! Output: a stage/byte breakdown to `BENCH_scaleup.json` (`--out <path>`
//! to change). The dataset file lands under `GRAPHBENCH_DATA_DIR` when set
//! (and is reused if already present — CI caches it), else a temp dir.

use graphbench_gen::rmat::{rmat_csr, RmatConfig};
use graphbench_graph::{disk, CsrGraph};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize)]
struct Report {
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

/// Target edge count: `GRAPHBENCH_SCALEUP_EDGES`, default 10⁷.
fn target_edges() -> u64 {
    std::env::var("GRAPHBENCH_SCALEUP_EDGES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000_000)
}

fn out_path() -> String {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--out" {
            return args.next().expect("--out takes a path");
        }
        if let Some(p) = a.strip_prefix("--out=") {
            return p.to_string();
        }
    }
    "BENCH_scaleup.json".to_string()
}

/// Where the dataset file lives: `GRAPHBENCH_DATA_DIR` when set (CI caches
/// this directory across runs), else a per-process temp dir.
fn dataset_path(key: &str) -> PathBuf {
    graphbench_gen::cache::cache_path(key).unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("graphbench-scaleup-{}", std::process::id()))
            .join(format!("{key}-v{}.gbcsr", disk::FORMAT_VERSION))
    })
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

fn main() {
    let edges = target_edges();
    // Average degree 16, like Graph500's edgefactor: scale = log2(n).
    let scale = (64 - (edges / 16).max(2).leading_zeros()).clamp(10, 30);
    graphbench_repro::banner(
        "bench_scaleup",
        &format!("streaming R-MAT scale {scale} (~{edges} edges) gen/save/load/compute wallclock"),
    );
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

    let path = dataset_path(&format!("rmat-scale{scale}-m{edges}-s42"));
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            graphbench_repro::fail_export("dataset cache", &dir.display().to_string(), &e);
        }
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
        if let Err(e) = disk::save_csr(&fresh, &path) {
            graphbench_repro::fail_export("dataset cache", &path.display().to_string(), &e);
        }
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
    let loaded = match disk::load_csr(&path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("graphbench: cannot load dataset cache {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let load_secs = t0.elapsed().as_secs_f64();
    println!("load     {load_secs:8.3}s  mmap {}", loaded.is_mapped());

    let cached_equals_fresh = loaded == fresh;
    assert!(cached_equals_fresh, "reloaded CSR differs from the freshly generated one");

    let t0 = Instant::now();
    let mean_rank = pagerank_superstep(&loaded);
    let compute_secs = t0.elapsed().as_secs_f64();
    println!("compute  {compute_secs:8.3}s  one PageRank superstep, mean rank {mean_rank:.6}");

    let report = Report {
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
    let out = out_path();
    if let Err(e) = std::fs::write(&out, serde_json::to_string_pretty(&report).unwrap()) {
        graphbench_repro::fail_export("scaleup report", &out, &e);
    }
    println!(
        "\ntotal {:.3}s (gen {:.0}% / save {:.0}% / load {:.0}% / compute {:.0}%), peak RSS {} MB -> {out}",
        gen_secs + save_secs + load_secs + compute_secs,
        100.0 * gen_secs / (gen_secs + save_secs + load_secs + compute_secs),
        100.0 * save_secs / (gen_secs + save_secs + load_secs + compute_secs),
        100.0 * load_secs / (gen_secs + save_secs + load_secs + compute_secs),
        100.0 * compute_secs / (gen_secs + save_secs + load_secs + compute_secs),
        report.peak_rss_bytes >> 20
    );
}
