//! Output I/O failure contract: a `--journal` or `--trace` destination the
//! user asked for, or a report a target always writes, that cannot be
//! written must produce a clear message and a nonzero exit — never silent
//! loss, never a panic backtrace. The happy path is locked too: the golden
//! trace_report run writes both files and the schema checker accepts the
//! trace it produced.

mod common;

use common::{repro, repro_cmd, scratch};
use graphbench_sim::json;
use std::path::{Path, PathBuf};
use std::process::Output;

fn trace_report(args: &[&str]) -> Output {
    repro(&[&["trace_report"], args].concat(), &[])
}

fn schema_check(args: &[&str]) -> Output {
    repro(&[&["trace_schema_check"], args].concat(), &[])
}

/// `bench_scaleup` at a test-friendly edge count (the default 10⁷ would
/// dominate the suite's runtime).
fn bench_scaleup(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let envs = [&[("GRAPHBENCH_SCALEUP_EDGES", "20000")], envs].concat();
    repro(&[&["bench_scaleup"], args].concat(), &envs)
}

/// A path whose parent is a plain file: `create_dir_all` and `write` both
/// fail with `NotADirectory`, even when the suite runs as root (read-only
/// permission bits would not stop root).
fn blocked_path(dir: &Path, leaf: &str) -> PathBuf {
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"a file where a directory is needed").unwrap();
    blocker.join(leaf)
}

#[test]
fn unwritable_dataset_cache_fails_loudly() {
    let dir = scratch("scaleup_cache_fail");
    let data_dir = blocked_path(&dir, "cache");
    let out = bench_scaleup(&[], &[("GRAPHBENCH_DATA_DIR", data_dir.to_str().unwrap())]);
    assert!(!out.status.success(), "expected nonzero exit for unwritable dataset cache");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot write dataset cache"),
        "stderr should say what failed, got: {stderr}"
    );
}

#[test]
fn unwritable_scaleup_report_fails_loudly() {
    let dir = scratch("scaleup_out_fail");
    let bad_out = blocked_path(&dir, "report.json");
    let out = bench_scaleup(&["--out", bad_out.to_str().unwrap()], &[]);
    assert!(!out.status.success(), "expected nonzero exit for unwritable report path");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot write scaleup report"),
        "stderr should say what failed, got: {stderr}"
    );
}

/// The reports with fixed names go through the same path: a directory
/// where `BENCH_faults.json` belongs fails the write even for root.
#[test]
fn unwritable_fixed_name_report_fails_loudly() {
    let dir = scratch("fixed_name_fail");
    std::fs::create_dir(dir.join("BENCH_faults.json")).unwrap();
    let out = repro_cmd(&["ablation_fault_tolerance"], &[("GRAPHBENCH_BASE", "300")])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(1), "expected exit 1 for an unwritable report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot write fault cost decomposition to BENCH_faults.json"),
        "stderr should say what failed, got: {stderr}"
    );
}

#[test]
fn scaleup_report_round_trips() {
    let dir = scratch("scaleup_ok");
    let report = dir.join("BENCH_scaleup.json");
    let data_dir = dir.join("data");
    let out = bench_scaleup(
        &["--out", report.to_str().unwrap()],
        &[("GRAPHBENCH_DATA_DIR", data_dir.to_str().unwrap())],
    );
    assert!(
        out.status.success(),
        "bench_scaleup failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = json::parse(&std::fs::read_to_string(&report).expect("report written"))
        .expect("report is valid JSON");
    assert_eq!(v["cached_equals_fresh"], json::Value::Bool(true));
    assert_eq!(v["num_edges"].as_u64(), Some(20_000));
    assert!(v["gen_secs"].as_f64().is_some_and(|s| s >= 0.0));
    // The dataset file landed in (and can be reused from) the cache dir.
    assert!(data_dir
        .read_dir()
        .unwrap()
        .any(|e| { e.unwrap().file_name().to_string_lossy().ends_with(".gbcsr") }));
}

#[test]
fn unwritable_journal_path_fails_loudly() {
    let dir = scratch("journal_fail");
    let bad = dir.join("no-such-subdir").join("out.jsonl");
    let out = trace_report(&["--golden", "--journal", bad.to_str().unwrap()]);
    assert!(!out.status.success(), "expected nonzero exit for unwritable journal path");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot write journal"),
        "stderr should say what failed, got: {stderr}"
    );
}

#[test]
fn unwritable_trace_path_fails_loudly() {
    let dir = scratch("trace_fail");
    let bad = dir.join("no-such-subdir").join("out.trace.json");
    let out = trace_report(&["--golden", "--trace", bad.to_str().unwrap()]);
    assert!(!out.status.success(), "expected nonzero exit for unwritable trace path");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot write trace"), "stderr should say what failed, got: {stderr}");
}

#[test]
fn golden_trace_report_exports_and_the_schema_check_accepts_it() {
    let dir = scratch("golden_export");
    let trace = dir.join("golden.trace.json");
    let journal = dir.join("golden.journal.jsonl");
    let out = trace_report(&[
        "--golden",
        "--trace",
        trace.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "trace_report --golden failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.is_file(), "trace file not written");
    assert!(journal.is_file(), "journal file not written");

    // The golden run is Giraph PageRank on 16 machines; the trace must
    // carry one named track per simulated machine.
    let check = schema_check(&[trace.to_str().unwrap(), "--machines", "16"]);
    assert!(
        check.status.success(),
        "schema check rejected the exported trace:\n{}",
        String::from_utf8_lossy(&check.stderr)
    );
    assert!(String::from_utf8_lossy(&check.stdout).contains("OK"));
}

#[test]
fn schema_check_rejects_malformed_files() {
    let dir = scratch("schema_reject");
    // Valid JSON, wrong shape.
    let no_events = dir.join("no_events.json");
    std::fs::write(&no_events, "{}").unwrap();
    let out = schema_check(&[no_events.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no traceEvents"));

    // Not JSON at all.
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "not json").unwrap();
    assert!(!schema_check(&[garbage.to_str().unwrap()]).status.success());

    // Missing file.
    let missing = dir.join("missing.json");
    assert!(!schema_check(&[missing.to_str().unwrap()]).status.success());

    // A complete event with a negative duration.
    let bad_dur = dir.join("bad_dur.json");
    std::fs::write(
        &bad_dur,
        r#"{"traceEvents":[{"ph":"X","pid":1,"tid":0,"name":"x","ts":0,"dur":-1}]}"#,
    )
    .unwrap();
    let out = schema_check(&[bad_dur.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("non-negative dur"));
}
