//! Observability-plane contract at the `repro` boundary, alongside the export
//! failure contract of `export_failures.rs`: a `--serve`/`GRAPHBENCH_SERVE`
//! address the user asked for but that cannot be bound must produce a
//! clear message and a nonzero exit — never a silently absent endpoint.
//! The happy path is locked end to end: a live run with `--serve`
//! answers `/metrics` with conformant exposition while its progress log
//! captures every superstep.

mod common;

use common::{repro, repro_cmd, scratch};
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Output, Stdio};
use std::time::Duration;

/// `trace_report --golden` is the smallest target that exercises the full
/// plane: one pinned Giraph PageRank run, observers attached.
fn trace_report(args: &[&str], envs: &[(&str, &str)]) -> Output {
    repro(&[&["trace_report"], args].concat(), envs)
}

fn assert_cannot_bind(out: &Output, what: &str) {
    assert!(!out.status.success(), "expected nonzero exit for {what}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot bind"),
        "stderr should say the bind failed for {what}, got: {stderr}"
    );
}

#[test]
fn unbindable_serve_address_fails_loudly() {
    // TEST-NET-3 (RFC 5737): never a local interface, so binding fails.
    let out = trace_report(&["--golden", "--serve", "203.0.113.1:0"], &[]);
    assert_cannot_bind(&out, "a non-local --serve address");
}

#[test]
fn malformed_serve_env_fails_loudly() {
    let out = trace_report(&["--golden"], &[("GRAPHBENCH_SERVE", "not an address")]);
    assert_cannot_bind(&out, "a malformed GRAPHBENCH_SERVE");
}

#[test]
fn occupied_port_fails_loudly() {
    let holder = TcpListener::bind("127.0.0.1:0").expect("bind holder port");
    let addr = holder.local_addr().unwrap().to_string();
    let out = trace_report(&["--golden", "--serve", &addr], &[]);
    assert_cannot_bind(&out, "an already-bound port");
    drop(holder);
}

#[test]
fn live_serve_scrape_end_to_end() {
    let dir = scratch("serve_live");
    let log = dir.join("progress.jsonl");
    let log_path = log.to_str().unwrap();
    let mut child = repro_cmd(
        &["trace_report", "--golden", "--serve", "127.0.0.1:0", "--progress-log", log_path],
        // Keep the server up after the run completes so the scrape below
        // races nothing; the test kills the child once it has scraped.
        &[("GRAPHBENCH_SERVE_LINGER", "60")],
    )
    .stdout(Stdio::piped())
    .spawn()
    .expect("spawn trace_report --serve");

    // The run announces its (ephemeral) address before running anything,
    // then lingers after its final output.
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut addr = None;
    let mut lingering = false;
    let mut line = String::new();
    while reader.read_line(&mut line).expect("read child stdout") > 0 {
        if let Some(rest) = line.trim().strip_prefix("serving observability plane at http://") {
            addr = Some(rest.to_string());
        }
        if line.contains("observability plane lingering") {
            lingering = true;
            break;
        }
        line.clear();
    }
    let addr = addr.expect("child printed a serve address");
    assert!(lingering, "child reached the linger window");

    let timeout = Duration::from_secs(10);
    let (status, body) =
        graphbench_obs::http_get(&addr, "/healthz", timeout).expect("scrape /healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) =
        graphbench_obs::http_get(&addr, "/metrics", timeout).expect("scrape /metrics");
    assert_eq!(status, 200, "/metrics should answer while the plane is up");
    graphbench_obs::check_exposition(&body)
        .unwrap_or_else(|v| panic!("non-conformant exposition: {v:?}"));
    assert!(body.contains("run=\"0001-"), "exposition carries the per-run label:\n{body}");
    assert!(body.contains("workload=\"pagerank\""), "exposition carries run labels:\n{body}");

    let (status, runs) = graphbench_obs::http_get(&addr, "/runs", timeout).expect("scrape /runs");
    assert_eq!(status, 200);
    let index: serde_json::Value = serde_json::from_str(&runs).expect("/runs is JSON");
    let first = &index.as_array().expect("/runs is an array")[0];
    assert_eq!(first["workload"], serde_json::json!("pagerank"));
    assert_eq!(first["status"], serde_json::json!("OK"), "run completed by linger time");

    child.kill().expect("kill lingering child");
    let _ = child.wait();

    // The progress log captured the whole run: a start header, one event
    // per superstep, and a final summary — all valid JSONL.
    let text = std::fs::read_to_string(&log).expect("progress log written");
    let lines: Vec<serde_json::Value> =
        text.lines().map(|l| serde_json::from_str(l).expect("progress log line is JSON")).collect();
    assert_eq!(lines.first().map(|l| l["type"].clone()), Some(serde_json::json!("run_start")));
    assert_eq!(lines.last().map(|l| l["type"].clone()), Some(serde_json::json!("run_end")));
    let supersteps = lines.iter().filter(|l| l["type"] == "superstep").count();
    assert!(supersteps >= 5, "golden run fires at least its 5 PageRank supersteps: {supersteps}");
    assert_eq!(lines.last().map(|l| l["status"].clone()), Some(serde_json::json!("OK")));
}
