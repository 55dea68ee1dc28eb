//! The target table, executed: every experiment runs to completion at a
//! small scale under its own banner, and `repro list` is the table.

mod common;

use common::{repro, repro_cmd, scratch, stderr, stdout};
use graphbench_repro::{TARGETS, TOOLS};

#[test]
fn every_experiment_runs_under_its_banner() {
    // Targets write their fixed-name reports (BENCH_*.json,
    // repro_results.json) into the working directory.
    let dir = scratch("every_target");
    for t in TARGETS {
        let out = repro_cmd(
            &[t.name],
            &[("GRAPHBENCH_BASE", "300"), ("GRAPHBENCH_SCALEUP_EDGES", "20000")],
        )
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
        assert!(out.status.success(), "`repro {}` failed:\n{}", t.name, stderr(&out));
        let banner = format!("=== {}: ", t.name);
        let stdout = stdout(&out);
        assert!(
            stdout.starts_with(&banner),
            "`repro {}` starts {:?}",
            t.name,
            stdout.lines().next()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn names_are_unique_and_list_prints_the_table() {
    let listed = stdout(&repro(&["list"], &[]));
    let all: Vec<_> = TARGETS.iter().chain(TOOLS).collect();
    assert_eq!(listed.lines().count(), all.len());
    for (i, t) in all.iter().enumerate() {
        assert!(all[..i].iter().all(|u| u.name != t.name), "duplicate target {}", t.name);
        assert!(t.name != "list" && !t.what.is_empty(), "{}", t.name);
        let line = listed.lines().nth(i).unwrap_or_default();
        assert!(line.starts_with(t.name) && line.ends_with(t.what), "{line:?} is not {}", t.name);
    }
}
