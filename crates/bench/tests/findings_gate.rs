//! The findings gate end to end: `repro all --check` exits 0 when the
//! measured verdicts match the committed EXPERIMENTS.md table, and exits
//! nonzero with a diff naming the flipped finding when a predicate is
//! perturbed (via the `GRAPHBENCH_FINDINGS_PERTURB` test hook — the same
//! failure path a real regression would take).

mod common;

use common::{repro_cmd, scratch};
use std::path::PathBuf;
use std::process::Output;

/// `repro all --check` in an isolated cwd with a pinned configuration:
/// the calibrated scale/seed defaults, a single-seed sweep for speed, and
/// no inherited perturbation. EXPERIMENTS.md is found via the binary's
/// manifest-relative fallback.
fn check(dir: &PathBuf, envs: &[(&str, &str)]) -> Output {
    let envs = [&[("GRAPHBENCH_SEEDS", "42")], envs].concat();
    repro_cmd(&["all", "--check"], &envs)
        .current_dir(dir)
        .output()
        .expect("spawn repro all --check")
}

#[test]
fn clean_check_passes_and_writes_verdicts() {
    let dir = scratch("gate_clean");
    let out = check(&dir, &[]);
    assert!(
        out.status.success(),
        "clean `repro all --check` should exit 0\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("findings match the committed EXPERIMENTS.md verdicts"),
        "stdout should confirm the match, got:\n{stdout}"
    );
    // The machine-readable verdicts landed in the cwd and carry all nine
    // findings, each holding.
    let verdicts: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(dir.join("findings_verdicts.json"))
            .expect("findings_verdicts.json written"),
    )
    .expect("verdicts are valid JSON");
    let arr = verdicts.as_array().expect("verdicts are an array");
    assert_eq!(arr.len(), 9);
    for v in arr {
        assert_eq!(v["holds"], serde_json::json!(true), "finding {} failed", v["finding"]);
    }
    // No drift, no diff file.
    assert!(!dir.join("findings_verdict.diff").exists());
}

#[test]
fn perturbed_check_fails_naming_the_flipped_finding() {
    let dir = scratch("gate_perturbed");
    let out = check(&dir, &[("GRAPHBENCH_FINDINGS_PERTURB", "4")]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "perturbed `repro all --check` should exit 1\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // The drift report names exactly the flipped finding, with its paper
    // section, both on stderr and in the diff artifact.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("finding 4") && stderr.contains("§5.5"),
        "stderr should name finding 4 (§5.5), got:\n{stderr}"
    );
    assert!(stderr.contains("expected HOLDS, measured FAILS"), "got:\n{stderr}");
    let diff = std::fs::read_to_string(dir.join("findings_verdict.diff"))
        .expect("findings_verdict.diff written");
    assert!(diff.contains("finding 4"), "diff should name finding 4, got:\n{diff}");
    assert!(!diff.contains("finding 5"), "only finding 4 should drift, got:\n{diff}");
}
