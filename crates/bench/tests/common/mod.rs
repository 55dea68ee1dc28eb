//! Shared by the bench integration tests: the `repro` binary under a
//! configuration that is exactly what the test sets.
#![allow(dead_code)]

use std::path::PathBuf;
use std::process::{Command, Output};

/// Every variable `repro` and the dataset cache beneath it read. The
/// executor's `GRAPHBENCH_THREADS`/`GRAPHBENCH_CHUNK` stay inherited: CI
/// sets them on whole test jobs.
const VARS: [&str; 13] = [
    "GRAPHBENCH_BASE",
    "GRAPHBENCH_SEED",
    "GRAPHBENCH_SEEDS",
    "GRAPHBENCH_FAULTS",
    "GRAPHBENCH_JOURNAL",
    "GRAPHBENCH_TRACE",
    "GRAPHBENCH_SERVE",
    "GRAPHBENCH_SERVE_LINGER",
    "GRAPHBENCH_PROGRESS_LOG",
    "GRAPHBENCH_PROGRESS",
    "GRAPHBENCH_FINDINGS_PERTURB",
    "GRAPHBENCH_SCALEUP_EDGES",
    "GRAPHBENCH_DATA_DIR",
];

/// `repro <args>` with `envs` as its whole `GRAPHBENCH_*` environment.
pub fn repro_cmd(args: &[&str], envs: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    for var in VARS {
        cmd.env_remove(var);
    }
    cmd.envs(envs.iter().copied());
    cmd
}

pub fn repro(args: &[&str], envs: &[(&str, &str)]) -> Output {
    repro_cmd(args, envs).output().expect("spawn repro")
}

/// A per-test scratch directory (tests in one binary run concurrently).
pub fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphbench_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

pub fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

pub fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}
