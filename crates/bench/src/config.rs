//! Everything `repro` can be told, parsed once before anything runs.
//!
//! One failure policy: a malformed value, a flag missing its argument, an
//! unknown flag or a stray argument is an `Err` naming the offending
//! variable or flag, which `main` prints as `graphbench: <error>` before
//! exiting 1. Nothing is silently defaulted or skipped. A variable set to
//! the empty string counts as unset.

use graphbench_gen::Scale;
use graphbench_sim::FaultPlan;
use std::str::FromStr;

/// Flags that take a value (`--flag value` or `--flag=value`) and what the
/// value is, for the missing-argument message.
const VALUE_FLAGS: [(&str, &str); 8] = [
    ("--journal", "a path"),
    ("--trace", "a path"),
    ("--serve", "an address"),
    ("--progress-log", "a path"),
    ("--out", "a path"),
    ("--scrape", "host:port"),
    ("--retry", "a count"),
    ("--machines", "a count"),
];
const SWITCHES: [&str; 3] = ["--progress", "--check", "--golden"];

/// The parsed configuration: argv plus the `GRAPHBENCH_*` environment.
/// Where a flag and a variable name the same thing, the flag wins.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// `GRAPHBENCH_BASE`: Twitter-like vertex count (default 1500).
    pub scale: Scale,
    /// `GRAPHBENCH_SEEDS` (comma-separated, duplicates dropped), else the
    /// one-seed spelling `GRAPHBENCH_SEED`, else 42. Never empty; the first
    /// entry is the primary seed.
    pub seeds: Vec<u64>,
    /// `GRAPHBENCH_FAULTS`: the plan injected into every `Runner` run.
    pub faults: Option<FaultPlan>,
    /// `--journal` / `GRAPHBENCH_JOURNAL`: JSONL journal export path.
    pub journal: Option<String>,
    /// `--trace` / `GRAPHBENCH_TRACE`: Chrome trace-event export path.
    pub trace: Option<String>,
    /// `--serve` / `GRAPHBENCH_SERVE`: metrics-server bind address.
    pub serve: Option<String>,
    /// `GRAPHBENCH_SERVE_LINGER`: seconds to keep serving after the run.
    pub serve_linger: u64,
    /// `--progress-log` / `GRAPHBENCH_PROGRESS_LOG`: JSONL progress path.
    pub progress_log: Option<String>,
    /// `--progress` / `GRAPHBENCH_PROGRESS=1`: live TTY progress.
    pub progress: bool,
    /// `GRAPHBENCH_FINDINGS_PERTURB`: finding id the gate's self-test flips.
    pub findings_perturb: Option<u8>,
    /// `GRAPHBENCH_SCALEUP_EDGES`: `bench_scaleup`'s edge count (default 10⁷).
    pub scaleup_edges: u64,
    /// `--check`: `all` runs the findings gate; `prom_dump` validates.
    pub check: bool,
    /// `--golden`: `trace_report` pins the golden-record configuration.
    pub golden: bool,
    /// `--out`: `bench_scaleup`'s report, `prom_dump`'s exposition.
    pub out: Option<String>,
    /// `--scrape`: `prom_dump` reads a live `/metrics` instead of a file.
    pub scrape: Option<String>,
    /// `--retry`: extra `--scrape` connection attempts, one second apart.
    pub retry: u32,
    /// `--machines`: tracks `trace_schema_check` requires.
    pub machines: Option<usize>,
    /// The file argument of `render`, `prom_dump` and `trace_schema_check`.
    pub input: Option<String>,
}

impl Config {
    /// Parse the process's argv and environment: the target name and the
    /// configuration. The only place either is read.
    pub fn from_process() -> Result<(String, Config), String> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Config::parse(&args, &|name| match std::env::var(name) {
            Ok(v) => Ok(Some(v)),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(_)) => Err(format!("{name}: not valid UTF-8")),
        })
    }

    /// Parse `args` (without the program name) over the variables `env`
    /// serves.
    pub fn parse(args: &[String], env: Env<'_>) -> Result<(String, Config), String> {
        let mut positional: Vec<&str> = Vec::new();
        let mut raw = Raw { flags: Vec::new(), env };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) if name.starts_with("--") => (name, Some(value.to_string())),
                _ => (arg.as_str(), None),
            };
            if let Some((flag, takes)) = VALUE_FLAGS.iter().find(|(f, _)| *f == name) {
                let value = match inline.or_else(|| it.next().cloned()) {
                    Some(v) => v,
                    None => return Err(format!("{flag} takes {takes}")),
                };
                raw.flags.push((flag, Some(value)));
            } else if let Some(flag) = SWITCHES.iter().find(|f| **f == arg) {
                raw.flags.push((flag, None));
            } else if arg.starts_with("--") {
                return Err(format!("{arg}: unknown flag"));
            } else {
                positional.push(arg);
            }
        }
        let (target, input) = match positional[..] {
            [] => return Err("no target given (`repro list` prints them)".into()),
            [target] => (target, None),
            [target, input] => (target, Some(input.to_string())),
            [_, _, extra, ..] => return Err(format!("{extra}: unexpected argument")),
        };

        let seeds = match raw.var("GRAPHBENCH_SEEDS")? {
            Some(list) => {
                let mut seeds = Vec::new();
                for part in list.split(',') {
                    let seed: u64 = typed("GRAPHBENCH_SEEDS", part, "an integer")?;
                    if !seeds.contains(&seed) {
                        seeds.push(seed);
                    }
                }
                seeds
            }
            None => vec![raw.typed_var("GRAPHBENCH_SEED", "an integer")?.unwrap_or(42)],
        };
        let base = raw.typed_var("GRAPHBENCH_BASE", "a positive integer")?.unwrap_or(1_500);
        if base == 0 {
            return Err("GRAPHBENCH_BASE=0: expected a positive integer".into());
        }
        let faults = match raw.var("GRAPHBENCH_FAULTS")? {
            Some(s) => {
                Some(FaultPlan::parse(&s).map_err(|e| format!("GRAPHBENCH_FAULTS={s:?}: {e}"))?)
            }
            None => None,
        };
        let progress = match raw.var("GRAPHBENCH_PROGRESS")?.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("GRAPHBENCH_PROGRESS={v:?}: expected 0 or 1")),
        };
        let config = Config {
            scale: Scale { base },
            seeds,
            faults,
            journal: raw.flag_or_var("--journal", "GRAPHBENCH_JOURNAL")?,
            trace: raw.flag_or_var("--trace", "GRAPHBENCH_TRACE")?,
            serve: raw.flag_or_var("--serve", "GRAPHBENCH_SERVE")?,
            serve_linger: raw.typed_var("GRAPHBENCH_SERVE_LINGER", "seconds")?.unwrap_or(0),
            progress_log: raw.flag_or_var("--progress-log", "GRAPHBENCH_PROGRESS_LOG")?,
            progress: progress || raw.switch("--progress"),
            findings_perturb: raw.typed_var("GRAPHBENCH_FINDINGS_PERTURB", "a finding id")?,
            scaleup_edges: raw
                .typed_var("GRAPHBENCH_SCALEUP_EDGES", "an edge count")?
                .unwrap_or(10_000_000),
            check: raw.switch("--check"),
            golden: raw.switch("--golden"),
            out: raw.flag("--out"),
            scrape: raw.flag("--scrape"),
            retry: raw.typed_flag("--retry", "a count")?.unwrap_or(0),
            machines: raw.typed_flag("--machines", "a count")?,
            input,
        };
        Ok((target.to_string(), config))
    }
}

/// What serves environment variables to [`Config::parse`].
pub type Env<'a> = &'a dyn Fn(&str) -> Result<Option<String>, String>;

/// The flags argv gave and the environment, queried by name.
struct Raw<'a> {
    flags: Vec<(&'static str, Option<String>)>,
    env: Env<'a>,
}

impl Raw<'_> {
    fn switch(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The flag's value; given twice, the last one.
    fn flag(&self, flag: &str) -> Option<String> {
        self.flags.iter().rev().find(|(f, _)| *f == flag).and_then(|(_, v)| v.clone())
    }

    /// The variable, if set to something: an empty value counts as unset.
    fn var(&self, name: &str) -> Result<Option<String>, String> {
        Ok((self.env)(name)?.filter(|v| !v.trim().is_empty()))
    }

    fn flag_or_var(&self, flag: &str, name: &str) -> Result<Option<String>, String> {
        Ok(self.flag(flag).or(self.var(name)?))
    }

    fn typed_flag<T: FromStr>(&self, flag: &str, expected: &str) -> Result<Option<T>, String> {
        self.flag(flag).map(|v| typed(flag, &v, expected)).transpose()
    }

    fn typed_var<T: FromStr>(&self, name: &str, expected: &str) -> Result<Option<T>, String> {
        self.var(name)?.map(|v| typed(name, &v, expected)).transpose()
    }
}

/// The value `raw` of the variable or flag `name`, as a `T`.
fn typed<T: FromStr>(name: &str, raw: &str, expected: &str) -> Result<T, String> {
    raw.trim().parse().map_err(|_| format!("{name}={raw:?}: expected {expected}"))
}
