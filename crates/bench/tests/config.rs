//! The configuration contract: everything is parsed once, before anything
//! runs, and there is one failure policy — a malformed value, a flag
//! missing its argument, an unknown flag or an unknown target exits 1
//! naming the offender, with no banner printed. The seed sweep is one
//! field with two spellings.

mod common;

use common::{repro, stderr, stdout};
use graphbench_repro::config::Config;

/// Arguments, variables, and the offender the error must name.
type Case = (&'static [&'static str], &'static [(&'static str, &'static str)], &'static str);

#[test]
fn bad_configuration_fails_before_any_run() {
    let cases: [Case; 13] = [
        (&["table5"], &[("GRAPHBENCH_BASE", "3OO")], "GRAPHBENCH_BASE"),
        (&["table5"], &[("GRAPHBENCH_BASE", "0")], "GRAPHBENCH_BASE"),
        (&["table5"], &[("GRAPHBENCH_SEED", "-1")], "GRAPHBENCH_SEED"),
        (&["table5"], &[("GRAPHBENCH_SEEDS", "42,x")], "GRAPHBENCH_SEEDS"),
        (&["table5"], &[("GRAPHBENCH_FAULTS", "crash@oops")], "GRAPHBENCH_FAULTS"),
        // Membership is fixed for a run: `resize` is no fault kind.
        (&["table5"], &[("GRAPHBENCH_FAULTS", "resize@5:-m2")], "unknown event kind \"resize\""),
        (&["table5"], &[("GRAPHBENCH_SERVE_LINGER", "soon")], "GRAPHBENCH_SERVE_LINGER"),
        (&["table5"], &[("GRAPHBENCH_FINDINGS_PERTURB", "ten")], "GRAPHBENCH_FINDINGS_PERTURB"),
        (&["table5"], &[("GRAPHBENCH_PROGRESS", "yes")], "GRAPHBENCH_PROGRESS"),
        (&["table5", "--journal"], &[], "--journal takes a path"),
        (&["table5", "--jornal", "x"], &[], "--jornal"),
        (&["table5", "--retry", "many"], &[], "--retry"),
        (&["table55"], &[], "table55"),
    ];
    for (args, envs, offender) in cases {
        let out = repro(args, envs);
        let (stdout, stderr) = (stdout(&out), stderr(&out));
        assert_eq!(out.status.code(), Some(1), "{args:?} {envs:?}: {stderr}");
        assert!(stderr.starts_with("graphbench: "), "{args:?} {envs:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?} {envs:?}: {stderr}");
        assert!(stderr.contains(offender), "{stderr:?} should name {offender}");
        assert!(!stdout.contains("==="), "{args:?} {envs:?} ran before failing:\n{stdout}");
    }
}

#[test]
fn an_export_with_nothing_to_export_is_an_error() {
    let out = repro(&["table5", "--journal", "unused.jsonl"], &[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("no run records"), "{}", stderr(&out));
}

/// Under `GRAPHBENCH_SEEDS=43` the parent's `table3` printed "seed 43" over
/// seed 42's data: the banner read the sweep, the generator only
/// `GRAPHBENCH_SEED`.
#[test]
fn the_primary_seed_has_two_spellings_and_one_meaning() {
    let table3 = |envs: &[(&str, &str)]| {
        let out = repro(&["table3"], &[&[("GRAPHBENCH_BASE", "300")], envs].concat());
        assert!(out.status.success(), "{}", stderr(&out));
        stdout(&out)
    };
    let sweep = table3(&[("GRAPHBENCH_SEEDS", "43")]);
    assert_eq!(sweep, table3(&[("GRAPHBENCH_SEED", "43")]));
    assert_ne!(sweep, table3(&[]));
}

#[test]
fn parse_resolves_flags_over_variables_into_one_value() {
    let parse = |args: &[&str], vars: &[(&str, &str)]| {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Config::parse(&args, &|name| {
            Ok(vars.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string()))
        })
        .expect("parses")
    };
    let (target, cfg) = parse(&["fig06"], &[]);
    assert_eq!(target, "fig06");
    assert_eq!((cfg.scale.base, cfg.seeds.as_slice()), (1_500, &[42][..]));
    assert_eq!((cfg.scaleup_edges, cfg.serve_linger, cfg.retry), (10_000_000, 0, 0));
    assert!(cfg.faults.is_none() && cfg.journal.is_none() && !cfg.progress && !cfg.check);

    let vars = [("GRAPHBENCH_JOURNAL", "env.jsonl"), ("GRAPHBENCH_TRACE", "env.json")];
    let (_, cfg) = parse(&["fig06", "--journal=flag.jsonl"], &vars);
    assert_eq!(cfg.journal.as_deref(), Some("flag.jsonl"));
    assert_eq!(cfg.trace.as_deref(), Some("env.json"));
    let (_, cfg) = parse(&["trace_schema_check", "t.json", "--machines", "16"], &[]);
    assert_eq!((cfg.input.as_deref(), cfg.machines), (Some("t.json"), Some(16)));

    assert_eq!(parse(&["x"], &[("GRAPHBENCH_SEEDS", "43, 44,43")]).1.seeds, [43, 44]);
    let both = [("GRAPHBENCH_SEEDS", "7"), ("GRAPHBENCH_SEED", "43")];
    assert_eq!(parse(&["x"], &both).1.seeds, [7]);
    // An empty value is an unset variable.
    assert_eq!(parse(&["x"], &[("GRAPHBENCH_SEEDS", "")]).1.seeds, [42]);
}
