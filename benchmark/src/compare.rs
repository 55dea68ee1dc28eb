//! The self-check of `run.sh --repeat 2`.

/// The value of `"key": value` in the text of a flat JSON object.
fn field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let rest = object.split(&format!("\"{key}\"")).nth(1)?.trim_start().strip_prefix(':')?;
    Some(rest.split([',', '}']).next()?.trim())
}

/// The `end_to_end` bounds of BENCHMARK.json, their one home: the only
/// objects in that file with a `bound`.
fn bounds(benchmark_json: &str) -> Vec<(String, f64)> {
    let text =
        std::fs::read_to_string(benchmark_json).unwrap_or_else(|e| panic!("{benchmark_json}: {e}"));
    let found: Vec<(String, f64)> = text
        .split('{')
        .filter_map(|object| {
            let name = field(object, "name")?.trim_matches('"').to_string();
            Some((name, field(object, "bound")?.parse().ok()?))
        })
        .collect();
    assert!(!found.is_empty(), "{benchmark_json}: no metric with a bound");
    found
}

/// `workload metric value` of every `workload metric value unit` line.
fn read(path: &str) -> Vec<(String, String, f64)> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            if f.len() != 4 || l.starts_with('#') {
                return None;
            }
            Some((f[0].to_string(), f[1].to_string(), f[2].parse().ok()?))
        })
        .collect()
}

/// `--compare BENCHMARK.json A B`: two sets of result lines from the same
/// code. Prints both values, their relative difference, the metric's bound,
/// and a verdict. The driver rejects a PR that moves a metric by its bound; a
/// move of that size is told from noise only where the same code differs from
/// itself by no more than a third of it, so that is what PASS means. `ops` and
/// `ops_failed` are deterministic: equal, and 0.
pub fn compare(benchmark_json: &str, a: &str, b: &str) -> i32 {
    let bounds = bounds(benchmark_json);
    let (a, b) = (read(a), read(b));
    let mut unresolved = 0;
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>8} {:>6} {:>8}  verdict",
        "workload", "metric", "first", "second", "diff", "bound", "bound/3"
    );
    for (workload, metric, first) in &a {
        let Some((_, _, second)) = b.iter().find(|(w, m, _)| w == workload && m == metric) else {
            continue;
        };
        let diff = (second - first).abs() / first.abs().max(f64::MIN_POSITIVE);
        let (bound, limit) = match bounds.iter().find(|(m, _)| m == metric) {
            Some((_, bound)) => (format!("{bound}"), bound / 3.0),
            None => ("-".to_string(), 0.0),
        };
        let ok = diff <= limit && (metric != "ops_failed" || *first == 0.0);
        unresolved += i32::from(!ok);
        println!(
            "{workload:<14} {metric:<14} {first:>12.4} {second:>12.4} {:>7.2}% {bound:>6} {:>7.2}%  {}",
            diff * 100.0,
            limit * 100.0,
            if ok { "PASS" } else { "UNRESOLVED" }
        );
    }
    unresolved.min(1)
}
