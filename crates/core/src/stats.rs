//! Multi-seed statistical methodology: Welford accumulators, Student-t 95%
//! confidence intervals, and the [`MultiRunRecord`] aggregate over seeded
//! [`RunRecord`]s.
//!
//! *SoK: The Faults in our Graph Benchmarks* catalogs single-seed,
//! no-variance reporting as a core benchmarking fault. This module is the
//! repair: every statistic a report table prints can be computed over a
//! seed sweep, with the spread made explicit as `mean ± stddev [CI]`.
//!
//! Invariants the properties in `crates/core/tests/stats_props.rs` pin:
//!
//! * Welford agrees with the naive two-pass mean/variance within an
//!   ulp-scaled epsilon;
//! * [`Welford::merge`] is deterministic, and chunked accumulation agrees
//!   with sequential accumulation (associativity/commutativity up to
//!   floating-point rounding);
//! * the CI half-width is monotone in the standard deviation;
//! * `n = 1` degenerates to the point estimate: zero stddev, zero CI,
//!   `min == max == mean`, and a single-seed [`MultiRunRecord`] serializes
//!   byte-identically to the legacy [`RunRecord`].

use crate::runner::RunRecord;
use graphbench_sim::json::{Error, FromJson, ToJson, Value, Writer};

/// Streaming mean/variance accumulator (Welford's online algorithm) with
/// min/max tracking and a deterministic pairwise merge (Chan et al.).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    pub fn new() -> Self {
        Welford::default()
    }

    /// Accumulate every value of an iterator.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let mut w = Welford::new();
        for v in values {
            w.push(v);
        }
        w
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        if self.n == 1 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merge another accumulator into this one (Chan et al.'s parallel
    /// update). Deterministic: the same operand order always produces the
    /// same bits.
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * (other.n as f64 / n as f64);
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64 / n as f64);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.n = n;
    }

    pub fn n(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`m2 / (n-1)`); zero below two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// 95% confidence-interval half-width: `t_{0.975, n-1} * s / sqrt(n)`.
    /// Zero below two samples (the CI degenerates to the point estimate).
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            t_critical_975(self.n - 1) * self.stddev() / (self.n as f64).sqrt()
        }
    }

    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            stddev: self.stddev(),
            ci95: self.ci95(),
            min: self.min,
            max: self.max,
        }
    }
}

/// Two-sided Student-t critical value at 95% confidence for `df` degrees of
/// freedom. Exact table entries through df = 30, then the standard coarse
/// rows (40, 60, 120, ∞); between rows the *smaller* df's (larger, more
/// conservative) value applies.
pub fn t_critical_975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df as usize - 1],
        31..=40 => 2.042,
        41..=60 => 2.021,
        61..=120 => 2.000,
        _ => 1.960,
    }
}

/// The summary statistics of one metric over a seed sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Number of samples (seeds) aggregated.
    pub n: u64,
    pub mean: f64,
    /// Unbiased sample standard deviation; zero below two samples.
    pub stddev: f64,
    /// 95% CI half-width (`t_{0.975, n-1} * stddev / sqrt(n)`).
    pub ci95: f64,
    pub min: f64,
    pub max: f64,
}

graphbench_sim::json_struct!(write Summary { n, mean, stddev, ci95, min, max });

impl Summary {
    /// Summarize an iterator of samples.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Summary {
        Welford::of(values).summary()
    }

    /// Conservative lower bound: `mean - ci95` (the point estimate when
    /// `n = 1`). NaN when the summary is empty, so comparisons fail safe.
    pub fn lower(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean - self.ci95
        }
    }

    /// Conservative upper bound: `mean + ci95` (the point estimate when
    /// `n = 1`). NaN when the summary is empty, so comparisons fail safe.
    pub fn upper(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean + self.ci95
        }
    }
}

/// `mean ±stddev [±CI]` with `decimals` fraction digits; collapses to the
/// bare mean for a single sample (the legacy single-seed rendering).
pub fn fmt_summary(s: &Summary, decimals: usize) -> String {
    if s.n <= 1 {
        format!("{:.*}", decimals, s.mean)
    } else {
        format!("{:.*} ±{:.*} [±{:.*}]", decimals, s.mean, decimals, s.stddev, decimals, s.ci95)
    }
}

/// The per-seed spread of one experiment cell: the same
/// `(system, workload, dataset, machines)` spec executed once per seed.
///
/// With a single seed this is a transparent wrapper — it serializes
/// byte-identically to the wrapped [`RunRecord`], so golden records and
/// saved `repro_results.json` files are unchanged by the multi-seed
/// machinery. With several seeds it serializes as
/// `{seeds, summary, runs}`.
#[derive(Debug, Clone)]
pub struct MultiRunRecord {
    seeds: Vec<u64>,
    runs: Vec<RunRecord>,
}

/// The serialized `summary` block of a multi-seed record.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepSummary {
    pub runs_ok: u64,
    pub total_time: Summary,
    pub load: Summary,
    pub execute: Summary,
    pub save: Summary,
    pub overhead: Summary,
    pub network_bytes: Summary,
    pub memory_byte_seconds: Summary,
}

graphbench_sim::json_struct!(write SweepSummary {
    runs_ok, total_time, load, execute, save, overhead, network_bytes, memory_byte_seconds,
});

impl MultiRunRecord {
    /// Aggregate `runs`, one per seed, in seed order. All runs must share
    /// the experiment spec (same system/workload/dataset/machines).
    pub fn new(seeds: Vec<u64>, runs: Vec<RunRecord>) -> Self {
        Self::checked(seeds, runs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MultiRunRecord::new`], with what it asserts as an error.
    fn checked(seeds: Vec<u64>, runs: Vec<RunRecord>) -> Result<Self, String> {
        let Some(first) = runs.first() else {
            return Err("MultiRunRecord needs at least one run".into());
        };
        if seeds.len() != runs.len() {
            return Err(format!("one seed per run: {} seeds, {} runs", seeds.len(), runs.len()));
        }
        let mixed = runs.iter().find(|r| {
            (&r.system, &r.workload, &r.dataset, r.machines)
                != (&first.system, &first.workload, &first.dataset, first.machines)
        });
        if let Some(r) = mixed {
            return Err(format!(
                "mixed specs in one MultiRunRecord: {}/{} vs {}/{}",
                first.system, first.workload, r.system, r.workload
            ));
        }
        Ok(MultiRunRecord { seeds, runs })
    }

    /// Wrap a single seeded run.
    pub fn single(seed: u64, run: RunRecord) -> Self {
        MultiRunRecord::new(vec![seed], vec![run])
    }

    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    pub fn runs(&self) -> &[RunRecord] {
        &self.runs
    }

    /// The first seed's run — the representative record (with one seed,
    /// exactly the legacy record).
    pub fn primary(&self) -> &RunRecord {
        &self.runs[0]
    }

    /// The primary run by value, for consumers that outlive the sweep (the
    /// journal and trace exporters).
    pub fn into_primary(mut self) -> RunRecord {
        self.runs.swap_remove(0)
    }

    pub fn n(&self) -> usize {
        self.runs.len()
    }

    pub fn system(&self) -> &str {
        &self.runs[0].system
    }

    pub fn workload(&self) -> &str {
        &self.runs[0].workload
    }

    pub fn dataset(&self) -> &str {
        &self.runs[0].dataset
    }

    pub fn machines(&self) -> usize {
        self.runs[0].machines
    }

    pub fn all_ok(&self) -> bool {
        self.runs.iter().all(|r| r.metrics.status.is_ok())
    }

    /// The status code shared by every seed, or `None` when seeds disagree.
    pub fn unanimous_code(&self) -> Option<&str> {
        let first = self.runs[0].metrics.status.code();
        self.runs.iter().all(|r| r.metrics.status.code() == first).then_some(first)
    }

    /// Summarize `f` over the successful runs only (empty summary — NaN
    /// bounds — when every seed failed).
    pub fn ok_summary_of(&self, f: impl Fn(&RunRecord) -> f64) -> Summary {
        Summary::of(self.runs.iter().filter(|r| r.metrics.status.is_ok()).map(f))
    }

    /// Total response time over the successful seeds.
    pub fn total_time(&self) -> Summary {
        self.ok_summary_of(|r| r.metrics.total_time())
    }

    /// The serialized summary block (and the efficiency-table source).
    pub fn sweep_summary(&self) -> SweepSummary {
        SweepSummary {
            runs_ok: self.runs.iter().filter(|r| r.metrics.status.is_ok()).count() as u64,
            total_time: self.total_time(),
            load: self.ok_summary_of(|r| r.metrics.phases.load),
            execute: self.ok_summary_of(|r| r.metrics.phases.execute),
            save: self.ok_summary_of(|r| r.metrics.phases.save),
            overhead: self.ok_summary_of(|r| r.metrics.phases.overhead),
            network_bytes: self.ok_summary_of(|r| r.metrics.network_bytes as f64),
            memory_byte_seconds: self.ok_summary_of(|r| r.journal.memory_byte_seconds()),
        }
    }

    /// The figure-grid cell: the legacy cell for one seed; `mean ±stddev
    /// [±CI]` seconds over the successful seeds; a unanimous failure code;
    /// or `MIX(code|code|…)` when seeds disagree on the outcome.
    pub fn cell(&self) -> String {
        if self.n() == 1 {
            return self.runs[0].cell();
        }
        match self.unanimous_code() {
            Some("OK") => {
                let s = self.total_time();
                format!("{:.0} ±{:.0} [±{:.0}]", s.mean, s.stddev, s.ci95)
            }
            Some(code) => code.to_string(),
            None => {
                let mut codes: Vec<&str> =
                    self.runs.iter().map(|r| r.metrics.status.code()).collect();
                codes.sort_unstable();
                codes.dedup();
                format!("MIX({})", codes.join("|"))
            }
        }
    }
}

/// One seed: exactly the wrapped run's record. Several: `{seeds, summary,
/// runs}`.
impl ToJson for MultiRunRecord {
    fn write_json(&self, w: &mut Writer) {
        if let [run] = &self.runs[..] {
            // Byte-identical to the legacy single-record path: goldens and
            // saved result JSONs do not change under one seed.
            run.write_json(w);
        } else {
            w.begin_object();
            w.field("seeds", &self.seeds);
            w.field("summary", &self.sweep_summary());
            w.field("runs", &self.runs);
            w.end_object();
        }
    }
}

/// Both forms [`ToJson`] writes. The one-seed form does not record its
/// seed, so it reads back as seed 0; the `summary` of the other is
/// recomputed from its runs.
impl FromJson for MultiRunRecord {
    fn from_json(v: &Value) -> Result<Self, Error> {
        if v.get("runs").is_none() {
            return Ok(MultiRunRecord::single(0, RunRecord::from_json(v)?));
        }
        MultiRunRecord::checked(v.field("seeds")?, v.field("runs")?).map_err(Error::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_hand_computed_stats() {
        let w = Welford::of([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(w.n(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Sample variance of the classic example: 32 / 7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn single_sample_degenerates_to_the_point_estimate() {
        let s = Summary::of([3.25]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 3.25);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.min, 3.25);
        assert_eq!(s.max, 3.25);
        assert_eq!(s.lower(), 3.25);
        assert_eq!(s.upper(), 3.25);
        assert_eq!(fmt_summary(&s, 2), "3.25");
    }

    #[test]
    fn empty_summary_bounds_fail_safe() {
        let s = Summary::of([]);
        assert_eq!(s.n, 0);
        assert!(s.lower().is_nan() && s.upper().is_nan());
        // NaN bounds are unordered, so every finding comparison is false.
        assert_eq!(s.upper().partial_cmp(&1.0), None);
        assert_eq!(s.lower().partial_cmp(&1.0), None);
    }

    #[test]
    fn merge_equals_sequential_accumulation() {
        let xs = [1.0, 2.5, 3.5, 10.0, -4.0, 0.25];
        let seq = Welford::of(xs);
        let mut a = Welford::of(xs[..3].iter().copied());
        let b = Welford::of(xs[3..].iter().copied());
        a.merge(&b);
        assert_eq!(a.n(), seq.n());
        assert!((a.mean() - seq.mean()).abs() < 1e-12);
        assert!((a.variance() - seq.variance()).abs() < 1e-12);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let w = Welford::of([1.0, 2.0]);
        let mut a = w;
        a.merge(&Welford::new());
        assert_eq!(a, w);
        let mut e = Welford::new();
        e.merge(&w);
        assert_eq!(e, w);
    }

    #[test]
    fn t_table_is_monotone_and_bracketed() {
        assert_eq!(t_critical_975(1), 12.706);
        assert_eq!(t_critical_975(4), 2.776);
        assert_eq!(t_critical_975(30), 2.042);
        assert_eq!(t_critical_975(1_000_000), 1.960);
        for df in 1..200 {
            assert!(
                t_critical_975(df + 1) <= t_critical_975(df),
                "t table not monotone at df {df}"
            );
            assert!(t_critical_975(df) >= 1.960);
        }
    }

    #[test]
    fn ci_shrinks_with_samples_and_grows_with_spread() {
        let tight = Summary::of([10.0, 10.1, 9.9, 10.05, 9.95]);
        let wide = Summary::of([10.0, 14.0, 6.0, 12.0, 8.0]);
        assert!(wide.ci95 > tight.ci95);
        let few = Summary::of([10.0, 12.0]);
        let many = Summary::of([10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0]);
        assert!(many.ci95 < few.ci95);
    }

    #[test]
    fn fmt_summary_renders_spread() {
        let s = Summary::of([10.0, 12.0, 14.0]);
        let txt = fmt_summary(&s, 1);
        assert!(txt.starts_with("12.0 ±2.0 [±"), "{txt}");
    }
}
