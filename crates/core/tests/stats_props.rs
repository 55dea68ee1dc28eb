//! Properties of the multi-seed stats module over seeded samples: the Welford
//! accumulator agrees with the naive two-pass reference, the deterministic
//! merge is order- and chunking-insensitive (up to floating-point
//! rounding), the confidence interval behaves monotonically, and a single
//! sample degenerates to the point estimate.

use graphbench::stats::{t_critical_975, Summary, Welford};
use graphbench_graph::rng::{for_each_seed, Rng};

/// Naive two-pass mean/sample-variance reference.
fn two_pass(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = if xs.len() < 2 {
        0.0
    } else {
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
    };
    (mean, var)
}

/// Tolerance scaled to the magnitude of the values involved (an
/// ulp-scaled epsilon: f64 has ~2^-52 relative precision; allow a
/// generous constant factor for the accumulation-order differences).
fn close(a: f64, b: f64, scale: f64) -> bool {
    let tol = f64::EPSILON * 1e4 * scale.max(1.0);
    (a - b).abs() <= tol
}

fn sample(rng: &mut Rng) -> f64 {
    // Finite, moderate magnitudes: benchmark metrics, not denormals.
    -1e6 + 2e6 * rng.f64()
}

/// Between `lo` and `hi - 1` samples.
fn samples(rng: &mut Rng, lo: usize, hi: usize) -> Vec<f64> {
    (0..lo + rng.below(hi - lo)).map(|_| sample(rng)).collect()
}

#[test]
fn welford_matches_the_two_pass_reference() {
    for_each_seed(256, |_, rng| {
        let xs = samples(rng, 1, 200);
        let w = Welford::of(xs.iter().copied());
        let (mean, var) = two_pass(&xs);
        let scale = xs.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        assert_eq!(w.n(), xs.len() as u64);
        assert!(close(w.mean(), mean, scale), "mean {} vs {}", w.mean(), mean);
        assert!(close(w.variance(), var, scale * scale), "variance {} vs {}", w.variance(), var);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(w.min(), min);
        assert_eq!(w.max(), max);
    });
}

/// Chunked accumulation + merge equals sequential accumulation: split
/// the sample anywhere, merge the parts, and the moments agree within
/// rounding. This is merge-associativity exercised through every
/// possible binary split.
#[test]
fn chunked_merge_equals_sequential() {
    for_each_seed(256, |_, rng| {
        let xs = samples(rng, 2, 200);
        let k = rng.below(xs.len());
        let seq = Welford::of(xs.iter().copied());
        let mut a = Welford::of(xs[..k].iter().copied());
        let b = Welford::of(xs[k..].iter().copied());
        a.merge(&b);
        let scale = xs.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        assert_eq!(a.n(), seq.n());
        assert!(close(a.mean(), seq.mean(), scale));
        assert!(close(a.variance(), seq.variance(), scale * scale));
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    });
}

/// Merge commutativity: a+b and b+a agree within rounding (they are
/// not bit-identical in general — determinism is per operand order —
/// but the statistics must match).
#[test]
fn merge_is_commutative_within_rounding() {
    for_each_seed(256, |_, rng| {
        let xs = samples(rng, 1, 100);
        let ys = samples(rng, 1, 100);
        let wx = Welford::of(xs.iter().copied());
        let wy = Welford::of(ys.iter().copied());
        let mut ab = wx;
        ab.merge(&wy);
        let mut ba = wy;
        ba.merge(&wx);
        let scale = xs.iter().chain(&ys).fold(0.0f64, |m, x| m.max(x.abs()));
        assert_eq!(ab.n(), ba.n());
        assert!(close(ab.mean(), ba.mean(), scale));
        assert!(close(ab.variance(), ba.variance(), scale * scale));
        assert_eq!(ab.min(), ba.min());
        assert_eq!(ab.max(), ba.max());
    });
}

/// Merge determinism: the same operand order produces bit-identical
/// accumulators.
#[test]
fn merge_is_deterministic_bitwise() {
    for_each_seed(256, |_, rng| {
        let xs = samples(rng, 1, 100);
        let ys = samples(rng, 1, 100);
        let run = || {
            let mut a = Welford::of(xs.iter().copied());
            a.merge(&Welford::of(ys.iter().copied()));
            a
        };
        let (a, b) = (run(), run());
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        assert_eq!(a.variance().to_bits(), b.variance().to_bits());
    });
}

/// The CI half-width is monotone in the standard deviation: scaling a
/// sample's spread up (same n, same t value) scales the CI with it.
#[test]
fn ci_is_monotone_in_stddev() {
    for_each_seed(256, |_, rng| {
        let xs = samples(rng, 2, 50);
        let factor = 1.01 + 98.99 * rng.f64();
        let s = Summary::of(xs.iter().copied());
        if s.stddev <= 1e-9 {
            return; // a constant sample has no spread to scale
        }
        let mean = s.mean;
        let wider: Vec<f64> = xs.iter().map(|x| mean + (x - mean) * factor).collect();
        let w = Summary::of(wider);
        assert!(
            w.ci95 > s.ci95,
            "ci {} at stddev {} should exceed ci {} at stddev {}",
            w.ci95,
            w.stddev,
            s.ci95,
            s.stddev
        );
        // And the CI formula itself: half-width = t * s / sqrt(n).
        let expect = t_critical_975(s.n - 1) * s.stddev / (s.n as f64).sqrt();
        assert!(close(s.ci95, expect, s.stddev.abs()));
    });
}

/// n = 1 degenerates to the point estimate: zero spread, zero CI,
/// bounds equal to the mean, min = max = mean.
#[test]
fn single_sample_is_a_point_estimate() {
    for_each_seed(256, |_, rng| {
        let x = sample(rng);
        let s = Summary::of([x]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, x);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.lower(), x);
        assert_eq!(s.upper(), x);
        assert_eq!(s.min, x);
        assert_eq!(s.max, x);
    });
}

/// CI bounds always bracket the mean, and more samples of the same
/// data never widen the interval's scaled width.
#[test]
fn ci_bounds_bracket_the_mean() {
    for_each_seed(256, |_, rng| {
        let xs = samples(rng, 1, 100);
        let s = Summary::of(xs.iter().copied());
        assert!(s.ci95 >= 0.0);
        assert!(s.lower() <= s.mean && s.mean <= s.upper());
        assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
    });
}
