//! Walker alias method for O(1) sampling from a discrete distribution.
//!
//! Both power-law generators draw hundreds of edge endpoints per vertex from
//! a fixed weight vector; the alias table makes each draw two random numbers
//! and one comparison.

use graphbench_graph::rng::Rng;

/// Precomputed alias table over `weights.len()` outcomes.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build from non-negative weights. Panics if the weights are empty or
    /// sum to zero (there would be nothing to sample).
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one outcome");
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "alias table needs positive total weight");
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers are 1.0 up to float error.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table has no outcomes (never constructed — `new` panics).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw one outcome.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let i = rng.below(self.prob.len());
        if rng.f64() < self.prob[i] {
            i as u32
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_weights_sample_uniformly() {
        let t = AliasTable::new(&[1.0, 1.0, 1.0, 1.0]);
        let mut rng = Rng::seed_from_u64(1);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn skewed_weights_respected() {
        let t = AliasTable::new(&[9.0, 1.0]);
        let mut rng = Rng::seed_from_u64(2);
        let mut zero = 0u32;
        let trials = 50_000;
        for _ in 0..trials {
            if t.sample(&mut rng) == 0 {
                zero += 1;
            }
        }
        let frac = zero as f64 / trials as f64;
        assert!((0.87..0.93).contains(&frac), "frac {frac}");
    }

    #[test]
    fn zero_weight_outcome_never_sampled() {
        let t = AliasTable::new(&[1.0, 0.0, 1.0]);
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn single_outcome() {
        let t = AliasTable::new(&[0.5]);
        let mut rng = Rng::seed_from_u64(4);
        assert_eq!(t.sample(&mut rng), 0);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn all_zero_weights_panic() {
        AliasTable::new(&[0.0, 0.0]);
    }
}
