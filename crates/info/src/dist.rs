//! Exact finite probability distributions.

use std::collections::BTreeMap;

/// An exact probability distribution over a finite support.
///
/// Probabilities are `f64` and are normalized at construction; the
/// support is kept in a `BTreeMap` so every summation (entropy, KL,
/// marginals) runs in outcome order — float accumulation order is
/// deterministic across processes, which the byte-identical report
/// guarantee relies on. Entropies are computed by exact summation over
/// the support (no sampling).
///
/// # Example
///
/// ```
/// use bcc_info::Dist;
///
/// let d = Dist::from_weights(vec![("a", 1.0), ("b", 1.0), ("c", 2.0)]);
/// assert!((d.prob(&"c") - 0.5).abs() < 1e-12);
/// assert!((d.entropy() - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Dist<T: Ord> {
    probs: BTreeMap<T, f64>,
}

impl<T: Ord + Clone> Dist<T> {
    /// The uniform distribution over the given outcomes (duplicates
    /// accumulate mass).
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is empty.
    pub fn uniform(outcomes: Vec<T>) -> Self {
        assert!(!outcomes.is_empty(), "a distribution needs support");
        let w = 1.0 / outcomes.len() as f64;
        let mut probs: BTreeMap<T, f64> = BTreeMap::new();
        for o in outcomes {
            *probs.entry(o).or_insert(0.0) += w;
        }
        Dist { probs }
    }

    /// A distribution from nonnegative weights, normalized to sum 1.
    /// Duplicate outcomes accumulate. Zero-weight outcomes are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the total weight is not positive and finite, or any
    /// weight is negative.
    pub fn from_weights(weights: Vec<(T, f64)>) -> Self {
        let total: f64 = weights.iter().map(|(_, w)| *w).sum();
        assert!(
            total.is_finite() && total > 0.0,
            "total weight must be positive and finite"
        );
        let mut probs: BTreeMap<T, f64> = BTreeMap::new();
        for (o, w) in weights {
            assert!(w >= 0.0, "negative weight");
            if w > 0.0 {
                *probs.entry(o).or_insert(0.0) += w / total;
            }
        }
        Dist { probs }
    }

    /// Probability of `outcome` (0 if outside the support).
    pub fn prob(&self, outcome: &T) -> f64 {
        self.probs.get(outcome).copied().unwrap_or(0.0)
    }

    /// Support size.
    pub fn support_size(&self) -> usize {
        self.probs.len()
    }

    /// Iterates over `(outcome, probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&T, f64)> {
        self.probs.iter().map(|(o, &p)| (o, p))
    }

    /// The Shannon entropy `H(X) = −Σ p·log₂ p` in bits.
    pub fn entropy(&self) -> f64 {
        self.probs
            .values()
            .map(|&p| if p > 0.0 { -p * p.log2() } else { 0.0 })
            .sum()
    }

    /// Pushforward along `f`: the distribution of `f(X)`.
    pub fn map<U: Ord + Clone>(&self, mut f: impl FnMut(&T) -> U) -> Dist<U> {
        let mut probs: BTreeMap<U, f64> = BTreeMap::new();
        for (o, &p) in &self.probs {
            *probs.entry(f(o)).or_insert(0.0) += p;
        }
        Dist { probs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_entropy_is_log_support() {
        let d = Dist::uniform((0..8).collect());
        assert!((d.entropy() - 3.0).abs() < 1e-12);
        assert_eq!(d.support_size(), 8);
    }

    #[test]
    fn point_has_zero_entropy() {
        let d = Dist::uniform(vec![42]);
        assert_eq!(d.entropy(), 0.0);
        assert_eq!(d.prob(&42), 1.0);
        assert_eq!(d.prob(&41), 0.0);
    }

    #[test]
    fn weights_normalize_and_merge() {
        let d = Dist::from_weights(vec![("x", 2.0), ("x", 2.0), ("y", 4.0), ("z", 0.0)]);
        assert!((d.prob(&"x") - 0.5).abs() < 1e-12);
        assert!((d.prob(&"y") - 0.5).abs() < 1e-12);
        assert_eq!(d.support_size(), 2, "zero-weight outcome dropped");
    }

    #[test]
    fn map_groups_mass() {
        let d = Dist::uniform((0..10).collect());
        let parity = d.map(|x| x % 2);
        assert!((parity.prob(&0) - 0.5).abs() < 1e-12);
        assert!((parity.entropy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn map_never_increases_entropy() {
        let d = Dist::from_weights(vec![(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]);
        let m = d.map(|x| x / 2);
        assert!(m.entropy() <= d.entropy() + 1e-12);
    }

    #[test]
    #[should_panic(expected = "support")]
    fn uniform_empty_panics() {
        Dist::<u32>::uniform(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_total_weight_panics() {
        Dist::from_weights(vec![("a", 0.0)]);
    }
}
