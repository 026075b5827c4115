//! Joint distributions and mutual information.

use crate::dist::Dist;
use std::collections::BTreeMap;

/// An exact joint distribution over pairs `(X, Y)`.
///
/// The information-theoretic lower bound of Theorem 4.5 is a statement
/// about the joint distribution of (Alice's input `P_A`, the protocol
/// transcript `Π`). [`Joint`] computes `H(X, Y)`, `H(X | Y)` and
/// `I(X; Y)` exactly from the enumerated joint support.
///
/// # Example
///
/// ```
/// use bcc_info::Joint;
///
/// // Y = X: mutual information equals the entropy.
/// let j = Joint::from_weights((0..4).map(|x| ((x, x), 1.0)).collect());
/// assert!((j.mutual_information() - 2.0).abs() < 1e-12);
/// // Independent uniform bits: zero mutual information.
/// let ind = Joint::from_weights(
///     [(0, 0), (0, 1), (1, 0), (1, 1)].iter().map(|&p| (p, 1.0)).collect(),
/// );
/// assert!(ind.mutual_information().abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Joint<X: Ord, Y: Ord> {
    probs: BTreeMap<(X, Y), f64>,
}

impl<X: Ord + Clone, Y: Ord + Clone> Joint<X, Y> {
    /// Builds a joint distribution from nonnegative weights on pairs,
    /// normalized to total mass 1. Duplicates accumulate; zero weights
    /// are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the total weight is not positive and finite, or any
    /// weight is negative.
    pub fn from_weights(weights: Vec<((X, Y), f64)>) -> Self {
        let total: f64 = weights.iter().map(|(_, w)| *w).sum();
        assert!(
            total.is_finite() && total > 0.0,
            "total weight must be positive and finite"
        );
        let mut probs: BTreeMap<(X, Y), f64> = BTreeMap::new();
        for (pair, w) in weights {
            assert!(w >= 0.0, "negative weight");
            if w > 0.0 {
                *probs.entry(pair).or_insert(0.0) += w / total;
            }
        }
        Joint { probs }
    }

    /// The probability of a pair.
    pub fn prob(&self, x: &X, y: &Y) -> f64 {
        self.probs
            .get(&(x.clone(), y.clone()))
            .copied()
            .unwrap_or(0.0)
    }

    /// The marginal distribution of `X`.
    pub fn marginal_x(&self) -> Dist<X> {
        Dist::from_weights(
            self.probs
                .iter()
                .map(|((x, _), &p)| (x.clone(), p))
                .collect(),
        )
    }

    /// The marginal distribution of `Y`.
    pub fn marginal_y(&self) -> Dist<Y> {
        Dist::from_weights(
            self.probs
                .iter()
                .map(|((_, y), &p)| (y.clone(), p))
                .collect(),
        )
    }

    /// The joint entropy `H(X, Y)` in bits.
    pub fn joint_entropy(&self) -> f64 {
        self.probs
            .values()
            .map(|&p| if p > 0.0 { -p * p.log2() } else { 0.0 })
            .sum()
    }

    /// The conditional entropy `H(X | Y) = H(X, Y) − H(Y)` in bits.
    pub fn conditional_entropy_x_given_y(&self) -> f64 {
        (self.joint_entropy() - self.marginal_y().entropy()).max(0.0)
    }

    /// The mutual information `I(X; Y) = H(X) + H(Y) − H(X, Y)` in
    /// bits (clamped at 0 against floating-point cancellation).
    pub fn mutual_information(&self) -> f64 {
        (self.marginal_x().entropy() + self.marginal_y().entropy() - self.joint_entropy()).max(0.0)
    }

    /// Number of support pairs.
    pub fn support_size(&self) -> usize {
        self.probs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_rule() {
        // H(X, Y) = H(Y) + H(X|Y).
        let j = Joint::from_weights(vec![
            ((0, 'a'), 1.0),
            ((0, 'b'), 2.0),
            ((1, 'a'), 3.0),
            ((1, 'c'), 2.0),
        ]);
        let lhs = j.joint_entropy();
        assert!(
            (lhs - (j.marginal_y().entropy() + j.conditional_entropy_x_given_y())).abs() < 1e-9
        );
    }

    #[test]
    fn mutual_information_symmetric_formulas() {
        let j = Joint::from_weights(vec![
            ((0, 0), 4.0),
            ((0, 1), 1.0),
            ((1, 0), 1.0),
            ((1, 1), 4.0),
        ]);
        let i1 = j.mutual_information();
        let i2 = j.marginal_x().entropy() - j.conditional_entropy_x_given_y();
        assert!((i1 - i2).abs() < 1e-9);
        assert!(i1 > 0.0);
    }

    /// The joint distribution of `(X, f(X))` for `X` uniform on `0..n`.
    fn of_function(n: u32, f: impl Fn(u32) -> u32) -> Joint<u32, u32> {
        Joint::from_weights((0..n).map(|v| ((v, f(v)), 1.0)).collect())
    }

    #[test]
    fn deterministic_function_gives_full_information_about_output() {
        // If Y = f(X), then H(Y|X) = H(X,Y) − H(X) = 0 and I(X;Y) = H(Y).
        let j = of_function(12, |v| v % 3);
        assert!((j.joint_entropy() - j.marginal_x().entropy()).abs() < 1e-12);
        assert!((j.mutual_information() - j.marginal_y().entropy()).abs() < 1e-9);
    }

    #[test]
    fn injective_function_reveals_everything() {
        // The transcript of an exact PartitionComp protocol determines
        // Alice's input: H(X | Y) = 0 and I = H(X).
        let j = of_function(16, |v| v * 7);
        assert!(j.conditional_entropy_x_given_y().abs() < 1e-9);
        assert!((j.mutual_information() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn independence_gives_zero_information() {
        let mut weights = Vec::new();
        for x in 0..4 {
            for y in 0..3 {
                weights.push(((x, y), 1.0));
            }
        }
        let j = Joint::from_weights(weights);
        assert!(j.mutual_information().abs() < 1e-9);
        assert_eq!(j.support_size(), 12);
    }

    #[test]
    fn information_bounded_by_entropies() {
        let j = Joint::from_weights(vec![((0, 0), 1.0), ((1, 0), 1.0), ((1, 1), 2.0)]);
        let i = j.mutual_information();
        assert!(i <= j.marginal_x().entropy() + 1e-12);
        assert!(i <= j.marginal_y().entropy() + 1e-12);
        assert!(i >= 0.0);
    }

    #[test]
    fn marginals_sum_to_one() {
        let j = Joint::from_weights(vec![((0, 0), 3.0), ((1, 1), 1.0)]);
        let mass = |d: Dist<u32>| d.iter().map(|(_, p)| p).sum::<f64>();
        assert!((mass(j.marginal_x()) - 1.0).abs() < 1e-12);
        assert!((mass(j.marginal_y()) - 1.0).abs() < 1e-12);
        assert!((j.prob(&0, &0) - 0.75).abs() < 1e-12);
    }
}
