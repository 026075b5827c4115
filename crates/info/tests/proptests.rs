//! Property-based tests: the information-theoretic inequalities the
//! Theorem 4.5 argument relies on, over random finite distributions.

use bcc_info::{Dist, Joint};
use proptest::prelude::*;

fn arb_weights(max_support: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1u32..1000, 1..=max_support)
        .prop_map(|ws| ws.into_iter().map(|w| w as f64).collect())
}

fn arb_joint(max_x: usize, max_y: usize) -> impl Strategy<Value = Joint<usize, usize>> {
    (1usize..=max_x, 1usize..=max_y).prop_flat_map(|(nx, ny)| {
        proptest::collection::vec(0u32..100, nx * ny).prop_filter_map(
            "needs positive total mass",
            move |ws| {
                let total: u32 = ws.iter().sum();
                if total == 0 {
                    return None;
                }
                let weights: Vec<((usize, usize), f64)> = ws
                    .into_iter()
                    .enumerate()
                    .map(|(i, w)| ((i / ny, i % ny), w as f64))
                    .collect();
                Some(Joint::from_weights(weights))
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// 0 ≤ H(X) ≤ log₂|support|, with equality at uniform.
    #[test]
    fn entropy_bounds(ws in arb_weights(12)) {
        let n = ws.len();
        let d = Dist::from_weights(ws.into_iter().enumerate().collect());
        let h = d.entropy();
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= (n as f64).log2() + 1e-9);
        let u = Dist::uniform((0..n).collect::<Vec<_>>());
        prop_assert!(h <= u.entropy() + 1e-9);
    }

    /// I(X;Y) ≥ 0 and I ≤ min(H(X), H(Y)) — the inequalities chained in
    /// Theorem 4.5.
    #[test]
    fn mutual_information_bounds(j in arb_joint(6, 6)) {
        let i = j.mutual_information();
        prop_assert!(i >= 0.0);
        prop_assert!(i <= j.marginal_x().entropy() + 1e-9);
        prop_assert!(i <= j.marginal_y().entropy() + 1e-9);
    }

    /// Chain rule: H(X,Y) = H(Y) + H(X|Y).
    #[test]
    fn chain_rule(j in arb_joint(6, 6)) {
        let joint = j.joint_entropy();
        prop_assert!((joint - j.marginal_y().entropy() - j.conditional_entropy_x_given_y()).abs() < 1e-9);
    }

    /// Conditioning never increases entropy: H(X|Y) ≤ H(X).
    #[test]
    fn conditioning_reduces_entropy(j in arb_joint(8, 8)) {
        prop_assert!(j.conditional_entropy_x_given_y() <= j.marginal_x().entropy() + 1e-9);
    }

    /// Subadditivity: H(X,Y) ≤ H(X) + H(Y).
    #[test]
    fn subadditivity(j in arb_joint(8, 8)) {
        prop_assert!(
            j.joint_entropy() <= j.marginal_x().entropy() + j.marginal_y().entropy() + 1e-9
        );
    }

    /// Data processing (deterministic form): I(X; f(Y)) ≤ I(X; Y) for
    /// a fixed coarsening f.
    #[test]
    fn data_processing(j in arb_joint(6, 8)) {
        let mut weights: Vec<((usize, usize), f64)> = Vec::new();
        for x in 0..6usize {
            for y in 0..8usize {
                let p = j.prob(&x, &y);
                if p > 0.0 {
                    weights.push(((x, y / 2), p));
                }
            }
        }
        let coarsened = Joint::from_weights(weights);
        prop_assert!(coarsened.mutual_information() <= j.mutual_information() + 1e-9);
    }

}
