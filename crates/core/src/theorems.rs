//! Assembled, machine-checkable certificates for the paper's KT-0
//! theorems (3.5 and 3.1); the KT-1 ones live in [`crate::kt1`]
//! (Theorem 4.4) and [`crate::infobound`] (Theorem 4.5).
//!
//! Each function gathers every verifiable ingredient of one theorem's
//! proof at a concrete instance size and returns a structured report
//! whose `holds()` method asserts all of them at once. The test suite
//! asserts them.

use crate::hard::{
    distributional_error, star_distribution, star_error_floor, uniform_two_cycle_distribution,
};
use crate::indist::{lemma_3_9_degree_check, lemma_3_9_t_counts, IndistGraph};
use bcc_model::testing::ConstantDecision;
use bcc_model::Algorithm;

/// Certificate for the warm-up Theorem 3.5 at size `n`, round budget
/// `t`.
#[derive(Debug, Clone)]
pub struct Theorem35Certificate {
    /// Instance size.
    pub n: usize,
    /// Round budget.
    pub t: usize,
    /// The pigeonhole error floor `Ω(3^{−4t})`.
    pub error_floor: f64,
    /// Measured error of each supplied algorithm under the star
    /// distribution, paired with its name.
    pub measured_errors: Vec<(String, f64)>,
}

impl Theorem35Certificate {
    /// Every measured algorithm errs at least the floor (capped at
    /// 1/2, the error of the trivial constant algorithms).
    pub fn holds(&self) -> bool {
        let floor = self.error_floor.min(0.5);
        self.measured_errors.iter().all(|&(_, e)| e + 1e-9 >= floor)
    }
}

/// Builds the Theorem 3.5 certificate: the analytic floor plus
/// measured errors of the supplied `t`-round algorithms (all must
/// decide within `t` rounds).
// bcc-lint: allow(U1): certificate that the open E2 proof-chain item moves onto the engine
pub fn theorem_3_5(
    n: usize,
    t: usize,
    algorithms: &[(&str, &dyn Algorithm)],
) -> Theorem35Certificate {
    let dist = star_distribution(n);
    let mut measured: Vec<(String, f64)> = algorithms
        .iter()
        .map(|(name, a)| (name.to_string(), distributional_error(&dist, *a, t, 0)))
        .collect();
    measured.push((
        "constant-yes".into(),
        distributional_error(&dist, &ConstantDecision::yes(), t, 0),
    ));
    Theorem35Certificate {
        n,
        t,
        error_floor: star_error_floor(n, t),
        measured_errors: measured,
    }
}

/// Certificate for the combinatorial core of Theorem 3.1 at size `n`:
/// the exact structure of the round-0 indistinguishability graph.
#[derive(Debug, Clone)]
pub struct Theorem31Certificate {
    /// Instance size.
    pub n: usize,
    /// `|V₁|`, `|V₂|`.
    pub v1: usize,
    /// See `v1`.
    pub v2: usize,
    /// Measured `|V₂|/|V₁|` (Lemma 3.9: `Θ(log n)`).
    pub ratio: f64,
    /// Exact degree structure verified (Lemma 3.7/3.9 bookkeeping).
    pub degrees_exact: bool,
    /// Per-smaller-cycle-length `(i, |T_i|, predicted)` counts.
    pub t_counts: Vec<(usize, usize, f64)>,
    /// Largest `k` with a `k`-matching saturating the smaller side of
    /// the indistinguishability graph (Theorem 2.1 / Lemma 3.8
    /// realized constructively; at enumerable sizes the smaller side
    /// is `V₂` — see `IndistGraph::max_k_matching_v2`).
    pub max_k_matching: usize,
    /// Measured error of the supplied algorithms at `t` rounds under
    /// the uniform `V₁`/`V₂` distribution.
    pub measured_errors: Vec<(String, f64)>,
    /// The round budget used for the error measurements.
    pub t: usize,
}

impl Theorem31Certificate {
    /// All structural facts verified and every measured `t`-round
    /// algorithm errs at least a constant (the theorem's conclusion;
    /// we use 1/8 as the concrete constant for the enumerable sizes).
    pub fn holds(&self) -> bool {
        self.degrees_exact
            && self.max_k_matching >= 1
            && self
                .t_counts
                .iter()
                .all(|&(_, c, p)| (c as f64 - p).abs() < 1e-6)
            && self.measured_errors.iter().all(|&(_, e)| e >= 0.125)
    }
}

/// Builds the Theorem 3.1 certificate at size `n` with error
/// measurements at `t` rounds.
// bcc-lint: allow(U1): certificate that the open E2 proof-chain item moves onto the engine
pub fn theorem_3_1(
    n: usize,
    t: usize,
    algorithms: &[(&str, &dyn Algorithm)],
) -> Theorem31Certificate {
    let g = IndistGraph::round_zero(n);
    let dist = uniform_two_cycle_distribution(n);
    let mut measured: Vec<(String, f64)> = algorithms
        .iter()
        .map(|(name, a)| (name.to_string(), distributional_error(&dist, *a, t, 0)))
        .collect();
    measured.push((
        "constant-yes".into(),
        distributional_error(&dist, &ConstantDecision::yes(), t, 0),
    ));
    Theorem31Certificate {
        n,
        v1: g.v1_len(),
        v2: g.v2_len(),
        ratio: g.count_ratio(),
        degrees_exact: lemma_3_9_degree_check(&g),
        t_counts: lemma_3_9_t_counts(&g),
        max_k_matching: g.max_k_matching_v2(2 + (g.v1_len() / g.v2_len().max(1))),
        measured_errors: measured,
        t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_algorithms::{HashVoteDecider, ParityDecider};

    #[test]
    fn theorem_3_5_certificate_holds() {
        let hash = HashVoteDecider::new(1);
        let parity = ParityDecider::new(1);
        // n = 54 so the pigeonhole floor is positive at t = 1
        // (s = 18 edges, s' = ceil(18/9) = 2).
        let cert = theorem_3_5(54, 1, &[("hash-vote", &hash), ("parity", &parity)]);
        assert!(cert.holds(), "{cert:?}");
        assert!(cert.error_floor > 0.0);
    }

    #[test]
    fn theorem_3_1_certificate_holds() {
        let hash = HashVoteDecider::new(1);
        let parity = ParityDecider::new(1);
        let cert = theorem_3_1(7, 1, &[("hash-vote", &hash), ("parity", &parity)]);
        assert!(cert.holds(), "{cert:?}");
        assert_eq!(cert.v1, 360);
        assert!(cert.ratio > 0.0);
    }
}
