//! Theorem 4.5, computed exactly: the mutual information between
//! Alice's input and the `PartitionComp` transcript under the hard
//! distribution.
//!
//! Hard distribution µ: `P_A` uniform over all `B_n` partitions of
//! `[n]`, `P_B` fixed to the finest partition — so
//! `P_A ∨ P_B = P_A` and a correct protocol's transcript must let Bob
//! reconstruct `P_A` exactly. The chain the paper uses,
//!
//! ```text
//! |Π| ≥ H(Π) ≥ I(P_A; Π) = H(P_A) − H(P_A | Π) ≥ (1 − ε)·H(P_A) − h(ε),
//! ```
//!
//! with `H(P_A) = log₂ B_n = Θ(n log n)` and the last step Fano's
//! inequality, `H(P_A | Π) ≤ h(ε) + ε·log₂(B_n − 1)`, is evaluated
//! term by term on concrete protocols (exact and bit-budget-truncated)
//! by full enumeration — no sampling anywhere.

use bcc_comm::driver::{run_protocol, DriverOpts};
use bcc_comm::protocols::{JoinCompAlice, JoinCompBob};
use bcc_info::{Dist, Joint};
use bcc_partitions::enumerate::all_partitions;
use bcc_partitions::numbers::bell_number;
use bcc_partitions::SetPartition;

/// The exact information accounting of one protocol family at one
/// ground-set size.
#[derive(Debug, Clone)]
pub struct InfoBoundReport {
    /// Ground-set size.
    pub n: usize,
    /// The bit budget imposed on the protocol (`None` = unlimited).
    pub budget: Option<usize>,
    /// `H(P_A) = log₂ B_n`, exactly.
    pub input_entropy: f64,
    /// `H(Π)`: entropy of the transcript.
    pub transcript_entropy: f64,
    /// `I(P_A; Π)`, exactly.
    pub mutual_information: f64,
    /// `H(P_A | Π)`.
    pub conditional_entropy: f64,
    /// Longest transcript, in bits (the `|Π|` of the argument).
    pub max_transcript_bits: usize,
    /// Fraction of the input mass on which Bob's output is wrong or
    /// missing (the ε of the ε-error protocol).
    pub error: f64,
}

impl InfoBoundReport {
    /// The inequality chain of Theorem 4.5, checked numerically (with
    /// a small tolerance for floating point):
    /// `|Π| ≥ H(Π) ≥ I(P_A; Π) ≥ (1 − ε)·H(P_A) − h(ε)`. The last
    /// step is Fano's inequality; without its `h(ε)` term it fails for
    /// honest ε-error protocols, such as a Bob who ignores Alice and
    /// guesses one fixed partition. `h(0) = h(1) = 0`, so exact and
    /// fully starved protocols are held to `I ≥ (1 − ε)·H(P_A)`.
    pub fn chain_holds(&self) -> bool {
        let tol = 1e-6;
        self.max_transcript_bits as f64 + tol >= self.transcript_entropy
            && self.transcript_entropy + tol >= self.mutual_information
            && self.mutual_information + tol
                >= (1.0 - self.error) * self.input_entropy - binary_entropy(self.error)
    }
}

/// The binary entropy `h(p) = −p·log₂ p − (1 − p)·log₂(1 − p)`, with
/// `h(0) = h(1) = 0`.
fn binary_entropy(p: f64) -> f64 {
    [p, 1.0 - p]
        .into_iter()
        .filter(|&q| q > 0.0)
        .map(|q| -q * q.log2())
        .sum()
}

/// Runs the `PartitionComp` protocol on **every** partition of `[n]`
/// (with `P_B` finest) under an optional bit budget, and computes the
/// exact joint distribution of (input, transcript).
///
/// # Panics
///
/// Panics for `n` large enough that enumerating `B_n` partitions is
/// infeasible (use `n ≤ 10`; `B_10 = 115 975`).
pub fn partition_comp_information(n: usize, budget: Option<usize>) -> InfoBoundReport {
    let pb = SetPartition::finest(n);
    let inputs: Vec<SetPartition> = all_partitions(n).collect();
    debug_assert_eq!(inputs.len() as u128, bell_number(n));
    let mut rows: Vec<((usize, Vec<bool>), f64)> = Vec::with_capacity(inputs.len());
    let mut max_bits = 0usize;
    let mut errors = 0usize;
    for (idx, pa) in inputs.iter().enumerate() {
        let mut alice = JoinCompAlice::new(pa.clone());
        let mut bob = JoinCompBob::new(pb.clone());
        let run = match budget {
            Some(b) => run_protocol(&mut alice, &mut bob, &DriverOpts::new(16).bit_budget(b)),
            None => run_protocol(&mut alice, &mut bob, &DriverOpts::new(16)),
        };
        max_bits = max_bits.max(run.bits_exchanged);
        let correct = run.bob_output.as_ref() == Some(&pa.join(&pb));
        if !correct {
            errors += 1;
        }
        rows.push(((idx, run.transcript_bits()), 1.0));
    }
    let joint = Joint::from_weights(rows.into_iter().collect());
    let input_entropy = Dist::uniform((0..inputs.len()).collect::<Vec<_>>()).entropy();
    InfoBoundReport {
        n,
        budget,
        input_entropy,
        transcript_entropy: joint.marginal_y().entropy(),
        mutual_information: joint.mutual_information(),
        conditional_entropy: joint.conditional_entropy_x_given_y(),
        max_transcript_bits: max_bits,
        error: errors as f64 / inputs.len() as f64,
    }
}

/// The implied KT-1 `BCC(1)` round lower bound for
/// `ConnectedComponents` at communication `Θ(n)` bits per round:
/// `(1 − ε)·log₂ B_n / bits-per-round` (the Theorem 4.5 conclusion).
pub fn implied_round_lower_bound(report: &InfoBoundReport, bits_per_round: usize) -> f64 {
    (1.0 - report.error) * report.input_entropy / bits_per_round as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_protocol_reveals_everything() {
        let r = partition_comp_information(5, None);
        assert_eq!(r.error, 0.0);
        // Transcript determines PA: I = H(PA) = log2 B_5 = log2 52.
        assert!((r.input_entropy - (52f64).log2()).abs() < 1e-9);
        assert!((r.mutual_information - r.input_entropy).abs() < 1e-9);
        assert!(r.conditional_entropy < 1e-9);
        assert!(r.chain_holds());
        // And the paper's point: |Π| = Ω(n log n) ≥ H(PA).
        assert!(r.max_transcript_bits as f64 >= r.input_entropy);
    }

    #[test]
    fn starved_protocol_learns_nothing() {
        // Budget 0: empty transcript, I = 0, error 1.
        let r = partition_comp_information(4, Some(0));
        assert_eq!(r.mutual_information, 0.0);
        assert_eq!(r.error, 1.0);
        assert!(r.chain_holds());
    }

    #[test]
    fn fixed_guess_bob_satisfies_fano_but_not_the_bare_chain() {
        // Bob ignores Alice and outputs one fixed partition: the
        // transcript is empty, so I = 0, and he is right on 1 of B_n
        // inputs.
        let n = 4;
        let b = bell_number(n) as usize;
        let joint = Joint::from_weights((0..b).map(|input| ((input, ()), 1.0)).collect());
        let r = InfoBoundReport {
            n,
            budget: Some(0),
            input_entropy: joint.marginal_x().entropy(),
            transcript_entropy: joint.marginal_y().entropy(),
            mutual_information: joint.mutual_information(),
            conditional_entropy: joint.conditional_entropy_x_given_y(),
            max_transcript_bits: 0,
            error: 1.0 - 1.0 / b as f64,
        };
        assert_eq!(r.mutual_information, 0.0);
        // The chain without Fano's term demands I ≥ log₂ B_n / B_n > 0.
        assert!(r.mutual_information + 1e-6 < (1.0 - r.error) * r.input_entropy);
        assert!(r.chain_holds());
        // Fano is tight here: H(P_A | Π) = h(ε) + ε·log₂(B_n − 1).
        let fano = binary_entropy(r.error) + r.error * ((b - 1) as f64).log2();
        assert!((r.conditional_entropy - fano).abs() < 1e-9);
    }

    #[test]
    fn binary_entropy_vanishes_at_the_ends() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn information_grows_with_budget() {
        let budgets = [0usize, 2, 4, 6, 8, 12];
        let mut last = -1.0;
        for &b in &budgets {
            let r = partition_comp_information(4, Some(b));
            assert!(
                r.mutual_information >= last - 1e-9,
                "I not monotone at budget {b}"
            );
            assert!(
                r.mutual_information <= b as f64 + 1e-9,
                "I exceeds budget {b}"
            );
            assert!(r.chain_holds(), "chain fails at budget {b}");
            last = r.mutual_information;
        }
    }

    #[test]
    fn partial_budget_partial_error() {
        // Enough bits for Alice's message but not Bob's echo: Bob
        // decodes (error 0 among Bob outputs) — our error counts Bob's
        // output, so give him exactly Alice's message size.
        let n = 4;
        let alice_bits = bcc_comm::protocols::trivial_message_bits(n);
        let r = partition_comp_information(n, Some(alice_bits));
        // Bob received the whole input: he knows the join.
        assert_eq!(r.error, 0.0);
        // The transcript (= Alice's full message) determines PA.
        assert!((r.mutual_information - r.input_entropy).abs() < 1e-9);
    }

    #[test]
    fn implied_bound_positive() {
        let r = partition_comp_information(5, None);
        let lb = implied_round_lower_bound(&r, 4 * 5);
        assert!(lb > 0.0);
    }
}
