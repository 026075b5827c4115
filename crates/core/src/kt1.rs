//! The Theorem 4.4 pipeline: rank lower bound → gadget reduction →
//! simulation cost → KT-1 round lower bound.
//!
//! If a deterministic KT-1 `BCC(1)` algorithm solves `MultiCycle` in
//! `r` rounds, the Section 4.3 simulation turns it into a 2-party
//! protocol for `TwoPartition` using `Θ(n)` bits per round; with
//! `D(TwoPartition) ≥ log₂ rank(E_n) = log₂ (n−1)!! = Θ(n log n)`
//! (Lemma 4.1 + log-rank), this forces `r = Ω(log n)`. Everything in
//! that chain is computed exactly here.

use bcc_comm::bounds::{certify_rank, RankCertificate};
use bcc_comm::reduction::Gadget;
use bcc_partitions::matrices::{partition_join_matrix, two_partition_matrix};

/// A complete Theorem 4.4 certificate for one ground-set size.
#[derive(Debug, Clone)]
pub struct Kt1LowerBound {
    /// Ground-set size of the `Partition`/`TwoPartition` instance.
    pub n: usize,
    /// Which gadget the reduction used.
    pub gadget: Gadget,
    /// The exact rank certificate (full rank ⇔ the paper's
    /// Theorem 2.3 / Lemma 4.1 verified at this size).
    pub rank: RankCertificate,
    /// Bits the simulation exchanges per simulated round (measured:
    /// one `{0,1,⊥}` character per gadget vertex crosses the cut each
    /// round, at 2 bits per character, plus 2 done-flag bits).
    pub bits_per_round: usize,
    /// The implied round lower bound
    /// `⌈ comm-lower-bound / bits-per-round ⌉`.
    pub round_lower_bound: usize,
}

/// Bits per simulated round for a gadget on ground size `n` (matches
/// `simulate_two_party`'s accounting exactly; see its tests).
pub fn simulation_bits_per_round(gadget: Gadget, n: usize) -> usize {
    2 * gadget.num_vertices(n) + 2
}

/// Builds the Theorem 4.4 certificate: exact rank of the communication
/// matrix (`E_n` for the 2-regular gadget / `MultiCycle`, `M_n` for
/// the general gadget / `Connectivity`), the per-round simulation
/// cost, and the implied round lower bound.
///
/// # Panics
///
/// Panics if `n` is odd with [`Gadget::TwoRegular`], or large enough
/// that the matrix does not fit in memory (`B_n` × `B_n` for the
/// general gadget — keep `n ≤ 7` there, `n ≤ 10` for 2-regular).
pub fn theorem_4_4_certificate(gadget: Gadget, n: usize) -> Kt1LowerBound {
    let jm = match gadget {
        Gadget::General => partition_join_matrix(n),
        Gadget::TwoRegular => two_partition_matrix(n),
    };
    let rank = certify_rank(&jm);
    let bits_per_round = simulation_bits_per_round(gadget, n);
    let round_lower_bound = (rank.comm_lower_bound_bits / bits_per_round as f64).ceil() as usize;
    Kt1LowerBound {
        n,
        gadget,
        rank,
        bits_per_round,
        round_lower_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_partitions::numbers::num_matching_partitions;

    #[test]
    fn certificate_two_regular() {
        let cert = theorem_4_4_certificate(Gadget::TwoRegular, 6);
        assert!(cert.rank.full_rank, "Lemma 4.1 verified at n=6");
        assert_eq!(cert.rank.dim as u128, num_matching_partitions(6));
        assert_eq!(cert.bits_per_round, 2 * 12 + 2);
        assert!(cert.round_lower_bound >= 1);
    }

    #[test]
    fn certificate_general() {
        let cert = theorem_4_4_certificate(Gadget::General, 4);
        assert!(cert.rank.full_rank, "Theorem 2.3 verified at n=4");
        assert_eq!(cert.rank.dim, 15);
        assert_eq!(cert.bits_per_round, 2 * 16 + 2);
    }

    #[test]
    fn lower_bound_grows_with_n() {
        // The Ω(log n) shape: the implied bound is nondecreasing in n
        // over the feasible range (log2 (n−1)!! / Θ(n) grows like log n).
        let b6 = theorem_4_4_certificate(Gadget::TwoRegular, 6).round_lower_bound;
        let b10 = theorem_4_4_certificate(Gadget::TwoRegular, 10).round_lower_bound;
        assert!(b10 >= b6);
    }
}
