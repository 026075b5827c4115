//! Communication lower-bound tools: the log-rank certificate and an
//! exact solver for tiny matrices.
//!
//! Lemma 1.28 of Kushilevitz–Nisan (used at Corollaries 2.4 and 4.2):
//! the deterministic communication complexity of `f` is at least
//! `log₂ rank(M_f)`. Applied to `M_n` (rank `B_n`, Theorem 2.3) this
//! gives `D(Partition) ≥ log₂ B_n = Θ(n log n)`, and to `E_n`
//! (rank `(n−1)!!`, Lemma 4.1) it gives the same for `TwoPartition`.

use bcc_linalg::Matrix;
use bcc_partitions::matrices::JoinMatrix;

/// The log-rank lower bound `log₂ rank(M)` on deterministic 2-party
/// communication, together with the rank itself and whether it is
/// full — the certificate shape used by the Theorem 4.4 pipeline.
///
/// The rank is computed exactly over GF(2⁶¹−1). Since
/// `rank_GF(p) ≤ rank_ℚ`, the bound is *valid* (possibly slightly
/// weaker than the rational one); when the matrix has full GF(p) rank
/// the two coincide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankCertificate {
    /// The matrix dimension.
    pub dim: usize,
    /// The exact rank over GF(2⁶¹−1).
    pub rank: usize,
    /// `log₂ rank` — the communication lower bound in bits.
    pub comm_lower_bound_bits: f64,
    /// Whether the matrix has full rank (certifying the paper's
    /// theorem exactly on this instance size).
    pub full_rank: bool,
}

/// Certifies the rank of a join matrix (`M_n` or `E_n`).
pub fn certify_rank(jm: &JoinMatrix) -> RankCertificate {
    let rank = jm.matrix.rank();
    RankCertificate {
        dim: jm.dim(),
        rank,
        comm_lower_bound_bits: if rank == 0 { 0.0 } else { (rank as f64).log2() },
        full_rank: rank == jm.dim(),
    }
}

/// The **exact** deterministic communication complexity `D(f)` of a
/// tiny 0/1 matrix, by exhaustive protocol-tree search with
/// memoization over (row-set, column-set) rectangles.
///
/// A protocol tree node is a rectangle; one party splits its side into
/// two blocks at cost one bit; leaves must be monochromatic. The
/// recursion
///
/// ```text
/// D(R) = 0                                   if R is monochromatic
/// D(R) = 1 + min over nontrivial row/column bipartitions (S, S̄)
///            of max(D(S-side), D(S̄-side))
/// ```
///
/// is exponential, so this is gated to matrices with at most 8 rows
/// and 8 columns — enough for `M_3` (5×5), `E_4` (3×3), identity/EQ
/// matrices, and the sanity checks `log₂ rank(f) ≤ D(f) ≤
/// ⌈log₂ rows⌉ + 1` the paper's Corollaries lean on.
///
/// # Panics
///
/// Panics if the matrix exceeds 8 rows or 8 columns.
pub fn exact_deterministic_cc(m: &Matrix) -> usize {
    let (rows, cols) = (m.num_rows(), m.num_cols());
    assert!(rows >= 1 && cols >= 1, "empty matrix");
    assert!(
        rows <= 8 && cols <= 8,
        "exact D(f) is gated to 8x8 matrices"
    );
    let full_r: u16 = (1 << rows) - 1;
    let full_c: u16 = (1 << cols) - 1;
    let mut memo: std::collections::BTreeMap<(u16, u16), usize> = std::collections::BTreeMap::new();

    fn monochromatic(m: &Matrix, rmask: u16, cmask: u16) -> bool {
        let mut seen: Option<bool> = None;
        for r in 0..m.num_rows() {
            if rmask >> r & 1 == 0 {
                continue;
            }
            for c in 0..m.num_cols() {
                if cmask >> c & 1 == 0 {
                    continue;
                }
                let v = !m.get(r, c).is_zero();
                match seen {
                    None => seen = Some(v),
                    Some(prev) if prev != v => return false,
                    _ => {}
                }
            }
        }
        true
    }

    /// Enumerate the sub-masks of `mask` that are nontrivial
    /// bipartition halves, counting each unordered split once (by
    /// requiring the half to contain the lowest set bit).
    fn halves(mask: u16) -> Vec<u16> {
        let low = mask & mask.wrapping_neg();
        let mut out = Vec::new();
        // Iterate sub-masks of mask containing `low`.
        let rest = mask ^ low;
        let mut sub = rest;
        loop {
            let half = sub | low;
            if half != mask {
                out.push(half);
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & rest;
        }
        out
    }

    fn solve(
        m: &Matrix,
        rmask: u16,
        cmask: u16,
        memo: &mut std::collections::BTreeMap<(u16, u16), usize>,
    ) -> usize {
        if let Some(&v) = memo.get(&(rmask, cmask)) {
            return v;
        }
        if monochromatic(m, rmask, cmask) {
            memo.insert((rmask, cmask), 0);
            return 0;
        }
        let mut best = usize::MAX;
        for half in halves(rmask) {
            let a = solve(m, half, cmask, memo);
            let b = solve(m, rmask ^ half, cmask, memo);
            best = best.min(1 + a.max(b));
        }
        for half in halves(cmask) {
            let a = solve(m, rmask, half, memo);
            let b = solve(m, rmask, cmask ^ half, memo);
            best = best.min(1 + a.max(b));
        }
        memo.insert((rmask, cmask), best);
        best
    }

    solve(m, full_r, full_c, &mut memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_linalg::GfP;
    use bcc_partitions::matrices::{partition_join_matrix, two_partition_matrix};
    use bcc_partitions::numbers::{bell_number, num_matching_partitions};

    /// The `n × n` identity matrix: the EQ function's matrix.
    fn identity(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| if i == j { GfP::ONE } else { GfP::ZERO })
    }

    /// Corollary 2.4 in miniature: D(Partition) ≥ log2 B_n.
    #[test]
    fn partition_rank_certificate() {
        for n in 1..=5 {
            let cert = certify_rank(&partition_join_matrix(n));
            assert!(cert.full_rank, "M_{n} full rank");
            assert_eq!(cert.dim as u128, bell_number(n));
            assert!((cert.comm_lower_bound_bits - (cert.dim as f64).log2()).abs() < 1e-12);
        }
    }

    /// Corollary 4.2 in miniature: D(TwoPartition) ≥ log2 (n−1)!!.
    #[test]
    fn two_partition_rank_certificate() {
        for n in [2usize, 4, 6] {
            let cert = certify_rank(&two_partition_matrix(n));
            assert!(cert.full_rank, "E_{n} full rank");
            assert_eq!(cert.dim as u128, num_matching_partitions(n));
        }
    }

    #[test]
    fn exact_cc_identity() {
        // EQ on a k-element domain: D = ceil(log2 k) + 1.
        assert_eq!(exact_deterministic_cc(&identity(2)), 2);
        assert_eq!(exact_deterministic_cc(&identity(4)), 3);
        assert_eq!(exact_deterministic_cc(&identity(5)), 4);
        assert_eq!(exact_deterministic_cc(&identity(8)), 4);
    }

    #[test]
    fn exact_cc_constant_and_row() {
        let ones = Matrix::from_fn(4, 4, |_, _| GfP::ONE);
        assert_eq!(exact_deterministic_cc(&ones), 0);
        // A single splitting bit suffices when rows are two blocks.
        let half = Matrix::from_fn(4, 3, |r, _| if r < 2 { GfP::ONE } else { GfP::ZERO });
        assert_eq!(exact_deterministic_cc(&half), 1);
    }

    #[test]
    fn exact_cc_dominates_log_rank() {
        // D(f) >= log2 rank(f) — Lemma 1.28 of Kushilevitz–Nisan,
        // checked exactly on the small Partition matrices.
        for jm in [partition_join_matrix(3), two_partition_matrix(4)] {
            let d = exact_deterministic_cc(&jm.matrix);
            let lb = certify_rank(&jm).comm_lower_bound_bits;
            assert!(d as f64 + 1e-9 >= lb, "D = {d} below log-rank {lb}");
            // And it is achievable within the trivial upper bound
            // ceil(log2 rows) + 1.
            let ub = (jm.dim() as f64).log2().ceil() as usize + 1;
            assert!(d <= ub, "D = {d} above trivial {ub}");
        }
    }

    #[test]
    fn exact_cc_two_partition_4() {
        // E_4 is the 3×3 matrix of perfect matchings of [4]:
        // join of two distinct matchings is trivial, of equal ones is
        // not — i.e. E_4 = J - I, whose exact complexity is 3.
        let jm = two_partition_matrix(4);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(jm.matrix.get(i, j).is_zero(), i == j);
            }
        }
        assert_eq!(exact_deterministic_cc(&jm.matrix), 3);
    }

    #[test]
    #[should_panic(expected = "gated to 8x8")]
    fn exact_cc_rejects_large() {
        exact_deterministic_cc(&identity(9));
    }
}
