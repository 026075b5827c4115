//! The communication matrices `M_n` (Partition) and `E_n`
//! (TwoPartition).
//!
//! `M_n` is the `B_n × B_n` 0/1 matrix with `M_n(i, j) = 1` iff
//! `P_i ∨ P_j = 1` (Section 2 of the paper). Theorem 2.3
//! (Dowling–Wilson) states `rank(M_n) = B_n`; together with the
//! log-rank bound (Lemma 1.28 of Kushilevitz–Nisan) this yields the
//! Ω(n log n) deterministic communication lower bound of Corollary 2.4.
//!
//! `E_n` is the principal submatrix of `M_n` indexed by the
//! perfect-matching partitions; Lemma 4.1 shows it also has full rank
//! `(n−1)!!`, giving Corollary 4.2.

use crate::enumerate::{all_partitions, matching_partitions};
use crate::partition::SetPartition;
use bcc_linalg::{Gf2Matrix, GfP, Matrix};

/// The matrix `M_n` together with its row/column index: the `i`-th
/// row and column correspond to `index[i]`.
#[derive(Debug, Clone)]
pub struct JoinMatrix {
    /// The 0/1 matrix over GF(2⁶¹−1).
    pub matrix: Matrix,
    /// Partition corresponding to each row/column.
    pub index: Vec<SetPartition>,
}

impl JoinMatrix {
    /// The dimension (`B_n` for `M_n`, `(n−1)!!` for `E_n`).
    pub fn dim(&self) -> usize {
        self.index.len()
    }

    /// The same matrix over GF(2) (for the fast cross-check).
    pub fn to_gf2(&self) -> Gf2Matrix {
        let d = self.dim();
        Gf2Matrix::from_fn(d, d, |i, j| !self.matrix.get(i, j).is_zero())
    }
}

fn join_matrix_from(parts: Vec<SetPartition>) -> JoinMatrix {
    let d = parts.len();
    let mut matrix = Matrix::zeros(d, d);
    for i in 0..d {
        for j in i..d {
            let v = if parts[i].join(&parts[j]).is_trivial() {
                GfP::ONE
            } else {
                GfP::ZERO
            };
            matrix.set(i, j, v);
            matrix.set(j, i, v);
        }
    }
    JoinMatrix {
        matrix,
        index: parts,
    }
}

/// Builds `M_n`: rows/columns indexed by **all** partitions of `[n]`,
/// entry 1 iff the join is trivial.
///
/// Dimension is `B_n`, so this is practical for `n ≤ 7`
/// (`B_7 = 877`); `n = 8` (`B_8 = 4140`) is reachable in release
/// builds.
pub fn partition_join_matrix(n: usize) -> JoinMatrix {
    join_matrix_from(all_partitions(n).collect())
}

/// Builds `E_n`: rows/columns indexed by the perfect-matching
/// partitions only (the `TwoPartition` instance space). Dimension is
/// `(n−1)!!`, practical for `n ≤ 10` (`9!! = 945`).
///
/// # Panics
///
/// Panics if `n` is odd.
pub fn two_partition_matrix(n: usize) -> JoinMatrix {
    join_matrix_from(matching_partitions(n).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numbers::{bell_number, num_matching_partitions};

    #[test]
    fn m_n_dimensions() {
        for n in 1..=5 {
            let m = partition_join_matrix(n);
            assert_eq!(m.dim() as u128, bell_number(n), "n={n}");
            assert_eq!(m.matrix.num_rows(), m.dim());
        }
    }

    #[test]
    fn m_n_is_symmetric_with_ones_against_trivial() {
        let m = partition_join_matrix(4);
        let d = m.dim();
        let trivial_idx = m
            .index
            .iter()
            .position(SetPartition::is_trivial)
            .expect("trivial partition present");
        for i in 0..d {
            for j in 0..d {
                assert_eq!(m.matrix.get(i, j), m.matrix.get(j, i));
            }
            // Join with trivial partition is always trivial.
            assert_eq!(m.matrix.get(i, trivial_idx), GfP::ONE);
        }
        // Finest ∨ finest = finest ≠ trivial (n > 1).
        let finest_idx = m
            .index
            .iter()
            .position(|p| *p == SetPartition::finest(4))
            .expect("finest partition present");
        assert_eq!(m.matrix.get(finest_idx, finest_idx), GfP::ZERO);
    }

    /// Theorem 2.3 (Dowling–Wilson): rank(M_n) = B_n, certified over
    /// GF(2⁶¹−1) for small n.
    #[test]
    fn theorem_2_3_full_rank_small() {
        for n in 1..=5 {
            let m = partition_join_matrix(n);
            assert_eq!(m.matrix.rank(), m.dim(), "rank(M_{n}) = B_{n}");
        }
    }

    /// Lemma 4.1: rank(E_n) = (n−1)!!.
    #[test]
    fn lemma_4_1_full_rank_small() {
        for n in [2usize, 4, 6] {
            let e = two_partition_matrix(n);
            assert_eq!(e.dim() as u128, num_matching_partitions(n));
            assert_eq!(e.matrix.rank(), e.dim(), "rank(E_{n})");
        }
    }

    /// E_n is a principal submatrix of M_n — the structural fact
    /// Lemma 4.1's proof exploits.
    #[test]
    fn e_n_is_principal_submatrix_of_m_n() {
        let n = 4;
        let m = partition_join_matrix(n);
        let e = two_partition_matrix(n);
        let positions: Vec<usize> = e
            .index
            .iter()
            .map(|p| {
                m.index
                    .iter()
                    .position(|q| q == p)
                    .expect("matching partition in M_n index")
            })
            .collect();
        for (i, &pi) in positions.iter().enumerate() {
            for (j, &pj) in positions.iter().enumerate() {
                assert_eq!(e.matrix.get(i, j), m.matrix.get(pi, pj));
            }
        }
    }

    #[test]
    fn gf2_projection_consistent() {
        let m = partition_join_matrix(4);
        let g2 = m.to_gf2();
        for i in 0..m.dim() {
            for j in 0..m.dim() {
                assert_eq!(g2.get(i, j), !m.matrix.get(i, j).is_zero());
            }
        }
        assert!(g2.rank() <= m.matrix.rank());
    }
}
