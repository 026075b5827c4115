//! The partition lattice Πₙ as an explicit poset: zeta matrix, Möbius
//! function, and the Dowling–Wilson factorization behind Theorem 2.3.
//!
//! Order partitions by refinement (`P ≤ Q` iff `P` refines `Q`). The
//! paper's Theorem 2.3 — `rank(M_n) = B_n` — follows from a classical
//! factorization this module makes executable:
//!
//! ```text
//! M_n(P, Q) = [P ∨ Q = 1̂] = Σ_R [P ≤ R]·[Q ≤ R]·μ(R, 1̂)
//!           = (Z · D · Zᵀ)(P, Q)
//! ```
//!
//! where `Z(P, R) = [P ≤ R]` is the zeta matrix (triangular with unit
//! diagonal in any linear extension, hence invertible) and
//! `D = diag(μ(R, 1̂))`. In the partition lattice the Möbius value to
//! the top is `μ(R, 1̂) = (−1)^{k−1}(k−1)!` for `R` with `k` blocks —
//! **never zero** — so `M_n` is congruent to an invertible diagonal
//! matrix and has full rank. [`verify_dowling_wilson`] checks the
//! factorization entry by entry, turning the paper's citation into a
//! machine-checked proof at each feasible size.

use crate::enumerate::all_partitions;
use crate::numbers::factorial;
use crate::partition::SetPartition;
use bcc_linalg::{GfP, Matrix};

/// The partition lattice on `[n]`, with all `B_n` elements enumerated
/// and the refinement order materialized.
#[derive(Debug, Clone)]
pub struct PartitionLattice {
    /// The elements, in the canonical enumeration order (index = the
    /// row/column index of all matrices below).
    pub elements: Vec<SetPartition>,
}

impl PartitionLattice {
    /// Builds the lattice for ground-set size `n` (keep `n ≤ 8`;
    /// `B_8 = 4140`).
    pub fn new(n: usize) -> Self {
        PartitionLattice {
            elements: all_partitions(n).collect(),
        }
    }

    /// Number of elements (`B_n`).
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` if the lattice is empty (never, for `n ≥ 0`).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The zeta matrix `Z(P, R) = [P ≤ R]` (refinement order), over
    /// GF(2⁶¹−1).
    pub fn zeta_matrix(&self) -> Matrix {
        let d = self.len();
        Matrix::from_fn(d, d, |i, j| {
            if self.elements[i].refines(&self.elements[j]) {
                GfP::ONE
            } else {
                GfP::ZERO
            }
        })
    }

    /// The Möbius value `μ(R, 1̂)` for the interval from `R` to the top
    /// (one-block) partition: `(−1)^{k−1}·(k−1)!` where `k` is the
    /// number of blocks of `R`. Nonzero for every `R` — the crux of
    /// the Dowling–Wilson argument.
    pub fn mobius_to_top(p: &SetPartition) -> GfP {
        let k = p.num_blocks();
        debug_assert!(k >= 1);
        let magnitude = GfP::new((factorial(k - 1) % ((1u128 << 61) - 1)) as u64);
        if (k - 1).is_multiple_of(2) {
            magnitude
        } else {
            -magnitude
        }
    }

    /// The diagonal matrix `D = diag(μ(R, 1̂))`.
    pub fn mobius_diagonal(&self) -> Matrix {
        let d = self.len();
        let mut m = Matrix::zeros(d, d);
        for (i, p) in self.elements.iter().enumerate() {
            m.set(i, i, Self::mobius_to_top(p));
        }
        m
    }

    /// The join matrix `M_n(P, Q) = [P ∨ Q = 1̂]` in this lattice's
    /// index order.
    pub fn join_matrix(&self) -> Matrix {
        let d = self.len();
        Matrix::from_fn(d, d, |i, j| {
            if self.elements[i].join(&self.elements[j]).is_trivial() {
                GfP::ONE
            } else {
                GfP::ZERO
            }
        })
    }

    /// The full Möbius function `μ(P, Q)` on the lattice, computed by
    /// the recursive definition
    /// `μ(P, P) = 1`, `μ(P, Q) = −Σ_{P ≤ R < Q} μ(P, R)` for `P < Q`,
    /// and `0` when `P ≰ Q`. Returned as a matrix in index order —
    /// the inverse of the zeta matrix.
    pub fn mobius_matrix(&self) -> Matrix {
        let d = self.len();
        let leq: Vec<Vec<bool>> = (0..d)
            .map(|i| {
                (0..d)
                    .map(|j| self.elements[i].refines(&self.elements[j]))
                    .collect()
            })
            .collect();
        let mut mu = Matrix::zeros(d, d);
        // Process targets in order of increasing "height"; the
        // canonical enumeration is not sorted by refinement, so iterate
        // by interval size instead: μ(i, j) depends on μ(i, r) for
        // r in [i, j) — compute with memoized recursion.
        fn compute(
            i: usize,
            j: usize,
            leq: &Vec<Vec<bool>>,
            memo: &mut std::collections::BTreeMap<(usize, usize), GfP>,
        ) -> GfP {
            if i == j {
                return GfP::ONE;
            }
            if !leq[i][j] {
                return GfP::ZERO;
            }
            if let Some(&v) = memo.get(&(i, j)) {
                return v;
            }
            let mut acc = GfP::ZERO;
            for r in 0..leq.len() {
                if r != j && leq[i][r] && leq[r][j] {
                    acc += compute(i, r, leq, memo);
                }
            }
            let v = -acc;
            memo.insert((i, j), v);
            v
        }
        let mut memo = std::collections::BTreeMap::new();
        for i in 0..d {
            for j in 0..d {
                mu.set(i, j, compute(i, j, &leq, &mut memo));
            }
        }
        mu
    }
}

/// The executable Dowling–Wilson argument: checks, entry by entry,
/// that `M_n = Z·D·Zᵀ` with `Z` the zeta matrix and
/// `D = diag(μ(R, 1̂))`, and that every diagonal entry of `D` is
/// nonzero. Since `Z` is unitriangular in any linear extension of the
/// refinement order, this *implies* `rank(M_n) = B_n` (Theorem 2.3).
pub fn verify_dowling_wilson(n: usize) -> bool {
    let lat = PartitionLattice::new(n);
    let z = lat.zeta_matrix();
    let d = lat.mobius_diagonal();
    for i in 0..lat.len() {
        if d.get(i, i).is_zero() {
            return false;
        }
    }
    // Zᵀ as an explicit matrix.
    let zt = Matrix::from_fn(lat.len(), lat.len(), |i, j| z.get(j, i));
    let product = z.mul(&d).mul(&zt);
    product == lat.join_matrix()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numbers::bell_number;

    #[test]
    fn lattice_sizes() {
        for n in 1..=5 {
            let lat = PartitionLattice::new(n);
            assert_eq!(lat.len() as u128, bell_number(n));
            assert!(!lat.is_empty());
        }
    }

    #[test]
    fn zeta_is_reflexive_and_respects_top() {
        let lat = PartitionLattice::new(4);
        let z = lat.zeta_matrix();
        let top = lat
            .elements
            .iter()
            .position(SetPartition::is_trivial)
            .unwrap();
        for i in 0..lat.len() {
            assert_eq!(z.get(i, i), GfP::ONE, "reflexivity");
            assert_eq!(z.get(i, top), GfP::ONE, "everything refines the top");
        }
        assert_eq!(z.rank(), lat.len(), "zeta matrix invertible");
    }

    #[test]
    fn mobius_matrix_inverts_zeta() {
        let lat = PartitionLattice::new(4);
        let z = lat.zeta_matrix();
        let mu = lat.mobius_matrix();
        // In poset convention Z(P,R)=[P≤R] and μ as defined satisfy
        // (μ · Z)(P, Q) = δ(P, Q).
        let prod = mu.mul(&z);
        let n = lat.len();
        let identity = Matrix::from_fn(n, n, |i, j| if i == j { GfP::ONE } else { GfP::ZERO });
        assert_eq!(prod, identity);
    }

    #[test]
    fn mobius_to_top_closed_form_matches_recursion() {
        let lat = PartitionLattice::new(4);
        let mu = lat.mobius_matrix();
        let top = lat
            .elements
            .iter()
            .position(SetPartition::is_trivial)
            .unwrap();
        for (i, p) in lat.elements.iter().enumerate() {
            assert_eq!(
                mu.get(i, top),
                PartitionLattice::mobius_to_top(p),
                "μ({p}, 1̂)"
            );
        }
    }

    /// Theorem 2.3, proved structurally at n = 1..5.
    #[test]
    fn dowling_wilson_factorization() {
        for n in 1..=5 {
            assert!(verify_dowling_wilson(n), "n={n}");
        }
    }

    #[test]
    fn mobius_values_never_zero() {
        let lat = PartitionLattice::new(6);
        for p in &lat.elements {
            assert!(!PartitionLattice::mobius_to_top(p).is_zero());
        }
    }

    #[test]
    fn known_mobius_values() {
        // μ(0̂, 1̂) in Π_n is (−1)^{n−1}(n−1)!.
        for n in 1..=6 {
            let finest = SetPartition::finest(n);
            let expect = if (n - 1) % 2 == 0 {
                GfP::new(factorial(n - 1) as u64)
            } else {
                -GfP::new(factorial(n - 1) as u64)
            };
            assert_eq!(PartitionLattice::mobius_to_top(&finest), expect);
        }
    }
}
