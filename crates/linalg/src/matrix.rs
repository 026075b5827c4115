//! Dense matrices over GF(2⁶¹ − 1) with exact rank.

use crate::field::GfP;

/// A dense row-major matrix over GF(2⁶¹ − 1).
///
/// # Example
///
/// ```
/// use bcc_linalg::{GfP, Matrix};
///
/// // [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
/// let m = Matrix::from_fn(3, 3, |i, j| GfP::new((3 * i + j + 1) as u64));
/// assert_eq!(m.rank(), 2); // rows are in arithmetic progression
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<GfP>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![GfP::ZERO; rows * cols],
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> GfP) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// The entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, i: usize, j: usize) -> GfP {
        assert!(i < self.rows && j < self.cols, "index out of range");
        self.data[i * self.cols + j]
    }

    /// Sets the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, i: usize, j: usize, v: GfP) {
        assert!(i < self.rows && j < self.cols, "index out of range");
        self.data[i * self.cols + j] = v;
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    let v = out.get(i, j) + a * rhs.get(k, j);
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    /// The rank, by fraction-free Gaussian elimination over GF(p).
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        m.row_echelon()
    }

    /// In-place reduction to row echelon form; returns the rank.
    fn row_echelon(&mut self) -> usize {
        let mut pivot_row = 0;
        for col in 0..self.cols {
            if pivot_row == self.rows {
                break;
            }
            // Find a pivot.
            let Some(src) = (pivot_row..self.rows).find(|&r| !self.get(r, col).is_zero()) else {
                continue;
            };
            if src != pivot_row {
                for j in 0..self.cols {
                    let a = self.get(src, j);
                    let b = self.get(pivot_row, j);
                    self.set(src, j, b);
                    self.set(pivot_row, j, a);
                }
            }
            let pivot = self.get(pivot_row, col);
            let inv = pivot.inverse();
            for r in (pivot_row + 1)..self.rows {
                let factor = self.get(r, col) * inv;
                if factor.is_zero() {
                    continue;
                }
                for j in col..self.cols {
                    let v = self.get(r, j) - factor * self.get(pivot_row, j);
                    self.set(r, j, v);
                }
            }
            pivot_row += 1;
        }
        pivot_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a matrix from integer rows.
    fn from_rows(rows: &[&[u64]]) -> Matrix {
        let c = rows.first().map_or(0, |row| row.len());
        Matrix::from_fn(rows.len(), c, |i, j| GfP::new(rows[i][j]))
    }

    #[test]
    fn identity_rank() {
        let id = Matrix::from_fn(5, 5, |i, j| if i == j { GfP::ONE } else { GfP::ZERO });
        assert_eq!(id.rank(), 5);
    }

    #[test]
    fn singular_matrix() {
        let m = from_rows(&[&[1, 2], &[2, 4]]);
        assert_eq!(m.rank(), 1);
    }

    #[test]
    fn rank_of_rectangular() {
        let m = from_rows(&[&[1, 0, 0, 1], &[0, 1, 0, 1], &[1, 1, 0, 2]]);
        assert_eq!(m.rank(), 2);
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.num_cols(), 4);
    }

    #[test]
    fn multiplication() {
        let a = from_rows(&[&[1, 2], &[3, 4]]);
        let b = from_rows(&[&[5, 6], &[7, 8]]);
        let c = a.mul(&b);
        assert_eq!(c, from_rows(&[&[19, 22], &[43, 50]]));
    }

    #[test]
    fn sylvester_rank_inequality_holds() {
        // rank(AB) >= rank(A) + rank(B) - n, the inequality used in
        // the proof of Lemma 4.1.
        let a = from_rows(&[&[1, 0, 0], &[0, 1, 0], &[0, 0, 0]]);
        let b = from_rows(&[&[0, 0, 0], &[0, 1, 0], &[0, 0, 1]]);
        let ab = a.mul(&b);
        assert!(ab.rank() >= a.rank() + b.rank() - 3);
        assert_eq!(ab.rank(), 1);
    }

    #[test]
    fn from_fn_matches_from_rows() {
        let a = Matrix::from_fn(2, 3, |i, j| GfP::new((i * 3 + j) as u64));
        let b = from_rows(&[&[0, 1, 2], &[3, 4, 5]]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_dimension_mismatch() {
        Matrix::zeros(2, 3).mul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::zeros(0, 0);
        assert_eq!(m.rank(), 0);
    }
}
