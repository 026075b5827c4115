//! Exact dense linear algebra over finite fields.
//!
//! The KT-1 lower bound of the paper rests on two algebraic facts:
//! rank(M_n) = B_n over ℚ (Theorem 2.3, Dowling–Wilson) and
//! rank(E_n) = (n−1)!! (Lemma 4.1, via Sylvester's rank inequality).
//! This crate supplies the exact machinery to *certify* those ranks on
//! concrete matrices:
//!
//! - [`GfP`]: arithmetic in the prime field GF(p) with p = 2⁶¹ − 1
//!   (a Mersenne prime, so reduction is two shifts and an add);
//! - [`Matrix`]: dense matrices over GF(p) with Gaussian-elimination
//!   [`Matrix::rank`];
//! - [`Gf2Matrix`]: bit-packed matrices over GF(2) with XOR
//!   elimination, used as an independent cross-check where the 0/1
//!   matrix happens to keep full rank mod 2.
//!
//! Since rank over GF(p) never exceeds rank over ℚ for an integer
//! matrix, `rank_GF(p)(M) = dim(M)` *certifies* full rational rank —
//! exactly the direction Theorem 2.3 and Lemma 4.1 need.
//!
//! # Example
//!
//! ```
//! use bcc_linalg::{GfP, Matrix};
//!
//! let mut m = Matrix::zeros(2, 2);
//! m.set(0, 0, GfP::new(2));
//! m.set(0, 1, GfP::new(4));
//! m.set(1, 0, GfP::new(1));
//! m.set(1, 1, GfP::new(2));
//! assert_eq!(m.rank(), 1); // second row is half the first
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod field;
mod gf2;
mod matrix;

pub use field::GfP;
pub use gf2::Gf2Matrix;
pub use matrix::Matrix;
