//! Exact information theory over finite distributions.
//!
//! Theorem 4.5 of the paper lower-bounds the communication of
//! `PartitionComp` by showing `I(P_A; Π(P_A, P_B)) = Ω(n log n)` under
//! the hard distribution (Alice uniform over all partitions, Bob fixed
//! to the finest partition). This crate computes the quantities in
//! that argument *exactly* by full enumeration — entropy, conditional
//! entropy and mutual information of finite joint distributions — with
//! no sampling error, so the inequality chain
//! `|Π| ≥ H(Π) ≥ I(P_A; Π) = H(P_A) − H(P_A | Π)` can be verified
//! numerically on concrete protocols.
//!
//! # Example
//!
//! ```
//! use bcc_info::Dist;
//!
//! // A fair coin has one bit of entropy.
//! let coin = Dist::uniform(vec!["heads", "tails"]);
//! assert!((coin.entropy() - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dist;
mod joint;

pub use dist::Dist;
pub use joint::Joint;
