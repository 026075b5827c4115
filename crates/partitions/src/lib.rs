//! The lattice of set partitions of `[n]` — the combinatorial heart of
//! the paper's KT-1 lower bounds (Section 4).
//!
//! In the 2-party `Partition` problem, Alice and Bob hold partitions
//! `P_A`, `P_B` of the ground set `[n]` and must decide whether the
//! lattice join `P_A ∨ P_B` is the trivial one-block partition. The
//! paper's reduction (Theorem 4.3) shows the join is exactly the
//! connected-component partition of the gadget graph `G(P_A, P_B)`,
//! and the rank bound rank(M_n) = B_n (Theorem 2.3) turns the count of
//! partitions — the Bell number — into an Ω(n log n) communication
//! bound.
//!
//! This crate provides:
//!
//! - [`SetPartition`]: canonical restricted-growth-string
//!   representation with [`SetPartition::join`] and refinement
//!   predicates;
//! - [`enumerate`]: iteration over all partitions of `[n]` and all
//!   perfect-matching partitions (the `TwoPartition` inputs);
//! - [`numbers`]: Bell numbers, Stirling numbers of the second kind,
//!   double factorials, and their logarithms;
//! - [`random`]: exact uniform sampling of partitions;
//! - [`matrices`]: the join matrices `M_n` and `E_n` as
//!   [`bcc_linalg::Matrix`]/[`bcc_linalg::Gf2Matrix`] values.
//!
//! # Example
//!
//! ```
//! use bcc_partitions::SetPartition;
//!
//! // The paper's running example (Section 1.1):
//! // PA = (1,2)(3,4)(5), PB = (1,2,4)(3)(5)  [0-indexed here]
//! let pa = SetPartition::from_blocks(5, &[vec![0, 1], vec![2, 3], vec![4]]).unwrap();
//! let pb = SetPartition::from_blocks(5, &[vec![0, 1, 3], vec![2], vec![4]]).unwrap();
//! let join = pa.join(&pb);
//! // PA ∨ PB = (1,2,3,4)(5)
//! assert_eq!(join.blocks(), vec![vec![0, 1, 2, 3], vec![4]]);
//! assert!(!join.is_trivial());
//!
//! let pc = SetPartition::from_blocks(5, &[vec![0, 1, 3], vec![2, 4]]).unwrap();
//! assert!(pa.join(&pc).is_trivial()); // PA ∨ PC = (1,2,3,4,5)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod partition;

pub mod enumerate;
pub mod lattice;
pub mod matrices;
pub mod numbers;
pub mod random;

pub use partition::{PartitionError, SetPartition};
