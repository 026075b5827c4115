//! Two-party communication complexity: the `Partition` problems, the
//! gadget reductions of Section 4.2, and the Alice/Bob simulation of
//! KT-1 `BCC(1)` algorithms of Section 4.3.
//!
//! The paper's KT-1 lower bounds flow through this pipeline:
//!
//! ```text
//!  Partition / TwoPartition            (rank(M_n) = B_n, rank(E_n) = (n−1)!!)
//!        │  gadget graph G(P_A, P_B)   (Section 4.2, Figure 2; Theorem 4.3)
//!        ▼
//!  vertex-partitioned 2-party Connectivity / MultiCycle
//!        │  round-by-round simulation  (Section 4.3: O(n) bits per round)
//!        ▼
//!  KT-1 BCC(1) Connectivity / MultiCycle   ⇒   Ω(log n) rounds (Theorem 4.4)
//! ```
//!
//! This crate implements every stage executably:
//!
//! - [`driver`]: a deterministic alternating-message protocol driver
//!   with exact bit accounting and transcript capture;
//! - [`protocols`]: the trivial `O(n log n)`-bit upper-bound protocols
//!   for `Partition` and `PartitionComp`, plus bit-budget-limited
//!   (ε-error) variants for the information experiments;
//! - [`bounds`]: the log-rank lower bound, applied to `M_n`/`E_n`
//!   from [`bcc_partitions::matrices`], and an exact solver for tiny
//!   matrices;
//! - [`reduction`]: the gadget graphs `G(P_A, P_B)` (general and
//!   2-regular variants) with executable Theorem 4.3;
//! - [`simulate`]: the Section 4.3 simulation — Alice hosts `A ∪ L`,
//!   Bob hosts `B ∪ R`, they exchange one `{0,1,⊥}` character per
//!   hosted vertex per round, and together reproduce exactly the
//!   behaviour of the direct `BCC(1)` execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod driver;
mod error;
pub use error::CommError;
pub mod protocols;
pub mod randomized;
pub mod reduction;
pub mod simulate;
