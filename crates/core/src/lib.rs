//! The primary contribution of *Connectivity Lower Bounds in Broadcast
//! Congested Clique* (Pai & Pemmaraju, PODC 2019), as executable
//! mathematics.
//!
//! The paper proves three Ω(log n) lower bounds with three different
//! techniques; each lives in its own module here, built so that every
//! lemma on the way is *checkable* on concrete instance spaces:
//!
//! | Paper | Module | Technique |
//! |---|---|---|
//! | Theorem 3.1 (KT-0, randomized `TwoCycle`) | [`indist`], [`hard`] | port-preserving crossings + indistinguishability graph + Polygamous Hall |
//! | Theorem 3.5 (KT-0, small-error warm-up) | [`hard`] | single-star crossing argument + pigeonhole labels |
//! | Theorem 4.4 (KT-1, deterministic `Connectivity`/`MultiCycle`) | [`kt1`] | `Partition` rank bound → gadget reduction → simulation |
//! | Theorem 4.5 (KT-1, randomized `ConnectedComponents`) | [`infobound`] | exact mutual-information accounting for `PartitionComp` |
//!
//! Supporting machinery:
//!
//! - [`crossing`]: Definitions 3.2/3.3 — independent edge pairs and the
//!   port-preserving crossing `I(e₁, e₂)` (Figure 1), implemented as an
//!   instance-to-instance rewiring;
//! - [`labels`]: the `2t`-character `{0,1,⊥}` edge labels and the
//!   active-edge census (the pigeonhole step `|S'| ≥ n/3^{2t}`);
//! - Lemma 3.4 as [`crossing::indistinguishable_after`]: run both
//!   instances and compare every vertex's *state* (initial knowledge +
//!   transcript) exactly.
//!
//! # Example: Lemma 3.4 live
//!
//! ```
//! use bcc_core::crossing::{cross_instance, indistinguishable_after, DirectedEdge};
//! use bcc_model::{Instance, testing::EchoBit};
//! use bcc_graphs::generators;
//!
//! let i1 = Instance::new_kt0_canonical(generators::cycle(8)).unwrap();
//! // Every vertex of EchoBit broadcasts the same thing, so every
//! // independent pair of edges satisfies Lemma 3.4's hypothesis.
//! let e1 = DirectedEdge { tail: 0, head: 1 };
//! let e2 = DirectedEdge { tail: 4, head: 5 };
//! let i2 = cross_instance(&i1, e1, e2).unwrap();
//! assert!(indistinguishable_after(&i1, &i2, &EchoBit, 5, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crossing;
pub mod hard;
pub mod indist;
pub mod infobound;
pub mod kt1;
pub mod labels;
pub mod theorems;

mod error;

pub use error::CoreError;
