//! Upper-bound algorithms for the `BCC(b)` model.
//!
//! The paper's lower bounds are only meaningful against the backdrop of
//! what *can* be done; this crate implements the relevant upper bounds
//! and the adapters the lower-bound experiments quantify over:
//!
//! - [`FullGraphBroadcast`] (KT-1, deterministic, `n` rounds): every
//!   vertex broadcasts its adjacency row; everyone reconstructs the
//!   whole input graph. The trivial baseline.
//! - [`NeighborIdBroadcast`] (KT-1, deterministic,
//!   `O((d_max + 1)·log n)` rounds): every vertex broadcasts its degree
//!   and then its neighbor IDs bit-serially. On the paper's 2-regular
//!   instances this is `O(log n)` rounds — **matching the Ω(log n)
//!   lower bounds of Theorems 3.1, 4.4 and 4.5**, which is the paper's
//!   tightness claim for uniformly sparse graphs (§1.1, via MT16).
//! - [`Kt0Upgrade`] (KT-0 → KT-1 adapter, `⌈log₂ n⌉` extra rounds):
//!   every vertex broadcasts its ID, after which ports can be relabeled
//!   with IDs and any KT-1 algorithm runs unchanged. Shows the KT-0/
//!   KT-1 gap collapses at cost `O(log n)` — so the KT-0 lower bound is
//!   also tight.
//! - [`BoruvkaMinLabel`] (KT-1, deterministic, `O(log² n)` rounds on
//!   *any* graph): Borůvka phases in which every vertex broadcasts its
//!   component label and the smallest neighboring label; all vertices
//!   apply the same merges locally, so labels stay globally consistent.
//!   Solves `Connectivity` and `ConnectedComponents`.
//! - [`SketchConnectivity`] (randomized, any bandwidth `b ≥ 1`): AGM
//!   linear graph sketches (ℓ₀-sampling over edge-incidence vectors)
//!   plus Borůvka merging. The round cost scales as
//!   `O(log n · sketch_bits / b)`, reproducing the bandwidth contrast
//!   the paper's introduction draws between `BCC(1)` and
//!   higher-bandwidth broadcast cliques.
//! - [`Truncated`]: wraps any algorithm and cuts it off after `t`
//!   rounds — the objects the distributional error experiments
//!   (Theorems 3.1/3.5) measure.
//!
//! # Example
//!
//! ```
//! use bcc_algorithms::{NeighborIdBroadcast, Problem};
//! use bcc_model::{Instance, SimConfig, Decision};
//! use bcc_graphs::generators;
//!
//! let algo = NeighborIdBroadcast::new(Problem::TwoCycle);
//! let sim = SimConfig::bcc1(100);
//! let one = Instance::new_kt1(generators::cycle(8)).unwrap();
//! assert_eq!(sim.run(&one, &algo, 0).system_decision(), Decision::Yes);
//! let two = Instance::new_kt1(generators::two_cycles(4, 4)).unwrap();
//! assert_eq!(sim.run(&two, &algo, 0).system_decision(), Decision::No);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boruvka;
pub mod disjointness;
mod full_broadcast;
mod kt0_upgrade;
mod mst;
mod neighbor_broadcast;
mod problem;
pub mod sketch;
mod strawmen;
mod truncate;

pub use boruvka::BoruvkaMinLabel;
pub use disjointness::{common_neighbor_truth, CommonNeighborBroadcast, CommonNeighborUnicast};
pub use full_broadcast::FullGraphBroadcast;
pub use kt0_upgrade::Kt0Upgrade;
pub use mst::BoruvkaMst;
pub use neighbor_broadcast::NeighborIdBroadcast;
pub use problem::Problem;
pub use sketch::SketchConnectivity;
pub use strawmen::{HashVoteDecider, ParityDecider};
pub use truncate::Truncated;
