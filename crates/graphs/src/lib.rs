//! Graph substrate for the `bcclique` workspace.
//!
//! This crate provides every graph-theoretic building block used by the
//! reproduction of *Connectivity Lower Bounds in Broadcast Congested
//! Clique* (Pai & Pemmaraju, PODC 2019):
//!
//! - [`Graph`]: a small, dense-friendly undirected graph over vertices
//!   `0..n`, the input-graph type of every `BCC(b)` instance;
//! - [`UnionFind`]: union–find with union by rank and path compression,
//!   used by connectivity checks, partition joins and Borůvka phases;
//! - [`connectivity`]: connected components and component labellings;
//! - [`cycles`]: recognition of disjoint-cycle graphs — the promise of
//!   the paper's `TwoCycle` and `MultiCycle` problems;
//! - [`generators`]: deterministic and random instance families
//!   (cycles, disjoint cycles, `G(n, m)`, random 2-regular graphs);
//! - [`enumerate`]: *exact* enumeration of the instance spaces the
//!   lower-bound proofs quantify over (all labeled one-cycle graphs, all
//!   two-cycle graphs, all perfect matchings);
//! - [`matching`]: Hopcroft–Karp maximum bipartite matching, a Hall
//!   condition oracle, and the *k-matching* extraction used by the
//!   Polygamous Hall Theorem (Theorem 2.1 of the paper).
//!
//! # Example
//!
//! ```
//! use bcc_graphs::{Graph, generators};
//!
//! let g = generators::cycle(6);
//! assert!(g.is_connected());
//! let h = generators::two_cycles(3, 4);
//! assert_eq!(h.num_vertices(), 7);
//! assert_eq!(bcc_graphs::connectivity::connected_components(&h).count, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod error;
mod graph;
mod union_find;

pub mod connectivity;
pub mod cycles;
pub mod enumerate;
pub mod generators;
pub mod matching;
pub mod weighted;

pub use bitset::BitSet;
pub use error::GraphError;
pub use graph::{Edge, Graph};
pub use union_find::UnionFind;
