//! # bcclique
//!
//! A complete, executable reproduction of *Connectivity Lower Bounds
//! in Broadcast Congested Clique* (Shreyas Pai & Sriram V. Pemmaraju,
//! PODC 2019; arXiv:1905.09016).
//!
//! The paper proves three Ω(log n)-round lower bounds for graph
//! connectivity in the 1-bit broadcast congested clique (`BCC(1)`),
//! under the KT-0 and KT-1 knowledge regimes. This workspace builds
//! the entire surrounding system: the `BCC(b)` model as a synchronous
//! simulator, the set-partition lattice and its communication
//! matrices, the 2-party protocol layer with the paper's gadget
//! reductions, the port-preserving crossing machinery with the exact
//! indistinguishability graph, information-theoretic accounting, and
//! the matching upper-bound algorithms — so every lemma of the paper
//! can be *run*, not just read.
//!
//! This crate is a facade: it re-exports each member crate under a
//! short module name and the most commonly used types at the root.
//!
//! ## Quick start
//!
//! ```
//! use bcclique::prelude::*;
//!
//! // Build a TwoCycle YES instance (one 8-cycle) in the KT-1 model
//! // and solve it with the O(log n) tight algorithm.
//! let instance = Instance::new_kt1(generators::cycle(8))?;
//! let algo = NeighborIdBroadcast::new(Problem::TwoCycle);
//! let outcome = SimConfig::bcc1(100).run(&instance, &algo, 0);
//! assert_eq!(outcome.system_decision(), Decision::Yes);
//! # Ok::<(), bcclique::model::ModelError>(())
//! ```
//!
//! ## Map of the workspace
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`graphs`] | `bcc-graphs` | graphs, union–find, cycle promises, enumeration, matchings |
//! | [`partitions`] | `bcc-partitions` | set-partition lattice, Bell numbers, `M_n`/`E_n` |
//! | [`linalg`] | `bcc-linalg` | exact GF(p)/GF(2) rank |
//! | [`info`] | `bcc-info` | exact entropy / mutual information |
//! | [`model`] | `bcc-model` | the `BCC(b)` simulator (KT-0/KT-1) |
//! | [`comm`] | `bcc-comm` | 2-party protocols, gadget reductions, Alice/Bob simulation |
//! | [`algorithms`] | `bcc-algorithms` | upper bounds: ID broadcasts, Borůvka, AGM sketches |
//! | [`core`] | `bcc-core` | crossings, indistinguishability graph, hard distributions, theorem certificates |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bcc_algorithms as algorithms;
pub use bcc_comm as comm;
pub use bcc_core as core;
pub use bcc_graphs as graphs;
pub use bcc_info as info;
pub use bcc_linalg as linalg;
pub use bcc_model as model;
pub use bcc_partitions as partitions;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use bcc_algorithms::{
        BoruvkaMinLabel, FullGraphBroadcast, Kt0Upgrade, NeighborIdBroadcast, Problem,
        SketchConnectivity, Truncated,
    };
    pub use bcc_core::crossing::{cross_instance, indistinguishable_after, DirectedEdge};
    pub use bcc_core::indist::IndistGraph;
    pub use bcc_graphs::{generators, Graph, UnionFind};
    pub use bcc_model::{Algorithm, Decision, Instance, KnowledgeMode, SimConfig};
    pub use bcc_partitions::SetPartition;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let g = generators::two_cycles(3, 3);
        let i = Instance::new_kt1(g).unwrap();
        let out = SimConfig::bcc1(1000).run(&i, &NeighborIdBroadcast::new(Problem::TwoCycle), 0);
        assert_eq!(out.system_decision(), Decision::No);
    }
}
