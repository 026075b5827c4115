//! An executable implementation of the `BCC(b)` model — the *b-bit
//! Broadcast Congested Clique* of Section 1.2 of *Connectivity Lower
//! Bounds in Broadcast Congested Clique* (Pai & Pemmaraju, PODC 2019).
//!
//! # The model
//!
//! A size-`n` instance consists of `n` vertices, each with a unique
//! ID, connected pairwise by *network edges* so that the communication
//! network is a clique. Each vertex has `n−1` communication ports.
//! A subset of the network edges forms the *input graph*. Computation
//! proceeds in synchronous rounds: every vertex broadcasts at most `b`
//! bits (each position may also be the silent character `⊥`), and the
//! broadcast of `u` is delivered to every other vertex `v` on the port
//! of `v` that connects to `u`.
//!
//! Two knowledge regimes differ only in the *port labels*:
//!
//! - **KT-0** ([`KnowledgeMode::Kt0`]): ports are labeled `1..n−1` in
//!   an arbitrary (seedable) manner, carrying no information about the
//!   vertex on the other side. KT-0 wirings can be *rewired* — the
//!   degree of freedom exploited by the paper's port-preserving edge
//!   crossings (Definition 3.3).
//! - **KT-1** ([`KnowledgeMode::Kt1`]): the port of `u` leading to `v`
//!   is labeled `ID(v)`, so every vertex knows the IDs of all vertices
//!   and of each neighbor across each port. KT-1 wirings are rigid:
//!   rewiring would change the labels, which is exactly why the paper
//!   needs a different lower-bound technique there.
//!
//! # Pieces
//!
//! - [`Symbol`], [`Message`]: the `{0, 1, ⊥}` broadcast alphabet;
//! - [`Network`], [`Instance`]: wiring + IDs + input graph;
//! - [`NodeProgram`], [`Algorithm`]: the object-safe interface node
//!   programs implement;
//! - [`SimConfig`]: the synchronous executor's configuration and
//!   single run entry point, producing [`RunOutcome`]s with full
//!   per-node [`Transcript`]s and [`NodeView`]s — the exact "state of
//!   a vertex" whose equality defines *indistinguishability*
//!   (Lemma 3.4);
//! - [`RunState`]: one run's programs, transcripts and statistics,
//!   advanced round by round by the scalar executor and by each lane
//!   of the batched kernel in `bcc-engine`;
//! - [`transport`]: the round-delivery surface ([`Transport`]) the
//!   executor routes every exchange through — in-process
//!   ([`transport::LocalTransport`]) by default, multi-process via
//!   `bcc-transport`;
//! - [`codec`]: [`codec::BitStream`], the bit-serial payload exchange
//!   every upper-bound algorithm sends and reads through.
//!
//! # Example
//!
//! ```
//! use bcc_model::{Instance, SimConfig, Decision};
//! use bcc_graphs::generators;
//!
//! // A 6-cycle as a KT-1 instance; run the always-YES strawman.
//! let instance = Instance::new_kt1(generators::cycle(6)).unwrap();
//! let algo = bcc_model::testing::ConstantDecision::yes();
//! let outcome = SimConfig::bcc1(10).run(&instance, &algo, 0);
//! assert_eq!(outcome.system_decision(), Decision::Yes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod error;
mod instance;
mod network;
pub mod postmortem;
mod program;
pub mod range;
mod simulator;
pub mod testing;
pub mod transport;

pub use error::ModelError;
pub use instance::Instance;
pub use network::{KnowledgeMode, Network};
pub use program::{Algorithm, Decision, Inbox, InitialKnowledge, NodeProgram};
pub use simulator::{
    runs_indistinguishable, try_runs_indistinguishable, NodeView, RoundBuffers, RunOutcome,
    RunState, RunStats, SimConfig, Transcript,
};
pub use symbol::{Message, Symbol};
pub use transport::{Transport, TransportError, TransportSpec};

/// The curated import surface for writing and running node programs:
/// `use bcc_model::prelude::*` brings in the broadcast alphabet, the
/// program traits, the instance/run types, and the transport
/// vocabulary — everything a typical algorithm or experiment module
/// touches, nothing it shouldn't (network *construction* stays behind
/// [`Instance`]).
pub mod prelude {
    pub use crate::program::{Algorithm, Decision, Inbox, InitialKnowledge, NodeProgram};
    pub use crate::simulator::{NodeView, RunOutcome, RunStats, SimConfig, Transcript};
    pub use crate::symbol::{Message, Symbol};
    pub use crate::transport::{Transport, TransportError, TransportSpec};
    pub use crate::{Instance, KnowledgeMode, ModelError};
}

mod symbol;
