//! Error types for instance construction and simulation.

use std::error::Error;
use std::fmt;

/// Errors produced when building or manipulating `BCC(b)` instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// IDs were not distinct.
    DuplicateIds {
        /// The repeated ID.
        id: u64,
    },
    /// Wrong number of IDs for the vertex count.
    IdCountMismatch {
        /// IDs supplied.
        got: usize,
        /// Vertices in the graph.
        expected: usize,
    },
    /// The input graph had more vertices than the network.
    GraphTooLarge {
        /// Input graph vertices.
        graph: usize,
        /// Network vertices.
        network: usize,
    },
    /// A rewiring was requested on a KT-1 network, whose port labels
    /// are tied to IDs and cannot move.
    RewireKt1,
    /// A rewiring request was not a valid port permutation (e.g. the
    /// four endpoints were not distinct).
    InvalidRewire {
        /// Human-readable description.
        reason: String,
    },
    /// An indistinguishability comparison was asked of a run executed
    /// with transcript recording disabled: with no views there is
    /// nothing to compare, and a vacuous "indistinguishable" would be
    /// unsound.
    UnrecordedRun,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateIds { id } => write!(f, "duplicate vertex id {id}"),
            ModelError::IdCountMismatch { got, expected } => {
                write!(f, "expected {expected} ids, got {got}")
            }
            ModelError::GraphTooLarge { graph, network } => {
                write!(
                    f,
                    "input graph on {graph} vertices exceeds network size {network}"
                )
            }
            ModelError::RewireKt1 => {
                write!(
                    f,
                    "KT-1 networks cannot be rewired: port labels are neighbor ids"
                )
            }
            ModelError::InvalidRewire { reason } => write!(f, "invalid rewiring: {reason}"),
            ModelError::UnrecordedRun => {
                write!(
                    f,
                    "run was executed without transcript recording; views are unavailable \
                     for indistinguishability comparison"
                )
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            ModelError::DuplicateIds { id: 7 }.to_string(),
            "duplicate vertex id 7"
        );
        assert!(ModelError::RewireKt1.to_string().contains("KT-1"));
    }
}
