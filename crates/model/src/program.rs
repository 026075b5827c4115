//! The node-program interface: what an algorithm is in the `BCC(b)`
//! model.

use crate::network::KnowledgeMode;
use crate::symbol::Message;
use std::sync::Arc;

/// A vertex's YES/NO output for decision problems.
///
/// Per Section 1.2, the *system* output is YES iff **all** vertices
/// output YES; any NO (or missing) vertex output makes the system
/// answer NO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// The vertex votes YES.
    Yes,
    /// The vertex votes NO.
    No,
    /// The vertex has not decided (treated as NO by the system rule,
    /// but distinguished so harnesses can detect truncation).
    Undecided,
}

/// Everything a vertex knows before round 1 (Section 1.2): its ID,
/// `n`, the bandwidth, its port labels, which ports carry input-graph
/// edges, all IDs (KT-1 only), and the shared random string.
///
/// The label and ID lists are shared slices: an [`Instance`] derives
/// them once and hands every run the same `Arc`s, so building a
/// vertex's knowledge costs reference-count bumps, not copies. A
/// program that wants its own `Vec` calls `.to_vec()`; a hand-built
/// knowledge converts its vectors with `.into()`.
///
/// [`Instance`]: crate::Instance
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialKnowledge {
    /// This vertex's unique ID.
    pub id: u64,
    /// Number of vertices in the network.
    pub n: usize,
    /// Bits per broadcast (`b` of `BCC(b)`).
    pub bandwidth: usize,
    /// KT-0 or KT-1.
    pub mode: KnowledgeMode,
    /// The labels of the `n−1` ports, in port-index order. In KT-0
    /// these are `1..n−1`; in KT-1 they are the peer IDs.
    pub port_labels: Arc<[u64]>,
    /// Labels of the ports that carry input-graph edges, sorted.
    pub input_port_labels: Arc<[u64]>,
    /// All vertex IDs (sorted), available only in KT-1.
    pub all_ids: Option<Arc<[u64]>>,
    /// Seed of the shared (public-coin) random string; identical at
    /// every vertex, per the paper's public-coin convention.
    pub coin_seed: u64,
}

impl InitialKnowledge {
    /// The degree of this vertex in the input graph.
    pub fn input_degree(&self) -> usize {
        self.input_port_labels.len()
    }

    /// In KT-1, the IDs of the input-graph neighbors (equal to the
    /// input port labels). Returns `None` in KT-0, where neighbor IDs
    /// are unknown.
    pub fn neighbor_ids(&self) -> Option<&[u64]> {
        match self.mode {
            KnowledgeMode::Kt1 => Some(&self.input_port_labels),
            KnowledgeMode::Kt0 => None,
        }
    }
}

/// The messages a vertex receives in one round: one [`Message`] per
/// port, tagged with the port label, in port-index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inbox {
    entries: Vec<(u64, Message)>,
}

impl Inbox {
    /// Creates an inbox from `(port label, message)` pairs in
    /// port-index order.
    pub fn new(entries: Vec<(u64, Message)>) -> Self {
        Inbox { entries }
    }

    /// Gives the entry vector back, so a driver can refill it next
    /// round instead of allocating a fresh one.
    pub fn into_entries(self) -> Vec<(u64, Message)> {
        self.entries
    }

    /// The `(label, message)` pairs in port-index order.
    pub fn entries(&self) -> &[(u64, Message)] {
        &self.entries
    }

    /// The message received on the port with the given label.
    pub fn by_label(&self, label: u64) -> Option<&Message> {
        self.entries
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, m)| m)
    }

    /// Number of ports (always `n − 1`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if there are no ports (the 1-vertex network).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The per-vertex program: a deterministic state machine driven by the
/// synchronous round structure. Randomized algorithms draw from the
/// public-coin seed in their [`InitialKnowledge`], which keeps each
/// program a deterministic function of (initial knowledge, received
/// transcript) — the property the indistinguishability machinery
/// (Lemma 3.4) relies on.
pub trait NodeProgram {
    /// The message to broadcast in round `round` (0-based). Called
    /// before any round-`round` message is delivered. Return a message
    /// of at most `bandwidth` symbols; it is padded with `⊥` to the
    /// bandwidth.
    fn broadcast(&mut self, round: usize) -> Message;

    /// Delivers the round's received messages (one per port).
    fn receive(&mut self, round: usize, inbox: &Inbox);

    /// The vertex's current decision (for decision problems).
    fn decide(&self) -> Decision;

    /// The vertex's component-label output (for
    /// `ConnectedComponents`); `None` if the problem is a decision
    /// problem or the label is not yet known.
    fn component_label(&self) -> Option<u64> {
        None
    }

    /// For algorithms that output a spanning structure (e.g. MST):
    /// the chosen edges as `(smaller id, larger id)` pairs, sorted.
    /// `None` for decision algorithms or before completion.
    fn spanning_edges(&self) -> Option<Vec<(u64, u64)>> {
        None
    }

    /// Whether this vertex has finished; the simulator stops when all
    /// vertices are done (or the round limit is hit).
    fn is_done(&self) -> bool;
}

/// An algorithm: a factory spawning one [`NodeProgram`] per vertex
/// from its initial knowledge.
pub trait Algorithm {
    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// Spawns the program for one vertex.
    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    #[test]
    fn inbox_lookup() {
        let inbox = Inbox::new(vec![
            (3, Message::single(Symbol::One)),
            (1, Message::single(Symbol::Zero)),
        ]);
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.by_label(3).unwrap().symbol(), Symbol::One);
        assert!(inbox.by_label(9).is_none());
    }

    #[test]
    fn initial_knowledge_helpers() {
        let ik = InitialKnowledge {
            id: 7,
            n: 5,
            bandwidth: 1,
            mode: KnowledgeMode::Kt1,
            port_labels: vec![1, 2, 3, 4].into(),
            input_port_labels: vec![2, 4].into(),
            all_ids: Some(vec![1, 2, 3, 4, 7].into()),
            coin_seed: 0,
        };
        assert_eq!(ik.input_degree(), 2);
        assert_eq!(ik.neighbor_ids(), Some(&[2u64, 4][..]));
        let kt0 = InitialKnowledge {
            mode: KnowledgeMode::Kt0,
            all_ids: None,
            ..ik
        };
        assert_eq!(kt0.neighbor_ids(), None);
    }
}
