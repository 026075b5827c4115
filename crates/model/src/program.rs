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

impl Decision {
    /// The system decision per Section 1.2 over every vertex's
    /// decision: YES iff all of them are YES, otherwise NO.
    pub fn system(mut decisions: impl Iterator<Item = Decision>) -> Decision {
        if decisions.all(|d| d == Decision::Yes) {
            Decision::Yes
        } else {
            Decision::No
        }
    }
}

/// Everything a vertex knows before round 1 (Section 1.2): its ID,
/// `n`, the bandwidth, its port labels, which ports carry input-graph
/// edges, all IDs (KT-1 only), and the shared random string.
///
/// The knowledge is a `Copy` borrow of its instance's start table: the
/// label and ID lists are references to the `Arc`s an [`Instance`]
/// derives once, so building a vertex's knowledge touches no reference
/// count and allocates nothing, and reads auto-deref to `&[u64]`. A
/// program that keeps a list past the call clones only that `Arc`
/// (`Arc::clone(init.port_labels)`); one that wants its own `Vec`
/// calls `.to_vec()`. Code that builds knowledge by hand owns the
/// `Arc`s and lends them.
///
/// [`Instance`]: crate::Instance
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitialKnowledge<'a> {
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
    pub port_labels: &'a Arc<[u64]>,
    /// Labels of the ports that carry input-graph edges, sorted.
    pub input_port_labels: &'a Arc<[u64]>,
    /// All vertex IDs (sorted), available only in KT-1.
    pub all_ids: Option<&'a Arc<[u64]>>,
    /// Seed of the shared (public-coin) random string; identical at
    /// every vertex, per the paper's public-coin convention.
    pub coin_seed: u64,
}

impl<'a> InitialKnowledge<'a> {
    /// The degree of this vertex in the input graph.
    pub fn input_degree(&self) -> usize {
        self.input_port_labels.len()
    }

    /// In KT-1, the IDs of the input-graph neighbors (equal to the
    /// input port labels). Returns `None` in KT-0, where neighbor IDs
    /// are unknown.
    pub fn neighbor_ids(&self) -> Option<&'a [u64]> {
        match self.mode {
            KnowledgeMode::Kt1 => Some(self.input_port_labels),
            KnowledgeMode::Kt0 => None,
        }
    }

    /// In KT-1, the vertex index of `id`: its rank among all IDs,
    /// found by binary search in the sorted `all_ids`. `None` in KT-0
    /// and for an ID no vertex has.
    pub fn rank_of(&self, id: u64) -> Option<usize> {
        self.all_ids?.binary_search(&id).ok()
    }
}

/// The messages a vertex receives in one round, read through its
/// ports: a view of the round's board (one [`Message`] per sender) by
/// the vertex's routes row (`(port label, peer)` per port, in port
/// order). Port `p` reads `board[peer]` for the row's `p`-th pair, so
/// port order holds by construction, whoever delivered the board, and
/// reading a port costs one index. The view borrows both slices; a
/// driver builds one per vertex per round and allocates nothing.
///
/// [`relabelled`](Inbox::relabelled) keeps the messages and swaps the
/// labels, which is how `Kt0Upgrade` hands its inner program the same
/// view labelled with the IDs it learned.
#[derive(Debug, Clone, Copy)]
pub struct Inbox<'a> {
    row: &'a [(u64, usize)],
    board: &'a [Message],
    labels: Option<&'a [u64]>,
}

impl<'a> Inbox<'a> {
    /// The view of `board` through `row`: port `p` carries label
    /// `row[p].0` and reads `board[row[p].1]`.
    pub fn new(row: &'a [(u64, usize)], board: &'a [Message]) -> Self {
        Inbox {
            row,
            board,
            labels: None,
        }
    }

    /// The same view with port `p` labelled `labels[p]`; a port past
    /// the end of `labels` keeps its label.
    pub fn relabelled<'b>(&self, labels: &'b [u64]) -> Inbox<'b>
    where
        'a: 'b,
    {
        Inbox {
            labels: Some(labels),
            ..*self
        }
    }

    /// The label of port `port`; `None` when it is out of range.
    pub fn label(&self, port: usize) -> Option<u64> {
        let own = self.row.get(port)?.0;
        Some(
            self.labels
                .and_then(|l| l.get(port).copied())
                .unwrap_or(own),
        )
    }

    /// The message on port `port`; `None` when the port is out of
    /// range (or its peer outside the board).
    pub fn by_port(&self, port: usize) -> Option<&'a Message> {
        self.board.get(self.row.get(port)?.1)
    }

    /// The `(label, message)` pairs in port order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &'a Message)> + 'a {
        let inbox = *self;
        (0..self.len()).filter_map(move |p| Some((inbox.label(p)?, inbox.by_port(p)?)))
    }

    /// Number of ports (always `n − 1`).
    pub fn len(&self) -> usize {
        self.row.len()
    }

    /// Returns `true` if there are no ports (the 1-vertex network).
    pub fn is_empty(&self) -> bool {
        self.row.is_empty()
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

    /// Re-points this program at another vertex's initial knowledge,
    /// whatever rounds it has run: afterwards it must behave exactly
    /// as the program its algorithm's [`spawn`](Algorithm::spawn)
    /// returns for `init`. Returns `false` when it cannot, and the
    /// caller then spawns a fresh program in its place; that is the
    /// default. A sweep over many instances resets a warm lane's
    /// programs instead of allocating new ones. The knowledge is lent
    /// for the call only: a program keeps what it reads as scalars,
    /// or clones the one `Arc` it needs.
    fn reset(&mut self, init: &InitialKnowledge<'_>) -> bool {
        let _ = init;
        false
    }
}

/// An algorithm: a factory spawning one [`NodeProgram`] per vertex
/// from its initial knowledge.
pub trait Algorithm {
    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// Spawns the program for one vertex. The knowledge is taken by
    /// value but borrows the instance's start table, so the program
    /// cannot keep it: it copies the scalars it needs and clones only
    /// the `Arc`s it reads after the call.
    fn spawn(&self, init: InitialKnowledge<'_>) -> Box<dyn NodeProgram>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    #[test]
    fn inbox_reads_port_p_from_its_peers_row() {
        let board = [
            Message::single(Symbol::One),
            Message::single(Symbol::Zero),
            Message::single(Symbol::Silent),
        ];
        // Vertex 1 of three, its ports in unsorted label order.
        let row = [(9, 2), (4, 0)];
        let inbox = Inbox::new(&row, &board);
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.by_port(0).unwrap().symbol(), Symbol::Silent);
        assert_eq!(inbox.by_port(1).unwrap().symbol(), Symbol::One);
        assert!(inbox.by_port(2).is_none());
        assert_eq!(inbox.label(0), Some(9));
        assert_eq!(inbox.label(2), None);
        let pairs: Vec<(u64, Symbol)> = inbox.iter().map(|(l, m)| (l, m.symbol())).collect();
        assert_eq!(pairs, [(9, Symbol::Silent), (4, Symbol::One)]);
        // A peer outside the board reads nothing.
        let stray = [(1, 3)];
        assert!(Inbox::new(&stray, &board).by_port(0).is_none());
        assert!(Inbox::new(&[], &board).is_empty());
    }

    #[test]
    fn relabelled_view_reads_the_same_messages() {
        let board = [Message::single(Symbol::One), Message::single(Symbol::Zero)];
        let row = [(1, 1), (2, 0)];
        let outer = Inbox::new(&row, &board);
        let ids = [70];
        let inner = outer.relabelled(&ids);
        assert_eq!(inner.len(), outer.len());
        for p in 0..2 {
            assert_eq!(inner.by_port(p), outer.by_port(p));
        }
        // Port 1 has no new label and keeps its own.
        assert_eq!([inner.label(0), inner.label(1)], [Some(70), Some(2)]);
    }

    #[test]
    fn initial_knowledge_helpers() {
        let (ports, input, ids) = (
            Arc::from([1, 2, 3, 4]),
            Arc::from([2, 4]),
            Arc::from([1, 2, 3, 4, 7]),
        );
        let ik = InitialKnowledge {
            id: 7,
            n: 5,
            bandwidth: 1,
            mode: KnowledgeMode::Kt1,
            port_labels: &ports,
            input_port_labels: &input,
            all_ids: Some(&ids),
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
        assert_eq!(kt0.rank_of(7), None);
    }

    #[test]
    fn rank_of_is_the_position_among_all_ids() {
        let (ports, input, ids) = (
            Arc::from([3, 17, 99]),
            Arc::from([17]),
            Arc::from([3, 17, 40, 99]),
        );
        let ik = InitialKnowledge {
            id: 40,
            n: 4,
            bandwidth: 1,
            mode: KnowledgeMode::Kt1,
            port_labels: &ports,
            input_port_labels: &input,
            all_ids: Some(&ids),
            coin_seed: 0,
        };
        assert_eq!(
            [3, 17, 40, 99].map(|id| ik.rank_of(id)),
            [Some(0), Some(1), Some(2), Some(3)]
        );
        assert_eq!(ik.rank_of(18), None);
        assert_eq!(ik.rank_of(0), None);
        assert_eq!(ik.rank_of(100), None);
    }
}
