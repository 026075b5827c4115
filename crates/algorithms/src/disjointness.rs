//! Range sensitivity à la Becker et al. (paper §1.3): a problem that
//! unicast solves in O(1) rounds but broadcast needs Ω(n) for.
//!
//! **PairedCommonNeighbor**: vertices are grouped into designated
//! pairs `(2i, 2i+1)`; the representative `2i` must output YES iff the
//! pair has a *common input-graph neighbor*. This is the
//! graph-encoded cousin of the pairwise set-disjointness problem that
//! Becker et al. show is range-sensitive, and that the paper cites as
//! the `O(1)`-in-`CC(1)` vs `Ω(n)`-in-`BCC(1)` contrast.
//!
//! - [`CommonNeighborUnicast`] (range 3, 1 round): every vertex `k`
//!   sends, to each representative, one bit — "I am adjacent to both
//!   members of your pair" — and silence elsewhere. Three distinct
//!   messages (`0`, `1`, `⊥`), so range 3 suffices; representatives
//!   OR their inbox.
//! - [`CommonNeighborBroadcast`] (range 1, `⌈n/2⌉` rounds): in round
//!   `i` every vertex broadcasts its witness bit *for pair `i`*; the
//!   single broadcast channel serializes the pairs.
//!
//! The measured gap (1 round vs `n/2` rounds at bandwidth 1) is the
//! paper's motivating contrast, reproduced inside the same simulator
//! that hosts its lower bounds.

use bcc_model::range::{PortMessages, RangeAlgorithm, RangeNodeProgram};
use bcc_model::{Decision, InitialKnowledge, KnowledgeMode, Message, Symbol};

/// Ground truth for the problem: for each pair index `i`, does some
/// vertex neighbor both `2i` and `2i+1`?
pub fn common_neighbor_truth(g: &bcc_graphs::Graph) -> Vec<bool> {
    let n = g.num_vertices();
    (0..n / 2)
        .map(|i| {
            (0..n).any(|k| {
                k != 2 * i && k != 2 * i + 1 && g.has_edge(k, 2 * i) && g.has_edge(k, 2 * i + 1)
            })
        })
        .collect()
}

fn neighbor_ids(init: &InitialKnowledge) -> Vec<u64> {
    assert_eq!(
        init.mode,
        KnowledgeMode::Kt1,
        "the common-neighbor demos use KT-1 (IDs 0..n as vertex names)"
    );
    init.input_port_labels.to_vec()
}

/// The unicast (range-3) solution: one round of per-port witness bits.
#[derive(Debug, Clone, Copy)]
pub struct CommonNeighborUnicast;

impl RangeAlgorithm for CommonNeighborUnicast {
    fn name(&self) -> &str {
        "common-neighbor-unicast"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn RangeNodeProgram> {
        let neighbors = neighbor_ids(&init);
        Box::new(UnicastNode {
            id: init.id,
            n: init.n,
            port_labels: init.port_labels.to_vec(),
            neighbors,
            answer: None,
        })
    }
}

struct UnicastNode {
    id: u64,
    n: usize,
    port_labels: Vec<u64>,
    neighbors: Vec<u64>,
    answer: Option<bool>,
}

impl UnicastNode {
    fn is_rep(&self) -> bool {
        self.id.is_multiple_of(2) && (self.id as usize) + 1 < self.n
    }
}

impl RangeNodeProgram for UnicastNode {
    fn send(&mut self, _round: usize) -> PortMessages {
        // To each representative 2i (other than ourselves): the bit
        // "adjacent to both 2i and 2i+1". Silence to everyone else.
        let messages = self
            .port_labels
            .iter()
            .map(|&peer| {
                let is_rep = peer % 2 == 0 && (peer as usize) + 1 < self.n;
                if is_rep {
                    let witness =
                        self.neighbors.contains(&peer) && self.neighbors.contains(&(peer + 1));
                    Message::single(Symbol::bit(witness))
                } else {
                    Message::silent(1)
                }
            })
            .collect();
        PortMessages { messages }
    }

    fn receive(&mut self, _round: usize, inbox: &[(u64, Message)]) {
        if self.answer.is_some() {
            return;
        }
        if self.is_rep() {
            // A common neighbor exists iff some witness bit is 1, or
            // our partner itself... partners are not their own common
            // neighbor, so just OR the witness bits.
            let any = inbox
                .iter()
                .any(|(_, m)| m.symbols().next() == Some(Symbol::One));
            self.answer = Some(any);
        } else {
            self.answer = Some(true); // non-representatives output YES vacuously
        }
    }

    fn decide(&self) -> Decision {
        match self.answer {
            Some(true) => Decision::Yes,
            Some(false) => Decision::No,
            None => Decision::Undecided,
        }
    }

    fn is_done(&self) -> bool {
        self.answer.is_some()
    }
}

/// The broadcast (range-1) solution: pairs are served one per round.
#[derive(Debug, Clone, Copy)]
pub struct CommonNeighborBroadcast;

impl RangeAlgorithm for CommonNeighborBroadcast {
    fn name(&self) -> &str {
        "common-neighbor-broadcast"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn RangeNodeProgram> {
        let neighbors = neighbor_ids(&init);
        Box::new(BroadcastNode {
            id: init.id,
            n: init.n,
            neighbors,
            answer: None,
            round: 0,
        })
    }
}

struct BroadcastNode {
    id: u64,
    n: usize,
    neighbors: Vec<u64>,
    answer: Option<bool>,
    round: usize,
}

impl BroadcastNode {
    fn num_pairs(&self) -> usize {
        self.n / 2
    }

    fn is_rep(&self) -> bool {
        self.id.is_multiple_of(2) && (self.id as usize) + 1 < self.n
    }

    fn my_pair(&self) -> usize {
        self.id as usize / 2
    }
}

impl RangeNodeProgram for BroadcastNode {
    fn send(&mut self, round: usize) -> PortMessages {
        // Round i: broadcast the witness bit for pair i.
        let msg = if round < self.num_pairs() {
            let a = 2 * round as u64;
            let b = a + 1;
            let witness = self.id != a
                && self.id != b
                && self.neighbors.contains(&a)
                && self.neighbors.contains(&b);
            Message::single(Symbol::bit(witness))
        } else {
            Message::silent(1)
        };
        PortMessages::broadcast(msg, self.n - 1)
    }

    fn receive(&mut self, round: usize, inbox: &[(u64, Message)]) {
        if self.is_rep() && round == self.my_pair() {
            let any = inbox
                .iter()
                .any(|(_, m)| m.symbols().next() == Some(Symbol::One));
            self.answer = Some(any);
        }
        self.round = round + 1;
        if !self.is_rep() && self.answer.is_none() {
            self.answer = Some(true);
        }
    }

    fn decide(&self) -> Decision {
        match self.answer {
            Some(true) => Decision::Yes,
            Some(false) => Decision::No,
            None => Decision::Undecided,
        }
    }

    fn is_done(&self) -> bool {
        // Every representative must have been served: run all pair
        // rounds.
        self.round >= self.num_pairs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graphs::{generators, Graph};
    use bcc_model::range::RangeSimulator;
    use bcc_model::Instance;
    use rand::SeedableRng;

    fn check(g: Graph) {
        let n = g.num_vertices();
        let truth = common_neighbor_truth(&g);
        let inst = Instance::new_kt1(g).unwrap();
        // Unicast: 1 round, range 3.
        let uni = RangeSimulator::new(10, 1, 3).run(&inst, &CommonNeighborUnicast, 0);
        assert_eq!(uni.rounds, 1);
        assert!(uni.max_range_used <= 3);
        // Broadcast: n/2 rounds, range 1.
        let bc = RangeSimulator::new(1000, 1, 1).run(&inst, &CommonNeighborBroadcast, 0);
        assert_eq!(bc.rounds, n / 2);
        assert_eq!(bc.max_range_used, 1);
        for (i, &t) in truth.iter().enumerate() {
            let expect = if t { Decision::Yes } else { Decision::No };
            assert_eq!(uni.decisions[2 * i], expect, "unicast pair {i}");
            assert_eq!(bc.decisions[2 * i], expect, "broadcast pair {i}");
        }
    }

    #[test]
    fn star_pairs_share_center() {
        // In a star, every pair not containing the center shares it.
        check(generators::star(8));
    }

    #[test]
    fn cycle_pairs() {
        // On a cycle, pair (2i, 2i+1) are adjacent vertices; their
        // common neighbors: none (neighbors are 2i−1 and 2i+2).
        check(generators::cycle(10));
    }

    #[test]
    fn random_graphs_agree_with_truth() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..10 {
            check(generators::gnm(12, 20, &mut rng));
        }
    }

    #[test]
    fn empty_graph_all_no() {
        let g = Graph::new(6);
        let truth = common_neighbor_truth(&g);
        assert_eq!(truth, vec![false; 3]);
        check(g);
    }
}
