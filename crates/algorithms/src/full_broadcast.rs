//! The trivial baseline: broadcast the whole adjacency row.

use crate::problem::{full_knowledge_answer, rank_of, Problem};
use bcc_graphs::UnionFind;
use bcc_model::codec::BitStream;
use bcc_model::{
    Algorithm, Decision, Inbox, InitialKnowledge, KnowledgeMode, Message, NodeProgram,
};
use std::sync::Arc;

/// KT-1 baseline (deterministic, exactly `n` rounds in `BCC(1)`):
/// in round `j`, every vertex broadcasts the bit "is the vertex with
/// the `j`-th smallest ID my input-graph neighbor?". After `n` rounds
/// every vertex has the full adjacency matrix and answers locally.
///
/// This is the `Θ(n)`-round ceiling against which the `O(log n)`
/// algorithms (and the `Ω(log n)` lower bounds) are compared.
#[derive(Debug, Clone, Copy)]
pub struct FullGraphBroadcast {
    problem: Problem,
}

impl FullGraphBroadcast {
    /// Creates the baseline for the given problem.
    pub fn new(problem: Problem) -> Self {
        FullGraphBroadcast { problem }
    }
}

impl Algorithm for FullGraphBroadcast {
    fn name(&self) -> &str {
        "full-graph-broadcast"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        assert_eq!(
            init.mode,
            KnowledgeMode::Kt1,
            "FullGraphBroadcast requires KT-1 (needs IDs); wrap in Kt0Upgrade for KT-0"
        );
        // Our adjacency row: bit `j` says whether the vertex with the
        // `j`-th smallest ID is our input-graph neighbor.
        let mut stream = BitStream::new();
        stream.begin(1, init.n);
        for id in init.all_ids.map(|ids| &ids[..]).unwrap_or_default() {
            stream.push(u64::from(init.input_port_labels.contains(id)), 1);
        }
        Box::new(FullBroadcastNode {
            problem: self.problem,
            id: init.id,
            n: init.n,
            port_labels: Arc::clone(init.port_labels),
            input_port_labels: Arc::clone(init.input_port_labels),
            all_ids: init.all_ids.cloned(),
            stream,
            answer: None,
        })
    }
}

struct FullBroadcastNode {
    problem: Problem,
    id: u64,
    n: usize,
    port_labels: Arc<[u64]>,
    /// Our neighbors' IDs, sorted.
    input_port_labels: Arc<[u64]>,
    /// All IDs, sorted (KT-1).
    all_ids: Option<Arc<[u64]>>,
    /// Our row out, every sender's row in.
    stream: BitStream,
    /// The decision and component label, once every row is in.
    answer: Option<(Decision, Option<u64>)>,
}

impl FullBroadcastNode {
    /// The answer on the input graph, from every received row and our
    /// own adjacency; `None` if a row is incomplete or a sender
    /// unknown (a corrupt transcript), which leaves this vertex
    /// undecided. Both endpoints report an edge, and joining it twice
    /// changes nothing.
    fn decode(&self) -> Option<(Decision, Option<u64>)> {
        let ids = self.all_ids.as_deref().unwrap_or_default();
        let mut edges = UnionFind::new(self.n);
        for (port, &sender) in self.port_labels.iter().enumerate() {
            let u = rank_of(ids, sender)?;
            let row = self.stream.payload(port)?;
            for j in (0..self.n).filter(|&j| row[j / 64] >> (j % 64) & 1 == 1) {
                edges.union(u, j);
            }
        }
        full_knowledge_answer(self.problem, edges, self.id, &self.input_port_labels, ids)
    }
}

impl NodeProgram for FullBroadcastNode {
    fn broadcast(&mut self, _round: usize) -> Message {
        self.stream.send()
    }

    fn receive(&mut self, _round: usize, inbox: &Inbox) {
        self.stream.receive(inbox);
        if self.answer.is_none() && self.stream.is_complete() {
            self.answer = self.decode();
        }
    }

    fn decide(&self) -> Decision {
        self.answer.map_or(Decision::Undecided, |(d, _)| d)
    }

    fn component_label(&self) -> Option<u64> {
        self.answer?.1
    }

    fn is_done(&self) -> bool {
        self.answer.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graphs::generators;
    use bcc_model::{Instance, SimConfig};

    fn run(g: bcc_graphs::Graph, problem: Problem) -> bcc_model::RunOutcome {
        let i = Instance::new_kt1(g).unwrap();
        SimConfig::bcc1(200).run(&i, &FullGraphBroadcast::new(problem), 0)
    }

    #[test]
    fn solves_connectivity() {
        assert_eq!(
            run(generators::cycle(7), Problem::Connectivity).system_decision(),
            Decision::Yes
        );
        assert_eq!(
            run(generators::two_cycles(3, 4), Problem::Connectivity).system_decision(),
            Decision::No
        );
    }

    #[test]
    fn takes_n_rounds() {
        let out = run(generators::cycle(9), Problem::Connectivity);
        assert_eq!(out.stats().rounds, 9);
        assert!(out.completed());
    }

    #[test]
    fn component_labels_are_min_ids() {
        let out = run(generators::two_cycles(3, 4), Problem::ConnectedComponents);
        let labels: Vec<u64> = out.component_labels().iter().map(|l| l.unwrap()).collect();
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 3, 3]);
    }

    #[test]
    fn works_with_nontrivial_ids() {
        let g = generators::two_cycles(3, 3);
        let i = Instance::new_kt1_with_ids(g, vec![50, 10, 30, 40, 20, 60]).unwrap();
        let out = SimConfig::bcc1(100).run(
            &i,
            &FullGraphBroadcast::new(Problem::ConnectedComponents),
            0,
        );
        assert_eq!(out.system_decision(), Decision::No);
        let labels: Vec<u64> = out.component_labels().iter().map(|l| l.unwrap()).collect();
        // Component {0,1,2} has ids {50,10,30} → 10; {3,4,5} → 20.
        assert_eq!(labels, vec![10, 10, 10, 20, 20, 20]);
    }

    #[test]
    fn solves_multicycle() {
        assert_eq!(
            run(generators::multi_cycle(&[4, 4]), Problem::MultiCycle).system_decision(),
            Decision::No
        );
        assert_eq!(
            run(generators::cycle(8), Problem::MultiCycle).system_decision(),
            Decision::Yes
        );
    }

    #[test]
    #[should_panic(expected = "requires KT-1")]
    fn rejects_kt0() {
        let i = Instance::new_kt0(generators::cycle(4), 0).unwrap();
        SimConfig::bcc1(10).run(&i, &FullGraphBroadcast::new(Problem::Connectivity), 0);
    }
}
