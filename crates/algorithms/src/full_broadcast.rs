//! The trivial baseline: broadcast the whole adjacency row.

use crate::problem::{decide_problem, local_component_labels, Problem};
use bcc_graphs::Graph;
use bcc_model::{
    Algorithm, Decision, Inbox, InitialKnowledge, KnowledgeMode, Message, NodeProgram, Symbol,
};

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
        let all_ids = init
            .all_ids
            .as_deref()
            .expect("KT-1 provides all ids")
            .to_vec();
        Box::new(FullBroadcastNode {
            problem: self.problem,
            neighbor_ids: init.input_port_labels.to_vec(),
            init,
            all_ids,
            // rows[sender index in sorted-ID order][j] = received bit.
            rows: Vec::new(),
            round: 0,
            graph: None,
        })
    }
}

struct FullBroadcastNode {
    problem: Problem,
    init: InitialKnowledge,
    neighbor_ids: Vec<u64>,
    all_ids: Vec<u64>, // sorted
    rows: Vec<Vec<(u64, bool)>>,
    round: usize,
    graph: Option<Graph>,
}

impl FullBroadcastNode {
    fn n(&self) -> usize {
        self.init.n
    }

    fn reconstruct(&mut self) {
        if self.graph.is_some() || self.round < self.n() {
            return;
        }
        // rows[j] = list of (sender id, bit for target j).
        let id_index: std::collections::BTreeMap<u64, usize> = self
            .all_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let n = self.n();
        let mut g = Graph::new(n);
        for (j, row) in self.rows.iter().enumerate() {
            for &(sender_id, bit) in row {
                if bit {
                    let u = id_index[&sender_id];
                    if u != j && !g.has_edge(u, j) {
                        g.add_edge(u, j).expect("reconstructed edge valid");
                    }
                }
            }
        }
        // Our own row is not received on any port; add own adjacency.
        let me = id_index[&self.init.id];
        for nid in &self.neighbor_ids {
            let w = id_index[nid];
            if !g.has_edge(me, w) {
                g.add_edge(me, w).expect("own edges valid");
            }
        }
        self.graph = Some(g);
    }
}

impl NodeProgram for FullBroadcastNode {
    fn broadcast(&mut self, round: usize) -> Message {
        if round >= self.n() {
            return Message::silent(1);
        }
        let target = self.all_ids[round];
        let bit = self.neighbor_ids.contains(&target);
        Message::single(Symbol::bit(bit))
    }

    fn receive(&mut self, round: usize, inbox: &Inbox) {
        if round < self.n() {
            // In KT-1, port labels are sender ids.
            let row: Vec<(u64, bool)> = inbox
                .entries()
                .iter()
                .map(|(label, m)| (*label, m.symbol() == Symbol::One))
                .collect();
            self.rows.push(row);
        }
        self.round = round + 1;
        self.reconstruct();
    }

    fn decide(&self) -> Decision {
        match &self.graph {
            Some(g) => decide_problem(g, self.problem),
            None => Decision::Undecided,
        }
    }

    fn component_label(&self) -> Option<u64> {
        let g = self.graph.as_ref()?;
        let labels = local_component_labels(g, &self.all_ids);
        let me = self.all_ids.iter().position(|&id| id == self.init.id)?;
        Some(labels[me])
    }

    fn is_done(&self) -> bool {
        self.graph.is_some()
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
