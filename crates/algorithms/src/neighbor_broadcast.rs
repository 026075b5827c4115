//! The tightness witness: `O((d_max + 1)·log n)` deterministic KT-1
//! connectivity.

use crate::problem::{decide_problem, local_component_labels, Problem};
use bcc_graphs::Graph;
use bcc_model::codec::{bits_needed, BitAccumulator, BitSchedule};
use bcc_model::{
    Algorithm, Decision, Inbox, InitialKnowledge, KnowledgeMode, Message, NodeProgram,
};

/// Deterministic KT-1 algorithm: phase 1 broadcasts every vertex's
/// degree (`⌈log₂ n⌉` rounds); phase 2 broadcasts every vertex's
/// neighbor-ID list bit-serially (`d_max·⌈log₂ n⌉` rounds, where
/// `d_max` is the maximum degree learned in phase 1). Afterwards every
/// vertex knows the entire input graph and answers locally.
///
/// On 2-regular inputs — the paper's `TwoCycle`/`MultiCycle`
/// instances — this runs in `3·⌈log₂ n⌉ + O(1)` rounds, matching the
/// paper's Ω(log n) lower bounds and substantiating its claim (§1.1)
/// that the bounds are tight for uniformly sparse graphs.
#[derive(Debug, Clone, Copy)]
pub struct NeighborIdBroadcast {
    problem: Problem,
}

impl NeighborIdBroadcast {
    /// Creates the algorithm for the given problem.
    pub fn new(problem: Problem) -> Self {
        NeighborIdBroadcast { problem }
    }
}

impl Algorithm for NeighborIdBroadcast {
    fn name(&self) -> &str {
        "neighbor-id-broadcast"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        assert_eq!(
            init.mode,
            KnowledgeMode::Kt1,
            "NeighborIdBroadcast requires KT-1; wrap in Kt0Upgrade for KT-0"
        );
        let width = bits_needed(init.n);
        let all_ids = init
            .all_ids
            .as_deref()
            .expect("KT-1 provides all ids")
            .to_vec();
        let my_degree = init.input_degree() as u64;
        Box::new(NeighborNode {
            problem: self.problem,
            width,
            all_ids,
            my_neighbor_ids: init.input_port_labels.to_vec(),
            init,
            degree_schedule: BitSchedule::of_value(my_degree, width),
            degree_accs: Vec::new(),
            degrees: Vec::new(),
            d_max: None,
            id_accs: Vec::new(),
            graph: None,
            round: 0,
        })
    }
}

struct NeighborNode {
    problem: Problem,
    init: InitialKnowledge,
    width: usize,
    /// Every vertex ID, sorted (KT-1 knowledge), so an ID's vertex
    /// index is its rank.
    all_ids: Vec<u64>,
    my_neighbor_ids: Vec<u64>,
    degree_schedule: BitSchedule,
    /// Accumulators for phase 1, per port in inbox order.
    degree_accs: Vec<(u64, BitAccumulator)>,
    /// `(sender id, announced degree)` per port in inbox order, once
    /// phase 1 finishes.
    degrees: Vec<(u64, usize)>,
    /// The maximum degree, ours included, once phase 1 finishes.
    d_max: Option<usize>,
    /// Accumulators for phase 2: each sender's announced neighbor IDs,
    /// as many as its degree, back to back in the order of `degrees`.
    id_accs: Vec<BitAccumulator>,
    graph: Option<Graph>,
    round: usize,
}

impl NeighborNode {
    /// The vertex index of `id`: its rank in the sorted ID table.
    fn index_of(&self, id: u64) -> Option<usize> {
        self.all_ids.binary_search(&id).ok()
    }

    /// The symbol to broadcast in phase 2, at offset `o` into it: our
    /// neighbor list, one ID after another, silent after exhaustion
    /// (but receivers only read what the degree announced).
    fn phase2_symbol(&self, offset: usize) -> bcc_model::Symbol {
        let slot = offset / self.width;
        let bit = offset % self.width;
        match self.my_neighbor_ids.get(slot) {
            Some(&id) => BitSchedule::of_value(id, self.width).symbol_at(bit),
            None => bcc_model::Symbol::Silent,
        }
    }

    fn try_finish(&mut self) {
        if self.graph.is_some() {
            return;
        }
        let Some(d_max) = self.d_max else {
            return;
        };
        if self.round < (1 + d_max) * self.width {
            return;
        }
        self.graph = self.decode();
    }

    /// The input graph, from every sender's announced neighbor list
    /// and ours; `None` if a payload is incomplete or names an unknown
    /// ID (a corrupt transcript), which leaves this vertex undecided.
    fn decode(&self) -> Option<Graph> {
        let mut g = Graph::new(self.init.n);
        let mut add = |a: usize, b: usize| {
            if a != b && !g.has_edge(a, b) {
                g.add_edge(a, b).expect("decoded edge valid");
            }
        };
        let mut accs = self.id_accs.iter();
        for &(sender, d) in &self.degrees {
            let su = self.index_of(sender)?;
            for acc in accs.by_ref().take(d) {
                add(su, self.index_of(acc.value()?)?);
            }
        }
        let me = self.index_of(self.init.id)?;
        for &nid in &self.my_neighbor_ids {
            add(me, self.index_of(nid)?);
        }
        Some(g)
    }
}

impl NodeProgram for NeighborNode {
    fn broadcast(&mut self, round: usize) -> Message {
        if round < self.width {
            return Message::single(self.degree_schedule.symbol_at(round));
        }
        let offset = round - self.width;
        Message::single(self.phase2_symbol(offset))
    }

    fn receive(&mut self, round: usize, inbox: &Inbox) {
        if round < self.width {
            if self.degree_accs.is_empty() {
                self.degree_accs = inbox
                    .entries()
                    .iter()
                    .map(|(l, _)| (*l, BitAccumulator::new(self.width)))
                    .collect();
            }
            for (port, (label, acc)) in self.degree_accs.iter_mut().enumerate() {
                let fed = acc.push(inbox.by_port(port, *label).expect("port present").symbol());
                debug_assert!(fed.is_ok(), "sender broke the bit-serial encoding");
            }
            if round + 1 == self.width {
                self.degrees = self
                    .degree_accs
                    .iter()
                    .map(|(l, a)| (*l, a.value().expect("degree payload complete") as usize))
                    .collect();
                // Prepare phase-2 accumulators: one per announced neighbor.
                let total = self.degrees.iter().map(|&(_, d)| d).sum();
                self.id_accs = vec![BitAccumulator::new(self.width); total];
                let peer_max = self.degrees.iter().map(|&(_, d)| d).max();
                self.d_max = Some(peer_max.unwrap_or(0).max(self.my_neighbor_ids.len()));
            }
        } else {
            let offset = round - self.width;
            let slot = offset / self.width;
            // Sender `p`'s accumulators start after those of the
            // senders before it.
            let mut start = 0;
            for (port, &(label, d)) in self.degrees.iter().enumerate() {
                if slot < d {
                    let symbol = inbox.by_port(port, label).expect("port present").symbol();
                    let fed = self.id_accs[start + slot].push(symbol);
                    debug_assert!(fed.is_ok(), "sender broke the bit-serial encoding");
                }
                start += d;
            }
        }
        self.round = round + 1;
        self.try_finish();
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
        Some(labels[self.index_of(self.init.id)?])
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
        SimConfig::bcc1(500).run(&i, &NeighborIdBroadcast::new(problem), 0)
    }

    #[test]
    fn two_cycle_decisions() {
        assert_eq!(
            run(generators::cycle(10), Problem::TwoCycle).system_decision(),
            Decision::Yes
        );
        assert_eq!(
            run(generators::two_cycles(5, 5), Problem::TwoCycle).system_decision(),
            Decision::No
        );
    }

    #[test]
    fn round_count_is_logarithmic_on_cycles() {
        for n in [8usize, 16, 32, 64] {
            let out = run(generators::cycle(n), Problem::Connectivity);
            // (1 + d_max)·⌈log₂ n⌉ rounds (degree phase plus ID
            // phase): 3·⌈log₂ n⌉ on 2-regular graphs.
            assert_eq!(out.stats().rounds, 3 * bits_needed(n), "n={n}");
        }
    }

    #[test]
    fn handles_irregular_graphs() {
        let g = generators::star(9);
        let out = run(g, Problem::Connectivity);
        assert_eq!(out.system_decision(), Decision::Yes);
        // d_max = 8 → (1 + 8)·4 rounds.
        assert_eq!(out.stats().rounds, 9 * 4);
        let forest = bcc_graphs::Graph::from_edges(6, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            run(forest, Problem::Connectivity).system_decision(),
            Decision::No
        );
    }

    #[test]
    fn component_labels_correct() {
        let out = run(
            generators::multi_cycle(&[4, 5]),
            Problem::ConnectedComponents,
        );
        let labels: Vec<u64> = out.component_labels().iter().map(|l| l.unwrap()).collect();
        assert_eq!(labels, vec![0, 0, 0, 0, 4, 4, 4, 4, 4]);
    }

    #[test]
    fn empty_graph_all_isolated() {
        let g = bcc_graphs::Graph::new(5);
        let out = run(g, Problem::Connectivity);
        assert_eq!(out.system_decision(), Decision::No);
        // d_max = 0 → only the degree phase.
        assert_eq!(out.stats().rounds, bits_needed(5));
    }
}
