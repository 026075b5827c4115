//! The tightness witness: `O((d_max + 1)·log n)` deterministic KT-1
//! connectivity.

use crate::problem::{component_label_of, decide_problem, Problem};
use bcc_graphs::Graph;
use bcc_model::codec::{bits_needed, BitStream};
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
        let mut stream = BitStream::new();
        stream.begin(1, width);
        stream.push(init.input_degree() as u64, width);
        Box::new(NeighborNode {
            problem: self.problem,
            init,
            width,
            stream,
            degrees: None,
            graph: None,
        })
    }
}

struct NeighborNode {
    problem: Problem,
    init: InitialKnowledge,
    width: usize,
    /// Phase 1 exchanges degrees, phase 2 neighbor-ID lists.
    stream: BitStream,
    /// Every port's announced degree, once phase 1 finishes.
    degrees: Option<Vec<usize>>,
    graph: Option<Graph>,
}

impl NeighborNode {
    /// Ends phase 1: reads every port's degree and starts phase 2,
    /// `d_max` IDs long (`d_max` counts our degree too), with our
    /// neighbor list, one ID after another. A degree that did not
    /// arrive (a corrupt transcript) leaves this vertex in phase 1,
    /// silent and undecided.
    fn start_lists(&mut self) {
        let ports = self.init.port_labels.len();
        let mut degrees = Vec::with_capacity(ports);
        for port in 0..ports {
            let Some(d) = self.stream.field(port, 0, self.width) else {
                return;
            };
            degrees.push(d as usize);
        }
        let peer_max = degrees.iter().copied().max();
        let d_max = peer_max.unwrap_or(0).max(self.init.input_degree());
        self.stream.begin(1, d_max * self.width);
        for &id in self.init.input_port_labels.iter() {
            self.stream.push(id, self.width);
        }
        self.degrees = Some(degrees);
    }

    /// The input graph, from every sender's announced neighbor list
    /// and ours; `None` if a payload is incomplete or names an unknown
    /// ID (a corrupt transcript), which leaves this vertex undecided.
    fn decode(&self) -> Option<Graph> {
        let degrees = self.degrees.as_ref()?;
        let init = &self.init;
        let mut g = Graph::new(init.n);
        // Both endpoints announce an edge: the repeat is refused and
        // skipped.
        for (port, (&sender, &d)) in init.port_labels.iter().zip(degrees).enumerate() {
            let su = init.rank_of(sender)?;
            for slot in 0..d {
                let id = self.stream.field(port, slot * self.width, self.width)?;
                let _ = g.add_edge(su, init.rank_of(id)?);
            }
        }
        let me = init.rank_of(init.id)?;
        for &nid in init.input_port_labels.iter() {
            let _ = g.add_edge(me, init.rank_of(nid)?);
        }
        Some(g)
    }
}

impl NodeProgram for NeighborNode {
    fn broadcast(&mut self, _round: usize) -> Message {
        self.stream.send()
    }

    fn receive(&mut self, _round: usize, inbox: &Inbox) {
        self.stream.receive(inbox, &self.init.port_labels);
        if self.degrees.is_none() && self.stream.is_complete() {
            self.start_lists();
        }
        if self.graph.is_none() && self.stream.is_complete() {
            self.graph = self.decode();
        }
    }

    fn decide(&self) -> Decision {
        match &self.graph {
            Some(g) => decide_problem(g, self.problem),
            None => Decision::Undecided,
        }
    }

    fn component_label(&self) -> Option<u64> {
        component_label_of(self.graph.as_ref()?, &self.init)
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
