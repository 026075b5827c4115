//! The tightness witness: `O((d_max + 1)·log n)` deterministic KT-1
//! connectivity.

use crate::problem::{full_knowledge_answer, Problem};
use bcc_graphs::UnionFind;
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
            answer: None,
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
    /// The decision and component label, once the lists are decoded.
    answer: Option<(Decision, Option<u64>)>,
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

    /// The answer on the input graph, from every sender's announced
    /// neighbor list and ours; `None` if a payload is incomplete or
    /// names an unknown ID (a corrupt transcript), which leaves this
    /// vertex undecided. Both endpoints announce an edge, and joining
    /// it twice changes nothing.
    fn decode(&self) -> Option<(Decision, Option<u64>)> {
        let degrees = self.degrees.as_ref()?;
        let init = &self.init;
        let mut edges = UnionFind::new(init.n);
        for (port, (&sender, &d)) in init.port_labels.iter().zip(degrees).enumerate() {
            let su = init.rank_of(sender)?;
            for slot in 0..d {
                let id = self.stream.field(port, slot * self.width, self.width)?;
                edges.union(su, init.rank_of(id)?);
            }
        }
        full_knowledge_answer(self.problem, edges, init)
    }
}

impl NodeProgram for NeighborNode {
    fn broadcast(&mut self, _round: usize) -> Message {
        self.stream.send()
    }

    fn receive(&mut self, _round: usize, inbox: &Inbox) {
        self.stream.receive(inbox);
        if self.degrees.is_none() && self.stream.is_complete() {
            self.start_lists();
        }
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
    use bcc_graphs::connectivity::connected_components;
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

    /// `NeighborIdBroadcast` whose vertex with ID `v` announces, and
    /// keeps as its own input list, `lists[v]` instead of its true
    /// neighbors: a corrupt transcript.
    struct Announcing {
        problem: Problem,
        lists: Vec<Vec<u64>>,
    }

    impl Algorithm for Announcing {
        fn name(&self) -> &str {
            "announcing"
        }

        fn spawn(&self, mut init: InitialKnowledge) -> Box<dyn NodeProgram> {
            init.input_port_labels = self.lists[init.id as usize].clone().into();
            NeighborIdBroadcast::new(self.problem).spawn(init)
        }
    }

    #[test]
    fn corrupt_lists_answer_for_their_symmetric_closure() {
        // One-sided announcements (0 names 1, 1 omits 0; 4 names 3, 3
        // omits 4), a repeated ID (1 names 2 twice) and a vertex naming
        // itself (2, 3, 5).
        let split = vec![vec![1], vec![2, 2], vec![1, 2], vec![3], vec![3], vec![5]];
        // One-sided links chain every vertex into one path.
        let joined = vec![vec![1], vec![2, 2], vec![2, 3], vec![3], vec![5, 3], vec![]];
        for lists in [split, joined] {
            // The symmetric closure: every list into one graph,
            // repeats and self-pairs refused.
            let mut closure = bcc_graphs::Graph::new(6);
            for (u, list) in lists.iter().enumerate() {
                for &v in list {
                    let _ = closure.add_edge(u, v as usize);
                }
            }
            let expect = if closure.is_connected() {
                Decision::Yes
            } else {
                Decision::No
            };
            let labels: Vec<Option<u64>> = (connected_components(&closure).label.iter())
                .map(|&l| Some(l as u64))
                .collect();
            for problem in [
                Problem::Connectivity,
                Problem::TwoCycle,
                Problem::MultiCycle,
                Problem::ConnectedComponents,
            ] {
                let algorithm = Announcing {
                    problem,
                    lists: lists.clone(),
                };
                let i = Instance::new_kt1(bcc_graphs::Graph::new(6)).unwrap();
                let out = SimConfig::bcc1(500).run(&i, &algorithm, 0);
                assert!(out.decisions().iter().all(|&d| d == expect), "{problem}");
                assert_eq!(out.component_labels(), &labels[..], "{problem}");
            }
        }
    }

    #[test]
    fn an_unknown_id_leaves_every_vertex_undecided() {
        // ID 7 fits the 3-bit ID width of n = 6 but names no vertex.
        let mut lists = vec![vec![]; 6];
        lists[0] = vec![1, 7];
        lists[1] = vec![0];
        let algorithm = Announcing {
            problem: Problem::Connectivity,
            lists,
        };
        let i = Instance::new_kt1(bcc_graphs::Graph::new(6)).unwrap();
        let out = SimConfig::bcc1(50).run(&i, &algorithm, 0);
        assert!(out.decisions().iter().all(|&d| d == Decision::Undecided));
        assert!(out.component_labels().iter().all(Option::is_none));
        assert!(!out.completed());
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
