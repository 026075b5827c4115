//! Distributed minimum spanning forest in `BCC(1)` — the problem at
//! the center of the paper's surrounding literature (Hegeman et al.,
//! Ghaffari–Parter, Jurdziński–Nowicki all concern MST in congested
//! cliques, and the paper's §1.3 discusses MST-verification lower
//! bounds).
//!
//! [`BoruvkaMst`] runs classical Borůvka over broadcast: each phase,
//! every vertex broadcasts its minimum-weight incident edge that
//! leaves its current component (a flag bit, the 40-bit weight and
//! the other endpoint, bit-serially). Every vertex hears everything,
//! so all vertices select each component's minimum outgoing edge, add
//! it to the forest and merge — identically, with no further
//! communication. Distinct edge weights (enforced by
//! [`bcc_graphs::weighted::hashed_weight`]) make the forest unique and
//! the computation deterministic.
//!
//! Cost: `⌈log₂ n⌉ + 1` phases × `(1 + 40 + ⌈log₂ n⌉)` rounds =
//! `O(log² n)` rounds in `BCC(1)` — polylog, against the trivial
//! `Θ(n)` baseline, and `O(log n)` rounds in `BCC(log n)`.

use crate::problem::{components, rank_of, yes_if};
use bcc_graphs::weighted::hashed_weight;
use bcc_graphs::UnionFind;
use bcc_model::codec::{bits_needed, BitStream};
use bcc_model::{
    Algorithm, Decision, Inbox, InitialKnowledge, KnowledgeMode, Message, NodeProgram,
};
use std::sync::Arc;

/// Bits used to serialize an edge weight.
const WEIGHT_BITS: usize = 40;

/// Deterministic Borůvka MST/MSF over broadcast (KT-1).
///
/// Edge weights are derived from the shared `weight_seed` via
/// [`hashed_weight`] on sorted-ID positions, so every vertex knows the
/// weights of its incident edges without communication — the standard
/// "weights are part of the input" convention realized through a
/// common pseudo-random function.
#[derive(Debug, Clone, Copy)]
pub struct BoruvkaMst {
    weight_seed: u64,
}

impl BoruvkaMst {
    /// Creates the algorithm with the given weight seed.
    pub fn new(weight_seed: u64) -> Self {
        BoruvkaMst { weight_seed }
    }
}

impl Algorithm for BoruvkaMst {
    fn name(&self) -> &str {
        "boruvka-mst"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        assert_eq!(
            init.mode,
            KnowledgeMode::Kt1,
            "BoruvkaMst requires KT-1; wrap in Kt0Upgrade for KT-0"
        );
        // KT-1 gives every ID a rank (mode asserted above); the
        // fallbacks keep a malformed init deterministic instead of
        // panicking.
        let n = init.n;
        let me = init.rank_of(init.id).unwrap_or(0);
        let neighbors: Vec<usize> = (init.input_port_labels.iter())
            .map(|&id| init.rank_of(id).unwrap_or(0))
            .collect();
        let mut node = MstNode {
            weight_seed: self.weight_seed,
            n,
            me,
            neighbors,
            pos_width: bits_needed(n),
            labels: (0..n).collect(),
            forest: Vec::new(),
            proposal: None,
            stream: BitStream::new(),
            port_labels: Arc::clone(init.port_labels),
            all_ids: init.all_ids.cloned(),
            done: false,
        };
        node.start_phase();
        Box::new(node)
    }
}

struct MstNode {
    weight_seed: u64,
    port_labels: Arc<[u64]>,
    /// All IDs, sorted (KT-1).
    all_ids: Option<Arc<[u64]>>,
    n: usize,
    me: usize,
    neighbors: Vec<usize>,
    pos_width: usize,
    labels: Vec<usize>,
    /// Chosen forest edges as position pairs `(min, max)`.
    forest: Vec<(usize, usize)>,
    /// Our proposal for this phase, `(weight, other position)`, fixed
    /// at phase start.
    proposal: Option<(u64, usize)>,
    /// This phase's proposals: a flag bit, then the weight and the
    /// other position if the flag is set (flag-only senders go
    /// silent after it).
    stream: BitStream,
    done: bool,
}

impl MstNode {
    fn ids(&self) -> &[u64] {
        self.all_ids.as_deref().unwrap_or_default()
    }

    /// Our minimum-weight incident edge leaving the current component.
    fn my_proposal(&self) -> Option<(u64, usize)> {
        self.neighbors
            .iter()
            .filter(|&&w| self.labels[w] != self.labels[self.me])
            .map(|&w| (hashed_weight(self.me, w, self.n, self.weight_seed), w))
            .min()
    }

    fn start_phase(&mut self) {
        self.proposal = self.my_proposal();
        self.stream.begin(1, 1 + WEIGHT_BITS + self.pos_width);
        self.stream.push(u64::from(self.proposal.is_some()), 1);
        if let Some((weight, other)) = self.proposal {
            self.stream.push(weight, WEIGHT_BITS);
            self.stream.push(other as u64, self.pos_width);
        }
    }

    /// Every vertex's proposal, ours first, then the peers' in port
    /// order; a flagged proposal that did not fully arrive (a corrupt
    /// transcript) counts as none.
    fn proposals(&self) -> Vec<(usize, Option<(u64, usize)>)> {
        let mut proposals = Vec::with_capacity(self.n);
        proposals.push((self.me, self.proposal));
        for (port, &peer) in self.port_labels.iter().enumerate() {
            let Some(sender) = rank_of(self.ids(), peer) else {
                continue;
            };
            let field = |offset, width| self.stream.field(port, offset, width);
            let prop = match (field(0, 1), field(1, WEIGHT_BITS)) {
                (Some(1), Some(weight)) => {
                    field(1 + WEIGHT_BITS, self.pos_width).map(|other| (weight, other as usize))
                }
                _ => None,
            };
            proposals.push((sender, prop));
        }
        proposals
    }

    /// Applies all proposals (identical at every vertex).
    fn apply_phase(&mut self, proposals: Vec<(usize, Option<(u64, usize)>)>) {
        // Per component: the minimum (weight, endpoints) proposal.
        let mut best: std::collections::BTreeMap<usize, (u64, usize, usize)> =
            std::collections::BTreeMap::new();
        let mut any = false;
        for (sender, prop) in proposals {
            if let Some((w, other)) = prop {
                any = true;
                let label = self.labels[sender];
                let cand = (w, sender.min(other), sender.max(other));
                best.entry(label)
                    .and_modify(|b| {
                        if cand < *b {
                            *b = cand;
                        }
                    })
                    .or_insert(cand);
            }
        }
        if !any {
            self.done = true;
            return;
        }
        let mut uf = UnionFind::new(self.n);
        for v in 0..self.n {
            uf.union(v, self.labels[v]);
        }
        let mut new_edges: Vec<(usize, usize)> = best.values().map(|&(_, a, b)| (a, b)).collect();
        new_edges.sort_unstable();
        new_edges.dedup();
        for &(a, b) in &new_edges {
            if uf.union(a, b) {
                self.forest.push((a, b));
            }
        }
        self.labels = uf.canonical_labels();
        self.start_phase();
    }
}

impl NodeProgram for MstNode {
    fn broadcast(&mut self, _round: usize) -> Message {
        self.stream.send()
    }

    fn receive(&mut self, _round: usize, inbox: &Inbox) {
        if self.done {
            return;
        }
        self.stream.receive(inbox);
        if self.stream.is_complete() {
            self.apply_phase(self.proposals());
        }
    }

    fn decide(&self) -> Decision {
        if !self.done {
            return Decision::Undecided;
        }
        yes_if(components(&self.labels, self.ids(), self.me).0 == 1)
    }

    fn component_label(&self) -> Option<u64> {
        if !self.done {
            return None;
        }
        components(&self.labels, self.ids(), self.me).1
    }

    fn spanning_edges(&self) -> Option<Vec<(u64, u64)>> {
        self.done.then(|| {
            let ids = self.ids();
            let mut edges: Vec<(u64, u64)> = self
                .forest
                .iter()
                .map(|&(a, b)| {
                    let (x, y) = (ids[a], ids[b]);
                    (x.min(y), x.max(y))
                })
                .collect();
            edges.sort_unstable();
            edges
        })
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graphs::weighted::WeightedGraph;
    use bcc_graphs::{generators, Graph};
    use bcc_model::{Instance, SimConfig};
    use rand::SeedableRng;

    /// Runs the distributed MST and compares its forest with Kruskal's
    /// on the identical weighted graph.
    fn check(g: Graph, weight_seed: u64) {
        let n = g.num_vertices();
        let algo = BoruvkaMst::new(weight_seed);
        let inst = Instance::new_kt1(g.clone()).unwrap();
        let out = SimConfig::bcc1(1_000_000).run(&inst, &algo, 0);
        assert!(out.completed());
        // Oracle on the same weights (ids are 0..n so positions = ids).
        let wg = WeightedGraph::from_graph_hashed(&g, weight_seed);
        let oracle: Vec<(u64, u64)> = wg
            .minimum_spanning_forest()
            .edges
            .iter()
            .map(|&(u, v, _)| (u as u64, v as u64))
            .collect();
        // Every vertex reports the same forest, equal to the oracle.
        for v in 0..n {
            let edges = out.spanning_edges()[v].clone().expect("forest reported");
            assert_eq!(edges, oracle, "vertex {v}");
        }
        // Decision = connectivity.
        let expect = if g.is_connected() {
            Decision::Yes
        } else {
            Decision::No
        };
        assert_eq!(out.system_decision(), expect);
    }

    #[test]
    fn mst_on_cycles() {
        check(generators::cycle(9), 1);
        check(generators::two_cycles(4, 5), 2);
    }

    #[test]
    fn mst_on_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for s in 0..8 {
            let g = generators::gnm(11, 16, &mut rng);
            check(g, s);
        }
    }

    #[test]
    fn mst_on_dense_graph() {
        let k8 = Graph::from_edges(8, (0..8).flat_map(|u| (u + 1..8).map(move |v| (u, v))));
        check(k8.expect("K_8 edges are valid"), 5);
    }

    #[test]
    fn mst_on_empty_and_sparse() {
        check(Graph::new(5), 0);
        check(generators::star(7), 3);
    }

    #[test]
    fn round_count_polylog() {
        let g = generators::cycle(32);
        let inst = Instance::new_kt1(g).unwrap();
        let out = SimConfig::bcc1(1_000_000).run(&inst, &BoruvkaMst::new(1), 0);
        let w = bits_needed(32);
        let per_phase = 1 + WEIGHT_BITS + w;
        let max_phases = w + 2;
        assert!(out.stats().rounds <= per_phase * max_phases);
    }
}
