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

use bcc_graphs::weighted::hashed_weight;
use bcc_graphs::UnionFind;
use bcc_model::codec::{bits_needed, BitAccumulator, BitSchedule};
use bcc_model::{
    Algorithm, Decision, Inbox, InitialKnowledge, KnowledgeMode, Message, NodeProgram, Symbol,
};

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
        // KT-1 guarantees `all_ids` (mode asserted above) and every
        // port label appears in it; the fallbacks keep a malformed
        // init deterministic instead of panicking.
        let all_ids = init
            .all_ids
            .as_deref()
            .map_or_else(|| vec![init.id], <[u64]>::to_vec);
        let n = init.n;
        let me = all_ids.iter().position(|&id| id == init.id).unwrap_or(0);
        let neighbors: Vec<usize> = init
            .input_port_labels
            .iter()
            .map(|id| all_ids.iter().position(|x| x == id).unwrap_or(0))
            .collect();
        let pos_width = bits_needed(n);
        Box::new(MstNode {
            weight_seed: self.weight_seed,
            n,
            me,
            all_ids,
            neighbors,
            pos_width,
            labels: (0..n).collect(),
            forest: Vec::new(),
            phase_state: PhaseState::fresh(),
            done: false,
        })
    }
}

/// Per-phase send/receive bookkeeping.
struct PhaseState {
    round_in: usize,
    /// Our proposal for this phase, fixed at phase start.
    proposal: Option<(u64, usize)>, // (weight, other position)
    /// `(peer id, flag, weight acc, pos acc)`.
    accs: Vec<(u64, Option<bool>, BitAccumulator, BitAccumulator)>,
}

impl PhaseState {
    fn fresh() -> Self {
        PhaseState {
            round_in: 0,
            proposal: None,
            accs: Vec::new(),
        }
    }
}

struct MstNode {
    weight_seed: u64,
    n: usize,
    me: usize,
    all_ids: Vec<u64>,
    neighbors: Vec<usize>,
    pos_width: usize,
    labels: Vec<usize>,
    /// Chosen forest edges as position pairs `(min, max)`.
    forest: Vec<(usize, usize)>,
    phase_state: PhaseState,
    done: bool,
}

impl MstNode {
    fn rounds_per_phase(&self) -> usize {
        1 + WEIGHT_BITS + self.pos_width
    }

    /// Our minimum-weight incident edge leaving the current component.
    fn my_proposal(&self) -> Option<(u64, usize)> {
        self.neighbors
            .iter()
            .filter(|&&w| self.labels[w] != self.labels[self.me])
            .map(|&w| (hashed_weight(self.me, w, self.n, self.weight_seed), w))
            .min()
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
        self.phase_state = PhaseState::fresh();
    }
}

impl NodeProgram for MstNode {
    fn broadcast(&mut self, _round: usize) -> Message {
        if self.done {
            return Message::silent(1);
        }
        if self.phase_state.round_in == 0 {
            self.phase_state.proposal = self.my_proposal();
        }
        let r = self.phase_state.round_in;
        let sym = match (r, &self.phase_state.proposal) {
            (0, p) => Symbol::bit(p.is_some()),
            (_, None) => Symbol::Silent,
            (_, Some((w, other))) => {
                if r - 1 < WEIGHT_BITS {
                    BitSchedule::of_value(*w, WEIGHT_BITS).symbol_at(r - 1)
                } else {
                    BitSchedule::of_value(*other as u64, self.pos_width)
                        .symbol_at(r - 1 - WEIGHT_BITS)
                }
            }
        };
        Message::single(sym)
    }

    fn receive(&mut self, _round: usize, inbox: &Inbox) {
        if self.done {
            return;
        }
        let r = self.phase_state.round_in;
        if r == 0 {
            self.phase_state.accs = inbox
                .entries()
                .iter()
                .map(|(l, m)| {
                    (
                        *l,
                        Some(m.symbol() == Symbol::One),
                        BitAccumulator::new(WEIGHT_BITS),
                        BitAccumulator::new(self.pos_width),
                    )
                })
                .collect();
        } else {
            for (label, flag, wacc, pacc) in &mut self.phase_state.accs {
                if *flag != Some(true) {
                    continue; // silent sender this phase
                }
                let Some(msg) = inbox.by_label(*label) else {
                    continue;
                };
                let sym = msg.symbol();
                let fed = if r - 1 < WEIGHT_BITS {
                    wacc.push(sym)
                } else {
                    pacc.push(sym)
                };
                debug_assert!(fed.is_ok(), "sender broke the bit-serial encoding");
            }
        }
        self.phase_state.round_in = self.phase_state.round_in.saturating_add(1);
        if self.phase_state.round_in == self.rounds_per_phase() {
            // Assemble every vertex's proposal (peers + self).
            let mut proposals: Vec<(usize, Option<(u64, usize)>)> = Vec::with_capacity(self.n);
            proposals.push((self.me, self.phase_state.proposal));
            let accs = std::mem::take(&mut self.phase_state.accs);
            for (peer_id, flag, wacc, pacc) in accs {
                let Some(sender) = self.all_ids.iter().position(|id| *id == peer_id) else {
                    continue;
                };
                // A `Some(true)` flag means both accumulators were fed
                // their full payload; the fallbacks (worst weight,
                // position 0) never fire on a well-formed transcript.
                let prop = if flag == Some(true) {
                    Some((
                        wacc.value().unwrap_or(u64::MAX),
                        pacc.value().unwrap_or(0) as usize,
                    ))
                } else {
                    None
                };
                proposals.push((sender, prop));
            }
            self.apply_phase(proposals);
        }
    }

    fn decide(&self) -> Decision {
        if !self.done {
            return Decision::Undecided;
        }
        let mut l = self.labels.clone();
        l.sort_unstable();
        l.dedup();
        if l.len() == 1 {
            Decision::Yes
        } else {
            Decision::No
        }
    }

    fn component_label(&self) -> Option<u64> {
        self.done.then(|| {
            // Our component contains us, so the fallback never fires.
            let my_label = self.labels[self.me];
            (0..self.n)
                .filter(|&v| self.labels[v] == my_label)
                .map(|v| self.all_ids[v])
                .min()
                .unwrap_or(self.all_ids[self.me])
        })
    }

    fn spanning_edges(&self) -> Option<Vec<(u64, u64)>> {
        self.done.then(|| {
            let mut edges: Vec<(u64, u64)> = self
                .forest
                .iter()
                .map(|&(a, b)| {
                    let (x, y) = (self.all_ids[a], self.all_ids[b]);
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
