//! Deterministic Borůvka-style connectivity over broadcast:
//! `O(log² n)` rounds in `BCC(1)`, `O(log n)` rounds in `BCC(log n)`.

use crate::problem::Problem;
use bcc_graphs::UnionFind;
use bcc_model::codec::{bits_needed, bits_to_u64, u64_to_bits};
use bcc_model::{
    Algorithm, Decision, Inbox, InitialKnowledge, KnowledgeMode, Message, NodeProgram, Symbol,
};

/// Deterministic KT-1 connectivity/components via Borůvka phases,
/// bandwidth-aware.
///
/// Every vertex maintains a *component label* (initially its own ID);
/// labels are globally consistent because every merge decision is
/// computed from information all vertices share. Each phase has two
/// streamed payloads, sent at `b` bits per round:
///
/// 1. every vertex broadcasts its current label (`⌈w/b⌉` rounds,
///    `w = ⌈log₂ maxid⌉`);
/// 2. every vertex broadcasts the smallest *different* label among its
///    input-graph neighbors plus a "I proposed" flag
///    (`⌈(w+1)/b⌉` rounds);
/// 3. locally, every vertex overlays the proposed label–label merge
///    edges and recomputes labels (minimum label per merged group).
///
/// Every component adjacent to another merges each phase, so at most
/// `⌈log₂ n⌉ + 1` phases run: `O(log² n)` rounds at `b = 1` and
/// `O(log n)` rounds at `b = ⌈log₂ n⌉` — the `BCC(log n)` regime in
/// which the paper contrasts its bounds with the
/// `O(log n / log log n)` algorithm of Jurdziński–Nowicki.
///
/// This is the general-graph deterministic upper bound quoted in
/// DESIGN.md as the substitute for the Montealegre–Todinca sketch
/// algorithm (which the paper cites only for its `O(log n)` bound on
/// bounded-arboricity graphs, covered by [`crate::NeighborIdBroadcast`]).
#[derive(Debug, Clone, Copy)]
pub struct BoruvkaMinLabel {
    problem: Problem,
}

impl BoruvkaMinLabel {
    /// Creates the algorithm (all four problems reduce to
    /// connectivity/labels here).
    pub fn new(problem: Problem) -> Self {
        BoruvkaMinLabel { problem }
    }
}

impl Algorithm for BoruvkaMinLabel {
    fn name(&self) -> &str {
        "boruvka-min-label"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        assert_eq!(
            init.mode,
            KnowledgeMode::Kt1,
            "BoruvkaMinLabel requires KT-1; wrap in Kt0Upgrade for KT-0"
        );
        // KT-1 guarantees `all_ids` (mode asserted above); a malformed
        // init degrades to a singleton network instead of panicking.
        let all_ids = init
            .all_ids
            .as_deref()
            .map_or_else(|| vec![init.id], <[u64]>::to_vec);
        let max_id = all_ids.last().copied().unwrap_or(init.id) as usize;
        let id_width = bits_needed(max_id + 1).max(bits_needed(init.n.max(2)));
        let label = init.id;
        Box::new(BoruvkaNode {
            problem: self.problem,
            bandwidth: init.bandwidth.max(1),
            init,
            all_ids,
            id_width,
            label,
            stage: Stage::Labels,
            bit_pos: 0,
            payload: Vec::new(),
            received: Vec::new(),
            peer_labels: Vec::new(),
            done: false,
        })
    }
}

/// Which streamed payload the phase is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Streaming own label (`id_width` bits).
    Labels,
    /// Streaming proposal + flag (`id_width + 1` bits).
    Proposals,
}

struct BoruvkaNode {
    problem: Problem,
    init: InitialKnowledge,
    bandwidth: usize,
    all_ids: Vec<u64>,
    id_width: usize,
    label: u64,
    stage: Stage,
    bit_pos: usize,
    /// The bits of the current outgoing payload (fixed at stage start).
    payload: Vec<bool>,
    /// Per-port accumulated payload bits: `(port label, bits)`.
    received: Vec<(u64, Vec<bool>)>,
    /// `(peer id, peer label)` learned in the label stage.
    peer_labels: Vec<(u64, u64)>,
    done: bool,
}

impl BoruvkaNode {
    fn payload_len(&self) -> usize {
        match self.stage {
            Stage::Labels => self.id_width,
            Stage::Proposals => self.id_width + 1,
        }
    }

    fn start_stage(&mut self, stage: Stage) {
        self.stage = stage;
        self.bit_pos = 0;
        self.received.clear();
        self.payload = match stage {
            Stage::Labels => u64_to_bits(self.label, self.id_width),
            Stage::Proposals => {
                let (proposal, flag) = self.proposal();
                let mut bits = u64_to_bits(proposal, self.id_width);
                bits.push(flag);
                bits
            }
        };
    }

    /// The smallest label different from ours among our input
    /// neighbors, once peer labels are known.
    fn proposal(&self) -> (u64, bool) {
        let label_of: std::collections::BTreeMap<u64, u64> =
            self.peer_labels.iter().copied().collect();
        let best = self
            .init
            .input_port_labels
            .iter()
            .filter_map(|nid| label_of.get(nid).copied())
            .filter(|&l| l != self.label)
            .min();
        match best {
            Some(l) => (l, true),
            None => (self.label, false),
        }
    }

    /// Applies all broadcast merge proposals locally: identical at
    /// every vertex, so labels stay consistent.
    fn apply_merges(&mut self, proposals: Vec<(u64, u64, bool)>) {
        // (sender label, proposed label, flag).
        let pairs: Vec<(u64, u64)> = proposals
            .into_iter()
            .filter(|&(_, _, flag)| flag)
            .map(|(from, to, _)| (from, to))
            .collect();
        if pairs.is_empty() {
            self.done = true;
            return;
        }
        let idx_of: std::collections::BTreeMap<u64, usize> = self
            .all_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let mut uf = UnionFind::new(self.all_ids.len());
        for (a, b) in pairs {
            uf.union(idx_of[&a], idx_of[&b]);
        }
        let my_root = uf.find(idx_of[&self.label]);
        // The group always contains us, so the fallback never fires.
        self.label = (0..self.all_ids.len())
            .filter(|&i| uf.find(i) == my_root)
            .map(|i| self.all_ids[i])
            .min()
            .unwrap_or(self.label);
    }

    /// After a quiescent phase, connectivity is decidable from the
    /// final labels (all peers' labels are known from the last stage).
    fn connectivity_decision(&self) -> Decision {
        let mut labels: Vec<u64> = self.peer_labels.iter().map(|&(_, l)| l).collect();
        labels.push(self.label);
        labels.sort_unstable();
        labels.dedup();
        if labels.len() == 1 {
            Decision::Yes
        } else {
            Decision::No
        }
    }
}

impl NodeProgram for BoruvkaNode {
    fn broadcast(&mut self, _round: usize) -> Message {
        if self.done {
            return Message::silent(self.bandwidth);
        }
        if self.bit_pos == 0 && self.payload.is_empty() {
            self.start_stage(Stage::Labels);
        }
        let syms: Vec<Symbol> = (0..self.bandwidth)
            .map(|k| {
                self.payload
                    .get(self.bit_pos + k)
                    .map_or(Symbol::Silent, |&b| Symbol::bit(b))
            })
            .collect();
        Message::from_symbols(syms)
    }

    fn receive(&mut self, _round: usize, inbox: &Inbox) {
        if self.done {
            return;
        }
        if self.received.is_empty() {
            self.received = inbox
                .entries()
                .iter()
                .map(|(l, _)| (*l, Vec::new()))
                .collect();
        }
        let total = self.payload_len();
        for (port, (label, bits)) in self.received.iter_mut().enumerate() {
            let Some(msg) = inbox.by_port(port, *label) else {
                continue;
            };
            for s in msg.symbols() {
                if bits.len() < total {
                    if let Some(b) = s.as_bit() {
                        bits.push(b);
                    }
                }
            }
        }
        self.bit_pos += self.bandwidth;
        if self.bit_pos < total {
            return;
        }
        // Stage complete.
        match self.stage {
            Stage::Labels => {
                self.peer_labels = self
                    .received
                    .iter()
                    .map(|(l, bits)| (*l, bits_to_u64(&bits[..self.id_width])))
                    .collect();
                self.start_stage(Stage::Proposals);
            }
            Stage::Proposals => {
                let mut proposals: Vec<(u64, u64, bool)> =
                    Vec::with_capacity(self.received.len() + 1);
                // Own proposal (payload holds it verbatim).
                let own_to = bits_to_u64(&self.payload[..self.id_width]);
                let own_flag = self.payload[self.id_width];
                proposals.push((self.label, own_to, own_flag));
                let label_of: std::collections::BTreeMap<u64, u64> =
                    self.peer_labels.iter().copied().collect();
                let received = std::mem::take(&mut self.received);
                for (peer_id, bits) in received {
                    let from = label_of[&peer_id];
                    let to = bits_to_u64(&bits[..self.id_width]);
                    let flag = bits[self.id_width];
                    proposals.push((from, to, flag));
                }
                self.apply_merges(proposals);
                if !self.done {
                    self.start_stage(Stage::Labels);
                }
            }
        }
    }

    fn decide(&self) -> Decision {
        if !self.done {
            return Decision::Undecided;
        }
        match self.problem {
            Problem::Connectivity
            | Problem::ConnectedComponents
            | Problem::TwoCycle
            | Problem::MultiCycle => self.connectivity_decision(),
        }
    }

    fn component_label(&self) -> Option<u64> {
        self.done.then_some(self.label)
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graphs::{generators, Graph};
    use bcc_model::{Instance, SimConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(g: Graph) -> bcc_model::RunOutcome {
        let i = Instance::new_kt1(g).unwrap();
        SimConfig::bcc1(10_000).run(&i, &BoruvkaMinLabel::new(Problem::ConnectedComponents), 0)
    }

    #[test]
    fn connectivity_on_basic_families() {
        assert_eq!(run(generators::cycle(9)).system_decision(), Decision::Yes);
        assert_eq!(
            run(generators::two_cycles(4, 5)).system_decision(),
            Decision::No
        );
        assert_eq!(run(generators::path(7)).system_decision(), Decision::Yes);
        assert_eq!(run(Graph::new(4)).system_decision(), Decision::No);
        assert_eq!(run(generators::star(8)).system_decision(), Decision::Yes);
    }

    #[test]
    fn labels_match_min_ids() {
        let out = run(generators::multi_cycle(&[3, 4, 3]));
        let labels: Vec<u64> = out.component_labels().iter().map(|l| l.unwrap()).collect();
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 3, 3, 7, 7, 7]);
    }

    #[test]
    fn agrees_with_ground_truth_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..15 {
            let g = generators::gnm(14, 10, &mut rng);
            let truth = crate::problem::local_component_labels(&g, &(0..14u64).collect::<Vec<_>>());
            let out = run(g);
            let got: Vec<u64> = out.component_labels().iter().map(|l| l.unwrap()).collect();
            assert_eq!(got, truth);
        }
    }

    #[test]
    fn round_count_is_polylog() {
        for n in [8usize, 16, 32] {
            let out = run(generators::cycle(n));
            let w = bits_needed(n);
            let per_phase = 2 * w + 1;
            let max_phases = w + 2;
            assert!(
                out.stats().rounds <= per_phase * max_phases,
                "n={n}: {} rounds",
                out.stats().rounds
            );
            assert!(out.completed());
        }
    }

    /// Bandwidth awareness: at b = ⌈log₂ n⌉ each stage fits in O(1)
    /// rounds, giving O(log n) total — the BCC(log n) regime.
    #[test]
    fn bandwidth_reduces_rounds() {
        for n in [16usize, 64] {
            let g = generators::cycle(n);
            let inst = Instance::new_kt1(g).unwrap();
            let algo = BoruvkaMinLabel::new(Problem::Connectivity);
            let r1 = SimConfig::bcc1(100_000).run(&inst, &algo, 0).stats().rounds;
            let w = bits_needed(n);
            let rlog = SimConfig::bcc1(100_000)
                .bandwidth(w)
                .run(&inst, &algo, 0)
                .stats()
                .rounds;
            assert!(rlog * 2 < r1, "n={n}: b=log n gave {rlog} vs {r1} at b=1");
            // At b = w each phase costs 3 rounds (w/w + (w+1)/w).
            assert!(rlog <= 3 * (w + 2), "n={n}: {rlog} rounds at b={w}");
        }
    }

    #[test]
    fn nontrivial_ids_supported() {
        let g = generators::two_cycles(3, 3);
        let i = Instance::new_kt1_with_ids(g, vec![99, 5, 42, 17, 63, 8]).unwrap();
        let out =
            SimConfig::bcc1(10_000).run(&i, &BoruvkaMinLabel::new(Problem::ConnectedComponents), 0);
        let labels: Vec<u64> = out.component_labels().iter().map(|l| l.unwrap()).collect();
        assert_eq!(labels, vec![5, 5, 5, 8, 8, 8]);
    }
}
