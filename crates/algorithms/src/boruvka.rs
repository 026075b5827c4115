//! Deterministic Borůvka-style connectivity over broadcast:
//! `O(log² n)` rounds in `BCC(1)`, `O(log n)` rounds in `BCC(log n)`.

use crate::problem::{components, yes_if, Problem};
use bcc_graphs::UnionFind;
use bcc_model::codec::{bits_needed, BitStream};
use bcc_model::{
    Algorithm, Decision, Inbox, InitialKnowledge, KnowledgeMode, Message, NodeProgram,
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
        let max_id = init.all_ids.as_deref().and_then(<[u64]>::last);
        let max_id = max_id.copied().unwrap_or(init.id) as usize;
        let id_width = bits_needed(max_id + 1).max(bits_needed(init.n.max(2)));
        let mut node = BoruvkaNode {
            problem: self.problem,
            rate: init.bandwidth.max(1),
            id_width,
            label: init.id,
            stage: Stage::Labels,
            stream: BitStream::new(),
            labels: vec![init.id; init.n],
            init,
            done: false,
        };
        node.start_labels();
        Box::new(node)
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
    /// Symbols per round.
    rate: usize,
    id_width: usize,
    label: u64,
    stage: Stage,
    stream: BitStream,
    /// Every vertex's label, by rank, learned in the label stage.
    labels: Vec<u64>,
    done: bool,
}

impl BoruvkaNode {
    fn start_labels(&mut self) {
        self.stage = Stage::Labels;
        self.stream.begin(self.rate, self.id_width);
        self.stream.push(self.label, self.id_width);
    }

    /// The smallest label different from ours among our input
    /// neighbors, once their labels are known, and whether there is
    /// one (otherwise our own label stands in).
    fn proposal(&self) -> (u64, bool) {
        let best = (self.init.input_port_labels.iter())
            .filter_map(|&nid| Some(self.labels[self.init.rank_of(nid)?]))
            .filter(|&l| l != self.label)
            .min();
        match best {
            Some(l) => (l, true),
            None => (self.label, false),
        }
    }

    /// The label stage is over: records every label and starts the
    /// proposal stage. A label that did not arrive (a corrupt
    /// transcript) stops this vertex here, undecided.
    fn finish_labels(&mut self) {
        for (port, &peer) in self.init.port_labels.iter().enumerate() {
            let (Some(rank), Some(label)) = (
                self.init.rank_of(peer),
                self.stream.field(port, 0, self.id_width),
            ) else {
                return;
            };
            self.labels[rank] = label;
        }
        if let Some(me) = self.init.rank_of(self.init.id) {
            self.labels[me] = self.label;
        }
        self.stage = Stage::Proposals;
        let (proposal, flag) = self.proposal();
        self.stream.begin(self.rate, self.id_width + 1);
        self.stream.push(proposal, self.id_width);
        self.stream.push(u64::from(flag), 1);
    }

    /// The proposal stage is over: applies every flagged proposal
    /// locally, identically at every vertex, so labels stay
    /// consistent; with none left, the run is done.
    fn finish_proposals(&mut self) {
        let (own, own_flag) = self.proposal();
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        if own_flag {
            pairs.push((self.label, own));
        }
        let w = self.id_width;
        for (port, &peer) in self.init.port_labels.iter().enumerate() {
            let (Some(rank), Some(to), Some(flag)) = (
                self.init.rank_of(peer),
                self.stream.field(port, 0, w),
                self.stream.field(port, w, 1),
            ) else {
                return;
            };
            if flag == 1 {
                pairs.push((self.labels[rank], to));
            }
        }
        if pairs.is_empty() {
            self.done = true;
            return;
        }
        let rank = |id: u64| self.init.rank_of(id);
        let mut uf = UnionFind::new(self.labels.len());
        for (a, b) in pairs {
            if let (Some(a), Some(b)) = (rank(a), rank(b)) {
                uf.union(a, b);
            }
        }
        let ids = self.init.all_ids.as_deref().unwrap_or_default();
        if let Some(me) = rank(self.label) {
            let my_root = uf.find(me);
            // The group always contains us, so the fallback never fires.
            self.label = (0..ids.len())
                .filter(|&i| uf.find(i) == my_root)
                .map(|i| ids[i])
                .min()
                .unwrap_or(self.label);
        }
        self.start_labels();
    }
}

impl NodeProgram for BoruvkaNode {
    fn broadcast(&mut self, _round: usize) -> Message {
        self.stream.send()
    }

    fn receive(&mut self, _round: usize, inbox: &Inbox) {
        if self.done {
            return;
        }
        self.stream.receive(inbox);
        if !self.stream.is_complete() {
            return;
        }
        match self.stage {
            Stage::Labels => self.finish_labels(),
            Stage::Proposals => self.finish_proposals(),
        }
    }

    fn decide(&self) -> Decision {
        if !self.done {
            return Decision::Undecided;
        }
        // After a quiescent phase every label is known and final; all
        // four problems reduce to connectivity here.
        match self.problem {
            Problem::Connectivity
            | Problem::ConnectedComponents
            | Problem::TwoCycle
            | Problem::MultiCycle => {
                // The labels are IDs already: only the count is read.
                let (count, _) = components(&self.labels, &[], 0);
                yes_if(count == 1)
            }
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
    use bcc_graphs::connectivity::connected_components;
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
            // With IDs 0..n a component's label is its minimum vertex.
            let truth = connected_components(&g).label;
            let out = run(g);
            let got: Vec<usize> = (out.component_labels().iter())
                .map(|l| l.unwrap() as usize)
                .collect();
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
