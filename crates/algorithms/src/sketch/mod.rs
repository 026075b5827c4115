//! AGM graph sketches and Borůvka-over-sketches connectivity.
//!
//! Each vertex `v` owns the *edge-incidence vector* `a_v ∈ ℤ^{C(n,2)}`
//! with `a_v[(i,j)] = +1` if `v = i` and `{i, j}` is an input edge,
//! `−1` if `v = j`, and `0` otherwise (indices over the sorted-ID
//! vertex order, `i < j`). The key identity: for a set `S` of
//! vertices, `Σ_{v∈S} a_v` is supported exactly on the edges crossing
//! the cut `(S, V∖S)` — internal edges cancel. Sketching each `a_v`
//! with a shared-seed [`L0Sketch`] therefore lets anyone who has heard
//! *all* sketches sample an outgoing edge of every current component,
//! which drives Borůvka merging.
//!
//! This reproduces, on the same simulator as the lower bounds, the
//! high-bandwidth contrast of the paper's introduction: with
//! `b = Θ(log³ n)` the whole algorithm takes `O(log n)` rounds, while
//! at `b = 1` the same sketches cost `Θ(log³ n)` rounds per phase.

mod l0;

pub use l0::{Decode, L0Sketch};

use crate::problem::{components, yes_if, Problem};
use bcc_graphs::UnionFind;
use bcc_model::codec::BitStream;
use bcc_model::{
    Algorithm, Decision, Inbox, InitialKnowledge, KnowledgeMode, Message, NodeProgram,
};

/// The edge-slot index of the pair `i < j` among the `C(n,2)`
/// lexicographically ordered pairs.
pub fn edge_slot(n: usize, i: usize, j: usize) -> usize {
    assert!(i < j && j < n, "need i < j < n");
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// Inverse of [`edge_slot`].
pub fn slot_edge(n: usize, slot: usize) -> (usize, usize) {
    let mut i = 0;
    let mut base = 0;
    loop {
        let row = n - i - 1;
        if slot < base + row {
            return (i, i + 1 + slot - base);
        }
        base += row;
        i += 1;
        assert!(i < n, "slot out of range");
    }
}

/// Randomized KT-1 connectivity via AGM sketches + Borůvka phases.
///
/// Monte Carlo: with its fixed phase budget the failure probability
/// is small but nonzero (a phase can fail to decode; the final answer
/// can be wrong only if undecoded non-zero cuts persist through every
/// phase). Works at any bandwidth `b ≥ 1`; per phase each vertex
/// broadcasts `L0Sketch::bits(C(n,2))` bits over `⌈bits/b⌉` rounds.
#[derive(Debug, Clone, Copy)]
pub struct SketchConnectivity {
    problem: Problem,
}

impl SketchConnectivity {
    /// Creates the algorithm with the phase budget `2·⌈log₂ n⌉ + 4`
    /// (set at spawn time from `n`).
    pub fn new(problem: Problem) -> Self {
        SketchConnectivity { problem }
    }

    /// Bits per sketch for an `n`-vertex network.
    pub fn sketch_bits(n: usize) -> usize {
        L0Sketch::bits(n * (n - 1) / 2)
    }
}

impl Algorithm for SketchConnectivity {
    fn name(&self) -> &str {
        "sketch-connectivity"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        assert_eq!(
            init.mode,
            KnowledgeMode::Kt1,
            "SketchConnectivity requires KT-1; wrap in Kt0Upgrade for KT-0"
        );
        // KT-1 gives every ID a rank (mode asserted above); the
        // fallbacks keep a malformed init deterministic instead of
        // panicking.
        let n = init.n;
        let max_phases = 2 * bcc_model::codec::bits_needed(n) + 4;
        // Component labels: everyone starts in their own component,
        // indexed by position in sorted-ID order.
        let mut node = SketchNode {
            problem: self.problem,
            n,
            me: init.rank_of(init.id).unwrap_or(0),
            rate: init.bandwidth.max(1),
            neighbors: (init.input_port_labels.iter())
                .map(|&id| init.rank_of(id).unwrap_or(0))
                .collect(),
            labels: (0..n).collect(),
            phase: 0,
            max_phases,
            stream: BitStream::new(),
            init,
            done: false,
            decision: Decision::Undecided,
        };
        node.start_phase();
        Box::new(node)
    }
}

struct SketchNode {
    problem: Problem,
    init: InitialKnowledge,
    n: usize,
    me: usize,
    /// Symbols per round.
    rate: usize,
    neighbors: Vec<usize>,
    /// Component label (representative position) of every vertex
    /// position; identical at every node by construction.
    labels: Vec<usize>,
    phase: usize,
    max_phases: usize,
    /// This phase's sketches, ours out and every peer's in.
    stream: BitStream,
    done: bool,
    decision: Decision,
}

impl SketchNode {
    fn m(&self) -> usize {
        self.n * (self.n - 1) / 2
    }

    fn phase_seed(&self) -> u64 {
        self.init
            .coin_seed
            .wrapping_mul(0x2545f4914f6cdd1d)
            .wrapping_add(self.phase as u64)
    }

    fn ids(&self) -> &[u64] {
        self.init.all_ids.as_deref().unwrap_or_default()
    }

    fn my_sketch(&self) -> L0Sketch {
        let mut s = L0Sketch::zero(self.m(), self.phase_seed());
        for &w in &self.neighbors {
            let (i, j) = (self.me.min(w), self.me.max(w));
            let slot = edge_slot(self.n, i, j);
            s.update(slot, if self.me == i { 1 } else { -1 });
        }
        s
    }

    fn start_phase(&mut self) {
        let mine = self.my_sketch();
        self.stream.begin(self.rate, L0Sketch::bits(self.m()));
        for word in mine.to_words() {
            self.stream.push(word, 64);
        }
    }

    fn finish_phase(&mut self) {
        // Everyone's sketches: ours (a function of the phase), and
        // each peer's, placed by the rank of its port label (= peer id
        // in KT-1).
        let seed = self.phase_seed();
        let m = self.m();
        let mut sketches: Vec<Option<L0Sketch>> = vec![None; self.n];
        sketches[self.me] = Some(self.my_sketch());
        for (port, &peer) in self.init.port_labels.iter().enumerate() {
            let (Some(pos), Some(words)) = (self.init.rank_of(peer), self.stream.payload(port))
            else {
                continue;
            };
            sketches[pos] = Some(L0Sketch::from_words(m, seed, words));
        }
        // Sum per component. A missing slot (unknown peer label or a
        // short payload) is skipped rather than panicking.
        let mut comp_sketch: std::collections::BTreeMap<usize, L0Sketch> =
            std::collections::BTreeMap::new();
        for (slot, &label) in sketches.iter_mut().zip(&self.labels) {
            let Some(s) = slot.take() else {
                continue;
            };
            comp_sketch
                .entry(label)
                .and_modify(|acc| acc.add_assign(&s))
                .or_insert(s);
        }
        // Decode an outgoing edge per component; merge.
        let mut uf = UnionFind::new(self.n);
        for v in 0..self.n {
            uf.union(v, self.labels[v]);
        }
        let mut merged_any = false;
        let mut all_zero = true;
        for sketch in comp_sketch.values() {
            match sketch.decode() {
                Decode::Zero => {}
                Decode::Sample { index, .. } => {
                    all_zero = false;
                    let (i, j) = slot_edge(self.n, index);
                    if uf.union(i, j) {
                        merged_any = true;
                    }
                }
                Decode::Fail => {
                    all_zero = false;
                }
            }
        }
        self.labels = uf.canonical_labels();
        self.phase += 1;
        let (num_components, _) = components(&self.labels, self.ids(), self.me);
        if (all_zero && !merged_any) || num_components == 1 || self.phase >= self.max_phases {
            self.done = true;
            self.decision = yes_if(num_components == 1);
        } else {
            self.start_phase();
        }
        let _ = self.problem; // decision semantics identical for all problems here
    }
}

impl NodeProgram for SketchNode {
    fn broadcast(&mut self, _round: usize) -> Message {
        self.stream.send()
    }

    fn receive(&mut self, _round: usize, inbox: &Inbox) {
        if self.done {
            return;
        }
        self.stream.receive(inbox);
        if self.stream.is_complete() {
            self.finish_phase();
        }
    }

    fn decide(&self) -> Decision {
        self.decision
    }

    fn component_label(&self) -> Option<u64> {
        if !self.done {
            return None;
        }
        components(&self.labels, self.ids(), self.me).1
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

    #[test]
    fn edge_slot_roundtrip() {
        let n = 9;
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let s = edge_slot(n, i, j);
                assert!(seen.insert(s));
                assert_eq!(slot_edge(n, s), (i, j));
            }
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
    }

    fn run(g: Graph, b: usize, coin: u64) -> bcc_model::RunOutcome {
        let i = Instance::new_kt1(g).unwrap();
        SimConfig::bcc1(2_000_000).bandwidth(b).run(
            &i,
            &SketchConnectivity::new(Problem::Connectivity),
            coin,
        )
    }

    #[test]
    fn connectivity_on_cycles() {
        assert_eq!(
            run(generators::cycle(8), 64, 1).system_decision(),
            Decision::Yes
        );
        assert_eq!(
            run(generators::two_cycles(4, 4), 64, 1).system_decision(),
            Decision::No
        );
    }

    #[test]
    fn agrees_with_truth_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut errors = 0;
        for t in 0..10 {
            let g = generators::gnm(10, 9, &mut rng);
            let truth = g.is_connected();
            let out = run(g, 64, t);
            let got = out.system_decision() == Decision::Yes;
            if got != truth {
                errors += 1;
            }
        }
        assert!(
            errors <= 1,
            "{errors}/10 errors — sketch failure rate too high"
        );
    }

    #[test]
    fn component_labels_on_success() {
        let out = run(generators::two_cycles(3, 5), 64, 3);
        if out.system_decision() == Decision::No {
            let labels: Vec<u64> = out.component_labels().iter().map(|l| l.unwrap()).collect();
            assert_eq!(labels, vec![0, 0, 0, 3, 3, 3, 3, 3]);
        }
    }

    #[test]
    fn bandwidth_controls_round_count() {
        // Same instance, increasing bandwidth → proportionally fewer rounds.
        let r1 = run(generators::cycle(8), 1, 5).stats().rounds;
        let r64 = run(generators::cycle(8), 64, 5).stats().rounds;
        let r512 = run(generators::cycle(8), 512, 5).stats().rounds;
        assert!(r64 < r1);
        assert!(r512 <= r64);
        // Ratio approximates the bandwidth ratio.
        assert!(r1 >= 50 * r64 / 64, "r1={r1}, r64={r64}");
    }

    #[test]
    fn isolated_vertices_handled() {
        let g = Graph::new(6);
        assert_eq!(run(g, 64, 0).system_decision(), Decision::No);
    }
}
