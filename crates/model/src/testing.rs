//! Small reference algorithms used in tests, docs and as lower-bound
//! strawmen.

use crate::codec::{bits_needed, BitAccumulator, BitSchedule};
use crate::program::{Algorithm, Decision, Inbox, InitialKnowledge, NodeProgram};
use crate::symbol::{Message, Symbol};

/// An algorithm where every vertex immediately outputs a fixed
/// decision without communicating. The simplest possible strawman for
/// the error experiments: it is correct on exactly one side of any
/// decision problem.
#[derive(Debug, Clone, Copy)]
pub struct ConstantDecision {
    decision: Decision,
}

impl ConstantDecision {
    /// Always answer `decision`.
    pub fn new(decision: Decision) -> Self {
        ConstantDecision { decision }
    }

    /// Always answer YES.
    pub fn yes() -> Self {
        Self::new(Decision::Yes)
    }
}

impl Algorithm for ConstantDecision {
    fn name(&self) -> &str {
        match self.decision {
            Decision::Yes => "constant-yes",
            Decision::No => "constant-no",
            Decision::Undecided => "constant-undecided",
        }
    }

    fn spawn(&self, _init: InitialKnowledge) -> Box<dyn NodeProgram> {
        Box::new(ConstantNode {
            decision: self.decision,
        })
    }
}

struct ConstantNode {
    decision: Decision,
}

impl NodeProgram for ConstantNode {
    fn broadcast(&mut self, _round: usize) -> Message {
        Message::silent(0)
    }

    fn receive(&mut self, _round: usize, _inbox: &Inbox) {}

    fn decide(&self) -> Decision {
        self.decision
    }

    fn is_done(&self) -> bool {
        true
    }
}

/// Every vertex broadcasts `1` forever and never decides: exercises
/// transcript recording and the round limit.
#[derive(Debug, Clone, Copy)]
pub struct EchoBit;

impl Algorithm for EchoBit {
    fn name(&self) -> &str {
        "echo-bit"
    }

    fn spawn(&self, _init: InitialKnowledge) -> Box<dyn NodeProgram> {
        Box::new(EchoNode)
    }
}

struct EchoNode;

impl NodeProgram for EchoNode {
    fn broadcast(&mut self, _round: usize) -> Message {
        Message::from_bits(1, 1)
    }

    fn receive(&mut self, _round: usize, _inbox: &Inbox) {}

    fn decide(&self) -> Decision {
        Decision::Undecided
    }

    fn is_done(&self) -> bool {
        false
    }
}

/// Every vertex broadcasts, forever and undecided, a mix of `0`, `1`
/// and `⊥` over the whole bandwidth, drawn from its ID and the round;
/// every third round it sends one symbol short, so normalization pads.
/// Exercises delivery at every symbol position, on both sides of the
/// 64-symbol inline [`Message`] limit.
#[derive(Debug, Clone, Copy)]
pub struct SymbolMix;

impl Algorithm for SymbolMix {
    fn name(&self) -> &str {
        "symbol-mix"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        Box::new(MixNode {
            id: init.id,
            bandwidth: init.bandwidth,
        })
    }
}

struct MixNode {
    id: u64,
    bandwidth: usize,
}

impl NodeProgram for MixNode {
    fn broadcast(&mut self, round: usize) -> Message {
        let len = if round % 3 == 2 {
            self.bandwidth.saturating_sub(1)
        } else {
            self.bandwidth
        };
        // xorshift64 over a nonzero seed of (id, round).
        let mut state = (self.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round as u64) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                [Symbol::Zero, Symbol::One, Symbol::Silent][(state % 3) as usize]
            })
            .collect()
    }

    fn receive(&mut self, _round: usize, _inbox: &Inbox) {}

    fn decide(&self) -> Decision {
        Decision::Undecided
    }

    fn is_done(&self) -> bool {
        false
    }
}

/// Each vertex broadcasts its ID bit-serially over `⌈log₂ n⌉` rounds
/// and records the ID behind every port — the KT-0 → KT-1 knowledge
/// upgrade the paper notes is free when `b = Ω(log n)` (Section 1.1),
/// here paid for at `b = 1` with `⌈log₂ n⌉` rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdBroadcast;

impl IdBroadcast {
    /// Creates the algorithm.
    pub fn new() -> Self {
        IdBroadcast
    }
}

impl Algorithm for IdBroadcast {
    fn name(&self) -> &str {
        "id-broadcast"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        let width = bits_needed(init.n);
        Box::new(IdBroadcastNode {
            schedule: BitSchedule::of_value(init.id, width),
            accumulators: init
                .port_labels
                .iter()
                .map(|&l| (l, BitAccumulator::new(width)))
                .collect(),
            width,
            round: 0,
        })
    }
}

struct IdBroadcastNode {
    schedule: BitSchedule,
    accumulators: Vec<(u64, BitAccumulator)>,
    width: usize,
    round: usize,
}

impl IdBroadcastNode {
    /// The learned port-label → peer-ID map, once complete.
    fn learned(&self) -> Option<Vec<(u64, u64)>> {
        self.accumulators
            .iter()
            .map(|(l, a)| a.value().map(|v| (*l, v)))
            .collect()
    }
}

impl NodeProgram for IdBroadcastNode {
    fn broadcast(&mut self, round: usize) -> Message {
        Message::single(self.schedule.symbol_at(round))
    }

    fn receive(&mut self, _round: usize, inbox: &Inbox) {
        for (label, acc) in &mut self.accumulators {
            if let Some(m) = inbox.by_label(*label) {
                // A corrupt payload (early silence) degrades to an
                // incomplete accumulator — this vertex stays Undecided
                // rather than crashing the whole simulation.
                let fed = acc.push(m.symbol());
                debug_assert!(fed.is_ok(), "sender broke the bit-serial encoding");
            }
        }
        self.round += 1;
    }

    fn decide(&self) -> Decision {
        if self.learned().is_some() {
            Decision::Yes
        } else {
            Decision::Undecided
        }
    }

    fn is_done(&self) -> bool {
        self.round >= self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::simulator::SimConfig;
    use bcc_graphs::generators;

    #[test]
    fn names() {
        assert_eq!(ConstantDecision::yes().name(), "constant-yes");
        assert_eq!(ConstantDecision::new(Decision::No).name(), "constant-no");
        assert_eq!(EchoBit.name(), "echo-bit");
        assert_eq!(IdBroadcast::new().name(), "id-broadcast");
    }

    #[test]
    fn echo_runs_to_limit() {
        let i = Instance::new_kt1(generators::cycle(3)).unwrap();
        let out = SimConfig::bcc1(7).run(&i, &EchoBit, 0);
        assert!(!out.completed());
        assert_eq!(out.stats().rounds, 7);
        assert!(out.decisions().contains(&Decision::Undecided));
    }

    #[test]
    fn id_broadcast_learns_correct_ids() {
        // Run on a KT-0 instance and verify through the network that
        // each vertex's learned map matches the true wiring.
        let i = Instance::new_kt0(generators::cycle(8), 5).unwrap();
        let width = bits_needed(8);
        // Re-run manually so we can inspect the node programs.
        let algo = IdBroadcast::new();
        let mut programs: Vec<IdBroadcastNode> = (0..8)
            .map(|v| {
                let init = i.initial_knowledge(v, 1, 0);
                IdBroadcastNode {
                    schedule: BitSchedule::of_value(init.id, width),
                    accumulators: init
                        .port_labels
                        .iter()
                        .map(|&l| (l, BitAccumulator::new(width)))
                        .collect(),
                    width,
                    round: 0,
                }
            })
            .collect();
        let _ = algo; // factory exercised above via trait in other tests
        for round in 0..width {
            let msgs: Vec<Message> = programs.iter_mut().map(|p| p.broadcast(round)).collect();
            for (v, program) in programs.iter_mut().enumerate() {
                let entries: Vec<(u64, Message)> = (0..7)
                    .map(|p| {
                        let peer = i.network().peer_of(v, p);
                        (i.network().port_label(v, p), msgs[peer].clone())
                    })
                    .collect();
                let inbox = Inbox::new(entries);
                program.receive(round, &inbox);
            }
        }
        for (v, program) in programs.iter().enumerate() {
            let learned = program.learned().expect("complete after width rounds");
            for (label, id) in learned {
                // Find the port with this label and check the true peer.
                let p = (0..7)
                    .find(|&p| i.network().port_label(v, p) == label)
                    .unwrap();
                let peer = i.network().peer_of(v, p);
                assert_eq!(i.network().id(peer), id, "vertex {v} port label {label}");
            }
        }
    }
}
