//! Strawman deciders for the lower-bound error experiments.
//!
//! The KT-0 lower bound (Theorem 3.1) holds against *every* `t`-round
//! algorithm; experiments can't enumerate them all, but they can
//! measure representative families. These strawmen try to decide
//! `TwoCycle`-style questions from `t` rounds of communication by
//! hashing their local view — the natural "do something with the few
//! bits you have" attempts that the indistinguishability argument
//! defeats.

use bcc_model::{Algorithm, Decision, Inbox, InitialKnowledge, Message, NodeProgram, Symbol};

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Every vertex broadcasts `t` hash bits of its initial knowledge
/// (ID ⊕ input ports ⊕ shared coin ⊕ round), then votes YES iff the
/// XOR of everything it heard lands in a seed-dependent half of the
/// hash space. A randomized `t`-round algorithm family: different
/// public coins give different (equally hopeless, per Theorem 3.1)
/// deciders.
#[derive(Debug, Clone, Copy)]
pub struct HashVoteDecider {
    rounds: usize,
}

impl HashVoteDecider {
    /// A `rounds`-round hash-vote decider.
    pub fn new(rounds: usize) -> Self {
        HashVoteDecider { rounds }
    }
}

impl Algorithm for HashVoteDecider {
    fn name(&self) -> &str {
        "hash-vote"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        Box::new(HashVoteNode::new(self.rounds, &init))
    }
}

struct HashVoteNode {
    rounds: usize,
    local_hash: u64,
    heard: u64,
    round: usize,
    coin_seed: u64,
}

impl HashVoteNode {
    /// The program before round 0: `spawn` and `reset` both build it
    /// here.
    fn new(rounds: usize, init: &InitialKnowledge) -> Self {
        let mut h = mix(init.id ^ mix(init.coin_seed));
        for &p in init.input_port_labels.iter() {
            h = mix(h ^ p);
        }
        HashVoteNode {
            rounds,
            local_hash: h,
            heard: 0,
            round: 0,
            coin_seed: init.coin_seed,
        }
    }
}

impl NodeProgram for HashVoteNode {
    fn broadcast(&mut self, round: usize) -> Message {
        Message::single(Symbol::bit(self.local_hash >> (round % 64) & 1 == 1))
    }

    fn receive(&mut self, round: usize, inbox: &Inbox) {
        for (label, m) in inbox.iter() {
            if m.symbol() == Symbol::One {
                self.heard = mix(self.heard ^ mix(label ^ (round as u64) << 32));
            }
        }
        self.round = round + 1;
    }

    fn decide(&self) -> Decision {
        if mix(self.heard ^ self.local_hash ^ self.coin_seed) & 1 == 0 {
            Decision::Yes
        } else {
            Decision::No
        }
    }

    fn is_done(&self) -> bool {
        self.round >= self.rounds
    }

    fn reset(&mut self, init: &InitialKnowledge) -> bool {
        *self = HashVoteNode::new(self.rounds, init);
        true
    }
}

/// Every vertex broadcasts the parity of its input-port labels for `t`
/// rounds and votes YES iff the total number of `1`s it heard is even.
/// Deterministic; defeated by any crossing that preserves per-vertex
/// labels (which port-preserving crossings do by construction).
#[derive(Debug, Clone, Copy)]
pub struct ParityDecider {
    rounds: usize,
}

impl ParityDecider {
    /// A `rounds`-round parity decider.
    pub fn new(rounds: usize) -> Self {
        ParityDecider { rounds }
    }
}

impl Algorithm for ParityDecider {
    fn name(&self) -> &str {
        "parity-vote"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        Box::new(ParityNode::new(self.rounds, &init))
    }
}

struct ParityNode {
    rounds: usize,
    parity: bool,
    ones_heard: usize,
    round: usize,
}

impl ParityNode {
    /// The program before round 0: `spawn` and `reset` both build it
    /// here.
    fn new(rounds: usize, init: &InitialKnowledge) -> Self {
        let parity = init.input_port_labels.iter().fold(0u64, |a, &b| a ^ b) & 1;
        ParityNode {
            rounds,
            parity: parity == 1,
            ones_heard: 0,
            round: 0,
        }
    }
}

impl NodeProgram for ParityNode {
    fn broadcast(&mut self, _round: usize) -> Message {
        Message::single(Symbol::bit(self.parity))
    }

    fn receive(&mut self, _round: usize, inbox: &Inbox) {
        self.ones_heard += inbox
            .iter()
            .filter(|(_, m)| m.symbol() == Symbol::One)
            .count();
        self.round += 1;
    }

    fn decide(&self) -> Decision {
        if self.ones_heard.is_multiple_of(2) {
            Decision::Yes
        } else {
            Decision::No
        }
    }

    fn is_done(&self) -> bool {
        self.round >= self.rounds
    }

    fn reset(&mut self, init: &InitialKnowledge) -> bool {
        *self = ParityNode::new(self.rounds, init);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graphs::generators;
    use bcc_model::{Instance, SimConfig};

    #[test]
    fn strawmen_run_for_exactly_t_rounds() {
        let i = Instance::new_kt0(generators::cycle(10), 3).unwrap();
        for t in [1usize, 3, 5] {
            let out = SimConfig::bcc1(100).run(&i, &HashVoteDecider::new(t), 0);
            assert_eq!(out.stats().rounds, t);
            let out = SimConfig::bcc1(100).run(&i, &ParityDecider::new(t), 0);
            assert_eq!(out.stats().rounds, t);
        }
    }

    #[test]
    fn strawmen_always_decide() {
        let i = Instance::new_kt0(generators::two_cycles(3, 4), 1).unwrap();
        let out = SimConfig::bcc1(100).run(&i, &HashVoteDecider::new(2), 9);
        assert!(!out.decisions().contains(&Decision::Undecided));
        let out = SimConfig::bcc1(100).run(&i, &ParityDecider::new(2), 9);
        assert!(!out.decisions().contains(&Decision::Undecided));
    }

    #[test]
    fn hash_vote_varies_with_coin() {
        // Over many coins, the hash-vote decider should not be constant
        // (otherwise it would be useless even as a strawman).
        let i = Instance::new_kt0(generators::cycle(9), 1).unwrap();
        let mut seen_yes = false;
        let mut seen_no = false;
        for coin in 0..32 {
            match SimConfig::bcc1(100)
                .run(&i, &HashVoteDecider::new(2), coin)
                .system_decision()
            {
                Decision::Yes => seen_yes = true,
                _ => seen_no = true,
            }
        }
        assert!(seen_yes || seen_no);
        assert!(seen_no, "all-YES over 32 coins is suspicious");
    }
}
