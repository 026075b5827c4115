//! The range-parameterized congested clique of Becker et al.
//! (COCOON 2016), which the paper's related-work section uses to
//! interpolate between its two extremes:
//!
//! - range `r = 1`: every vertex must send the *same* message on all
//!   ports — the broadcast congested clique `BCC(b)` of this paper;
//! - range `r = n − 1`: every port may carry a distinct message — the
//!   unicast congested clique `CC(b)`, where `Connectivity` is `O(1)`
//!   rounds at `b = log n` (Jurdziński–Nowicki et al.), the contrast
//!   that motivates the paper's lower bounds.
//!
//! [`RangeSimulator`] executes a [`RangeAlgorithm`]: per round each
//! vertex produces one message per port, and the simulator *enforces
//! the range* — the number of distinct messages per vertex per round
//! must not exceed `r`.

use crate::instance::Instance;
use crate::program::{Decision, InitialKnowledge};
use crate::symbol::Message;

/// A per-round outgoing assignment: `messages[p]` is sent on port `p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortMessages {
    /// One message per port, in port-index order.
    pub messages: Vec<Message>,
}

impl PortMessages {
    /// The same message on every port (always range-1 legal).
    pub fn broadcast(message: Message, num_ports: usize) -> Self {
        PortMessages {
            messages: vec![message; num_ports],
        }
    }

    /// Number of distinct messages (the *range used*).
    pub fn range_used(&self) -> usize {
        let mut distinct: Vec<&Message> = Vec::new();
        for m in &self.messages {
            if !distinct.contains(&m) {
                distinct.push(m);
            }
        }
        distinct.len()
    }
}

/// A node program in the range-`r` congested clique: like
/// [`crate::NodeProgram`] but with per-port sends.
pub trait RangeNodeProgram {
    /// The messages to send in `round`, one per port.
    fn send(&mut self, round: usize) -> PortMessages;

    /// Delivery of the round's received messages, `(port label,
    /// message)` in port-index order.
    fn receive(&mut self, round: usize, inbox: &[(u64, Message)]);

    /// The vertex's decision.
    fn decide(&self) -> Decision;

    /// Whether the vertex has finished.
    fn is_done(&self) -> bool;
}

/// A factory for range algorithms.
pub trait RangeAlgorithm {
    /// Short name for reports.
    fn name(&self) -> &str;

    /// Spawns one program, on knowledge borrowed from the instance's
    /// start table (see [`Algorithm::spawn`](crate::Algorithm::spawn)).
    fn spawn(&self, init: InitialKnowledge<'_>) -> Box<dyn RangeNodeProgram>;
}

/// The outcome of a range-model run.
#[derive(Debug, Clone)]
pub struct RangeRunOutcome {
    /// Per-vertex decisions.
    pub decisions: Vec<Decision>,
    /// Rounds executed.
    pub rounds: usize,
    /// Total bits sent (non-silent symbols across all port messages).
    pub bits_sent: usize,
    /// Maximum range used by any vertex in any round.
    pub max_range_used: usize,
}

impl RangeRunOutcome {
    /// The system decision (YES iff all vertices vote YES).
    pub fn system_decision(&self) -> Decision {
        if self.decisions.iter().all(|&d| d == Decision::Yes) {
            Decision::Yes
        } else {
            Decision::No
        }
    }
}

/// The synchronous range-`r` executor.
#[derive(Debug, Clone, Copy)]
pub struct RangeSimulator {
    max_rounds: usize,
    bandwidth: usize,
    range: usize,
}

impl RangeSimulator {
    /// A `CC_r(b)` simulator: `range = 1` is `BCC(b)`,
    /// `range = n − 1` is `CC(b)`.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` or `range` is zero.
    pub fn new(max_rounds: usize, bandwidth: usize, range: usize) -> Self {
        assert!(bandwidth >= 1, "bandwidth must be at least 1");
        assert!(range >= 1, "range must be at least 1");
        RangeSimulator {
            max_rounds,
            bandwidth,
            range,
        }
    }

    /// The range parameter `r`.
    pub fn range(&self) -> usize {
        self.range
    }

    /// Runs the algorithm, enforcing bandwidth and range each round.
    ///
    /// # Panics
    ///
    /// Panics if any vertex sends more than `r` distinct messages in a
    /// round, or any message exceeds the bandwidth — both are contract
    /// violations by the algorithm.
    pub fn run(
        &self,
        instance: &Instance,
        algorithm: &dyn RangeAlgorithm,
        coin_seed: u64,
    ) -> RangeRunOutcome {
        let n = instance.num_vertices();
        let mut programs: Vec<_> = (0..n)
            .map(|v| algorithm.spawn(instance.initial_knowledge(v, self.bandwidth, coin_seed)))
            .collect();
        let mut rounds = 0;
        let mut bits_sent = 0;
        let mut max_range_used = 0;
        while rounds < self.max_rounds && !programs.iter().all(|p| p.is_done()) {
            // Collect sends: outgoing[v][p].
            let outgoing: Vec<PortMessages> = programs.iter_mut().map(|p| p.send(rounds)).collect();
            for (v, pm) in outgoing.iter().enumerate() {
                assert_eq!(
                    pm.messages.len(),
                    n - 1,
                    "vertex {v} sent on {} ports, expected {}",
                    pm.messages.len(),
                    n - 1
                );
                let used = pm.range_used();
                assert!(
                    used <= self.range,
                    "range violation at vertex {v}: {used} distinct messages with r = {}",
                    self.range
                );
                max_range_used = max_range_used.max(used);
                for m in &pm.messages {
                    assert!(
                        m.len() <= self.bandwidth,
                        "bandwidth violation at vertex {v}"
                    );
                    bits_sent += m.bits_used();
                }
            }
            // Deliver: vertex v hears, on its port towards w, the
            // message w put on w's port towards v.
            for (v, program) in programs.iter_mut().enumerate() {
                let inbox: Vec<(u64, Message)> = (0..n - 1)
                    .map(|p| {
                        let w = instance.network().peer_of(v, p);
                        let back_port = instance.network().port_of(w, v);
                        (
                            instance.network().port_label(v, p),
                            outgoing[w].messages[back_port].clone(),
                        )
                    })
                    .collect();
                program.receive(rounds, &inbox);
            }
            rounds += 1;
        }
        RangeRunOutcome {
            decisions: programs.iter().map(|p| p.decide()).collect(),
            rounds,
            bits_sent,
            max_range_used,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;
    use bcc_graphs::generators;

    /// Every vertex broadcasts one bit — range 1 by construction.
    struct Broadcast1;
    struct Broadcast1Node {
        n: usize,
        done: bool,
    }
    impl RangeAlgorithm for Broadcast1 {
        fn name(&self) -> &str {
            "broadcast-1"
        }
        fn spawn(&self, init: InitialKnowledge) -> Box<dyn RangeNodeProgram> {
            Box::new(Broadcast1Node {
                n: init.n,
                done: false,
            })
        }
    }
    impl RangeNodeProgram for Broadcast1Node {
        fn send(&mut self, _round: usize) -> PortMessages {
            PortMessages::broadcast(Message::single(Symbol::One), self.n - 1)
        }
        fn receive(&mut self, _round: usize, _inbox: &[(u64, Message)]) {
            self.done = true;
        }
        fn decide(&self) -> Decision {
            Decision::Yes
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    /// Sends a different bit on each port — range n−1.
    struct UnicastAll;
    struct UnicastNode {
        n: usize,
        done: bool,
    }
    impl RangeAlgorithm for UnicastAll {
        fn name(&self) -> &str {
            "unicast-all"
        }
        fn spawn(&self, init: InitialKnowledge) -> Box<dyn RangeNodeProgram> {
            Box::new(UnicastNode {
                n: init.n,
                done: false,
            })
        }
    }
    impl RangeNodeProgram for UnicastNode {
        fn send(&mut self, _round: usize) -> PortMessages {
            PortMessages {
                messages: (0..self.n - 1)
                    .map(|p| Message::from_bits(p as u64 % 2, 1).normalized(8))
                    .collect(),
            }
        }
        fn receive(&mut self, _round: usize, _inbox: &[(u64, Message)]) {
            self.done = true;
        }
        fn decide(&self) -> Decision {
            Decision::Yes
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn range_1_broadcast_allowed() {
        let inst = Instance::new_kt1(generators::cycle(5)).unwrap();
        let out = RangeSimulator::new(4, 1, 1).run(&inst, &Broadcast1, 0);
        assert_eq!(out.system_decision(), Decision::Yes);
        assert_eq!(out.max_range_used, 1);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.bits_sent, 5 * 4);
    }

    #[test]
    fn high_range_allowed_when_r_large() {
        let inst = Instance::new_kt1(generators::cycle(5)).unwrap();
        let out = RangeSimulator::new(4, 8, 4).run(&inst, &UnicastAll, 0);
        assert_eq!(out.max_range_used, 2); // two distinct parity messages
    }

    #[test]
    #[should_panic(expected = "range violation")]
    fn range_violation_caught() {
        let inst = Instance::new_kt1(generators::cycle(5)).unwrap();
        // r = 1 but UnicastAll sends 2 distinct messages.
        RangeSimulator::new(4, 8, 1).run(&inst, &UnicastAll, 0);
    }

    #[test]
    #[should_panic(expected = "range must be at least 1")]
    fn zero_range_rejected() {
        RangeSimulator::new(1, 1, 0);
    }
}
