//! Truncation adapter: the objects the lower-bound experiments
//! quantify over.

use bcc_model::{Algorithm, Decision, Inbox, InitialKnowledge, Message, NodeProgram};

/// Runs the inner algorithm for exactly `t` rounds, then stops and
/// forces a decision: whatever the inner program has decided, with
/// `Undecided` mapped to YES.
///
/// Theorem 3.1/3.5-style experiments ask: *how well can any `t`-round
/// algorithm do?* `Truncated` turns each real algorithm into a
/// `t`-round one so its distributional error under the hard
/// distributions can be measured.
#[derive(Debug, Clone, Copy)]
pub struct Truncated<A> {
    inner: A,
    rounds: usize,
}

impl<A: Algorithm + Clone + 'static> Truncated<A> {
    /// Truncates `inner` to `rounds` rounds; undecided vertices vote
    /// YES (the safest default against the one-cycle-heavy hard
    /// distributions, making the measured error a *lower* bound on the
    /// strawman's true error).
    pub fn new(inner: A, rounds: usize) -> Self {
        Truncated { inner, rounds }
    }
}

impl<A: Algorithm + Clone + 'static> Algorithm for Truncated<A> {
    fn name(&self) -> &str {
        "truncated"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        Box::new(TruncatedNode {
            inner: self.inner.spawn(init),
            rounds: self.rounds,
            round: 0,
        })
    }
}

struct TruncatedNode {
    inner: Box<dyn NodeProgram>,
    rounds: usize,
    round: usize,
}

impl NodeProgram for TruncatedNode {
    fn broadcast(&mut self, round: usize) -> Message {
        self.inner.broadcast(round)
    }

    fn receive(&mut self, round: usize, inbox: &Inbox) {
        self.inner.receive(round, inbox);
        self.round = round + 1;
    }

    fn decide(&self) -> Decision {
        match self.inner.decide() {
            Decision::Undecided => Decision::Yes,
            d => d,
        }
    }

    fn component_label(&self) -> Option<u64> {
        self.inner.component_label()
    }

    fn is_done(&self) -> bool {
        self.round >= self.rounds || self.inner.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NeighborIdBroadcast, Problem};
    use bcc_graphs::generators;
    use bcc_model::{Instance, SimConfig};

    #[test]
    fn truncation_limits_rounds() {
        let i = Instance::new_kt1(generators::cycle(32)).unwrap();
        let full = NeighborIdBroadcast::new(Problem::TwoCycle);
        let t = Truncated::new(full, 3);
        let out = SimConfig::bcc1(1000).run(&i, &t, 0);
        assert_eq!(out.stats().rounds, 3);
        // Forced vote: YES by default.
        assert_eq!(out.system_decision(), Decision::Yes);
    }

    #[test]
    fn generous_budget_lets_inner_finish() {
        let i = Instance::new_kt1(generators::two_cycles(4, 4)).unwrap();
        let t = Truncated::new(NeighborIdBroadcast::new(Problem::TwoCycle), 500);
        let out = SimConfig::bcc1(1000).run(&i, &t, 0);
        assert_eq!(out.system_decision(), Decision::No);
        assert!(out.stats().rounds < 500);
    }
}
