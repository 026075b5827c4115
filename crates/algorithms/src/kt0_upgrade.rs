//! KT-0 → KT-1 knowledge upgrade in `⌈log₂ n⌉` rounds.

use bcc_model::codec::{bits_needed, BitStream};
use bcc_model::{
    Algorithm, Decision, Inbox, InitialKnowledge, KnowledgeMode, Message, NodeProgram,
};
use std::sync::Arc;

/// Wraps any KT-1 algorithm so it runs on KT-0 instances: a prologue of
/// `⌈log₂ n⌉` rounds in which every vertex broadcasts its ID bit-serially
/// lets each vertex label its ports with the IDs behind them, after
/// which the network is effectively KT-1 and the inner algorithm runs
/// unchanged: it reads the same inbox view, relabelled with the
/// learned IDs ([`Inbox::relabelled`]). Its KT-1 port labels are
/// therefore in the outer KT-0 port order, not sorted by ID.
///
/// The paper observes (§1.1) that for bandwidth `b = Ω(log n)` the two
/// knowledge regimes coincide; this adapter is the `b = 1` version,
/// paying `⌈log₂ n⌉` rounds. Combined with
/// [`crate::NeighborIdBroadcast`] it yields an `O(log n)` deterministic
/// KT-0 `BCC(1)` algorithm for `TwoCycle` on cycles — matching
/// Theorem 3.1's Ω(log n) bound, so the KT-0 lower bound is tight for
/// uniformly sparse graphs.
///
/// The inner algorithm must be `Clone` because each node program keeps
/// its own copy of the factory to spawn the inner program once the
/// prologue completes.
#[derive(Debug, Clone, Copy)]
pub struct Kt0Upgrade<A> {
    inner: A,
}

impl<A: Algorithm + Clone + 'static> Kt0Upgrade<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> Self {
        Kt0Upgrade { inner }
    }
}

impl<A: Algorithm + Clone + 'static> Algorithm for Kt0Upgrade<A> {
    fn name(&self) -> &str {
        "kt0-upgrade"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        Box::new(UpgradeNode::new(self.inner.clone(), init, BitStream::new()))
    }
}

struct UpgradeNode<A> {
    width: usize,
    /// The prologue: our ID out, every port's ID in.
    stream: BitStream,
    /// The outer knowledge the inner program's is built from: our ID,
    /// `n`, the bandwidth and the public coin, and our KT-0 port
    /// labels and sorted input-port labels.
    id: u64,
    n: usize,
    bandwidth: usize,
    coin_seed: u64,
    port_labels: Arc<[u64]>,
    input_port_labels: Arc<[u64]>,
    factory: A,
    /// The ID learned behind each port, in port order: the inner
    /// program's port labels.
    port_ids: Vec<u64>,
    inner: Option<Box<dyn NodeProgram>>,
}

impl<A: Algorithm> UpgradeNode<A> {
    /// The program before round 0: `spawn` and `reset` both build it
    /// here, on the buffers of `stream`.
    fn new(factory: A, init: InitialKnowledge, mut stream: BitStream) -> Self {
        assert_eq!(
            init.mode,
            KnowledgeMode::Kt0,
            "Kt0Upgrade runs on KT-0 instances (on KT-1, run the inner algorithm directly)"
        );
        let width = bits_needed(init.n);
        stream.begin(1, width);
        stream.push(init.id, width);
        UpgradeNode {
            width,
            stream,
            id: init.id,
            n: init.n,
            bandwidth: init.bandwidth,
            coin_seed: init.coin_seed,
            port_labels: Arc::clone(init.port_labels),
            input_port_labels: Arc::clone(init.input_port_labels),
            factory,
            port_ids: Vec::new(),
            inner: None,
        }
    }

    /// Spawns the inner program on the learned KT-1 knowledge; a port
    /// whose ID did not arrive leaves it unspawned, so this vertex
    /// stays undecided.
    fn finish_prologue(&mut self) {
        let ports = self.port_labels.len();
        let Some(port_ids) = (0..ports)
            .map(|port| self.stream.field(port, 0, self.width))
            .collect::<Option<Vec<u64>>>()
        else {
            return;
        };
        self.port_ids = port_ids;
        let mut all_ids = self.port_ids.clone();
        all_ids.push(self.id);
        all_ids.sort_unstable();
        let input = &self.input_port_labels;
        let mut input_ids: Vec<u64> = (self.port_labels.iter().zip(&self.port_ids))
            .filter(|(l, _)| input.binary_search(l).is_ok())
            .map(|(_, &id)| id)
            .collect();
        input_ids.sort_unstable();
        // The inner knowledge's lists are ours; we lend them to its
        // spawn, which clones what it keeps.
        let port_labels: Arc<[u64]> = self.port_ids.as_slice().into();
        let input_port_labels: Arc<[u64]> = input_ids.into();
        let all_ids: Arc<[u64]> = all_ids.into();
        self.inner = Some(self.factory.spawn(InitialKnowledge {
            id: self.id,
            n: self.n,
            bandwidth: self.bandwidth,
            mode: KnowledgeMode::Kt1,
            port_labels: &port_labels,
            input_port_labels: &input_port_labels,
            all_ids: Some(&all_ids),
            coin_seed: self.coin_seed,
        }));
    }
}

impl<A: Algorithm + Clone> NodeProgram for UpgradeNode<A> {
    fn broadcast(&mut self, round: usize) -> Message {
        match (round.checked_sub(self.width), self.inner.as_mut()) {
            (Some(inner_round), Some(inner)) => inner.broadcast(inner_round),
            // The prologue, then silence if it failed.
            _ => self.stream.send(),
        }
    }

    fn receive(&mut self, round: usize, inbox: &Inbox) {
        let Some(inner_round) = round.checked_sub(self.width) else {
            self.stream.receive(inbox);
            if self.stream.is_complete() {
                self.finish_prologue();
            }
            return;
        };
        if let Some(inner) = self.inner.as_mut() {
            inner.receive(inner_round, &inbox.relabelled(&self.port_ids));
        }
    }

    fn decide(&self) -> Decision {
        match &self.inner {
            Some(p) => p.decide(),
            None => Decision::Undecided,
        }
    }

    fn component_label(&self) -> Option<u64> {
        self.inner.as_ref().and_then(|p| p.component_label())
    }

    fn is_done(&self) -> bool {
        self.inner.as_ref().is_some_and(|p| p.is_done())
    }

    fn reset(&mut self, init: &InitialKnowledge) -> bool {
        let stream = std::mem::take(&mut self.stream);
        *self = UpgradeNode::new(self.factory.clone(), *init, stream);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FullGraphBroadcast, NeighborIdBroadcast, Problem};
    use bcc_graphs::generators;
    use bcc_model::{Instance, SimConfig};

    #[test]
    fn upgraded_neighbor_broadcast_solves_two_cycle_on_kt0() {
        let algo = Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle));
        let sim = SimConfig::bcc1(500);
        for seed in 0..3 {
            let one = Instance::new_kt0(generators::cycle(12), seed).unwrap();
            assert_eq!(sim.run(&one, &algo, 0).system_decision(), Decision::Yes);
            let two = Instance::new_kt0(generators::two_cycles(5, 7), seed).unwrap();
            assert_eq!(sim.run(&two, &algo, 0).system_decision(), Decision::No);
        }
    }

    #[test]
    fn total_rounds_are_logarithmic() {
        for n in [8usize, 16, 32] {
            let i = Instance::new_kt0(generators::cycle(n), 7).unwrap();
            let algo = Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::Connectivity));
            let out = SimConfig::bcc1(1000).run(&i, &algo, 0);
            // A ⌈log₂ n⌉-round ID prologue, then the inner algorithm's
            // (1 + d_max)·⌈log₂ n⌉ rounds with d_max = 2.
            let expect = bits_needed(n) + 3 * bits_needed(n);
            assert_eq!(out.stats().rounds, expect, "n={n}");
        }
    }

    #[test]
    fn upgraded_full_broadcast_component_labels() {
        let i = Instance::new_kt0(generators::two_cycles(3, 4), 9).unwrap();
        let algo = Kt0Upgrade::new(FullGraphBroadcast::new(Problem::ConnectedComponents));
        let out = SimConfig::bcc1(100).run(&i, &algo, 0);
        let labels: Vec<u64> = out.component_labels().iter().map(|l| l.unwrap()).collect();
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "runs on KT-0")]
    fn rejects_kt1_instances() {
        let i = Instance::new_kt1(generators::cycle(4)).unwrap();
        let algo = Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::Connectivity));
        SimConfig::bcc1(10).run(&i, &algo, 0);
    }

    #[test]
    fn works_on_random_wirings() {
        let algo = Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::MultiCycle));
        let sim = SimConfig::bcc1(500);
        for seed in 0..5 {
            let i = Instance::new_kt0(generators::multi_cycle(&[4, 4, 4]), seed).unwrap();
            assert_eq!(
                sim.run(&i, &algo, 0).system_decision(),
                Decision::No,
                "seed={seed}"
            );
        }
    }
}
