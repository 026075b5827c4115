//! KT-0 → KT-1 knowledge upgrade in `⌈log₂ n⌉` rounds.

use bcc_model::codec::{bits_needed, BitAccumulator, BitSchedule};
use bcc_model::{
    Algorithm, Decision, Inbox, InitialKnowledge, KnowledgeMode, Message, NodeProgram,
};

/// Wraps any KT-1 algorithm so it runs on KT-0 instances: a prologue of
/// `⌈log₂ n⌉` rounds in which every vertex broadcasts its ID bit-serially
/// lets each vertex label its ports with the IDs behind them, after
/// which the network is effectively KT-1 and the inner algorithm runs
/// unchanged (its inbox labels are translated from port numbers to the
/// learned IDs).
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
        assert_eq!(
            init.mode,
            KnowledgeMode::Kt0,
            "Kt0Upgrade runs on KT-0 instances (on KT-1, run the inner algorithm directly)"
        );
        let width = bits_needed(init.n);
        Box::new(UpgradeNode {
            width,
            schedule: BitSchedule::of_value(init.id, width),
            accs: init
                .port_labels
                .iter()
                .map(|&l| (l, BitAccumulator::new(width)))
                .collect(),
            outer: init,
            factory: self.inner.clone(),
            port_id_map: Vec::new(),
            inner: None,
        })
    }
}

struct UpgradeNode<A> {
    width: usize,
    schedule: BitSchedule,
    accs: Vec<(u64, BitAccumulator)>,
    outer: InitialKnowledge,
    factory: A,
    /// `(port label, learned peer id)`, in port order.
    port_id_map: Vec<(u64, u64)>,
    inner: Option<Box<dyn NodeProgram>>,
}

impl<A: Algorithm> UpgradeNode<A> {
    fn finish_prologue(&mut self) {
        self.port_id_map = self
            .accs
            .iter()
            .map(|(l, a)| (*l, a.value().expect("id payload complete")))
            .collect();
        let mut all_ids: Vec<u64> = self.port_id_map.iter().map(|&(_, id)| id).collect();
        all_ids.push(self.outer.id);
        all_ids.sort_unstable();
        let id_of_label: std::collections::BTreeMap<u64, u64> =
            self.port_id_map.iter().copied().collect();
        let mut input_ids: Vec<u64> = self
            .outer
            .input_port_labels
            .iter()
            .map(|l| id_of_label[l])
            .collect();
        input_ids.sort_unstable();
        let inner_ik = InitialKnowledge {
            id: self.outer.id,
            n: self.outer.n,
            bandwidth: self.outer.bandwidth,
            mode: KnowledgeMode::Kt1,
            port_labels: self.port_id_map.iter().map(|&(_, id)| id).collect(),
            input_port_labels: input_ids.into(),
            all_ids: Some(all_ids.into()),
            coin_seed: self.outer.coin_seed,
        };
        self.inner = Some(self.factory.spawn(inner_ik));
    }
}

impl<A: Algorithm> NodeProgram for UpgradeNode<A> {
    fn broadcast(&mut self, round: usize) -> Message {
        if round < self.width {
            return Message::single(self.schedule.symbol_at(round));
        }
        self.inner
            .as_mut()
            .expect("inner spawned after prologue")
            .broadcast(round - self.width)
    }

    fn receive(&mut self, round: usize, inbox: &Inbox) {
        if round < self.width {
            for (label, acc) in &mut self.accs {
                let fed = acc.push(inbox.by_label(*label).expect("port present").symbol());
                debug_assert!(fed.is_ok(), "sender broke the bit-serial encoding");
            }
            if round + 1 == self.width {
                self.finish_prologue();
            }
        } else {
            let translated = Inbox::new(
                inbox
                    .entries()
                    .iter()
                    .map(|(label, m)| {
                        let id = self
                            .port_id_map
                            .iter()
                            .find(|(l, _)| l == label)
                            .expect("label learned in prologue")
                            .1;
                        (id, m.clone())
                    })
                    .collect(),
            );
            self.inner
                .as_mut()
                .expect("inner spawned after prologue")
                .receive(round - self.width, &translated);
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
