//! The Section 4.3 simulation: Alice and Bob jointly execute a KT-1
//! `BCC(1)` algorithm on `G(P_A, P_B)` by exchanging one `{0,1,⊥}`
//! character per hosted vertex per round.
//!
//! Alice hosts the vertices in `A ∪ L` (whose incident edges depend
//! only on `P_A` and the shared `(ℓ_i, r_i)` matching); Bob hosts
//! `B ∪ R`. Both parties know all IDs and therefore the initial
//! knowledge of every hosted vertex. Each simulated round costs
//! exactly one character per vertex in each direction — `O(n)` bits —
//! so an `r`-round `BCC(1)` algorithm yields an `O(r·n)`-bit 2-party
//! protocol. Chained with Corollaries 2.4/4.2 this is Theorem 4.4:
//! `r = Ω(log n)`.

use crate::reduction::{alice_edges, bob_edges, shared_edges, Gadget};
use bcc_model::transport::Routes;
use bcc_model::{
    Algorithm, Decision, Inbox, InitialKnowledge, KnowledgeMode, Message, NodeProgram,
};
use bcc_partitions::SetPartition;
use std::sync::Arc;

/// The outcome of a two-party simulation.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Simulated `BCC(1)` rounds.
    pub rounds: usize,
    /// Characters exchanged between Alice and Bob (2·N per round,
    /// N = gadget vertices).
    pub characters_exchanged: usize,
    /// Bits exchanged, encoding each `{0,1,⊥}` character in 2 bits.
    pub bits_exchanged: usize,
    /// Per-vertex decisions, indexed by vertex ID.
    pub decisions: Vec<Decision>,
    /// Per-vertex component labels.
    pub component_labels: Vec<Option<u64>>,
}

impl SimulationReport {
    /// The system decision (YES iff all vertices vote YES).
    pub fn system_decision(&self) -> Decision {
        if self.decisions.iter().all(|&d| d == Decision::Yes) {
            Decision::Yes
        } else {
            Decision::No
        }
    }
}

/// The port labels and sorted input-port labels of vertex `v`, from
/// the edges a party knows (its own plus the shared matching): in
/// KT-1, vertex `v` hears vertex `w` on the port labelled `w`.
fn labels_for(
    v: usize,
    num_vertices: usize,
    known_edges: &[(usize, usize)],
) -> (Arc<[u64]>, Arc<[u64]>) {
    let mut neighbor_ids: Vec<u64> = known_edges
        .iter()
        .filter_map(|&(a, b)| {
            if a == v {
                Some(b as u64)
            } else if b == v {
                Some(a as u64)
            } else {
                None
            }
        })
        .collect();
    neighbor_ids.sort_unstable();
    neighbor_ids.dedup();
    let port_labels = (0..num_vertices as u64)
        .filter(|&w| w != v as u64)
        .collect();
    (port_labels, neighbor_ids.into())
}

/// Simulates `algorithm` on `G(P_A, P_B)` via the two-party protocol.
///
/// Each party spawns and drives only its hosted vertices from
/// knowledge derivable from its own input; per round the parties
/// exchange their hosted vertices' broadcast characters (plus one
/// done-flag bit each way). The result is *identical* to running the
/// algorithm directly on the gadget instance (see the tests), at a
/// communication cost of `2·N` characters per round.
///
/// # Panics
///
/// Panics if ground sets differ or the gadget/partition combination is
/// invalid.
pub fn simulate_two_party(
    gadget: Gadget,
    algorithm: &dyn Algorithm,
    pa: &SetPartition,
    pb: &SetPartition,
    coin_seed: u64,
    max_rounds: usize,
) -> SimulationReport {
    assert_eq!(pa.ground_size(), pb.ground_size(), "ground sets differ");
    let n = pa.ground_size();
    let num_vertices = gadget.num_vertices(n);
    let alice_range = gadget.alice_vertices(n);

    // Alice's knowledge: her edges + shared; Bob's likewise.
    let mut alice_known = shared_edges(gadget, n);
    alice_known.extend(alice_edges(gadget, pa));
    let mut bob_known = shared_edges(gadget, n);
    bob_known.extend(bob_edges(gadget, pb));

    // Each party builds its hosted vertices' knowledge and lends it
    // to the spawn; both know all IDs.
    let all_ids: Arc<[u64]> = (0..num_vertices as u64).collect();
    let mut programs: Vec<Box<dyn NodeProgram>> = (0..num_vertices)
        .map(|v| {
            let known = if alice_range.contains(&v) {
                &alice_known
            } else {
                &bob_known
            };
            let (port_labels, input_port_labels) = labels_for(v, num_vertices, known);
            algorithm.spawn(InitialKnowledge {
                id: v as u64,
                n: num_vertices,
                bandwidth: 1,
                mode: KnowledgeMode::Kt1,
                port_labels: &port_labels,
                input_port_labels: &input_port_labels,
                all_ids: Some(&all_ids),
                coin_seed,
            })
        })
        .collect();
    // Vertex `v` hears vertex `w` on the port labelled `w`: the KT-1
    // wiring of `labels_for`, read through one plan every round.
    let routes = Routes::from_ports(
        (0..num_vertices)
            .map(|v| {
                (0..num_vertices)
                    .filter(|&w| w != v)
                    .map(|w| (w as u64, w))
                    .collect()
            })
            .collect(),
    );

    let mut characters = 0usize;
    let mut flag_bits = 0usize;
    let mut rounds = 0usize;
    while rounds < max_rounds {
        if programs.iter().all(|p| p.is_done()) {
            break;
        }
        // Each party computes its hosted vertices' broadcasts, then the
        // parties exchange the two character vectors: together, the
        // round's board.
        let board: Vec<Message> = programs
            .iter_mut()
            .map(|p| p.broadcast(rounds).normalized(1))
            .collect();
        // Characters crossing the Alice/Bob cut: every character is
        // needed by the other side, so each direction carries one
        // character per hosted vertex. Plus one done-flag bit per side.
        characters = characters.saturating_add(num_vertices);
        flag_bits = flag_bits.saturating_add(2);
        for (v, program) in programs.iter_mut().enumerate() {
            program.receive(rounds, &Inbox::new(routes.ports(v), &board));
        }
        rounds = rounds.saturating_add(1);
    }

    SimulationReport {
        rounds,
        characters_exchanged: characters,
        bits_exchanged: characters.saturating_mul(2).saturating_add(flag_bits),
        decisions: programs.iter().map(|p| p.decide()).collect(),
        component_labels: programs.iter().map(|p| p.component_label()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::gadget_graph;
    use bcc_algorithms::{NeighborIdBroadcast, Problem};
    use bcc_model::{Instance, SimConfig};
    use bcc_partitions::enumerate::matching_partitions;

    #[test]
    fn simulation_matches_direct_execution() {
        let n = 4;
        let parts: Vec<SetPartition> = matching_partitions(n).collect();
        let algo = NeighborIdBroadcast::new(Problem::MultiCycle);
        for pa in &parts {
            for pb in &parts {
                let report = simulate_two_party(Gadget::TwoRegular, &algo, pa, pb, 0, 10_000);
                // Direct run on the full gadget instance.
                let g = gadget_graph(Gadget::TwoRegular, pa, pb).unwrap();
                let inst = Instance::new_kt1(g).unwrap();
                let direct = SimConfig::bcc1(10_000).run(&inst, &algo, 0);
                assert_eq!(
                    report.system_decision(),
                    direct.system_decision(),
                    "PA={pa} PB={pb}"
                );
                assert_eq!(report.decisions, direct.decisions());
                assert_eq!(report.rounds, direct.stats().rounds);
            }
        }
    }

    #[test]
    fn decision_tracks_join_triviality() {
        let n = 6;
        let parts: Vec<SetPartition> = matching_partitions(n).collect();
        let algo = NeighborIdBroadcast::new(Problem::MultiCycle);
        for pa in parts.iter().take(5) {
            for pb in parts.iter().take(5) {
                let report = simulate_two_party(Gadget::TwoRegular, &algo, pa, pb, 0, 10_000);
                let expect = if pa.join(pb).is_trivial() {
                    Decision::Yes
                } else {
                    Decision::No
                };
                assert_eq!(report.system_decision(), expect, "PA={pa} PB={pb}");
            }
        }
    }

    #[test]
    fn communication_cost_is_linear_per_round() {
        let n = 6;
        let pa = matching_partitions(n).next().unwrap();
        let report = simulate_two_party(
            Gadget::TwoRegular,
            &NeighborIdBroadcast::new(Problem::MultiCycle),
            &pa,
            &pa,
            0,
            10_000,
        );
        assert_eq!(report.characters_exchanged, report.rounds * 2 * n);
        assert_eq!(
            report.bits_exchanged,
            report.rounds * (4 * n + 2),
            "2 bits per character + 2 flag bits per round"
        );
    }

    #[test]
    fn general_gadget_simulation() {
        let pa = SetPartition::from_blocks(3, &[vec![0, 1], vec![2]]).unwrap();
        let pb = SetPartition::from_blocks(3, &[vec![0], vec![1, 2]]).unwrap();
        let algo = NeighborIdBroadcast::new(Problem::Connectivity);
        let report = simulate_two_party(Gadget::General, &algo, &pa, &pb, 0, 10_000);
        // Join is trivial → gadget connected → YES.
        assert!(pa.join(&pb).is_trivial());
        assert_eq!(report.system_decision(), Decision::Yes);
        let g = gadget_graph(Gadget::General, &pa, &pb).unwrap();
        let direct = SimConfig::bcc1(10_000).run(&Instance::new_kt1(g).unwrap(), &algo, 0);
        assert_eq!(report.decisions, direct.decisions());
    }
}
