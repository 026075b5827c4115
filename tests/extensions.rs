//! Integration tests for the extension subsystems: the range-r
//! spectrum, distributed MST, the proof-labeling reduction, and the
//! Question 2 harness — each crossing at least two crates.

use bcclique::algorithms::{BoruvkaMst, CommonNeighborBroadcast, CommonNeighborUnicast};
use bcclique::comm::randomized::{measure_error, run_sampled};
use bcclique::graphs::weighted::WeightedGraph;
use bcclique::model::range::RangeSimulator;
use bcclique::model::{Inbox, Message};
use bcclique::partitions::lattice::{verify_dowling_wilson, PartitionLattice};
use bcclique::prelude::*;
use rand::SeedableRng;

/// Range spectrum: the same problem, the same network, a 1-vs-n/2
/// round separation from the range parameter alone.
#[test]
fn range_separation_end_to_end() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    for n in [10usize, 20] {
        let g = bcclique::graphs::generators::gnm(n, 3 * n / 2, &mut rng);
        let truth = bcclique::algorithms::common_neighbor_truth(&g);
        let inst = Instance::new_kt1(g).unwrap();
        let uni = RangeSimulator::new(1000, 1, 3).run(&inst, &CommonNeighborUnicast, 0);
        let bc = RangeSimulator::new(1000, 1, 1).run(&inst, &CommonNeighborBroadcast, 0);
        assert_eq!(uni.rounds, 1);
        assert_eq!(bc.rounds, n / 2);
        for (i, &t) in truth.iter().enumerate() {
            let expect = if t { Decision::Yes } else { Decision::No };
            assert_eq!(uni.decisions[2 * i], expect);
            assert_eq!(bc.decisions[2 * i], expect);
        }
    }
}

/// MST: distributed forest equals the Kruskal oracle on every vertex,
/// including with non-contiguous IDs.
#[test]
fn mst_with_noncontiguous_ids() {
    let g = bcclique::graphs::generators::gnm(10, 18, &mut rand::rngs::StdRng::seed_from_u64(50));
    // IDs 0..10 scaled by 3: positions in sorted-ID order still equal
    // vertex indices, so the oracle weight function lines up.
    let ids: Vec<u64> = (0..10u64).map(|v| 3 * v).collect();
    let inst = Instance::new_kt1_with_ids(g.clone(), ids.clone()).unwrap();
    let out = SimConfig::bcc1(1_000_000).run(&inst, &BoruvkaMst::new(9), 0);
    let wg = WeightedGraph::from_graph_hashed(&g, 9);
    let oracle: Vec<(u64, u64)> = wg
        .minimum_spanning_forest()
        .edges
        .iter()
        .map(|&(u, v, _)| {
            let (a, b) = (ids[u], ids[v]);
            (a.min(b), a.max(b))
        })
        .collect();
    let mut expect = oracle.clone();
    expect.sort_unstable();
    for v in 0..10 {
        assert_eq!(out.spanning_edges()[v].clone().unwrap(), expect);
    }
}

// Proof-labeling schemes in the broadcast congested clique — the
// Section 1.3 connection. The paper recalls (via Patt-Shamir & Perry)
// that a `t`-round `BCC(1)` algorithm for `Connectivity` yields a
// proof-labeling scheme with verification complexity `O(t)`: the
// prover labels each vertex with that vertex's transcript, and the
// verifier broadcasts the labels and locally re-simulates the
// algorithm, accepting iff the claimed transcripts are
// self-consistent and lead every vertex to the right output.

/// The honest prover's label for each vertex: the sequence of messages
/// the vertex broadcasts during `t` rounds of `algorithm`. The label
/// size in bits is the PLS *verification complexity* (here `t`, one
/// bit-or-silence per round).
fn prover_labels(
    instance: &Instance,
    algorithm: &dyn Algorithm,
    t: usize,
    coin_seed: u64,
) -> Vec<Vec<Message>> {
    let run = SimConfig::bcc1(t).run(instance, algorithm, coin_seed);
    (0..instance.num_vertices())
        .map(|v| run.transcript(v).sent.clone())
        .collect()
}

/// The verifier: every vertex receives all labels (one broadcast round
/// of `t`-bit labels), then checks
///
/// 1. **consistency** — its own actual broadcasts under `algorithm`,
///    when every other vertex's messages are taken from the labels,
///    match its own label; and
/// 2. **acceptance** — driven this way, it outputs YES.
///
/// Returns `true` iff every vertex accepts. With honest labels on a
/// YES instance this is exactly a re-execution, so the scheme is
/// complete; a forged label set must survive every vertex's local
/// re-simulation to be accepted.
fn verify(
    instance: &Instance,
    algorithm: &dyn Algorithm,
    labels: &[Vec<Message>],
    t: usize,
    coin_seed: u64,
) -> bool {
    let n = instance.num_vertices();
    if labels.len() != n {
        return false;
    }
    // Drive each vertex's program with the labelled messages.
    let mut programs: Vec<_> = (0..n)
        .map(|v| algorithm.spawn(instance.initial_knowledge(v, 1, coin_seed)))
        .collect();
    let mut consistent = vec![true; n];
    for round in 0..t {
        // The round's board: every vertex's claimed broadcast.
        let board: Vec<Message> = labels
            .iter()
            .map(|l| l.get(round).cloned().unwrap_or_else(|| Message::silent(1)))
            .collect();
        for (v, program) in programs.iter_mut().enumerate() {
            if program.broadcast(round).normalized(1) != board[v] {
                consistent[v] = false;
            }
            program.receive(round, &Inbox::new(instance.routes().ports(v), &board));
        }
    }
    (0..n).all(|v| consistent[v] && programs[v].decide() == Decision::Yes)
}

fn pls_algo() -> Kt0Upgrade<NeighborIdBroadcast> {
    Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle))
}

#[test]
fn pls_completeness_on_yes_instances() {
    let n = 10;
    let t = 100;
    let inst = Instance::new_kt0_canonical(generators::cycle(n)).unwrap();
    let labels = prover_labels(&inst, &pls_algo(), t, 0);
    assert!(verify(&inst, &pls_algo(), &labels, t, 0));
}

#[test]
fn pls_soundness_against_honest_no_instances() {
    // On a NO instance even the honest transcript cannot make the
    // verifier accept (some vertex outputs NO).
    let inst = Instance::new_kt0_canonical(generators::two_cycles(5, 5)).unwrap();
    let t = 100;
    let labels = prover_labels(&inst, &pls_algo(), t, 0);
    assert!(!verify(&inst, &pls_algo(), &labels, t, 0));
}

#[test]
fn pls_soundness_against_transplanted_labels() {
    // Forge: take honest labels from the one-cycle instance and
    // present them on the crossed (two-cycle) instance. Once the
    // algorithm runs long enough to distinguish, some vertex's own
    // re-simulation diverges from its label and it rejects.
    let n = 10;
    let t = 100;
    let one = Instance::new_kt0_canonical(generators::cycle(n)).unwrap();
    let two = cross_instance(&one, DirectedEdge::new(0, 1), DirectedEdge::new(5, 6)).unwrap();
    let honest_for_one = prover_labels(&one, &pls_algo(), t, 0);
    assert!(verify(&one, &pls_algo(), &honest_for_one, t, 0));
    assert!(
        !verify(&two, &pls_algo(), &honest_for_one, t, 0),
        "transplanted labels fooled the verifier"
    );
}

#[test]
fn pls_truncated_labels_rejected() {
    let inst = Instance::new_kt0_canonical(generators::cycle(8)).unwrap();
    let t = 100;
    let mut labels = prover_labels(&inst, &pls_algo(), t, 0);
    labels.pop();
    assert!(
        !verify(&inst, &pls_algo(), &labels, t, 0),
        "wrong label count accepted"
    );
}

#[test]
fn pls_lower_bound_consequence_label_length() {
    // The §1.3 reduction: verification complexity = rounds of the
    // algorithm. Our tight algorithm gives labels of O(log n)
    // messages — matching the Ω(log n) PLS bound cited from
    // Patt-Shamir & Perry.
    let n = 16;
    let inst = Instance::new_kt0_canonical(generators::cycle(n)).unwrap();
    let labels = prover_labels(&inst, &pls_algo(), 1_000, 0);
    let max_label = labels.iter().map(Vec::len).max().unwrap();
    assert_eq!(max_label, 4 * bcclique::model::codec::bits_needed(n));
}

/// PLS: honest labels verify on YES instances across wirings (the
/// algorithm's broadcasts are wiring-independent, so acceptance is the
/// *correct* behaviour there), and labels transplanted onto a crossed
/// two-cycle instance are rejected.
#[test]
fn pls_across_wirings() {
    use bcclique::core::crossing::{cross_instance, DirectedEdge};
    let algo = Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle));
    for seed in 0..3 {
        let one = Instance::new_kt0(generators::cycle(9), seed).unwrap();
        let labels = prover_labels(&one, &algo, 200, 0);
        assert!(verify(&one, &algo, &labels, 200, 0), "seed={seed}");
        // Same graph, different wiring: still honest, still accepted.
        let rewired = Instance::new_kt0(generators::cycle(9), seed + 100).unwrap();
        assert!(verify(&rewired, &algo, &labels, 200, 0), "seed={seed}");
        // Different input graph (a crossing): rejected.
        let two = cross_instance(&one, DirectedEdge::new(0, 1), DirectedEdge::new(4, 5)).unwrap();
        assert!(!verify(&two, &algo, &labels, 200, 0), "seed={seed}");
    }
}

/// The lattice machinery agrees with the flat matrix construction:
/// the join matrix built through the lattice equals the one from
/// `bcc_partitions::matrices` up to index order.
#[test]
fn lattice_vs_flat_matrices() {
    assert!(verify_dowling_wilson(4));
    let lat = PartitionLattice::new(4);
    let jm = bcclique::partitions::matrices::partition_join_matrix(4);
    // Same enumeration order is used by both.
    assert_eq!(lat.elements, jm.index);
    assert_eq!(lat.join_matrix(), jm.matrix);
}

/// Question 2 harness: one-sidedness and the basic cost identity hold
/// through the public API.
#[test]
fn question2_harness_sane() {
    let pa = SetPartition::trivial(10);
    let pb = SetPartition::finest(10);
    let (ans, bits) = run_sampled(&pa, &pb, 200, 1).unwrap();
    assert!(ans, "dense sampling of a trivial-join pair must say YES");
    assert_eq!(bits, 201);
    let inputs = vec![(SetPartition::finest(6), SetPartition::finest(6))];
    // Join of two finest partitions is finest (non-trivial for n > 1):
    // the protocol must never claim trivial.
    let (_, false_positive) = measure_error(&inputs, 64, &[0, 1, 2, 3]);
    assert!(!false_positive);
}
