//! Failure injection: malformed inputs are rejected with errors, not
//! silently mis-answered; model invariants are enforced.

use bcclique::core::crossing::{cross_instance, DirectedEdge};
use bcclique::core::CoreError;
use bcclique::graphs::cycles::{classify_multi_cycle, classify_two_cycle, cycle_structure};
use bcclique::graphs::GraphError;
use bcclique::model::{Message, ModelError, Symbol};
use bcclique::prelude::*;

#[test]
fn graph_construction_errors() {
    let mut g = Graph::new(3);
    assert!(matches!(
        g.add_edge(0, 9),
        Err(GraphError::VertexOutOfRange { vertex: 9, .. })
    ));
    assert!(matches!(g.add_edge(2, 2), Err(GraphError::SelfLoop { .. })));
    g.add_edge(0, 1).unwrap();
    assert!(matches!(
        g.add_edge(1, 0),
        Err(GraphError::DuplicateEdge { .. })
    ));
}

#[test]
fn promise_violations_detected() {
    // A path is not a disjoint union of cycles.
    let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    assert!(matches!(
        cycle_structure(&path),
        Err(GraphError::PromiseViolation { .. })
    ));
    // Three cycles violate the TwoCycle promise.
    let three = bcclique::graphs::generators::multi_cycle(&[3, 3, 3]);
    assert!(classify_two_cycle(&three).is_err());
    // Short cycles violate the MultiCycle promise.
    let short = bcclique::graphs::generators::two_cycles(3, 5);
    assert!(classify_multi_cycle(&short).is_err());
}

#[test]
fn model_construction_errors() {
    // Network construction is private to bcc-model; malformed wirings
    // are rejected at the `Instance` boundary.
    assert!(matches!(
        Instance::new_kt1_with_ids(Graph::new(2), vec![1, 1]),
        Err(ModelError::DuplicateIds { id: 1 })
    ));
    let mut inst = Instance::new_kt1(generators::cycle(3)).unwrap();
    assert!(matches!(
        inst.set_input(generators::cycle(5)),
        Err(ModelError::GraphTooLarge { .. })
    ));
}

#[test]
fn kt1_rewiring_refused() {
    let mut inst = Instance::new_kt1(Graph::new(4)).unwrap();
    assert_eq!(
        inst.network_mut().swap_peers(0, 1, 2),
        Err(ModelError::RewireKt1)
    );
    // And crossings on KT-1 instances are refused end-to-end.
    let inst = Instance::new_kt1(generators::cycle(6)).unwrap();
    assert_eq!(
        cross_instance(&inst, DirectedEdge::new(0, 1), DirectedEdge::new(3, 4)),
        Err(CoreError::Kt1Crossing)
    );
}

#[test]
fn crossing_validation() {
    let inst = Instance::new_kt0_canonical(generators::cycle(8)).unwrap();
    // Non-edges rejected.
    assert!(matches!(
        cross_instance(&inst, DirectedEdge::new(0, 2), DirectedEdge::new(4, 5)),
        Err(CoreError::NotAnInputEdge { .. })
    ));
    // Dependent pairs rejected (shared endpoint; adjacent chord).
    assert!(matches!(
        cross_instance(&inst, DirectedEdge::new(0, 1), DirectedEdge::new(1, 2)),
        Err(CoreError::NotIndependent { .. })
    ));
    assert!(matches!(
        cross_instance(&inst, DirectedEdge::new(0, 1), DirectedEdge::new(2, 3)),
        Err(CoreError::NotIndependent { .. })
    ));
}

/// A malicious algorithm that exceeds the bandwidth is caught by the
/// simulator (panic = contract violation surfaced, not silent
/// truncation).
#[test]
#[should_panic(expected = "bandwidth violation")]
fn bandwidth_violation_caught() {
    struct Chatty;
    struct ChattyNode;
    impl bcclique::model::Algorithm for Chatty {
        fn name(&self) -> &str {
            "chatty"
        }
        fn spawn(
            &self,
            _: bcclique::model::InitialKnowledge,
        ) -> Box<dyn bcclique::model::NodeProgram> {
            Box::new(ChattyNode)
        }
    }
    impl bcclique::model::NodeProgram for ChattyNode {
        fn broadcast(&mut self, _round: usize) -> Message {
            Message::from_symbols(vec![Symbol::One; 5]) // b = 1!
        }
        fn receive(&mut self, _round: usize, _inbox: &bcclique::model::Inbox) {}
        fn decide(&self) -> Decision {
            Decision::Undecided
        }
        fn is_done(&self) -> bool {
            false
        }
    }
    let inst = Instance::new_kt1(generators::cycle(4)).unwrap();
    SimConfig::bcc1(2).run(&inst, &Chatty, 0);
}

#[test]
fn partition_errors() {
    use bcclique::partitions::PartitionError;
    assert!(matches!(
        SetPartition::from_blocks(3, &[vec![0, 1]]),
        Err(PartitionError::NotAPartition { .. })
    ));
    assert!(matches!(
        SetPartition::from_blocks(2, &[vec![0, 1, 5]]),
        Err(PartitionError::ElementOutOfRange { element: 5, .. })
    ));
    assert!(SetPartition::from_rgs(vec![0, 2]).is_err());
}

/// Undecided vertices make the system answer NO (Section 1.2's rule),
/// so a truncated algorithm can never cheat by staying silent.
#[test]
fn undecided_counts_as_no() {
    let inst = Instance::new_kt1(generators::cycle(8)).unwrap();
    // 1 round is far too few for NeighborIdBroadcast to decide.
    let out = SimConfig::bcc1(1).run(&inst, &NeighborIdBroadcast::new(Problem::TwoCycle), 0);
    assert!(out.decisions().contains(&Decision::Undecided));
    assert_eq!(out.system_decision(), Decision::No);
}
