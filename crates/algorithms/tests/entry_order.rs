//! Inbox entry order: the drivers hand programs port-ordered inboxes,
//! and the programs' bit streams read them by position
//! (`Inbox::by_port`), but a program must behave the same on an inbox
//! in any order. Each program here is driven through the
//! `NodeProgram` API directly, with the same broadcasts delivered in
//! port order, reversed, and rotated by a different amount every
//! round; every vertex's outputs must match round for round.

use bcc_algorithms::{
    BoruvkaMinLabel, BoruvkaMst, FullGraphBroadcast, Kt0Upgrade, NeighborIdBroadcast, Problem,
    SketchConnectivity,
};
use bcc_graphs::{generators, Graph};
use bcc_model::testing::IdBroadcast;
use bcc_model::{Algorithm, Decision, Inbox, Instance, Message, NodeProgram};
use rand::SeedableRng;

/// How a round's inbox entries are arranged before delivery.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// Port order, as the drivers deliver.
    Port,
    /// Port order reversed, every round.
    Reversed,
    /// Port order rotated left by `round + 1`, so no two consecutive
    /// rounds agree on where a port's entry sits.
    Rotated,
}

/// Every vertex's outputs after a round.
type Outputs = Vec<(Decision, Option<u64>, Option<Vec<(u64, u64)>>, bool)>;

fn outputs(programs: &[Box<dyn NodeProgram>]) -> Outputs {
    programs
        .iter()
        .map(|p| {
            (
                p.decide(),
                p.component_label(),
                p.spanning_edges(),
                p.is_done(),
            )
        })
        .collect()
}

/// Runs `algorithm` on `instance` in `BCC(bandwidth)` until every
/// vertex is done (or `max_rounds`), delivering each inbox in `order`;
/// returns each round's broadcasts and the outputs after it.
fn run(
    algorithm: &dyn Algorithm,
    instance: &Instance,
    bandwidth: usize,
    order: Order,
    max_rounds: usize,
) -> Vec<(Vec<Message>, Outputs)> {
    let mut programs: Vec<Box<dyn NodeProgram>> = (0..instance.num_vertices())
        .map(|v| algorithm.spawn(instance.initial_knowledge(v, bandwidth, 7)))
        .collect();
    let mut transcript = Vec::new();
    for round in 0..max_rounds {
        if programs.iter().all(|p| p.is_done()) {
            break;
        }
        let outbox: Vec<Message> = programs
            .iter_mut()
            .map(|p| p.broadcast(round).normalized(bandwidth))
            .collect();
        for (v, program) in programs.iter_mut().enumerate() {
            let mut entries: Vec<(u64, Message)> = instance
                .routes()
                .ports(v)
                .iter()
                .map(|&(label, peer)| (label, outbox[peer].clone()))
                .collect();
            // Port order: the drivers' canonical (label-sorted) order.
            entries.sort_by_key(|&(label, _)| label);
            match order {
                Order::Port => {}
                Order::Reversed => entries.reverse(),
                Order::Rotated => {
                    if !entries.is_empty() {
                        let k = (round + 1) % entries.len();
                        entries.rotate_left(k);
                    }
                }
            }
            program.receive(round, &Inbox::new(entries));
        }
        transcript.push((outbox, outputs(&programs)));
    }
    transcript
}

/// Runs `algorithm` in all three orders and checks the transcripts
/// agree, and that the port-ordered run finished with every vertex
/// decided.
fn check(algorithm: &dyn Algorithm, instance: &Instance, bandwidth: usize) {
    let port = run(algorithm, instance, bandwidth, Order::Port, 2_000);
    let (_, last) = port.last().expect("at least one round");
    assert!(
        last.iter()
            .all(|&(d, _, _, done)| done && d != Decision::Undecided),
        "{} did not finish in port order",
        algorithm.name()
    );
    for order in [Order::Reversed, Order::Rotated] {
        let other = run(algorithm, instance, bandwidth, order, 2_000);
        assert_eq!(
            other.len(),
            port.len(),
            "{} rounds, {order:?}",
            algorithm.name()
        );
        for (round, (a, b)) in port.iter().zip(&other).enumerate() {
            assert_eq!(a, b, "{} round {round}, {order:?}", algorithm.name());
        }
    }
}

/// The inputs: two disjoint cycles, and a sparse random graph.
fn graphs() -> Vec<Graph> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    vec![
        generators::multi_cycle(&[4, 5]),
        generators::gnm(9, 10, &mut rng),
    ]
}

#[test]
fn kt1_programs_ignore_entry_order() {
    let neighbor = NeighborIdBroadcast::new(Problem::ConnectedComponents);
    let boruvka = BoruvkaMinLabel::new(Problem::ConnectedComponents);
    let mst = BoruvkaMst::new(3);
    let sketch = SketchConnectivity::new(Problem::ConnectedComponents);
    let full = FullGraphBroadcast::new(Problem::ConnectedComponents);
    let algorithms: [&dyn Algorithm; 4] = [&neighbor, &boruvka, &mst, &full];
    for g in graphs() {
        let instance = Instance::new_kt1(g).expect("valid");
        for algorithm in algorithms {
            check(algorithm, &instance, 1);
        }
        // The bandwidth-aware programs read several symbols per entry;
        // a sketch is too long to send one bit a round.
        check(&boruvka, &instance, 3);
        check(&sketch, &instance, 64);
    }
}

#[test]
fn kt0_programs_ignore_entry_order() {
    let upgrade = Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::ConnectedComponents));
    let algorithms: [&dyn Algorithm; 2] = [&upgrade, &IdBroadcast::new()];
    for g in graphs() {
        for wiring in [1, 2] {
            let instance = Instance::new_kt0(g.clone(), wiring).expect("valid");
            for algorithm in algorithms {
                check(algorithm, &instance, 1);
            }
        }
    }
}
