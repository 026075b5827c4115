//! Port order: a vertex's ports come in whatever order its knowledge
//! lists them, and KT-1 labels need not be sorted by ID. That is what
//! `Kt0Upgrade`'s inner program sees: its ports keep the outer KT-0
//! order, labelled with the IDs learned behind them. Each program here
//! is driven through the `NodeProgram` API directly, once with the
//! instance's ports and once with every vertex's ports rotated (its
//! knowledge's labels and its inbox's row together), over the same
//! broadcasts; every vertex's outputs must match round for round.

use bcc_algorithms::{
    BoruvkaMinLabel, BoruvkaMst, FullGraphBroadcast, Kt0Upgrade, NeighborIdBroadcast, Problem,
    SketchConnectivity,
};
use bcc_graphs::{generators, Graph};
use bcc_model::testing::IdBroadcast;
use bcc_model::{Algorithm, Decision, Inbox, Instance, Message, NodeProgram};
use rand::SeedableRng;

/// How each vertex's ports are laid out.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// The instance's port order (KT-1 labels sorted by ID).
    Instance,
    /// Vertex `v`'s ports rotated left by `v + 1`, so KT-1 labels are
    /// out of ID order and no two vertices agree on the shift.
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
/// vertex is done (or `max_rounds`), with ports laid out in `order`;
/// returns each round's broadcasts and the outputs after it.
fn run(
    algorithm: &dyn Algorithm,
    instance: &Instance,
    bandwidth: usize,
    order: Order,
    max_rounds: usize,
) -> Vec<(Vec<Message>, Outputs)> {
    let rows: Vec<Vec<(u64, usize)>> = (0..instance.num_vertices())
        .map(|v| {
            let mut row = instance.routes().ports(v).to_vec();
            if let (Order::Rotated, false) = (order, row.is_empty()) {
                let k = (v + 1) % row.len();
                row.rotate_left(k);
            }
            row
        })
        .collect();
    let mut programs: Vec<Box<dyn NodeProgram>> = rows
        .iter()
        .enumerate()
        .map(|(v, row)| {
            let mut init = instance.initial_knowledge(v, bandwidth, 7);
            init.port_labels = row.iter().map(|&(label, _)| label).collect();
            algorithm.spawn(init)
        })
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
        for (program, row) in programs.iter_mut().zip(&rows) {
            program.receive(round, &Inbox::new(row, &outbox));
        }
        transcript.push((outbox, outputs(&programs)));
    }
    transcript
}

/// Runs `algorithm` in both orders and checks the transcripts agree,
/// and that the instance-ordered run finished with every vertex
/// decided.
fn check(algorithm: &dyn Algorithm, instance: &Instance, bandwidth: usize) {
    let port = run(algorithm, instance, bandwidth, Order::Instance, 2_000);
    let (_, last) = port.last().expect("at least one round");
    assert!(
        last.iter()
            .all(|&(d, _, _, done)| done && d != Decision::Undecided),
        "{} did not finish in instance order",
        algorithm.name()
    );
    let rotated = run(algorithm, instance, bandwidth, Order::Rotated, 2_000);
    assert_eq!(rotated.len(), port.len(), "{} rounds", algorithm.name());
    for (round, (a, b)) in port.iter().zip(&rotated).enumerate() {
        assert_eq!(a, b, "{} round {round}", algorithm.name());
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
fn kt1_programs_ignore_port_order() {
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
fn kt0_programs_ignore_port_order() {
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
