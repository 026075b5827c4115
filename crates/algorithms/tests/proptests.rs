//! Property-based tests: every algorithm agrees with the ground truth
//! oracles on randomized instance families.

use bcc_algorithms::sketch::{edge_slot, slot_edge, Decode, L0Sketch};
use bcc_algorithms::{
    BoruvkaMinLabel, FullGraphBroadcast, HashVoteDecider, Kt0Upgrade, NeighborIdBroadcast,
    ParityDecider, Problem, Truncated,
};
use bcc_graphs::connectivity::connected_components;
use bcc_graphs::cycles::{
    classify_multi_cycle, classify_two_cycle, MultiCycleClass, TwoCycleClass,
};
use bcc_graphs::{generators, Graph};
use bcc_model::testing::ConstantDecision;
use bcc_model::{Algorithm, Decision, Inbox, Instance, Message, NodeProgram, SimConfig};
use proptest::prelude::*;
use rand::SeedableRng;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..12, any::<u64>(), 0usize..20).prop_map(|(n, seed, extra)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = (extra % (n * (n - 1) / 2 + 1)).min(n + 4);
        generators::gnm(n, m, &mut rng)
    })
}

fn truth(g: &Graph) -> Decision {
    if g.is_connected() {
        Decision::Yes
    } else {
        Decision::No
    }
}

/// A KT-0 instance on `n` vertices: a random graph and a random
/// port wiring.
fn arb_kt0_instance() -> impl Strategy<Value = Instance> {
    (5usize..10, any::<u64>(), any::<u64>()).prop_map(|(n, seed, wiring)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = (seed as usize) % (n + 3);
        Instance::new_kt0(generators::gnm(n, m, &mut rng), wiring).unwrap()
    })
}

/// The programs of every vertex of `instance`, spawned by `algorithm`.
fn spawn_all(
    algorithm: &dyn Algorithm,
    instance: &Instance,
    coin: u64,
) -> Vec<Box<dyn NodeProgram>> {
    (0..instance.num_vertices())
        .map(|v| algorithm.spawn(instance.initial_knowledge(v, 1, coin)))
        .collect()
}

/// One `BCC(1)` round of `programs` on `instance`, delivered as the
/// simulator does; returns the round's broadcasts.
fn run_round(
    programs: &mut [Box<dyn NodeProgram>],
    instance: &Instance,
    round: usize,
) -> Vec<Message> {
    let outbox: Vec<Message> = programs
        .iter_mut()
        .map(|p| p.broadcast(round).normalized(1))
        .collect();
    for (v, program) in programs.iter_mut().enumerate() {
        program.receive(round, &Inbox::new(instance.routes().ports(v), &outbox));
    }
    outbox
}

/// Component labels on a fully known graph as first written, with the
/// min-ID table in a `BTreeMap` keyed by component label: the label
/// of `v`'s component is the minimum ID among its members.
fn btree_component_labels(g: &Graph, ids: &[u64]) -> Vec<u64> {
    let comps = connected_components(g);
    let mut min_id_of_label: std::collections::BTreeMap<usize, u64> =
        std::collections::BTreeMap::new();
    for (&label, &id) in comps.label.iter().zip(ids) {
        let entry = min_id_of_label.entry(label).or_insert(u64::MAX);
        *entry = (*entry).min(id);
    }
    (0..g.num_vertices())
        .map(|v| min_id_of_label[&comps.label[v]])
        .collect()
}

/// The decision on a fully known graph by the problems' definitions:
/// the promise problems by their cycle classification, a promise
/// violation by connectivity.
fn classified_decision(g: &Graph, problem: Problem) -> Decision {
    match problem {
        Problem::Connectivity | Problem::ConnectedComponents => truth(g),
        Problem::TwoCycle => match classify_two_cycle(g) {
            Ok(TwoCycleClass::OneCycle) => Decision::Yes,
            Ok(TwoCycleClass::TwoCycles) => Decision::No,
            Err(_) => truth(g),
        },
        Problem::MultiCycle => match classify_multi_cycle(g) {
            Ok(MultiCycleClass::OneCycle) => Decision::Yes,
            Ok(MultiCycleClass::MultipleCycles) => Decision::No,
            Err(_) => truth(g),
        },
    }
}

/// Where the two full-knowledge algorithms, run on `g` with vertex
/// `v` holding ID `ids[v]` (a permutation of `0..n`, so every ID fits
/// the neighbor lists' width), disagree with the classification
/// oracle's decision or the `BTreeMap` form's labels, for any of the
/// four problems; `None` if nowhere.
fn full_knowledge_mismatch(g: &Graph, ids: &[u64]) -> Option<String> {
    let inst = Instance::new_kt1_with_ids(g.clone(), ids.to_vec()).unwrap();
    let labels: Vec<Option<u64>> = (btree_component_labels(g, ids).into_iter())
        .map(Some)
        .collect();
    let sim = SimConfig::bcc1(1_000).transcripts(false);
    for problem in [
        Problem::Connectivity,
        Problem::TwoCycle,
        Problem::MultiCycle,
        Problem::ConnectedComponents,
    ] {
        let expect = classified_decision(g, problem);
        for algo in [
            &FullGraphBroadcast::new(problem) as &dyn Algorithm,
            &NeighborIdBroadcast::new(problem),
        ] {
            let out = sim.run(&inst, algo, 0);
            if out.decisions().iter().any(|&d| d != expect) || out.component_labels() != labels {
                return Some(format!("{} on {problem}: {g:?} ids {ids:?}", algo.name()));
            }
        }
    }
    None
}

/// Every labelled graph on at most 6 vertices: both full-knowledge
/// algorithms answer every problem as the classification oracle
/// does, with min-ID component labels.
#[test]
fn full_knowledge_answers_match_classification_exhaustively() {
    for n in 1..=6usize {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        // Reversed IDs, so a component's label is not its minimum
        // vertex.
        let ids: Vec<u64> = (0..n as u64).rev().collect();
        for mask in 0u32..1 << pairs.len() {
            let edges = (pairs.iter().enumerate())
                .filter(|&(bit, _)| mask >> bit & 1 == 1)
                .map(|(_, &e)| e);
            let g = Graph::from_edges(n, edges).unwrap();
            if let Some(mismatch) = full_knowledge_mismatch(&g, &ids) {
                panic!("{mismatch}");
            }
        }
    }
}

/// Every vertex's decision and done flag.
fn outputs(programs: &[Box<dyn NodeProgram>]) -> Vec<(Decision, bool)> {
    programs.iter().map(|p| (p.decide(), p.is_done())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A program reset onto instance `b` after some rounds on `a`
    /// behaves as one spawned on `b`: the same broadcasts, decisions
    /// and done flags, round after round, for every roster program
    /// that implements `reset`. Vertices `b` has beyond `a`'s are
    /// spawned, as a respawned run does.
    #[test]
    fn reset_equals_spawn(
        a in arb_kt0_instance(),
        b in arb_kt0_instance(),
        coins in (any::<u64>(), any::<u64>()),
        warm_rounds in 0usize..4,
        t in 1usize..5,
    ) {
        let upgrade = Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle));
        let algorithms: [&dyn Algorithm; 5] = [
            &ConstantDecision::yes(),
            &HashVoteDecider::new(t),
            &ParityDecider::new(t),
            &Truncated::new(upgrade, t),
            &upgrade,
        ];
        for algorithm in algorithms {
            let mut reset = spawn_all(algorithm, &a, coins.0);
            for round in 0..warm_rounds {
                run_round(&mut reset, &a, round);
            }
            reset.truncate(b.num_vertices());
            for (v, program) in reset.iter_mut().enumerate() {
                prop_assert!(
                    program.reset(&b.initial_knowledge(v, 1, coins.1)),
                    "{} does not reset", algorithm.name()
                );
            }
            let kept = reset.len();
            reset.extend(spawn_all(algorithm, &b, coins.1).into_iter().skip(kept));
            let mut fresh = spawn_all(algorithm, &b, coins.1);
            prop_assert_eq!(outputs(&reset), outputs(&fresh), "{} before round 0", algorithm.name());
            // Long enough for the upgrade's inner program to run.
            for round in 0..16 {
                let sent = run_round(&mut reset, &b, round);
                prop_assert_eq!(sent, run_round(&mut fresh, &b, round), "{} round {}", algorithm.name(), round);
                prop_assert_eq!(outputs(&reset), outputs(&fresh), "{} round {}", algorithm.name(), round);
            }
        }
    }

    /// Both full-knowledge algorithms answer every problem as the
    /// classification oracle does on random graphs under shuffled IDs.
    #[test]
    fn full_knowledge_answers_match_classification(g in arb_graph(), seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        let mut ids: Vec<u64> = (0..g.num_vertices() as u64).collect();
        ids.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let mismatch = full_knowledge_mismatch(&g, &ids);
        prop_assert!(mismatch.is_none(), "{:?}", mismatch);
    }

    /// The two full-knowledge algorithms solve Connectivity exactly on
    /// arbitrary graphs, with correct component labels.
    #[test]
    fn full_knowledge_algorithms_exact(g in arb_graph()) {
        let sim = SimConfig::bcc1(1_000_000);
        let inst = Instance::new_kt1(g.clone()).unwrap();
        let expect = truth(&g);
        for algo in [
            &FullGraphBroadcast::new(Problem::ConnectedComponents) as &dyn bcc_model::Algorithm,
            &NeighborIdBroadcast::new(Problem::ConnectedComponents),
            &BoruvkaMinLabel::new(Problem::ConnectedComponents),
        ] {
            let out = sim.run(&inst, algo, 0);
            prop_assert_eq!(out.system_decision(), expect, "{}", algo.name());
            // Component labels: min vertex id per component.
            let comps = connected_components(&g);
            let labels: Vec<u64> = out.component_labels().iter().map(|l| l.unwrap()).collect();
            for (v, (&label, &comp)) in labels.iter().zip(&comps.label).enumerate() {
                prop_assert_eq!(label, comp as u64, "{} vertex {}", algo.name(), v);
            }
        }
    }

    /// The KT-0 upgrade preserves the inner algorithm's answers on any
    /// wiring.
    #[test]
    fn kt0_upgrade_transparent(g in arb_graph(), wiring in any::<u64>()) {
        let expect = truth(&g);
        let inst = Instance::new_kt0(g, wiring).unwrap();
        let algo = Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::Connectivity));
        let out = SimConfig::bcc1(1_000_000).run(&inst, &algo, 0);
        prop_assert_eq!(out.system_decision(), expect);
    }

    /// Truncation is exact: runs exactly min(t, inner-completion)
    /// rounds and never exceeds t.
    #[test]
    fn truncation_respects_budget(n in 6usize..20, t in 0usize..12) {
        let inst = Instance::new_kt1(generators::cycle(n)).unwrap();
        let algo = Truncated::new(NeighborIdBroadcast::new(Problem::TwoCycle), t);
        let out = SimConfig::bcc1(1_000_000).run(&inst, &algo, 0);
        prop_assert!(out.stats().rounds <= t);
    }

    /// Edge-slot encoding is a bijection for every n.
    #[test]
    fn edge_slot_bijection(n in 2usize..40) {
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let s = edge_slot(n, i, j);
                prop_assert!(s < n * (n - 1) / 2);
                prop_assert!(seen.insert(s));
                prop_assert_eq!(slot_edge(n, s), (i, j));
            }
        }
    }

    /// L0 sketches are linear: sketch(x) + sketch(y) = sketch(x + y),
    /// exactly, for random sparse updates.
    #[test]
    fn l0_linearity(seed in any::<u64>(), m in 16usize..200) {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a = L0Sketch::zero(m, 5);
        let mut b = L0Sketch::zero(m, 5);
        let mut direct = L0Sketch::zero(m, 5);
        for _ in 0..10 {
            let i = rng.gen_range(0..m);
            let v = rng.gen_range(-3i64..=3);
            if rng.gen() {
                a.update(i, v);
            } else {
                b.update(i, v);
            }
            direct.update(i, v);
        }
        prop_assert_eq!(a.added(&b), direct);
    }

    /// A decoded sample always belongs to the true support with the
    /// true value.
    #[test]
    fn l0_decode_sound(seed in any::<u64>()) {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = 300;
        let mut s = L0Sketch::zero(m, seed);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..rng.gen_range(0..25) {
            let i = rng.gen_range(0..m);
            let v = if rng.gen() { 1i64 } else { -1 };
            s.update(i, v);
            *truth.entry(i).or_insert(0i64) += v;
        }
        truth.retain(|_, v| *v != 0);
        match s.decode() {
            Decode::Zero => prop_assert!(truth.is_empty()),
            Decode::Sample { index, value } => {
                prop_assert_eq!(truth.get(&index), Some(&value));
            }
            Decode::Fail => prop_assert!(!truth.is_empty()),
        }
    }

    /// Sketch serialization roundtrips for random contents.
    #[test]
    fn l0_serialization_roundtrip(seed in any::<u64>(), m in 8usize..128) {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s = L0Sketch::zero(m, 3);
        for _ in 0..8 {
            s.update(rng.gen_range(0..m), rng.gen_range(-5i64..=5));
        }
        let words: Vec<u64> = s.to_words().collect();
        prop_assert_eq!(words.len() * 64, L0Sketch::bits(m));
        prop_assert_eq!(L0Sketch::from_words(m, 3, &words), s);
    }
}
