//! The kernel's load-bearing guarantee, property-tested: a batched
//! lockstep run is byte-identical, lane for lane, to the scalar
//! executor — decisions, component labels, transcripts, views, and
//! stats — across KT-0 and KT-1 knowledge modes, one-cycle and
//! two-cycle input families, real protocol algorithms, and arbitrary
//! lane widths and seed mixes.

use bcc_algorithms::{Kt0Upgrade, NeighborIdBroadcast, Problem};
use bcc_engine::{BatchRun, Lane, MAX_LANES};
use bcc_graphs::{generators, Graph};
use bcc_model::testing::{EchoBit, IdBroadcast, SymbolMix};
use bcc_model::{runs_indistinguishable, Algorithm, Instance, RunOutcome, SimConfig};
use proptest::prelude::*;

/// One-cycle or two-cycle input on `n ≥ 6` vertices — the paper's
/// two instance families.
fn arb_input(n: usize) -> impl Strategy<Value = Graph> {
    (any::<bool>(), 3usize..=n - 3).prop_map(move |(one_cycle, a)| {
        if one_cycle {
            generators::cycle(n)
        } else {
            generators::two_cycles(a, n - a)
        }
    })
}

/// A batch description: vertex count, per-lane (input, kt1?, seed).
fn arb_batch() -> impl Strategy<Value = (usize, Vec<(Graph, bool, u64)>)> {
    (6usize..10).prop_flat_map(|n| {
        let lane = (arb_input(n), any::<bool>(), 0u64..1000);
        (Just(n), proptest::collection::vec(lane, 1..8))
    })
}

fn build_instance(g: Graph, kt1: bool, seed: u64) -> Instance {
    if kt1 {
        Instance::new_kt1(g).expect("valid instance")
    } else {
        Instance::new_kt0(g, seed).expect("valid instance")
    }
}

fn assert_equal(batched: &RunOutcome, scalar: &RunOutcome) -> Result<(), TestCaseError> {
    prop_assert_eq!(batched.decisions(), scalar.decisions());
    prop_assert_eq!(batched.component_labels(), scalar.component_labels());
    prop_assert_eq!(batched.spanning_edges(), scalar.spanning_edges());
    prop_assert_eq!(batched.stats(), scalar.stats());
    prop_assert_eq!(batched.completed(), scalar.completed());
    prop_assert_eq!(batched.recorded(), scalar.recorded());
    if scalar.recorded() {
        prop_assert!(runs_indistinguishable(batched, scalar));
        for v in 0..scalar.decisions().len() {
            prop_assert_eq!(batched.transcript(v), scalar.transcript(v));
        }
    }
    Ok(())
}

fn check_batch_vs_scalar(
    cfg: &SimConfig,
    instances: &[(Instance, u64)],
    algorithm: &dyn Algorithm,
) -> Result<(), TestCaseError> {
    let lanes: Vec<Lane<'_>> = instances.iter().map(|(i, c)| (i, *c)).collect();
    let batched = BatchRun::new(cfg.clone()).run(&lanes, algorithm);
    prop_assert_eq!(batched.len(), instances.len());
    for ((inst, coin), out) in instances.iter().zip(&batched) {
        let scalar = cfg.run(inst, algorithm, *coin);
        assert_equal(out, &scalar)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// EchoBit over mixed KT-0/KT-1 lanes, cycles and two-cycles,
    /// arbitrary coin seeds: batched ≡ scalar with full recording.
    #[test]
    fn echo_bit_batched_equals_scalar((n, lanes) in arb_batch()) {
        let _ = n;
        let instances: Vec<(Instance, u64)> = lanes
            .into_iter()
            .map(|(g, kt1, seed)| (build_instance(g, kt1, seed), seed ^ 0xABCD))
            .collect();
        check_batch_vs_scalar(&SimConfig::bcc1(6), &instances, &EchoBit)?;
    }

    /// IdBroadcast (lanes finish at data-dependent rounds, exercising
    /// independent retirement) with transcripts off.
    #[test]
    fn id_broadcast_batched_equals_scalar((n, lanes) in arb_batch()) {
        let _ = n;
        let instances: Vec<(Instance, u64)> = lanes
            .into_iter()
            .map(|(g, kt1, seed)| (build_instance(g, kt1, seed), seed))
            .collect();
        let cfg = SimConfig::bcc1(20).transcripts(false);
        check_batch_vs_scalar(&cfg, &instances, &IdBroadcast::new())?;
    }

    /// The real KT-0 protocol (Kt0Upgrade ∘ NeighborIdBroadcast) on
    /// the TwoCycle problem over KT-0 canonical instances — the
    /// algorithm/instance family the hard distributions use.
    #[test]
    fn kt0_protocol_batched_equals_scalar(
        lanes in proptest::collection::vec((6usize..9, 0u64..100), 1..6),
    ) {
        let n0 = lanes[0].0;
        let instances: Vec<(Instance, u64)> = lanes
            .into_iter()
            .map(|(_, coin)| {
                (
                    Instance::new_kt0_canonical(generators::cycle(n0)).expect("canonical"),
                    coin,
                )
            })
            .collect();
        let algo = Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle));
        check_batch_vs_scalar(&SimConfig::bcc1(40), &instances, &algo)?;
    }

    /// BCC(b) bandwidths survive the batched board: narrow ones,
    /// the 64-symbol edge of the inline `Message`, and wide ones past
    /// it, with every symbol position carrying traffic.
    #[test]
    fn wide_bandwidth_batched_equals_scalar(
        b in prop_oneof![1usize..5, 63usize..67, 128usize..131],
        coins in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let inst = Instance::new_kt0(generators::cycle(6), 17).expect("valid");
        let instances: Vec<(Instance, u64)> =
            coins.into_iter().map(|c| (inst.clone(), c)).collect();
        let cfg = SimConfig::bcc1(5).bandwidth(b);
        check_batch_vs_scalar(&cfg, &instances, &EchoBit)?;
        check_batch_vs_scalar(&cfg, &instances, &SymbolMix)?;
    }
}

/// A full-width (64-lane) batch agrees with scalar runs — outside
/// `proptest!` so the expensive case runs exactly once.
#[test]
fn full_width_batch_equals_scalar() {
    let inst = Instance::new_kt0(generators::two_cycles(3, 4), 5).expect("valid");
    let instances: Vec<(Instance, u64)> =
        (0..MAX_LANES as u64).map(|c| (inst.clone(), c)).collect();
    let lanes: Vec<Lane<'_>> = instances.iter().map(|(i, c)| (i, *c)).collect();
    let cfg = SimConfig::bcc1(12);
    let batched = BatchRun::new(cfg.clone()).run(&lanes, &IdBroadcast::new());
    for ((inst, coin), out) in instances.iter().zip(&batched) {
        let scalar = cfg.run(inst, &IdBroadcast::new(), *coin);
        assert_eq!(out.decisions(), scalar.decisions());
        assert_eq!(out.stats(), scalar.stats());
        assert!(runs_indistinguishable(out, &scalar));
    }
}
