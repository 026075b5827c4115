//! Integration: the whole KT-1 pipeline (Section 4) across crates —
//! partitions → gadgets → simulation → certificates.

use bcclique::comm::bounds::certify_rank;
use bcclique::comm::reduction::{gadget_graph, verify_theorem_4_3, Gadget};
use bcclique::comm::simulate::simulate_two_party;
use bcclique::core::infobound::partition_comp_information;
use bcclique::core::kt1::{simulation_bits_per_round, theorem_4_4_certificate};
use bcclique::partitions::enumerate::{all_partitions, matching_partitions};
use bcclique::partitions::matrices::{partition_join_matrix, two_partition_matrix};
use bcclique::partitions::numbers::{bell_number, num_matching_partitions};
use bcclique::prelude::*;

/// Theorem 4.3 exhaustively on both gadgets at workable sizes.
#[test]
fn theorem_4_3_exhaustive() {
    for pa in all_partitions(4) {
        for pb in all_partitions(4) {
            assert!(verify_theorem_4_3(Gadget::General, &pa, &pb));
        }
    }
    let parts: Vec<SetPartition> = matching_partitions(6).collect();
    for pa in &parts {
        for pb in &parts {
            assert!(verify_theorem_4_3(Gadget::TwoRegular, pa, pb));
        }
    }
}

/// The Alice/Bob simulation reproduces the direct execution for
/// *multiple* algorithms, not just one.
#[test]
fn simulation_equivalence_multiple_algorithms() {
    let parts: Vec<SetPartition> = matching_partitions(4).collect();
    let algos: Vec<Box<dyn Algorithm>> = vec![
        Box::new(NeighborIdBroadcast::new(Problem::MultiCycle)),
        Box::new(FullGraphBroadcast::new(Problem::Connectivity)),
        Box::new(BoruvkaMinLabel::new(Problem::Connectivity)),
    ];
    for algo in &algos {
        for pa in &parts {
            for pb in &parts {
                let report =
                    simulate_two_party(Gadget::TwoRegular, algo.as_ref(), pa, pb, 0, 100_000);
                let g = gadget_graph(Gadget::TwoRegular, pa, pb).unwrap();
                let direct =
                    SimConfig::bcc1(100_000).run(&Instance::new_kt1(g).unwrap(), algo.as_ref(), 0);
                assert_eq!(report.decisions, direct.decisions(), "{}", algo.name());
                assert_eq!(report.rounds, direct.stats().rounds, "{}", algo.name());
            }
        }
    }
}

/// Verifies the reduction end-to-end for one algorithm: for every
/// `(P_A, P_B)` in `pairs`, the two-party simulation of `algorithm`
/// answers the `Partition` question correctly (YES ⇔ join trivial)
/// and its measured per-round cost matches
/// [`simulation_bits_per_round`]. Returns the maximum rounds used.
fn verify_simulation_correctness(
    gadget: Gadget,
    algorithm: &dyn Algorithm,
    pairs: &[(SetPartition, SetPartition)],
) -> Result<usize, String> {
    let mut max_rounds = 0;
    for (pa, pb) in pairs {
        let report = simulate_two_party(gadget, algorithm, pa, pb, 0, 1_000_000);
        let expect = if pa.join(pb).is_trivial() {
            Decision::Yes
        } else {
            Decision::No
        };
        if report.system_decision() != expect {
            return Err(format!("wrong answer on PA={pa} PB={pb}"));
        }
        let per_round = simulation_bits_per_round(gadget, pa.ground_size());
        if report.rounds.checked_mul(per_round) != Some(report.bits_exchanged) {
            return Err(format!(
                "cost mismatch on PA={pa} PB={pb}: {} bits over {} rounds",
                report.bits_exchanged, report.rounds
            ));
        }
        max_rounds = max_rounds.max(report.rounds);
    }
    Ok(max_rounds)
}

/// The full Theorem 4.4 chain: full-rank certificate + verified
/// simulation cost + correct answers.
#[test]
fn theorem_4_4_chain() {
    let cert = theorem_4_4_certificate(Gadget::TwoRegular, 6);
    assert!(cert.rank.full_rank);
    assert_eq!(cert.rank.dim as u128, num_matching_partitions(6));
    let parts: Vec<SetPartition> = matching_partitions(4).collect();
    let pairs: Vec<(SetPartition, SetPartition)> = parts
        .iter()
        .flat_map(|a| parts.iter().map(move |b| (a.clone(), b.clone())))
        .collect();
    let algo = NeighborIdBroadcast::new(Problem::MultiCycle);
    verify_simulation_correctness(Gadget::TwoRegular, &algo, &pairs).unwrap();
}

/// Theorem 2.3 and Lemma 4.1 at every feasible size, with the GF(2)
/// cross-check never exceeding the GF(p) rank.
#[test]
fn rank_certificates_feasible_sizes() {
    for n in 1..=5 {
        let jm = partition_join_matrix(n);
        let cert = certify_rank(&jm);
        assert!(cert.full_rank, "M_{n}");
        assert_eq!(cert.dim as u128, bell_number(n));
        assert!(jm.to_gf2().rank() <= cert.rank);
    }
    for n in [2usize, 4, 6, 8] {
        let jm = two_partition_matrix(n);
        let cert = certify_rank(&jm);
        assert!(cert.full_rank, "E_{n}");
        assert_eq!(cert.dim as u128, num_matching_partitions(n));
    }
}

/// Theorem 4.5 accounting at several sizes, exact and starved.
#[test]
fn information_chain_across_sizes() {
    for n in 3..=6 {
        let exact = partition_comp_information(n, None);
        assert!(exact.chain_holds());
        assert_eq!(exact.error, 0.0);
        assert!((exact.mutual_information - exact.input_entropy).abs() < 1e-6);

        let starved = partition_comp_information(n, Some(2));
        assert!(starved.chain_holds());
        assert!(starved.mutual_information <= 2.0 + 1e-9);
    }
}

/// ConnectedComponents through the gadget: component labels output by
/// the BCC algorithm induce exactly the join partition on L.
#[test]
fn component_labels_recover_join() {
    let parts: Vec<SetPartition> = matching_partitions(6).collect();
    let algo = NeighborIdBroadcast::new(Problem::ConnectedComponents);
    for (pa, pb) in [(0usize, 3usize), (1, 1), (2, 9)].map(|(a, b)| (&parts[a], &parts[b])) {
        let report = simulate_two_party(Gadget::TwoRegular, &algo, pa, pb, 0, 100_000);
        // L vertices are ids 0..6; group them by component label.
        let labels: Vec<u64> = (0..6)
            .map(|v| report.component_labels[v].expect("labeled"))
            .collect();
        let induced =
            SetPartition::from_assignment(&labels.iter().map(|&l| l as usize).collect::<Vec<_>>());
        assert_eq!(induced, pa.join(pb), "PA={pa} PB={pb}");
    }
}
