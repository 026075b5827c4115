//! Property-based tests for the 2-party layer: protocols, gadgets,
//! simulation.

use bcc_comm::driver::{run_protocol, DriverOpts};
use bcc_comm::protocols::{
    decode_partition, encode_partition, trivial_message_bits, JoinCompAlice, JoinCompBob,
    TrivialJoinAlice, TrivialJoinBob,
};
use bcc_comm::reduction::{gadget_graph, verify_theorem_4_3, Gadget};
use bcc_partitions::SetPartition;
use proptest::prelude::*;

fn arb_partition(max_n: usize) -> impl Strategy<Value = SetPartition> {
    (1usize..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0usize..n, n).prop_map(|l| SetPartition::from_assignment(&l))
    })
}

fn arb_pair(max_n: usize) -> impl Strategy<Value = (SetPartition, SetPartition)> {
    (2usize..=max_n).prop_flat_map(|n| {
        (
            proptest::collection::vec(0usize..n, n),
            proptest::collection::vec(0usize..n, n),
        )
            .prop_map(|(a, b)| {
                (
                    SetPartition::from_assignment(&a),
                    SetPartition::from_assignment(&b),
                )
            })
    })
}

fn arb_matching_pair(half_max: usize) -> impl Strategy<Value = (SetPartition, SetPartition)> {
    (2usize..=half_max).prop_flat_map(|k| {
        let n = 2 * k;
        (any::<u64>(), any::<u64>()).prop_map(move |(s1, s2)| {
            use rand::SeedableRng;
            let mut r1 = rand::rngs::StdRng::seed_from_u64(s1);
            let mut r2 = rand::rngs::StdRng::seed_from_u64(s2);
            (
                bcc_partitions::random::uniform_matching_partition(n, &mut r1),
                bcc_partitions::random::uniform_matching_partition(n, &mut r2),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partition encoding roundtrips for arbitrary partitions.
    #[test]
    fn encoding_roundtrip(p in arb_partition(16)) {
        let bits = encode_partition(&p);
        prop_assert_eq!(bits.len(), trivial_message_bits(p.ground_size()));
        prop_assert_eq!(decode_partition(p.ground_size(), &bits).unwrap(), p);
    }

    /// The decision protocol is correct on random pairs, with its
    /// documented exact cost.
    #[test]
    fn decision_protocol_correct((pa, pb) in arb_pair(10)) {
        let expect = pa.join(&pb).is_trivial();
        let mut alice = TrivialJoinAlice::new(pa.clone());
        let mut bob = TrivialJoinBob::new(pb.clone());
        let run = run_protocol(&mut alice, &mut bob, &DriverOpts::new(8));
        prop_assert_eq!(run.alice_output, Some(expect));
        prop_assert_eq!(run.bob_output, Some(expect));
        prop_assert_eq!(run.bits_exchanged, trivial_message_bits(pa.ground_size()) + 1);
    }

    /// PartitionComp outputs the join on both sides; any bit budget
    /// below Alice's message leaves Bob clueless.
    #[test]
    fn comp_protocol_correct((pa, pb) in arb_pair(10)) {
        let expect = pa.join(&pb);
        let mut alice = JoinCompAlice::new(pa.clone());
        let mut bob = JoinCompBob::new(pb.clone());
        let run = run_protocol(&mut alice, &mut bob, &DriverOpts::new(8));
        prop_assert_eq!(run.alice_output.as_ref(), Some(&expect));
        prop_assert_eq!(run.bob_output.as_ref(), Some(&expect));

        let full = trivial_message_bits(pa.ground_size());
        prop_assume!(full > 1);
        let mut alice2 = JoinCompAlice::new(pa.clone());
        let mut bob2 = JoinCompBob::new(pb.clone());
        let starved = run_protocol(&mut alice2, &mut bob2, &DriverOpts::new(8).bit_budget(full - 1));
        prop_assert_eq!(starved.bob_output, None);
    }

    /// Theorem 4.3 on random pairs for the general gadget.
    #[test]
    fn theorem_4_3_general_random((pa, pb) in arb_pair(8)) {
        prop_assert!(verify_theorem_4_3(Gadget::General, &pa, &pb));
    }

    /// Theorem 4.3 and the 2-regular structural invariants on random
    /// matching pairs.
    #[test]
    fn theorem_4_3_two_regular_random((pa, pb) in arb_matching_pair(6)) {
        prop_assert!(verify_theorem_4_3(Gadget::TwoRegular, &pa, &pb));
        let g = gadget_graph(Gadget::TwoRegular, &pa, &pb).unwrap();
        prop_assert!((0..g.num_vertices()).all(|v| g.degree(v) == 2));
        let s = bcc_graphs::cycles::cycle_structure(&g).unwrap();
        prop_assert!(s.min_length() >= 4);
        prop_assert_eq!(s.count(), pa.join(&pb).num_blocks());
    }

    /// The gadget is connected iff the join is trivial — on both
    /// gadgets.
    #[test]
    fn connectivity_iff_trivial_join((pa, pb) in arb_pair(7)) {
        let g = gadget_graph(Gadget::General, &pa, &pb).unwrap();
        prop_assert_eq!(g.is_connected(), pa.join(&pb).is_trivial());
    }
}
