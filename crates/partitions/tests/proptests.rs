//! Property-based tests: the partition lattice laws the paper's
//! Section 4 reductions depend on.

use bcc_partitions::{enumerate, numbers, SetPartition};
use proptest::prelude::*;

fn arb_partition(max_n: usize) -> impl Strategy<Value = SetPartition> {
    (1usize..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0usize..n, n)
            .prop_map(|labels| SetPartition::from_assignment(&labels))
    })
}

/// Two partitions over the same ground set.
fn arb_pair(max_n: usize) -> impl Strategy<Value = (SetPartition, SetPartition)> {
    (1usize..=max_n).prop_flat_map(|n| {
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

fn arb_triple(max_n: usize) -> impl Strategy<Value = (SetPartition, SetPartition, SetPartition)> {
    (1usize..=max_n).prop_flat_map(|n| {
        (
            proptest::collection::vec(0usize..n, n),
            proptest::collection::vec(0usize..n, n),
            proptest::collection::vec(0usize..n, n),
        )
            .prop_map(|(a, b, c)| {
                (
                    SetPartition::from_assignment(&a),
                    SetPartition::from_assignment(&b),
                    SetPartition::from_assignment(&c),
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rgs_is_canonical(p in arb_partition(10)) {
        let rebuilt = SetPartition::from_rgs(p.rgs().to_vec()).unwrap();
        prop_assert_eq!(&rebuilt, &p);
        let from_blocks = SetPartition::from_blocks(p.ground_size(), &p.blocks()).unwrap();
        prop_assert_eq!(from_blocks, p);
    }

    #[test]
    fn join_laws((a, b) in arb_pair(10)) {
        let j = a.join(&b);
        prop_assert!(a.refines(&j));
        prop_assert!(b.refines(&j));
        prop_assert_eq!(a.join(&b), b.join(&a));
        prop_assert_eq!(a.join(&a), a.clone());
        // Identity: join with finest is self; join with trivial is trivial.
        let n = a.ground_size();
        prop_assert_eq!(a.join(&SetPartition::finest(n)), a.clone());
        prop_assert!(a.join(&SetPartition::trivial(n)).is_trivial());
    }

    #[test]
    fn join_associative((a, b, c) in arb_triple(8)) {
        prop_assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
    }

    #[test]
    fn join_is_minimal((a, b) in arb_pair(6)) {
        // The defining property: PA ∨ PB is the FINEST partition that
        // both refine. Check against every partition of the ground set.
        let j = a.join(&b);
        for q in enumerate::all_partitions(a.ground_size()) {
            if a.refines(&q) && b.refines(&q) {
                prop_assert!(j.refines(&q), "join must refine every common coarsening");
            }
        }
    }

    #[test]
    fn refinement_is_partial_order((a, b) in arb_pair(8)) {
        // Antisymmetry.
        if a.refines(&b) && b.refines(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn block_structure_consistent(p in arb_partition(12)) {
        let blocks = p.blocks();
        prop_assert_eq!(blocks.len(), p.num_blocks());
        let total: usize = blocks.iter().map(Vec::len).sum();
        prop_assert_eq!(total, p.ground_size());
        for (bi, block) in blocks.iter().enumerate() {
            for &e in block {
                prop_assert_eq!(p.block_of(e), bi);
            }
        }
    }

    #[test]
    fn uniform_sampler_valid(n in 1usize..12, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = bcc_partitions::random::uniform_partition(n, &mut rng);
        prop_assert_eq!(p.ground_size(), n);
        // RGS validity is enforced by construction; blocks() must cover.
        let total: usize = p.blocks().iter().map(Vec::len).sum();
        prop_assert_eq!(total, n);
    }

    #[test]
    fn bell_recurrence(n in 1usize..20) {
        // B_{n+1} = sum_k C(n, k) B_k.
        let bells = numbers::bell_numbers_upto(n + 1);
        let mut sum: u128 = 0;
        for (k, &bell) in bells.iter().enumerate().take(n + 1) {
            let choose = numbers::factorial(n) / numbers::factorial(k) / numbers::factorial(n - k);
            sum += choose * bell;
        }
        prop_assert_eq!(sum, bells[n + 1]);
    }
}
