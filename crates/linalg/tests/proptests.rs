//! Property-based tests for the exact linear algebra kernel.

use bcc_linalg::{Gf2Matrix, GfP, Matrix};
use proptest::prelude::*;

fn arb_gfp() -> impl Strategy<Value = GfP> {
    any::<u64>().prop_map(GfP::new)
}

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1usize..=max_dim, 1usize..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(any::<u64>(), r * c)
            .prop_map(move |vals| Matrix::from_fn(r, c, |i, j| GfP::new(vals[i * c + j])))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn field_axioms(a in arb_gfp(), b in arb_gfp(), c in arb_gfp()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + GfP::ZERO, a);
        prop_assert_eq!(a * GfP::ONE, a);
        prop_assert_eq!(a - a, GfP::ZERO);
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse(), GfP::ONE);
        }
    }

    #[test]
    fn sub_is_add_neg(a in arb_gfp(), b in arb_gfp()) {
        prop_assert_eq!(a - b, a + (-b));
    }

    #[test]
    fn rank_bounded_by_dims(m in arb_matrix(6)) {
        let r = m.rank();
        prop_assert!(r <= m.num_rows().min(m.num_cols()));
    }

    #[test]
    fn rank_of_product_sylvester(n in 1usize..5, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(n, n, |_, _| GfP::new(rng.gen_range(0..5)));
        let b = Matrix::from_fn(n, n, |_, _| GfP::new(rng.gen_range(0..5)));
        let ab = a.mul(&b);
        // rank(AB) <= min(rank A, rank B) and >= rank A + rank B - n.
        prop_assert!(ab.rank() <= a.rank().min(b.rank()));
        prop_assert!(ab.rank() + n >= a.rank() + b.rank());
    }

    #[test]
    fn duplicating_a_row_keeps_rank(m in arb_matrix(5)) {
        let r = m.num_rows();
        let dup = Matrix::from_fn(r + 1, m.num_cols(), |i, j| {
            m.get(i.min(r - 1), j)
        });
        prop_assert_eq!(dup.rank(), m.rank());
    }

    #[test]
    fn gf2_rank_le_gfp_rank_for_01(n in 1usize..7, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bits: Vec<bool> = (0..n * n).map(|_| rng.gen()).collect();
        let g2 = Gf2Matrix::from_fn(n, n, |i, j| bits[i * n + j]);
        let gp = Matrix::from_fn(n, n, |i, j| {
            if bits[i * n + j] { GfP::ONE } else { GfP::ZERO }
        });
        prop_assert!(g2.rank() <= gp.rank());
    }

}
