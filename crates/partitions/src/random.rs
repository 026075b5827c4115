//! Exact uniform sampling of set partitions.
//!
//! The hard distribution of Theorem 4.5 draws Alice's partition `P_A`
//! uniformly at random from all `B_n` partitions. This module samples
//! that distribution *exactly* (not approximately) using Stirling-number
//! weights, so empirical entropy measurements match `log₂ B_n`.

use crate::numbers::bell_number;
use crate::partition::SetPartition;
use rand::Rng;

/// Samples a uniformly random set partition of `[n]`, exactly.
///
/// Works by first drawing the block count `k` with probability
/// `S(n, k)/B_n`, then sampling uniformly among partitions with
/// exactly `k` blocks via the recurrence
/// `S(n, k) = S(n−1, k−1) + k·S(n−1, k)`.
///
/// # Panics
///
/// Panics if `n > 39` (Bell numbers overflow `u128`).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = bcc_partitions::random::uniform_partition(8, &mut rng);
/// assert_eq!(p.ground_size(), 8);
/// ```
pub fn uniform_partition<R: Rng + ?Sized>(n: usize, rng: &mut R) -> SetPartition {
    if n == 0 {
        return SetPartition::finest(0);
    }
    assert!(n <= 39, "Bell numbers overflow u128 beyond n = 39");
    // ways[m][j] = number of ways to extend a configuration with m
    // elements still unplaced and j blocks already open:
    //   ways[m][j] = ways[m-1][j+1] + j · ways[m-1][j],  ways[0][j] = 1.
    // Then ways[n][0] = B_n, and the growth step of a uniformly random
    // RGS opens a new block with probability ways[m-1][j+1]/ways[m][j].
    let mut ways = vec![vec![0u128; n + 1]; n + 1];
    ways[0].fill(1);
    for m in 1..=n {
        for j in 0..=(n - m) {
            let open_new = ways[m - 1][j + 1];
            let join = (j as u128)
                .checked_mul(ways[m - 1][j])
                .expect("partition weights overflow u128");
            ways[m][j] = open_new
                .checked_add(join)
                .expect("partition weights overflow u128");
        }
    }
    debug_assert_eq!(ways[n][0], bell_number(n));
    let mut rgs = Vec::with_capacity(n);
    let mut open = 0usize;
    for i in 0..n {
        let remaining = n - i;
        let r = rng.gen_range(0..ways[remaining][open]);
        if r < ways[remaining - 1][open + 1] {
            rgs.push(open);
            open += 1;
        } else {
            // Join one of the `open` blocks uniformly: each contributes
            // ways[remaining-1][open] mass.
            let idx = (r - ways[remaining - 1][open + 1]) / ways[remaining - 1][open];
            rgs.push(idx as usize);
        }
    }
    SetPartition::from_rgs(rgs).expect("construction yields a valid RGS")
}

/// Samples a uniformly random *perfect-matching* partition of `[n]`
/// (all blocks size 2), for even `n` — the `TwoPartition` hard inputs.
///
/// # Panics
///
/// Panics if `n` is odd.
pub fn uniform_matching_partition<R: Rng + ?Sized>(n: usize, rng: &mut R) -> SetPartition {
    assert!(n.is_multiple_of(2), "matching partitions need even n");
    // Fisher–Yates then pair consecutive entries: uniform over matchings.
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let blocks: Vec<Vec<usize>> = perm.chunks(2).map(|c| c.to_vec()).collect();
    SetPartition::from_blocks(n, &blocks).expect("pairs form a partition")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::all_partitions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampler_produces_valid_partitions() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in 1..=10 {
            for _ in 0..20 {
                let p = uniform_partition(n, &mut rng);
                assert_eq!(p.ground_size(), n);
            }
        }
    }

    #[test]
    fn sampler_is_uniform_chi_square() {
        // n = 4: B_4 = 15 outcomes; draw 15000 samples and check each
        // outcome appears within generous bounds of 1000.
        let mut rng = StdRng::seed_from_u64(99);
        let n = 4;
        let total = 15_000usize;
        let all: Vec<_> = all_partitions(n).collect();
        let mut counts = [0usize; 15];
        for _ in 0..total {
            let p = uniform_partition(n, &mut rng);
            counts[all.iter().position(|q| *q == p).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (700..1300).contains(&c),
                "outcome {i} count {c} far from uniform 1000"
            );
        }
    }

    #[test]
    fn sampler_hits_every_partition() {
        let mut rng = StdRng::seed_from_u64(5);
        let all: Vec<_> = all_partitions(4).collect();
        let mut seen = vec![false; all.len()];
        for _ in 0..2000 {
            let p = uniform_partition(4, &mut rng);
            seen[all.iter().position(|q| *q == p).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 15 partitions sampled");
    }

    #[test]
    fn matching_sampler_valid_and_uniform_support() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let p = uniform_matching_partition(6, &mut rng);
            assert!(p.is_perfect_matching());
            seen.insert(p);
        }
        assert_eq!(seen.len(), 15, "all (6-1)!! = 15 matchings sampled");
    }

    #[test]
    fn zero_elements() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(uniform_partition(0, &mut rng).ground_size(), 0);
    }
}
