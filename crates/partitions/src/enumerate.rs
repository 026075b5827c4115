//! Enumeration of set-partition families.
//!
//! `all_partitions(n)` walks the `B_n` restricted growth strings in
//! lexicographic order — the input space of the `Partition` and
//! `PartitionComp` problems. `matching_partitions(n)` walks the
//! `(n−1)!!` perfect-matching partitions — the input space of
//! `TwoPartition` (Section 4.1).

use crate::partition::SetPartition;

/// Iterates over all `B_n` set partitions of `[n]` in lexicographic
/// RGS order (the finest-first order starts at `0 0 … 0`, i.e. the
/// trivial partition, and ends at `0 1 2 … n−1`, the finest).
///
/// # Example
///
/// ```
/// use bcc_partitions::enumerate::all_partitions;
///
/// assert_eq!(all_partitions(3).count(), 5); // B_3 = 5
/// ```
pub fn all_partitions(n: usize) -> AllPartitions {
    AllPartitions {
        next: Some(vec![0; n]),
    }
}

/// Iterator over all set partitions, produced by [`all_partitions`].
#[derive(Debug, Clone)]
pub struct AllPartitions {
    next: Option<Vec<usize>>,
}

impl Iterator for AllPartitions {
    type Item = SetPartition;

    fn next(&mut self) -> Option<SetPartition> {
        let current = self.next.clone()?;
        let part = SetPartition::from_rgs(current.clone()).expect("internally valid RGS");
        // Successor: increment the rightmost position that can grow.
        let n = current.len();
        let mut rgs = current;
        self.next = (|| {
            if n == 0 {
                return None;
            }
            // prefix_max[i] = max(rgs[0..i]) (i.e. before position i).
            let mut i = n;
            loop {
                if i <= 1 {
                    return None;
                }
                i -= 1;
                let prefix_max = rgs[..i].iter().copied().max().expect("nonempty prefix");
                if rgs[i] <= prefix_max {
                    rgs[i] += 1;
                    for slot in rgs.iter_mut().skip(i + 1) {
                        *slot = 0;
                    }
                    return Some(rgs);
                }
            }
        })();
        Some(part)
    }
}

/// Iterates over all perfect-matching partitions of `[n]` (every block
/// of size exactly 2), for even `n`. These are the `TwoPartition`
/// inputs; there are `(n−1)!!` of them.
///
/// # Panics
///
/// Panics if `n` is odd.
pub fn matching_partitions(n: usize) -> impl Iterator<Item = SetPartition> {
    assert!(n.is_multiple_of(2), "matching partitions need even n");
    bcc_graphs::enumerate::perfect_matchings(n)
        .into_iter()
        .map(move |pairs| {
            let blocks: Vec<Vec<usize>> = pairs.into_iter().map(|(a, b)| vec![a, b]).collect();
            SetPartition::from_blocks(n, &blocks).expect("perfect matching is a valid partition")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numbers::{bell_number, num_matching_partitions, stirling2};
    use std::collections::HashSet;

    #[test]
    fn counts_match_bell() {
        for n in 0..=9 {
            assert_eq!(all_partitions(n).count() as u128, bell_number(n), "n={n}");
        }
    }

    #[test]
    fn all_distinct() {
        let set: HashSet<SetPartition> = all_partitions(7).collect();
        assert_eq!(set.len() as u128, bell_number(7));
    }

    #[test]
    fn first_and_last() {
        let all: Vec<SetPartition> = all_partitions(4).collect();
        assert!(all.first().unwrap().is_trivial());
        assert_eq!(
            all.last().unwrap(),
            &SetPartition::finest(all[0].ground_size())
        );
    }

    #[test]
    fn zero_and_one_element() {
        assert_eq!(all_partitions(0).count(), 1);
        assert_eq!(all_partitions(1).count(), 1);
    }

    #[test]
    fn matching_partition_counts() {
        for n in [2usize, 4, 6, 8] {
            let parts: Vec<SetPartition> = matching_partitions(n).collect();
            assert_eq!(parts.len() as u128, num_matching_partitions(n), "n={n}");
            for p in &parts {
                assert!(p.is_perfect_matching());
            }
            let set: HashSet<SetPartition> = parts.into_iter().collect();
            assert_eq!(set.len() as u128, num_matching_partitions(n));
        }
    }

    #[test]
    fn partitions_with_k_blocks_match_stirling() {
        for n in 1..=7 {
            for k in 0..=n {
                assert_eq!(
                    all_partitions(n).filter(|p| p.num_blocks() == k).count() as u128,
                    stirling2(n, k),
                    "n={n} k={k}"
                );
            }
        }
    }
}
