//! Exact enumeration of the instance spaces quantified over by the
//! paper's lower-bound proofs.
//!
//! Section 3 of the paper reasons about **all** one-cycle instances
//! (the YES side `V₁` of the indistinguishability graph) and **all**
//! two-cycle instances (the NO side `V₂`); Section 4.1 reasons about
//! all partitions of `[n]` into blocks of size two, which correspond to
//! perfect matchings. This module enumerates each of these spaces
//! exactly so that lemmas such as Lemma 3.9
//! (`|V₂| = |V₁|·Θ(log n)`) can be *checked*, not merely trusted.

use crate::graph::Graph;

/// Iterates over all permutations of `0..k` in lexicographic order.
///
/// # Example
///
/// ```
/// let all: Vec<_> = bcc_graphs::enumerate::permutations(3).collect();
/// assert_eq!(all.len(), 6);
/// assert_eq!(all[0], vec![0, 1, 2]);
/// assert_eq!(all[5], vec![2, 1, 0]);
/// ```
pub fn permutations(k: usize) -> Permutations {
    Permutations {
        next: Some((0..k).collect()),
    }
}

/// Iterator over permutations, produced by [`permutations`].
#[derive(Debug, Clone)]
pub struct Permutations {
    next: Option<Vec<usize>>,
}

impl Iterator for Permutations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.clone()?;
        // Compute the lexicographic successor of `current`.
        let mut succ = current.clone();
        let n = succ.len();
        self.next = (|| {
            if n < 2 {
                return None;
            }
            let mut i = n - 1;
            while i > 0 && succ[i - 1] >= succ[i] {
                i -= 1;
            }
            if i == 0 {
                return None;
            }
            let mut j = n - 1;
            while succ[j] <= succ[i - 1] {
                j -= 1;
            }
            succ.swap(i - 1, j);
            succ[i..].reverse();
            Some(succ)
        })();
        Some(current)
    }
}

/// All distinct cyclic orders of `0..k` as vertex sequences, one
/// representative per undirected cycle: the sequence starts at `0` and
/// its second element is smaller than its last (killing rotation and
/// reflection). There are `(k-1)!/2` of them for `k >= 3`.
pub fn cycle_orders(k: usize) -> impl Iterator<Item = Vec<usize>> {
    assert!(k >= 3, "cycles need length >= 3, got {k}");
    permutations(k - 1).filter_map(move |perm| {
        // perm is a permutation of 0..k-1; shift by 1 to permute 1..k.
        let rest: Vec<usize> = perm.into_iter().map(|x| x + 1).collect();
        if rest[0] < rest[k - 2] {
            let mut order = Vec::with_capacity(k);
            order.push(0);
            order.extend(rest);
            Some(order)
        } else {
            None
        }
    })
}

/// Number of distinct labeled one-cycle graphs on `n` vertices:
/// `(n-1)!/2`.
///
/// # Panics
///
/// Panics if `n < 3` or the count overflows `u64`.
pub fn num_one_cycles(n: usize) -> u64 {
    assert!(n >= 3, "cycles need length >= 3");
    let mut f: u64 = 1;
    for i in 2..n as u64 {
        f = f.checked_mul(i).expect("one-cycle count overflows u64");
    }
    f / 2
}

/// All labeled one-cycle graphs on vertices `0..n` (the set `V₁` of
/// Definition 3.6), enumerated lazily.
pub fn one_cycles(n: usize) -> impl Iterator<Item = Graph> {
    cycle_orders(n).map(move |order| crate::generators::cycle_from_order(&order))
}

/// All distinct cycles (as graphs on `0..n`) whose support is exactly
/// the vertex set `verts`.
pub fn cycles_on(n: usize, verts: &[usize]) -> Vec<Graph> {
    let k = verts.len();
    assert!(k >= 3, "cycles need length >= 3");
    let verts = verts.to_vec();
    cycle_orders(k)
        .map(|order| {
            let mut g = Graph::new(n);
            for i in 0..k {
                g.add_edge(verts[order[i]], verts[order[(i + 1) % k]])
                    .expect("cycle edges valid");
            }
            g
        })
        .collect()
}

/// All size-`k` subsets of `0..n` in lexicographic order.
pub fn subsets(n: usize, k: usize) -> impl Iterator<Item = Vec<usize>> {
    Subsets {
        n,
        next: if k <= n { Some((0..k).collect()) } else { None },
    }
}

/// Iterator over fixed-size subsets, produced by [`subsets`].
#[derive(Debug, Clone)]
pub struct Subsets {
    n: usize,
    next: Option<Vec<usize>>,
}

impl Iterator for Subsets {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.clone()?;
        let k = current.len();
        let mut succ = current.clone();
        self.next = (|| {
            if k == 0 {
                return None;
            }
            let mut i = k;
            loop {
                if i == 0 {
                    return None;
                }
                i -= 1;
                if succ[i] != i + self.n - k {
                    break;
                }
            }
            succ[i] += 1;
            for j in (i + 1)..k {
                succ[j] = succ[j - 1] + 1;
            }
            Some(succ)
        })();
        Some(current)
    }
}

/// All two-cycle graphs on `0..n`: every split of the vertex set into
/// two parts of size ≥ 3 with every pair of cycles on the parts. This
/// is the set `V₂` of Definition 3.6. Enumerated lazily; there are
/// `Θ(|V₁|·log n)` of them (Lemma 3.9).
pub fn two_cycle_graphs(n: usize) -> impl Iterator<Item = Graph> {
    assert!(n >= 6, "two cycles need at least 6 vertices");
    // The part containing vertex 0 ranges over subsets of 1..n of size
    // a-1 for a in 3..=n-3; fixing 0's side avoids double counting.
    (3..=n - 3).flat_map(move |a| {
        subsets(n - 1, a - 1).flat_map(move |rest| {
            let mut part_a: Vec<usize> = vec![0];
            part_a.extend(rest.iter().map(|&x| x + 1));
            let part_b: Vec<usize> = (1..n).filter(|v| !part_a.contains(v)).collect();
            let cycles_a = cycles_on(n, &part_a);
            let cycles_b = cycles_on(n, &part_b);
            let mut out = Vec::with_capacity(cycles_a.len() * cycles_b.len());
            for ca in &cycles_a {
                for cb in &cycles_b {
                    let mut g = ca.clone();
                    for e in cb.edges() {
                        g.add_edge(e.u, e.v).expect("disjoint parts");
                    }
                    out.push(g);
                }
            }
            out
        })
    })
}

/// All perfect matchings of `0..n` as sorted pair lists (requires `n`
/// even). There are `(n-1)!! = n!/(2^{n/2}·(n/2)!)` of them — exactly
/// the instances of the paper's `TwoPartition` problem (Section 4.1).
pub fn perfect_matchings(n: usize) -> Vec<Vec<(usize, usize)>> {
    assert!(
        n.is_multiple_of(2),
        "perfect matchings need an even number of vertices"
    );
    let mut out = Vec::new();
    let mut used = vec![false; n];
    let mut current = Vec::new();
    fn recurse(
        n: usize,
        used: &mut [bool],
        current: &mut Vec<(usize, usize)>,
        out: &mut Vec<Vec<(usize, usize)>>,
    ) {
        let Some(first) = (0..n).find(|&v| !used[v]) else {
            out.push(current.clone());
            return;
        };
        used[first] = true;
        for partner in (first + 1)..n {
            if used[partner] {
                continue;
            }
            used[partner] = true;
            current.push((first, partner));
            recurse(n, used, current, out);
            current.pop();
            used[partner] = false;
        }
        used[first] = false;
    }
    recurse(n, &mut used, &mut current, &mut out);
    out
}

/// Number of two-cycle graphs on `n` vertices, computed from the split
/// formula `Σ_{a=3}^{n/2} C(n, a)·(a-1)!/2·(n-a-1)!/2` (halving the
/// `a = n/2` term to avoid double-counting equal splits).
pub fn num_two_cycles(n: usize) -> u64 {
    assert!(n >= 6);
    let fact = |k: usize| -> u128 { (1..=k as u128).product() };
    let choose = |n: usize, k: usize| -> u128 { fact(n) / fact(k) / fact(n - k) };
    let cycles = |k: usize| -> u128 {
        if k == 3 {
            1
        } else {
            fact(k - 1) / 2
        }
    };
    let mut total: u128 = 0;
    for a in 3..=n / 2 {
        let b = n - a;
        let mut term = choose(n, a) * cycles(a) * cycles(b);
        if a == b {
            term /= 2;
        }
        total += term;
    }
    u64::try_from(total).expect("two-cycle count overflows u64")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles::cycle_structure;
    use std::collections::HashSet;

    #[test]
    fn permutation_counts() {
        assert_eq!(permutations(0).count(), 1);
        assert_eq!(permutations(1).count(), 1);
        assert_eq!(permutations(4).count(), 24);
        let all: HashSet<Vec<usize>> = permutations(4).collect();
        assert_eq!(all.len(), 24);
    }

    #[test]
    fn cycle_order_counts() {
        // (k-1)!/2 for k >= 3: 1, 3, 12, 60.
        assert_eq!(cycle_orders(3).count(), 1);
        assert_eq!(cycle_orders(4).count(), 3);
        assert_eq!(cycle_orders(5).count(), 12);
        assert_eq!(cycle_orders(6).count(), 60);
    }

    #[test]
    fn num_one_cycles_formula() {
        assert_eq!(num_one_cycles(3), 1);
        assert_eq!(num_one_cycles(4), 3);
        assert_eq!(num_one_cycles(5), 12);
        assert_eq!(num_one_cycles(8), 2520);
    }

    #[test]
    fn one_cycles_distinct_and_valid() {
        for n in 3..=7 {
            let graphs: Vec<Graph> = one_cycles(n).collect();
            assert_eq!(graphs.len() as u64, num_one_cycles(n));
            let keys: HashSet<_> = graphs.iter().map(Graph::canonical_key).collect();
            assert_eq!(keys.len(), graphs.len(), "duplicates at n={n}");
            for g in &graphs {
                assert_eq!(cycle_structure(g).unwrap().count(), 1);
            }
        }
    }

    #[test]
    fn subsets_counts() {
        assert_eq!(subsets(5, 2).count(), 10);
        assert_eq!(subsets(5, 0).count(), 1);
        assert_eq!(subsets(5, 5).count(), 1);
        assert_eq!(subsets(3, 4).count(), 0);
        let all: Vec<_> = subsets(4, 2).collect();
        assert_eq!(all[0], vec![0, 1]);
        assert_eq!(all[5], vec![2, 3]);
    }

    #[test]
    fn two_cycle_counts_match_formula() {
        for n in 6..=8 {
            let graphs: Vec<Graph> = two_cycle_graphs(n).collect();
            assert_eq!(graphs.len() as u64, num_two_cycles(n), "n={n}");
            let keys: HashSet<_> = graphs.iter().map(Graph::canonical_key).collect();
            assert_eq!(keys.len(), graphs.len(), "duplicates at n={n}");
            for g in &graphs {
                assert_eq!(cycle_structure(g).unwrap().count(), 2, "n={n}");
            }
        }
    }

    #[test]
    fn num_two_cycles_small_values() {
        // n = 6: splits (3,3): C(6,3)/2 * 1 * 1 = 10.
        assert_eq!(num_two_cycles(6), 10);
        // n = 7: split (3,4): C(7,3) * 1 * 3 = 105.
        assert_eq!(num_two_cycles(7), 105);
    }

    #[test]
    fn perfect_matching_counts() {
        assert_eq!(perfect_matchings(2).len(), 1);
        assert_eq!(perfect_matchings(4).len(), 3);
        assert_eq!(perfect_matchings(6).len(), 15);
        assert_eq!(perfect_matchings(8).len(), 105);
        // Each matching covers every vertex exactly once.
        for m in perfect_matchings(6) {
            let mut seen = [false; 6];
            for (u, v) in m {
                assert!(!seen[u] && !seen[v]);
                seen[u] = true;
                seen[v] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn cycles_on_subset() {
        let cs = cycles_on(6, &[1, 3, 4, 5]);
        assert_eq!(cs.len(), 3);
        for g in &cs {
            assert_eq!(g.degree(0), 0);
            assert_eq!(g.degree(2), 0);
            assert_eq!(g.degree(1), 2);
            assert_eq!(g.num_edges(), 4);
        }
    }
}
