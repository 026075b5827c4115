//! Bell numbers, Stirling numbers and double factorials.
//!
//! The counting facts the paper leans on: the number of set partitions
//! of `[n]` is the Bell number `B_n = 2^{Θ(n log n)}` (so
//! `H(P_A) = log₂ B_n = Θ(n log n)` in Theorem 4.5), and the number of
//! all-blocks-size-2 partitions of `[n]` is
//! `r = n!/(2^{n/2}·(n/2)!) = (n−1)!!` (Lemma 4.1).

/// The Bell number `B_n`, exactly, for `n ≤ 39`.
///
/// Computed via the Bell triangle (Aitken's array).
///
/// # Panics
///
/// Panics if the value would overflow `u128` (first at `n = 40`).
///
/// # Example
///
/// ```
/// assert_eq!(bcc_partitions::numbers::bell_number(5), 52);
/// ```
pub fn bell_number(n: usize) -> u128 {
    *bell_numbers_upto(n).last().expect("nonempty for any n")
}

/// All Bell numbers `B_0 … B_n`.
///
/// # Panics
///
/// Panics on `u128` overflow (first at `n = 40`).
pub fn bell_numbers_upto(n: usize) -> Vec<u128> {
    let mut out = Vec::with_capacity(n + 1);
    out.push(1u128); // B_0
    let mut row: Vec<u128> = vec![1];
    for _ in 1..=n {
        let mut next = Vec::with_capacity(row.len() + 1);
        next.push(*row.last().expect("row nonempty"));
        for &x in &row {
            let prev = *next.last().expect("nonempty");
            next.push(prev.checked_add(x).expect("Bell number overflows u128"));
        }
        out.push(next[0]);
        row = next;
    }
    out.truncate(n + 1);
    out
}

/// `log₂ B_n` as `f64`, for any `n` (no overflow; uses the recurrence
/// in log space with compensated summation over the Bell triangle is
/// unnecessary — we use exact u128 when possible and Dobinski-style
/// bounding otherwise).
///
/// For `n ≤ 39` this is exact (from the integer value); for larger `n`
/// it uses the Berend–Tassa upper bound form `B_n < (0.792·n/ln(n+1))^n`
/// averaged with the trivial lower bound `B_n ≥ (n/e)^n / e^{...}` via
/// the known asymptotic `log B_n = n·log n − n·log log n − n·log e + o(n)`;
/// accuracy is sufficient for plotting Θ(n log n) series.
pub fn log2_bell(n: usize) -> f64 {
    if n <= 39 {
        let b = bell_number(n);
        // log2 of a u128 via conversion through f64 (exact enough: B_39
        // has ~128 bits, f64 has 53-bit mantissa → relative error ~1e-16).
        return (b as f64).log2();
    }
    let nf = n as f64;
    // Asymptotic expansion of ln B_n (de Bruijn):
    // ln B_n ≈ n(ln n − ln ln n − 1 + ln ln n/ln n + 1/ln n).
    let ln_n = nf.ln();
    let ln_ln = ln_n.ln();
    let ln_b = nf * (ln_n - ln_ln - 1.0 + ln_ln / ln_n + 1.0 / ln_n);
    ln_b / std::f64::consts::LN_2
}

/// Stirling number of the second kind `S(n, k)`: partitions of `[n]`
/// into exactly `k` blocks.
///
/// # Panics
///
/// Panics on `u128` overflow.
// bcc-lint: allow(U1): closed-form count oracle that the partition enumeration is tested against
pub fn stirling2(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    if n == 0 {
        return 1; // S(0, 0) = 1
    }
    if k == 0 {
        return 0;
    }
    // DP over rows: S(n, k) = k·S(n−1, k) + S(n−1, k−1).
    let mut row = vec![0u128; k + 1];
    row[0] = 1; // S(0, 0)
    for _ in 1..=n {
        let mut next = vec![0u128; k + 1];
        for j in 1..=k {
            let term = (j as u128)
                .checked_mul(row[j])
                .and_then(|t| t.checked_add(row[j - 1]))
                .expect("Stirling number overflows u128");
            next[j] = term;
        }
        row = next;
    }
    row[k]
}

/// The double factorial `(n−1)!! = 1·3·5·…·(n−1)` for even `n`: the
/// number of perfect-matching partitions of `[n]`, i.e. the dimension
/// `r` of the matrix `E_n` in Lemma 4.1.
///
/// # Panics
///
/// Panics if `n` is odd or on overflow.
pub fn num_matching_partitions(n: usize) -> u128 {
    assert!(n.is_multiple_of(2), "matching partitions need even n");
    let mut acc: u128 = 1;
    let mut k: u128 = 1;
    while k < n as u128 {
        acc = acc.checked_mul(k).expect("double factorial overflows u128");
        k += 2;
    }
    acc
}

/// `n!` as `u128`.
///
/// # Panics
///
/// Panics on overflow (first at `n = 35`).
pub fn factorial(n: usize) -> u128 {
    (1..=n as u128)
        .try_fold(1u128, u128::checked_mul)
        .expect("factorial overflows u128")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bell_sequence() {
        // OEIS A000110.
        let expect: [u128; 11] = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975];
        for (n, &e) in expect.iter().enumerate() {
            assert_eq!(bell_number(n), e, "B_{n}");
        }
        assert_eq!(bell_numbers_upto(10), expect.to_vec());
    }

    #[test]
    fn bell_equals_stirling_sum() {
        for n in 0..=12 {
            let sum: u128 = (0..=n).map(|k| stirling2(n, k)).sum();
            assert_eq!(sum, bell_number(n), "n={n}");
        }
    }

    #[test]
    fn stirling_values() {
        // OEIS A008277 rows.
        assert_eq!(stirling2(4, 2), 7);
        assert_eq!(stirling2(5, 3), 25);
        assert_eq!(stirling2(6, 1), 1);
        assert_eq!(stirling2(6, 6), 1);
        assert_eq!(stirling2(3, 5), 0);
        assert_eq!(stirling2(0, 0), 1);
        assert_eq!(stirling2(5, 0), 0);
    }

    #[test]
    fn matching_partition_counts() {
        assert_eq!(num_matching_partitions(2), 1);
        assert_eq!(num_matching_partitions(4), 3);
        assert_eq!(num_matching_partitions(6), 15);
        assert_eq!(num_matching_partitions(8), 105);
        assert_eq!(num_matching_partitions(10), 945);
        assert_eq!(num_matching_partitions(12), 10395);
        // Cross-check the paper's closed form n!/(2^{n/2}·(n/2)!).
        for n in (2..=16).step_by(2) {
            let formula = factorial(n) / (1u128 << (n / 2)) / factorial(n / 2);
            assert_eq!(num_matching_partitions(n), formula, "n={n}");
        }
    }

    #[test]
    fn log2_bell_exact_region() {
        assert!((log2_bell(5) - (52f64).log2()).abs() < 1e-12);
        assert_eq!(log2_bell(0), 0.0);
    }

    #[test]
    fn log2_bell_growth_is_n_log_n() {
        // The Θ(n log n) shape: log2_bell(n) / (n·log2 n) should be
        // bounded and slowly varying.
        for &n in &[50usize, 100, 500, 1000] {
            let ratio = log2_bell(n) / (n as f64 * (n as f64).log2());
            assert!(ratio > 0.3 && ratio < 1.0, "n={n} ratio={ratio}");
        }
    }

    #[test]
    fn log2_bell_continuous_at_switchover() {
        // n = 39 (exact) vs n = 40 (asymptotic) should be close.
        let a = log2_bell(39);
        let b = log2_bell(40);
        assert!(b > a && b - a < 10.0, "a={a} b={b}");
    }

    #[test]
    fn factorial_values() {
        assert_eq!(factorial(0), 1);
        assert_eq!(factorial(5), 120);
        assert_eq!(factorial(10), 3628800);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn matching_partitions_odd_panics() {
        num_matching_partitions(5);
    }
}
