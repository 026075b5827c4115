//! E3 — Theorem 2.3 and Lemma 4.1: exact ranks of `M_n` and `E_n`.

use crate::job::{job_seed, sort_by_shard, ExpJob, JobOutput, Report};
use bcc_comm::bounds::certify_rank;
use bcc_engine::artifacts::{bell_table, join_matrix_rank, two_partition_rank};
use bcc_partitions::matrices::{partition_join_matrix, two_partition_matrix};
use bcc_partitions::numbers::{log2_bell, num_matching_partitions};
use std::fmt::Write as _;

/// One rank row.
#[derive(Debug, Clone)]
pub struct RankRow {
    /// Which matrix (`"M"` or `"E"`).
    pub matrix: &'static str,
    /// Ground-set size.
    pub n: usize,
    /// Matrix dimension (`B_n` or `(n−1)!!`).
    pub dim: usize,
    /// Exact rank over GF(2⁶¹−1).
    pub rank: usize,
    /// Rank over GF(2) (cross-check; may be smaller).
    pub rank_gf2: usize,
    /// `log₂ rank` — the communication bound.
    pub log2_rank: f64,
    /// `n·log₂ n` for shape comparison.
    pub n_log_n: f64,
}

fn m_row(n: usize) -> RankRow {
    let jm = partition_join_matrix(n);
    let cert = certify_rank(&jm);
    RankRow {
        matrix: "M",
        n,
        dim: cert.dim,
        rank: cert.rank,
        // Cached cross-check rank: the artifact store front returns
        // exactly `partition_join_matrix(n).to_gf2().rank()`.
        rank_gf2: join_matrix_rank(crate::cache::store(), n),
        log2_rank: cert.comm_lower_bound_bits,
        n_log_n: n as f64 * (n.max(2) as f64).log2(),
    }
}

fn e_row(n: usize) -> RankRow {
    let jm = two_partition_matrix(n);
    let cert = certify_rank(&jm);
    RankRow {
        matrix: "E",
        n,
        dim: cert.dim,
        rank: cert.rank,
        rank_gf2: two_partition_rank(crate::cache::store(), n),
        log2_rank: cert.comm_lower_bound_bits,
        n_log_n: n as f64 * (n.max(2) as f64).log2(),
    }
}

/// The M_n series (keep `n ≤ 7`: `B_7 = 877`).
pub fn m_series(max_n: usize) -> Vec<RankRow> {
    (1..=max_n).map(m_row).collect()
}

/// The E_n series (keep `n ≤ 10`: `9!! = 945`).
pub fn e_series(max_n: usize) -> Vec<RankRow> {
    (1..=max_n / 2).map(|k| e_row(2 * k)).collect()
}

fn row_output(shard: u32, row: &RankRow) -> JobOutput {
    let text = format!(
        "{:>3} {:>3} {:>7} {:>7} {:>8} {:>10.2} {:>9.2}\n",
        row.matrix, row.n, row.dim, row.rank, row.rank_gf2, row.log2_rank, row.n_log_n
    );
    JobOutput::new("e3", shard, format!("{} n={}", row.matrix, row.n))
        .value("matrix", row.matrix)
        .value("n", row.n)
        .value("dim", row.dim)
        .value("rank", row.rank)
        .value("rank_gf2", row.rank_gf2)
        .value("log2_rank", row.log2_rank)
        .check("full rank over GF(2^61-1)", row.rank == row.dim)
        .text(text)
}

fn bounds(quick: bool) -> (usize, usize) {
    if quick {
        (5, 6)
    } else {
        (7, 10)
    }
}

/// One rank-certificate job per matrix instance (`M_1..M_max`,
/// `E_2, E_4, ..`): the rank computations are independent and the
/// larger ones dominate the runtime, so they parallelize well.
pub fn jobs(quick: bool, suite_seed: u64) -> Vec<ExpJob> {
    let (m_max, e_max) = bounds(quick);
    let mut jobs = Vec::new();
    let mut shard = 0u32;
    for n in 1..=m_max {
        jobs.push(ExpJob::new(
            "e3",
            shard,
            format!("M n={n}"),
            job_seed(suite_seed, "e3", shard),
            move |_ctx| row_output(shard, &m_row(n)),
        ));
        shard += 1;
    }
    for k in 1..=e_max / 2 {
        let n = 2 * k;
        jobs.push(ExpJob::new(
            "e3",
            shard,
            format!("E n={n}"),
            job_seed(suite_seed, "e3", shard),
            move |_ctx| row_output(shard, &e_row(n)),
        ));
        shard += 1;
    }
    jobs
}

/// Assembles the E3 report from its job outputs.
pub fn reduce(mut outputs: Vec<JobOutput>) -> Report {
    sort_by_shard(&mut outputs);
    let mut r = Report::new("e3", "rank certificates (Theorem 2.3, Lemma 4.1)");
    let mut text = String::new();
    writeln!(text, "== E3: rank certificates (Theorem 2.3, Lemma 4.1) ==").unwrap();
    writeln!(
        text,
        "{:>3} {:>3} {:>7} {:>7} {:>8} {:>10} {:>9}",
        "mat", "n", "dim", "rank", "rankGF2", "log2 rank", "n log2 n"
    )
    .unwrap();
    let mut all_full = true;
    for o in &outputs {
        all_full &= o.checks_pass();
        text.push_str(&o.text);
    }
    writeln!(text, "all matrices full rank over GF(2^61-1): {all_full}").unwrap();
    let m_max = outputs
        .iter()
        .filter(|o| o.label.starts_with('M'))
        .filter_map(|o| o.int("n"))
        .max()
        .unwrap_or(0) as usize;
    let e_max = outputs
        .iter()
        .filter(|o| o.label.starts_with('E'))
        .filter_map(|o| o.int("n"))
        .max()
        .unwrap_or(0) as usize;
    writeln!(
        text,
        "dim checks: B_n = {:?}; (n-1)!! = {:?}",
        // Cached Bell table B_0..B_max; dropping B_0 reproduces the
        // old `(1..=m_max).map(bell_number)` list byte for byte.
        &bell_table(crate::cache::store(), m_max)[1..],
        (1..=e_max / 2)
            .map(|k| num_matching_partitions(2 * k))
            .collect::<Vec<_>>()
    )
    .unwrap();
    writeln!(
        text,
        "asymptotic shape: log2 B_n / (n log2 n) -> const; e.g. n=30: {:.3}",
        log2_bell(30) / (30.0 * 30f64.log2())
    )
    .unwrap();
    r.param("m_max", m_max);
    r.param("e_max", e_max);
    r.value("all_full_rank", all_full);
    r.check("all matrices full rank", all_full);
    r.absorb_checks(&outputs);
    r.text = text;
    r.finalize()
}

/// Registry handle: this module's entry in [`crate::REGISTRY`].
pub struct E3;

impl crate::Experiment for E3 {
    fn id(&self) -> &'static str {
        "e3"
    }

    fn jobs(&self, quick: bool, suite_seed: u64) -> Vec<ExpJob> {
        jobs(quick, suite_seed)
    }

    fn reduce(&self, outputs: Vec<JobOutput>) -> Report {
        reduce(outputs)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_series_full_rank() {
        let r = crate::test_report("e3", true).text;
        assert!(r.contains("all matrices full rank over GF(2^61-1): true"));
    }

    #[test]
    fn log_rank_grows_superlinearly() {
        let m = super::m_series(5);
        // log2 B_n / n grows with n — the Θ(n log n) signature.
        let per_el: Vec<f64> = m.iter().skip(1).map(|r| r.log2_rank / r.n as f64).collect();
        for w in per_el.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }
}
