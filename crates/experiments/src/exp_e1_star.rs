//! E1 — Theorem 3.5: the warm-up star distribution. Error of
//! `t`-round algorithms vs the pigeonhole floor `Ω(3^{−4t})`.

use crate::job::{ExpJob, JobOutput, Report, Value};
use bcc_algorithms::{
    HashVoteDecider, Kt0Upgrade, NeighborIdBroadcast, ParityDecider, Problem, Truncated,
};
use bcc_core::hard::{star_distribution, star_error_floor};
use bcc_engine::{distributional_error_batched, randomized_error_batched};
use bcc_model::testing::ConstantDecision;
use bcc_trace::field;
use std::fmt::Write as _;

/// One row of the E1 series.
#[derive(Debug, Clone)]
pub struct StarRow {
    /// Instance size.
    pub n: usize,
    /// Round budget.
    pub t: usize,
    /// Analytic floor (Theorem 3.5).
    pub floor: f64,
    /// `(algorithm, measured error)`.
    pub errors: Vec<(String, f64)>,
}

/// Measures one `(n, t)` cell of the sweep.
pub fn star_row(n: usize, t: usize) -> StarRow {
    let dist = star_distribution(n);
    let mut errors = Vec::new();
    errors.push((
        "constant-yes".into(),
        distributional_error_batched(&dist, &ConstantDecision::yes(), t, 0),
    ));
    errors.push((
        "hash-vote(rand)".into(),
        randomized_error_batched(&dist, &HashVoteDecider::new(t.max(1)), t, &[0, 1, 2, 3, 4]),
    ));
    errors.push((
        "parity-vote".into(),
        distributional_error_batched(&dist, &ParityDecider::new(t.max(1)), t, 0),
    ));
    let truncated = Truncated::new(
        Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle)),
        t,
    );
    errors.push((
        "truncated-real".into(),
        distributional_error_batched(&dist, &truncated, t, 0),
    ));
    StarRow {
        n,
        t,
        floor: star_error_floor(n, t),
        errors,
    }
}

/// Runs the sweep serially (test/back-compat entry point).
pub fn sweep(ns: &[usize], ts: &[usize]) -> Vec<StarRow> {
    let mut rows = Vec::new();
    for &n in ns {
        for &t in ts {
            rows.push(star_row(n, t));
        }
    }
    rows
}

fn grid(quick: bool) -> (&'static [usize], &'static [usize]) {
    if quick {
        (&[27, 54], &[0, 1, 2])
    } else {
        // Each row materializes C(n/3, 2) crossed instances whose
        // KT-0 port tables are Θ(n²); n = 108 keeps the sweep inside
        // ~100 MB while still separating the 9^{-t} floor decay.
        (&[27, 54, 108], &[0, 1, 2, 3])
    }
}

/// Coins averaged into the `hash-vote(rand)` column.
const HASH_VOTE_COINS: [u64; 5] = [0, 1, 2, 3, 4];

/// One measured error (one algorithm, or one hash-vote coin) of one
/// `(n, t)` cell — the unit of parallelism. Each piece rebuilds the
/// star distribution (cheap next to the error evaluation) so pieces
/// are fully independent.
fn piece_output(n: usize, t: usize, algo: &str, coin: Option<u64>) -> JobOutput {
    let dist = star_distribution(n);
    let error = match (algo, coin) {
        ("constant-yes", _) => distributional_error_batched(&dist, &ConstantDecision::yes(), t, 0),
        ("hash-vote(rand)", Some(c)) => {
            distributional_error_batched(&dist, &HashVoteDecider::new(t.max(1)), t, c)
        }
        ("parity-vote", _) => {
            distributional_error_batched(&dist, &ParityDecider::new(t.max(1)), t, 0)
        }
        ("truncated-real", _) => {
            let truncated = Truncated::new(
                Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle)),
                t,
            );
            distributional_error_batched(&dist, &truncated, t, 0)
        }
        _ => unreachable!("unknown e1 piece {algo:?}"),
    };
    let floor = star_error_floor(n, t);
    let mut out = JobOutput::default()
        .value("n", n)
        .value("t", t)
        .value("floor", floor)
        .value("algo", algo)
        .value("error", error);
    if let Some(c) = coin {
        out = out.value("coin", c);
    }
    // Each piece is a deterministic algorithm (a coin pins hash-vote),
    // so Theorem 3.5's floor applies to it individually already.
    out.check("error >= min(floor, 1/2)", error + 1e-9 >= floor.min(0.5))
}

/// The job measuring one piece.
fn piece_job(n: usize, t: usize, algo: &'static str, coin: Option<u64>) -> ExpJob {
    let label = match coin {
        Some(c) => format!("n={n} t={t} {algo} c={c}"),
        None => format!("n={n} t={t} {algo}"),
    };
    ExpJob::new(label, move |ctx| {
        let out = piece_output(n, t, algo, coin);
        ctx.observer().event(
            "e1.error",
            vec![
                field("n", n),
                field("t", t),
                field("algo", algo),
                field("error", out.float("error").unwrap_or(f64::NAN)),
                field("floor", out.float("floor").unwrap_or(f64::NAN)),
            ],
        );
        ctx.observer().with(|_, m| m.counter("e1.pieces", 1));
        out
    })
}

/// One job per `(n, t, algorithm)` piece — hash-vote split further
/// per coin — plus a final transition job bracketing the bound from
/// above with the full-round algorithm. Fine shards keep the pool's
/// critical path short; `reduce` reassembles the `(n, t)` rows.
pub fn jobs(quick: bool, _suite_seed: u64) -> Vec<ExpJob> {
    let (ns, ts) = grid(quick);
    let mut jobs = Vec::new();
    for &n in ns {
        for &t in ts {
            jobs.push(piece_job(n, t, "constant-yes", None));
            for &c in &HASH_VOTE_COINS {
                jobs.push(piece_job(n, t, "hash-vote(rand)", Some(c)));
            }
            jobs.push(piece_job(n, t, "parity-vote", None));
            jobs.push(piece_job(n, t, "truncated-real", None));
        }
    }
    // The transition: once t reaches the real algorithm's round count
    // (4·⌈log₂ n⌉ on 2-regular inputs), its error drops to zero —
    // bracketing the lower bound from above.
    let n = ns[0];
    jobs.push(ExpJob::new(
                "transition",
        move |ctx| {
            let t_full = 4 * bcc_model::codec::bits_needed(n);
            let dist = star_distribution(n);
            let full = Truncated::new(
                Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle)),
                t_full,
            );
            let e_full = distributional_error_batched(&dist, &full, t_full, 0);
            ctx.observer().event(
                "e1.transition",
                vec![field("n", n), field("t_full", t_full), field("error", e_full)],
            );
            ctx.observer().with(|_, m| m.counter("e1.transition_rounds", t_full as u64));
            JobOutput::default()
                .value("n", n)
                .value("t_full", t_full)
                .value("err_full", e_full)
                .check("full algorithm exact", e_full == 0.0)
                .text(format!(
                    "transition at n={n}: truncated-real error at t={t_full} is {e_full:.4} (was 0.5 for t << log n)\n"
                ))
        },
    ));
    jobs
}

/// Assembles the E1 report from its job outputs.
pub fn reduce(outputs: Vec<JobOutput>) -> Report {
    let mut r = Report::new("e1", "Theorem 3.5 star distribution — error vs t");
    let mut text = String::new();
    writeln!(text, "== E1: Theorem 3.5 star distribution — error vs t ==").unwrap();
    writeln!(text, "floor = C(s',2)/(2 C(s,2)), s = n/3, s' = ceil(s/9^t); full algorithm needs ~4 log2(n) rounds").unwrap();
    writeln!(text, "{:>5} {:>3} {:>10}  errors", "n", "t", "floor").unwrap();
    let (pieces, rest): (Vec<&JobOutput>, Vec<&JobOutput>) =
        outputs.iter().partition(|o| o.label != "transition");
    // Reassemble each (n, t) row from its per-algorithm pieces; the
    // hash-vote coins average in shard (= coin) order, matching
    // `randomized_error` bit for bit.
    let mut all_above = true;
    let mut num_rows = 0usize;
    let mut i = 0;
    while i < pieces.len() {
        let (n, t) = (pieces[i].int("n"), pieces[i].int("t"));
        let mut j = i;
        while j < pieces.len() && pieces[j].int("n") == n && pieces[j].int("t") == t {
            j += 1;
        }
        let cell = &pieces[i..j];
        let floor = cell[0].float("floor").unwrap_or(0.0);
        let mut errors: Vec<(String, f64)> = Vec::new();
        let (mut hash_sum, mut hash_count, mut hash_pos) = (0.0f64, 0usize, None);
        for o in cell {
            let algo = match o.get("algo") {
                Some(Value::Str(s)) => s.as_str(),
                _ => continue,
            };
            let e = o.float("error").unwrap_or(0.0);
            if algo == "hash-vote(rand)" {
                if hash_pos.is_none() {
                    hash_pos = Some(errors.len());
                    errors.push((algo.to_string(), 0.0));
                }
                hash_sum += e;
                hash_count += 1;
            } else {
                errors.push((algo.to_string(), e));
            }
        }
        if let Some(p) = hash_pos {
            errors[p].1 = hash_sum / hash_count as f64;
        }
        let errs: Vec<String> = errors
            .iter()
            .map(|(name, e)| format!("{name}={e:.4}"))
            .collect();
        writeln!(
            text,
            "{:>5} {:>3} {:>10.5}  {}",
            n.unwrap_or(0),
            t.unwrap_or(0),
            floor,
            errs.join("  ")
        )
        .unwrap();
        all_above &= errors.iter().all(|&(_, e)| e + 1e-9 >= floor.min(0.5));
        num_rows += 1;
        i = j;
    }
    writeln!(text, "all measured errors >= min(floor, 1/2): {all_above}").unwrap();
    for o in &rest {
        text.push_str(&o.text);
    }
    r.param("rows", num_rows);
    r.value("all_errors_above_floor", all_above);
    r.check("all errors above floor", all_above);
    r.absorb_checks(&outputs);
    r.text = text;
    r.finalize()
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_report_shape_holds() {
        let r = crate::test_report("e1", true).text;
        assert!(r.contains("all measured errors >= min(floor, 1/2): true"));
    }

    #[test]
    fn floor_decays_with_t() {
        let rows = super::sweep(&[54], &[0, 1, 2]);
        assert!(rows[0].floor >= rows[1].floor);
        assert!(rows[1].floor >= rows[2].floor);
        assert!(rows[1].floor > 0.0);
    }
}
