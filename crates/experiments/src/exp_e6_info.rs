//! E6 — Theorem 4.5: exact information accounting for
//! `PartitionComp` under the hard distribution.

use crate::job::{ExpJob, JobOutput, Report};
use bcc_comm::protocols::trivial_message_bits;
use bcc_core::infobound::{implied_round_lower_bound, partition_comp_information};
use std::fmt::Write as _;

fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[3, 4, 5]
    } else {
        &[3, 4, 5, 6, 7, 8]
    }
}

/// One exact-enumeration job per ground-set size plus the bit-budget
/// sweep at one size.
pub fn jobs(quick: bool, _suite_seed: u64) -> Vec<ExpJob> {
    let ns = sizes(quick);
    let mut jobs = Vec::new();
    for &n in ns {
        jobs.push(ExpJob::new(format!("info n={n}"), move |_ctx| {
            let r = partition_comp_information(n, None);
            let text = format!(
                "{:>3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>7} {:>6.3} {:>10}\n",
                n,
                r.input_entropy,
                r.transcript_entropy,
                r.mutual_information,
                r.conditional_entropy,
                r.max_transcript_bits,
                r.error,
                r.chain_holds()
            );
            JobOutput::default()
                .value("n", n)
                .value("input_entropy", r.input_entropy)
                .value("transcript_entropy", r.transcript_entropy)
                .value("mutual_information", r.mutual_information)
                .value("conditional_entropy", r.conditional_entropy)
                .value("max_transcript_bits", r.max_transcript_bits)
                .value("error", r.error)
                .check("information chain holds", r.chain_holds())
                .text(text)
        }));
    }

    // Budget sweep at one size: information rises to H(PA), error
    // falls to 0 only once the budget covers Alice's message.
    let n = if quick { 4 } else { 5 };
    jobs.push(ExpJob::new(format!("budget sweep n={n}"), move |_ctx| {
        let full = trivial_message_bits(n);
        let mut text = String::new();
        writeln!(
            text,
            "-- bit-budget sweep at n={n} (Alice's message = {full} bits)"
        )
        .unwrap();
        writeln!(
            text,
            "{:>7} {:>9} {:>6} {:>13}",
            "budget", "I(PA;Pi)", "err", "implied rnds"
        )
        .unwrap();
        let budgets: Vec<usize> = (0..=full + 2).step_by((full / 6).max(1)).collect();
        let mut chain_ok = true;
        let mut final_error = f64::NAN;
        for b in budgets {
            let r = partition_comp_information(n, Some(b));
            writeln!(
                text,
                "{:>7} {:>9.3} {:>6.3} {:>13.3}",
                b,
                r.mutual_information,
                r.error,
                implied_round_lower_bound(&r, 2 * 4 * n + 2)
            )
            .unwrap();
            chain_ok &= r.chain_holds();
            final_error = r.error;
        }
        writeln!(text, "all rows satisfy |Pi| >= H(Pi) >= I >= (1-err)·H(PA)").unwrap();
        JobOutput::default()
            .value("n", n)
            .value("alice_message_bits", full)
            .value("final_error", final_error)
            .check("chain holds at every budget", chain_ok)
            .check("error vanishes at full budget", final_error == 0.0)
            .text(text)
    }));
    jobs
}

/// Assembles the E6 report from its job outputs.
pub fn reduce(outputs: Vec<JobOutput>) -> Report {
    let mut r = Report::new("e6", "PartitionComp information accounting (Theorem 4.5)");
    let mut text = String::new();
    writeln!(
        text,
        "== E6: PartitionComp information accounting (Theorem 4.5) =="
    )
    .unwrap();
    writeln!(
        text,
        "hard distribution: PA uniform over B_n partitions, PB = finest; exact enumeration"
    )
    .unwrap();
    writeln!(
        text,
        "{:>3} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6} {:>10}",
        "n", "H(PA)", "H(Pi)", "I(PA;Pi)", "H(PA|Pi)", "|Pi|", "err", "chain"
    )
    .unwrap();
    for o in outputs.iter().filter(|o| o.label.starts_with("info")) {
        text.push_str(&o.text);
    }
    for o in outputs.iter().filter(|o| o.label.starts_with("budget")) {
        text.push_str(&o.text);
    }
    let infos = outputs
        .iter()
        .filter(|o| o.label.starts_with("info"))
        .count();
    r.param("info_rows", infos);
    r.absorb_checks(&outputs);
    r.text = text;
    r.finalize()
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_runs_and_chain_holds() {
        let r = crate::test_report("e6", true).text;
        assert!(r.contains("all rows satisfy"));
        assert!(!r.contains("false"));
    }

    #[test]
    fn reduced_report_passes() {
        let rep = crate::test_report("e6", true);
        assert!(rep.passed, "failed checks: {:?}", rep.checks);
    }
}
