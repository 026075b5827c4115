//! F2 — Figure 2: the reduction gadgets on the paper's own example
//! partitions, plus an exhaustive Theorem 4.3 sweep.

use crate::job::{job_seed, sort_by_shard, ExpJob, JobOutput, Report};
use bcc_comm::reduction::{gadget_graph, induced_partition_on_l, verify_theorem_4_3, Gadget};
use bcc_graphs::connectivity::connected_components;
use bcc_graphs::cycles::cycle_structure;
use bcc_partitions::enumerate::{all_partitions, matching_partitions};
use bcc_partitions::SetPartition;
use std::fmt::Write as _;

fn left_figure() -> JobOutput {
    // Left figure: PA = (1,2,3)(4,5,6)(7,8), PB = (1,2,6)(3,4,7)(5,8).
    let pa = SetPartition::from_blocks(8, &[vec![0, 1, 2], vec![3, 4, 5], vec![6, 7]]).unwrap();
    let pb = SetPartition::from_blocks(8, &[vec![0, 1, 5], vec![2, 3, 6], vec![4, 7]]).unwrap();
    let g = match gadget_graph(Gadget::General, &pa, &pb) {
        Ok(g) => g,
        Err(e) => {
            return JobOutput::new("f2", 0, "left figure")
                .check("gadget graph built", false)
                .text(format!("gadget construction failed: {e}\n"))
        }
    };
    let holds = verify_theorem_4_3(Gadget::General, &pa, &pb);
    let mut out = String::new();
    writeln!(out, "-- left: general gadget, PA={pa} PB={pb}").unwrap();
    writeln!(
        out,
        "vertices: {} (a:0..8, l:8..16, r:16..24, b:24..32), edges: {}",
        g.num_vertices(),
        g.num_edges()
    )
    .unwrap();
    writeln!(out, "join PA v PB = {}", pa.join(&pb)).unwrap();
    writeln!(out, "components: {}", connected_components(&g).count).unwrap();
    writeln!(
        out,
        "induced partition on L = {}",
        induced_partition_on_l(Gadget::General, 8, &g)
    )
    .unwrap();
    writeln!(out, "Theorem 4.3 holds: {holds}").unwrap();
    JobOutput::new("f2", 0, "left figure")
        .value("vertices", g.num_vertices())
        .value("edges", g.num_edges())
        .value("components", connected_components(&g).count)
        .check("theorem 4.3 holds", holds)
        .text(out)
}

fn right_figure() -> JobOutput {
    // Right figure: PA = (1,2)(3,4)(5,6)(7,8), PB = (1,3)(2,4)(5,7)(6,8).
    let pa2 =
        SetPartition::from_blocks(8, &[vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]).unwrap();
    let pb2 =
        SetPartition::from_blocks(8, &[vec![0, 2], vec![1, 3], vec![4, 6], vec![5, 7]]).unwrap();
    let g2 = match gadget_graph(Gadget::TwoRegular, &pa2, &pb2) {
        Ok(g) => g,
        Err(e) => {
            return JobOutput::new("f2", 1, "right figure")
                .check("gadget graph built", false)
                .text(format!("gadget construction failed: {e}\n"))
        }
    };
    let s = cycle_structure(&g2).expect("2-regular");
    let holds = verify_theorem_4_3(Gadget::TwoRegular, &pa2, &pb2);
    let join_blocks = pa2.join(&pb2).num_blocks();
    let mut out = String::new();
    writeln!(out, "-- right: 2-regular gadget, PA={pa2} PB={pb2}").unwrap();
    writeln!(out, "join PA v PB = {}", pa2.join(&pb2)).unwrap();
    writeln!(
        out,
        "cycles: {:?} (count = join blocks = {join_blocks})",
        s.lengths()
    )
    .unwrap();
    writeln!(out, "Theorem 4.3 holds: {holds}").unwrap();
    JobOutput::new("f2", 1, "right figure")
        .value("cycles", s.lengths().len())
        .value("join_blocks", join_blocks)
        .check("theorem 4.3 holds", holds)
        .check(
            "cycle count = join blocks",
            s.lengths().len() == join_blocks,
        )
        .text(out)
}

fn general_sweep() -> JobOutput {
    let mut checked = 0usize;
    let mut ok = 0usize;
    for a in all_partitions(4) {
        for b in all_partitions(4) {
            checked += 1;
            if verify_theorem_4_3(Gadget::General, &a, &b) {
                ok += 1;
            }
        }
    }
    let mut out = String::new();
    writeln!(
        out,
        "Theorem 4.3 exhaustive, general gadget, n=4: {ok}/{checked}"
    )
    .unwrap();
    JobOutput::new("f2", 2, "general sweep n=4")
        .value("ok", ok)
        .value("checked", checked)
        .check("sweep exhaustively holds", ok == checked)
        .text(out)
}

fn two_regular_sweep() -> JobOutput {
    let parts: Vec<SetPartition> = matching_partitions(6).collect();
    let mut checked = 0usize;
    let mut ok = 0usize;
    for a in &parts {
        for b in &parts {
            checked += 1;
            if verify_theorem_4_3(Gadget::TwoRegular, a, b) {
                ok += 1;
            }
        }
    }
    let mut out = String::new();
    writeln!(
        out,
        "Theorem 4.3 exhaustive, 2-regular gadget, n=6: {ok}/{checked}"
    )
    .unwrap();
    JobOutput::new("f2", 3, "2-regular sweep n=6")
        .value("ok", ok)
        .value("checked", checked)
        .check("sweep exhaustively holds", ok == checked)
        .text(out)
}

/// One shard's work function.
type ShardFn = fn() -> JobOutput;

/// F2 splits into four shards: the two figure gadgets and the two
/// exhaustive Theorem 4.3 sweeps.
pub fn jobs(_quick: bool, suite_seed: u64) -> Vec<ExpJob> {
    let parts: [(u32, &'static str, ShardFn); 4] = [
        (0, "left figure", left_figure),
        (1, "right figure", right_figure),
        (2, "general sweep n=4", general_sweep),
        (3, "2-regular sweep n=6", two_regular_sweep),
    ];
    parts
        .into_iter()
        .map(|(shard, label, work)| {
            ExpJob::new(
                "f2",
                shard,
                label,
                job_seed(suite_seed, "f2", shard),
                move |_ctx| work(),
            )
        })
        .collect()
}

/// Assembles the F2 report from its job outputs.
pub fn reduce(mut outputs: Vec<JobOutput>) -> Report {
    sort_by_shard(&mut outputs);
    let mut r = Report::new("f2", "reduction gadgets G(PA, PB) (Figure 2)");
    let mut text = String::new();
    writeln!(text, "== F2: reduction gadgets G(PA, PB) (Figure 2) ==").unwrap();
    for o in &outputs {
        text.push_str(&o.text);
    }
    let sweeps_ok: u64 = outputs
        .iter()
        .filter(|o| o.label.contains("sweep"))
        .filter_map(|o| o.int("ok"))
        .sum::<i64>() as u64;
    r.value("sweep_cases_ok", sweeps_ok);
    r.absorb_checks(&outputs);
    r.text = text;
    r.finalize()
}

/// Registry handle: this module's entry in [`crate::REGISTRY`].
pub struct F2;

impl crate::Experiment for F2 {
    fn id(&self) -> &'static str {
        "f2"
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
    use super::*;

    #[test]
    fn all_sweeps_pass() {
        let r = crate::test_report("f2", false).text;
        assert!(r.contains("Theorem 4.3 holds: true"));
        assert!(r.contains("general gadget, n=4: 225/225"));
        assert!(r.contains("2-regular gadget, n=6: 225/225"));
    }

    #[test]
    fn reduce_is_order_insensitive() {
        let run = crate::RunRequest::new(["f2"], true, crate::job::DEFAULT_SEED)
            .run()
            .expect("registered id");
        let mut outs: Vec<JobOutput> = run
            .job_results
            .into_iter()
            .filter_map(|r| r.status.into_output())
            .collect();
        let forward = reduce(outs.clone());
        outs.reverse();
        let backward = reduce(outs);
        assert_eq!(forward, backward);
        assert!(forward.passed);
    }
}
