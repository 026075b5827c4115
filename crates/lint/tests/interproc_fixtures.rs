//! The interprocedural fixture workspace under `tests/fixtures/ws2`:
//! an N1 taint chain crossing from `alpha` into `beta`, an L1 cycle
//! in `gamma`, a serve-rank inversion in `delta`, A1 arithmetic in
//! `acct` — plus the CLI's determinism and `--explain` contracts.

use bcc_lint::{collect_workspace, run_all, Finding};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws2")
}

fn findings() -> Vec<Finding> {
    let ws = collect_workspace(&fixture_root()).expect("fixture readable");
    run_all(&ws)
}

#[test]
fn n1_fires_once_with_a_cross_crate_chain() {
    let f = findings();
    let n1: Vec<_> = f.iter().filter(|x| x.rule == "N1").collect();
    assert_eq!(n1.len(), 1, "{n1:#?}");
    let hit = n1[0];
    assert_eq!(hit.file, "crates/beta/src/lib.rs");
    // Chain runs sink-side first: beta::emit -> alpha::relay ->
    // alpha::shuffled_totals -> the source token.
    assert!(hit.chain.len() >= 3, "{:?}", hit.chain);
    assert!(hit.chain.first().expect("chain nonempty").contains("beta"));
    assert!(hit.chain.iter().any(|c| c.contains("alpha")));
    assert!(hit
        .chain
        .last()
        .expect("chain nonempty")
        .contains("HashMap"));
}

#[test]
fn l1_reports_the_cycle_and_the_rank_inversion_only() {
    let f = findings();
    let l1: Vec<_> = f.iter().filter(|x| x.rule == "L1").collect();
    assert_eq!(l1.len(), 2, "{l1:#?}");
    assert!(l1
        .iter()
        .any(|x| x.message.contains("cycle") && x.file == "crates/gamma/src/lib.rs"));
    assert!(l1
        .iter()
        .any(|x| x.message.contains("canonical serve lock order")
            && x.file == "crates/delta/src/lib.rs"));
}

#[test]
fn a1_distinguishes_justified_and_bare_allows() {
    let f = findings();
    let a1: Vec<_> = f.iter().filter(|x| x.rule == "A1").collect();
    assert_eq!(a1.len(), 4, "{a1:#?}");
    assert!(a1.iter().any(|x| x.snippet.contains("bits_sent + n")));
    assert!(a1.iter().any(|x| x.message.contains("no justification")));
    assert!(a1.iter().any(|x| x.snippet.contains("rounds_run += 1")));
    assert!(a1
        .iter()
        .any(|x| x.snippet.contains("x += out.stats().rounds")));
}

#[test]
fn json_output_is_byte_identical_across_runs() {
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_bcc-lint"))
            .args(["--root".as_ref(), fixture_root().as_os_str()])
            .args(["--format", "json"])
            .output()
            .expect("bcc-lint runs")
            .stdout
    };
    let once = run();
    assert!(!once.is_empty());
    assert_eq!(once, run(), "repeated runs must be byte-identical");
}

#[test]
fn sarif_output_is_wellformed_and_stable() {
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_bcc-lint"))
            .args(["--root".as_ref(), fixture_root().as_os_str()])
            .args(["--format", "sarif"])
            .output()
            .expect("bcc-lint runs")
            .stdout
    };
    let a = run();
    assert_eq!(a, run());
    let text = String::from_utf8(a).expect("sarif is utf-8");
    assert!(text.contains("\"version\":\"2.1.0\""));
    assert!(text.contains("\"ruleId\":\"N1\""));
    assert!(text.contains("\"ruleId\":\"L1\""));
    assert!(text.contains("\"ruleId\":\"A1\""));
}

#[test]
fn explain_knows_every_rule_and_rejects_unknown_ones() {
    for rule in bcc_lint::rules::ALL_RULES {
        let out = Command::new(env!("CARGO_BIN_EXE_bcc-lint"))
            .args(["--explain", rule])
            .output()
            .expect("bcc-lint runs");
        assert!(out.status.success(), "--explain {rule} failed");
        assert!(!out.stdout.is_empty(), "--explain {rule} printed nothing");
    }
    let bad = Command::new(env!("CARGO_BIN_EXE_bcc-lint"))
        .args(["--explain", "Z9"])
        .output()
        .expect("bcc-lint runs");
    assert_eq!(bad.status.code(), Some(2));
}
