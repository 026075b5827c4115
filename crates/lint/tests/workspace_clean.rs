//! The self-check: the real workspace must pass its own lint gate.
//! Run as part of `cargo test`, so the tier-1 suite fails if a change
//! introduces a violation without paying down the baseline.

use bcc_lint::{collect_workspace, run_all, Baseline};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn workspace_passes_baseline_check() {
    let root = repo_root();
    let ws = collect_workspace(&root).expect("workspace readable");
    let findings = run_all(&ws);
    let baseline_text =
        std::fs::read_to_string(root.join("lint-baseline.toml")).expect("baseline committed");
    let baseline = Baseline::parse(&baseline_text).expect("baseline parses");
    let (regressions, _ratchets) = baseline.check(&findings);
    assert!(
        regressions.is_empty(),
        "new lint findings over baseline: {regressions:#?}"
    );
}

#[test]
fn workspace_has_no_determinism_or_layering_findings() {
    // Determinism (D1/D2/N1), layering (K1/R1), and lock-order
    // (L1) rules carry no baseline debt: the workspace must be
    // completely clean of them, baselined or not. Only the panic
    // ratchet (P1) and bit-arithmetic ratchet (A1) hold legacy debt.
    let ws = collect_workspace(&repo_root()).expect("workspace readable");
    let findings = run_all(&ws);
    let hard: Vec<_> = findings
        .iter()
        .filter(|f| f.rule != "P1" && f.rule != "A1")
        .collect();
    assert!(hard.is_empty(), "{hard:#?}");
}

#[test]
fn binary_exits_zero_on_clean_workspace() {
    let status = Command::new(env!("CARGO_BIN_EXE_bcc-lint"))
        .args(["--root".as_ref(), repo_root().as_os_str()])
        .args(["--baseline", "check"])
        .status()
        .expect("bcc-lint runs");
    assert_eq!(status.code(), Some(0));
}

#[test]
fn binary_exits_one_on_seeded_violations() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let status = Command::new(env!("CARGO_BIN_EXE_bcc-lint"))
        .args(["--root".as_ref(), fixture.as_os_str()])
        .status()
        .expect("bcc-lint runs");
    assert_eq!(status.code(), Some(1));
}

#[test]
fn binary_exits_two_on_bad_usage() {
    let status = Command::new(env!("CARGO_BIN_EXE_bcc-lint"))
        .arg("--no-such-flag")
        .status()
        .expect("bcc-lint runs");
    assert_eq!(status.code(), Some(2));
}
