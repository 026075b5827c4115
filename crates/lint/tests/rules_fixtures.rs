//! Per-rule behaviour on the seeded-violation fixture workspaces under
//! `tests/fixtures/` (a directory the real workspace walk skips):
//! `ws/` for the token rules, `ws3/` for U1, `ws4/` for G1.

use bcc_lint::{collect_workspace, run_all, Finding};
use std::path::Path;

fn findings_in(fixture: &str) -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let ws = collect_workspace(&root).expect("fixture workspace readable");
    run_all(&ws)
}

fn fixture_findings() -> Vec<Finding> {
    findings_in("ws")
}

fn by_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn d1_flags_hash_collections_and_honours_suppression() {
    let findings = fixture_findings();
    let d1 = by_rule(&findings, "D1");
    // exp_yy_broken: `use ... HashMap` plus two `HashMap` tokens on
    // the construction line (the suppressed `HashSet` must not
    // appear). serve/sched: the serve crate is in D1 scope, so its
    // `use`, return type, and constructor all count.
    assert_eq!(d1.len(), 6, "{d1:?}");
    assert_eq!(
        d1.iter()
            .filter(|f| f.file == "crates/experiments/src/exp_yy_broken.rs")
            .count(),
        3
    );
    assert_eq!(
        d1.iter()
            .filter(|f| f.file == "crates/serve/src/sched.rs")
            .count(),
        3
    );
    assert!(d1.iter().all(|f| f.message.contains("BTree")));
}

#[test]
fn d2_flags_clock_reads() {
    let findings = fixture_findings();
    let d2 = by_rule(&findings, "D2");
    // exp_yy_broken + serve/sched clock reads, plus the entropy read
    // inside the carve-out file (see the carve-out test below).
    assert_eq!(d2.len(), 3, "{d2:?}");
    let clocks: Vec<_> = d2
        .iter()
        .filter(|f| f.message.contains("Instant::now"))
        .collect();
    assert_eq!(clocks.len(), 2, "{clocks:?}");
    assert!(clocks.iter().all(|f| f.snippet.contains("Instant::now()")));
    assert!(clocks.iter().any(|f| f.file == "crates/serve/src/sched.rs"));
}

#[test]
fn d2_carveout_admits_net_clock_but_never_entropy() {
    let findings = fixture_findings();
    let net: Vec<_> = findings
        .iter()
        .filter(|f| f.file == "crates/serve/src/net.rs")
        .collect();
    // The carved-out file reads `Instant::now()` without a finding,
    // but its `OsRng` use is still a D2 error.
    assert_eq!(net.len(), 1, "{net:?}");
    assert_eq!(net[0].rule, "D2");
    assert!(net[0].message.contains("OsRng"));
    assert!(!findings
        .iter()
        .any(|f| f.file == "crates/serve/src/net.rs" && f.message.contains("Instant::now")));
}

#[test]
fn p1_flags_unwrap_outside_tests_only() {
    let findings = fixture_findings();
    let p1 = by_rule(&findings, "P1");
    // One unsuppressed `.unwrap()`; the suppressed one and the one in
    // `#[cfg(test)]` code (exp_zz_good) must not appear.
    assert_eq!(p1.len(), 1, "{p1:?}");
    assert_eq!(p1[0].file, "crates/experiments/src/exp_yy_broken.rs");
}

#[test]
fn k1_flags_simulator_in_protocol_code_but_not_tests() {
    let findings = fixture_findings();
    let k1 = by_rule(&findings, "K1");
    assert_eq!(k1.len(), 1, "{k1:?}");
    assert_eq!(k1[0].file, "crates/algorithms/src/proto.rs");
    assert!(k1[0].message.contains("KT-0/KT-1"));
}

#[test]
fn r1_flags_unregistered_experiment_module() {
    let findings = fixture_findings();
    let r1 = by_rule(&findings, "R1");
    // exp_yy_broken: missing jobs + reduce (2 on the module), neither
    // referenced from lib.rs (2), id "yy" absent from lib.rs (1);
    // exp_ww_half: its row names `exp_ww_half::jobs` but not
    // `exp_ww_half::reduce` (1 on lib.rs).
    assert_eq!(r1.len(), 6, "{r1:?}");
    assert_eq!(
        r1.iter()
            .filter(|f| f.file == "crates/experiments/src/exp_yy_broken.rs")
            .count(),
        2
    );
    let on_lib: Vec<&str> = r1
        .iter()
        .filter(|f| f.file == "crates/experiments/src/lib.rs")
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(on_lib.len(), 4, "{on_lib:?}");
    for missing in [
        "exp_yy_broken::jobs",
        "exp_yy_broken::reduce",
        "exp_ww_half::reduce",
    ] {
        assert!(
            on_lib.iter().any(|m| m.contains(&format!("`{missing}`"))),
            "{missing}: {on_lib:?}"
        );
    }
    assert!(on_lib.iter().any(|m| m.contains("id \"yy\" missing")));
    assert!(!on_lib.iter().any(|m| m.contains("exp_ww_half::jobs")));
    // The fully-registered module is clean.
    assert!(!r1.iter().any(|f| f.file.contains("exp_zz_good")));
}

#[test]
fn u1_flags_pub_fns_that_only_tests_reach() {
    let findings = findings_in("ws3");
    let u1: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "U1")
        .map(|f| (f.file.as_str(), f.snippet.as_str(), f.message.as_str()))
        .collect();
    // `only_tests` is called from `tests/` and `#[cfg(test)]` code only
    // (and from the nested workspace's `tests/`, which is no referrer);
    // the bare `allow(U1)` is reported for its missing reason. Not
    // flagged: a library caller (`used_in_lib`), a nested-workspace
    // `src/` caller (`bench_only`), a `#[cfg(not(test))]` caller
    // (`production_only`), a justified allow, and `pub fn`s of
    // `main.rs` and `src/bin/` targets. The two test-only `twin`s
    // are both flagged: a definition's name is not a use.
    assert_eq!(u1.len(), 4, "{u1:#?}");
    assert_eq!(u1[0].0, "crates/lib_a/src/lib.rs");
    assert!(u1[0].1.contains("pub fn only_tests"), "{u1:#?}");
    assert!(u1[0].2.contains("no caller outside test code"));
    assert!(u1[1].1.contains("pub fn bare_allow"), "{u1:#?}");
    assert!(u1[1].2.contains("no justification"));
    for (finding, file) in u1[2..]
        .iter()
        .zip(["crates/lib_a/src/twin.rs", "crates/lib_b/src/lib.rs"])
    {
        assert_eq!(finding.0, file, "{u1:#?}");
        assert!(finding.1.contains("pub fn twin"), "{u1:#?}");
        assert!(finding.2.contains("no caller outside test code"));
    }
    assert!(findings.iter().all(|f| f.rule == "U1"), "{findings:#?}");
}

#[test]
fn clean_file_produces_no_findings() {
    let findings = fixture_findings();
    assert!(
        !findings.iter().any(|f| f.file.contains("clean.rs")),
        "decoy strings/comments must not trigger rules"
    );
}

#[test]
fn findings_are_sorted_by_file_line_rule() {
    let findings = fixture_findings();
    let keys: Vec<_> = findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn g1_flags_report_feeding_reads_of_global_cache_counters() {
    let findings = findings_in("ws4");
    let g1 = by_rule(&findings, "G1");
    assert_eq!(findings.len(), g1.len(), "{findings:?}");
    let lines: Vec<u32> = g1.iter().map(|f| f.line).collect();
    // The metrics counter, the report line and the bare allow; not the
    // justified allow, the field read or the test module.
    assert_eq!(lines, [9, 14, 26], "{g1:?}");
    assert!(g1[0].message.contains("`.lookups()`"));
    assert!(g1[1].message.contains("thread_lookups"));
    assert!(g1[2]
        .message
        .contains("`allow(G1)` on `.misses()` has no justification"));
}
