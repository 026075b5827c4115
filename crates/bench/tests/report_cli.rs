//! `bcc_report` exit codes on `BENCH.json` inputs: a median past its
//! bound trips `--check` (1) unless the pair's `[q1, q3]` straddles
//! the bound, which is `unresolved` (0); a threshold that is NaN, infinite or
//! negative, or a bench file in another format, is a usage error (2)
//! rather than a silently disabled gate.

use bcc_bench::ratios::{self, Kind, Pair};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Writes `text` to a scratch file unique to this test process.
fn scratch(tag: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bcc-report-cli-{}-{tag}", std::process::id()));
    std::fs::write(&path, text).expect("scratch write");
    path
}

/// `bcc_report --check --bench PATH ARGS…`'s exit code.
fn check(bench: &PathBuf, args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_bcc_report"))
        .args(["--check", "--out", "/dev/null", "--bench"])
        .stderr(Stdio::null())
        .arg(bench)
        .args(args)
        .status()
        .expect("bcc_report runs")
        .code()
}

fn pair(name: &str, kind: Kind, figure: f64) -> Pair {
    Pair {
        name: name.to_string(),
        kind,
        base: "off".to_string(),
        variant: "on".to_string(),
        reps: 5,
        runs: 1,
        base_ns: 100,
        variant_ns: 150,
        quartiles: [figure; 3],
    }
}

#[test]
fn medians_past_their_bounds_fail_the_check() {
    let bad = ratios::write(&[
        pair("costly", Kind::Overhead, 50.0),
        pair("slow", Kind::Speedup, 0.1),
    ]);
    let bad = scratch("bad.json", &bad);
    assert_eq!(check(&bad, &[]), Some(1));
    let loose = ["--max-overhead", "60", "--tolerance", "95"];
    assert_eq!(check(&bad, &loose), Some(0));
    let mut wide = pair("wide", Kind::Overhead, 11.66);
    wide.quartiles = [-2.67, 11.66, 40.91];
    let wide = scratch("wide.json", &ratios::write(&[wide]));
    assert_eq!(check(&wide, &[]), Some(0));
    let _ = std::fs::remove_file(bad);
    let _ = std::fs::remove_file(wide);
}

/// Values a percentage threshold must refuse: each would make the
/// gate's comparisons meaningless.
const NOT_PERCENT: [&str; 6] = ["nan", "NaN", "inf", "-inf", "-1", "five"];

#[test]
fn nan_thresholds_no_longer_switch_the_gate_off() {
    let bad = ratios::write(&[
        pair("costly", Kind::Overhead, 50.0),
        pair("slow", Kind::Speedup, 0.1),
    ]);
    let bad = scratch("nan.json", &bad);
    let nan = ["--max-overhead", "nan", "--tolerance", "nan"];
    assert_eq!(check(&bad, &nan), Some(2));
    let _ = std::fs::remove_file(bad);
}

/// Asserts that `flag` refuses every [`NOT_PERCENT`] value and
/// accepts `0` on a passing bench file.
fn assert_percent_flag(flag: &str) {
    let good = scratch(
        &format!("{flag}.json"),
        &ratios::write(&[pair("fine", Kind::Speedup, 4.0)]),
    );
    for value in NOT_PERCENT {
        assert_eq!(check(&good, &[flag, value]), Some(2), "{flag} {value}");
    }
    assert_eq!(check(&good, &[flag, "0"]), Some(0), "{flag} 0");
    let _ = std::fs::remove_file(good);
}

#[test]
fn tolerance_must_be_finite_and_non_negative() {
    assert_percent_flag("--tolerance");
}

#[test]
fn max_overhead_must_be_finite_and_non_negative() {
    assert_percent_flag("--max-overhead");
}

#[test]
fn diff_tolerance_must_be_finite_and_non_negative() {
    let profile = bcc_prof::Profile {
        spans: vec![],
        frames: vec![],
        totals: vec![],
    };
    let path = scratch("profile.jsonl", &bcc_prof::profile_to_jsonl(&profile));
    let diff = |value: &str| {
        Command::new(env!("CARGO_BIN_EXE_bcc_report"))
            .args(["--out", "/dev/null", "--diff"])
            .args([&path, &path])
            .args(["--diff-tolerance", value])
            .stderr(Stdio::null())
            .status()
            .expect("bcc_report runs")
            .code()
    };
    for value in NOT_PERCENT {
        assert_eq!(diff(value), Some(2), "--diff-tolerance {value}");
    }
    assert_eq!(diff("0"), Some(0));
    let _ = std::fs::remove_file(path);
}

#[test]
fn old_format_and_repeated_bench_files_are_usage_errors() {
    let old = r#"{"bench": "engine throughput baseline", "e2_workload": {"speedup": 4.47}}"#;
    let old = scratch("old.json", old);
    assert_eq!(check(&old, &[]), Some(2));
    let good = scratch(
        "once.json",
        &ratios::write(&[pair("fine", Kind::Speedup, 4.0)]),
    );
    assert_eq!(check(&good, &[]), Some(0));
    let twice = ["--bench", good.to_str().expect("utf-8 path")];
    assert_eq!(check(&good, &twice), Some(2));
    let _ = std::fs::remove_file(old);
    let _ = std::fs::remove_file(good);
}

#[test]
fn committed_bench_file_names_the_six_pairs() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json");
    let text = std::fs::read_to_string(path).expect("BENCH.json is committed");
    let pairs = ratios::parse(&text).expect("BENCH.json parses");
    let names: Vec<&str> = pairs.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "e2_workload",
            "e2_sampling",
            "indist_cache",
            "metrics_core",
            "metrics_full",
            "profiler"
        ]
    );
}
