//! Flag handling of the `bcc-experiments` binary: usage errors exit 2
//! before any experiment runs, and `--wall` writes its sidecar.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_bcc-experiments"))
        .args(args)
        .output()
        .expect("spawn bcc-experiments")
        .status
        .code()
}

#[test]
fn profile_rejects_trace_levels_below_costs() {
    // Below `costs` the trace holds no counters, so the profile would
    // attribute nothing; that is a usage error, not an empty profile.
    let profile = std::env::temp_dir().join(format!("bcc-cli-{}.jsonl", std::process::id()));
    let profile = profile.to_str().expect("utf-8 path");
    for level in ["off", "spans"] {
        let args = [
            "--quick",
            "--profile",
            profile,
            "--trace-level",
            level,
            "f1",
        ];
        assert_eq!(exit_code(&args), Some(2), "--trace-level {level}");
    }
    assert!(!std::path::Path::new(profile).exists());
}

#[test]
fn wall_writes_the_sidecar() {
    let wall = std::env::temp_dir().join(format!("bcc-cli-wall-{}.jsonl", std::process::id()));
    let path = wall.to_str().expect("utf-8 path");
    assert_eq!(exit_code(&["--quick", "--wall", path, "f1"]), Some(0));
    let text = std::fs::read_to_string(&wall).expect("read wall sidecar");
    std::fs::remove_file(&wall).expect("remove wall sidecar");
    assert!(text.starts_with("{\"bcc_wall\":1,\"jobs\":"), "{text}");
    assert!(text.contains("{\"job\":\"f1/"), "{text}");
}
