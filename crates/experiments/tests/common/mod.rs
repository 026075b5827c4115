//! Shared helpers for the experiments' determinism gates.

use bcc_prof::{diff_profiles, parse_profile_jsonl, DiffKind, DiffOptions};

/// Asserts that two profile JSONL renderings are byte-identical. On a
/// mismatch it parses both sides, diffs them with
/// [`bcc_prof::diff_profiles`] at zero tolerance, and panics naming the
/// first changed frame (`counter @ span path`), or the first changed
/// row of any kind when no frame changed.
pub fn assert_same_profile(expected: &str, actual: &str, what: &str) {
    if expected == actual {
        return;
    }
    let parse = |text| {
        parse_profile_jsonl(text).unwrap_or_else(|e| panic!("{what}: profile does not parse: {e}"))
    };
    let diff = diff_profiles(&parse(expected), &parse(actual), &DiffOptions::default());
    let frame = diff.rows.iter().find(|row| row.kind == DiffKind::Frame);
    let Some(row) = frame.or(diff.rows.first()) else {
        panic!("{what}: profile bytes differ but every compared cost agrees");
    };
    panic!(
        "{what}: profile differs; first breached {} {}: {} vs {}",
        row.kind.tag(),
        row.key,
        row.a,
        row.b
    );
}
