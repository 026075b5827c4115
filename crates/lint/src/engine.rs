//! Workspace walking and the JSON/SARIF renderers. Both output
//! formats are byte-stable: files are parsed in sorted path order,
//! findings arrive pre-sorted, and every string passes through one
//! `escape`.

use crate::rules::Finding;
use crate::source::SourceFile;
use crate::Workspace;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never descended into. `vendor/` holds std-only
/// stand-ins for third-party crates (rand/proptest) whose
/// panic/entropy surface mimics the real crates — linting them would
/// only measure how faithful the shims are. `fixtures/` holds the
/// lint's own seeded-violation test inputs.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "fixtures", "node_modules"];

/// Reads and lexes every workspace `.rs` file under `root`, in
/// sorted path order.
///
/// # Errors
///
/// Propagates I/O failures (unreadable directory or file).
pub fn collect_workspace(root: &Path) -> io::Result<Workspace> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut nested: Vec<PathBuf> = Vec::new();
    walk(root, &mut paths, &mut nested)?;
    let mut referrer_paths: Vec<PathBuf> = Vec::new();
    for dir in nested.iter().map(|d| d.join("src")).filter(|d| d.is_dir()) {
        walk(&dir, &mut referrer_paths, &mut Vec::new())?;
    }
    let parse_all = |paths: Vec<PathBuf>| -> io::Result<Vec<SourceFile>> {
        relative(root, paths)
            .into_iter()
            .map(|(path, rel)| Ok(SourceFile::parse(rel, &fs::read_to_string(&path)?)))
            .collect()
    };
    Ok(Workspace {
        files: parse_all(paths)?,
        referrers: parse_all(referrer_paths)?,
    })
}

/// Sorts `paths` and pairs each with its `/`-separated path relative
/// to `root`.
fn relative(root: &Path, mut paths: Vec<PathBuf>) -> Vec<(PathBuf, String)> {
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            (path, rel)
        })
        .collect()
}

/// Collects `.rs` files under `dir` into `out`, and the nested
/// workspaces it skips into `nested`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>, nested: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            if is_nested_workspace(&path) {
                nested.push(path);
                continue;
            }
            walk(&path, out, nested)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A directory whose manifest declares a `[workspace]` of its own is a
/// separate project (the `perfbench/` benchmark builds against the
/// workspace's crates by path), not part of the workspace under lint.
/// Its `src/` is still read as [`Workspace::referrers`]: a workspace
/// `pub fn` that only the benchmark calls is not test-only surface.
fn is_nested_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
}

/// Renders one finding as a JSONL record.
pub fn json_record(f: &Finding, baselined: bool) -> String {
    let chain = f
        .chain
        .iter()
        .map(|c| format!("\"{}\"", escape(c)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"rule\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"baselined\":{},\"message\":\"{}\",\"snippet\":\"{}\",\"chain\":[{}]}}",
        f.rule,
        f.severity,
        escape(&f.file),
        f.line,
        baselined,
        escape(&f.message),
        escape(&f.snippet),
        chain,
    )
}

/// Renders the full finding set as a SARIF 2.1.0 report (the CI
/// artifact format). `baselined` marks findings admitted by the
/// committed baseline; they are emitted with `"level":"note"` and a
/// `baselined` property so code-scanning UIs can filter them.
pub fn sarif_report(findings: &[(&Finding, bool)]) -> String {
    let mut out = String::from(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
         \"name\":\"bcc-lint\",\"informationUri\":\
         \"https://example.invalid/bcc-lint\",\"rules\":[",
    );
    for (i, rule) in crate::rules::ALL_RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"id\":\"{rule}\"}}");
    }
    out.push_str("]}},\"results\":[");
    for (i, (f, baselined)) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let level = if *baselined { "note" } else { "error" };
        let chain = f
            .chain
            .iter()
            .map(|c| format!("\"{}\"", escape(c)))
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(
            out,
            "{{\"ruleId\":\"{}\",\"level\":\"{level}\",\"message\":{{\"text\":\"{}\"}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
             \"region\":{{\"startLine\":{}}}}}}}],\
             \"properties\":{{\"baselined\":{baselined},\"chain\":[{chain}]}}}}",
            f.rule,
            escape(&f.message),
            escape(&f.file),
            f.line,
        );
    }
    out.push_str("]}]}\n");
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_record_escapes() {
        let f = Finding {
            rule: "P1",
            file: "a\"b.rs".to_string(),
            line: 3,
            severity: "error",
            message: "tab\there".to_string(),
            snippet: "let s = \"x\";".to_string(),
            chain: vec!["a::b::c".to_string(), "d::e\"f".to_string()],
        };
        let rec = json_record(&f, true);
        assert!(rec.contains("\"file\":\"a\\\"b.rs\""));
        assert!(rec.contains("tab\\there"));
        assert!(rec.contains("\"baselined\":true"));
        assert!(rec.contains("\"chain\":[\"a::b::c\",\"d::e\\\"f\"]"));
        assert!(rec.starts_with('{') && rec.ends_with('}'));
    }

    #[test]
    fn sarif_report_is_wellformed_and_stable() {
        let f = Finding {
            rule: "L1",
            file: "crates/serve/src/server.rs".to_string(),
            line: 12,
            severity: "error",
            message: "cycle".to_string(),
            snippet: String::new(),
            chain: vec!["x -> y".to_string()],
        };
        let a = sarif_report(&[(&f, false)]);
        let b = sarif_report(&[(&f, false)]);
        assert_eq!(a, b);
        assert!(a.contains("\"version\":\"2.1.0\""));
        assert!(a.contains("\"ruleId\":\"L1\""));
        assert!(a.contains("\"startLine\":12"));
        assert!(a.contains("\"chain\":[\"x -> y\"]"));
        let baselined = sarif_report(&[(&f, true)]);
        assert!(baselined.contains("\"level\":\"note\""));
    }
}
