//! CLI for the workspace lint pass.
//!
//! ```text
//! bcc-lint [OPTIONS]
//!
//! OPTIONS:
//!   --root DIR          workspace root (default: auto-detected from
//!                       the manifest dir, falling back to `.`)
//!   --baseline write    regenerate lint-baseline.toml from findings
//!   --baseline check    fail only on findings beyond the baseline
//!   --format FMT        output format: text (default), json (JSONL),
//!                       or sarif (single SARIF 2.1.0 document)
//!   --json              shorthand for --format json
//!   --explain RULE      print the rationale for a rule id and exit
//!
//! Exit codes follow the runner's conventions: 0 clean, 1 findings,
//! 2 usage or I/O error.
//! ```

use bcc_lint::{baseline::Baseline, engine, rules};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: bcc-lint [--root DIR] [--baseline write|check] \
                     [--format text|json|sarif] [--json] [--explain RULE]";

const BASELINE_FILE: &str = "lint-baseline.toml";

#[derive(PartialEq)]
enum BaselineMode {
    /// Report every finding.
    Off,
    /// Rewrite the baseline from current findings.
    Write,
    /// Fail only on findings beyond the baseline.
    Check,
}

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Cli {
    root: PathBuf,
    mode: BaselineMode,
    format: Format,
    explain: Option<String>,
}

fn parse_args(args: Vec<String>) -> Result<Cli, String> {
    let mut root = None;
    let mut mode = BaselineMode::Off;
    let mut format = Format::Text;
    let mut explain = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = Some(PathBuf::from(it.next().ok_or("--root needs a value")?));
            }
            "--baseline" => {
                mode = match it.next().as_deref() {
                    Some("write") => BaselineMode::Write,
                    Some("check") => BaselineMode::Check,
                    other => {
                        return Err(format!(
                            "--baseline needs `write` or `check`, got {other:?}"
                        ))
                    }
                };
            }
            "--format" => {
                format = match it.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        return Err(format!(
                            "--format needs `text`, `json`, or `sarif`, got {other:?}"
                        ))
                    }
                };
            }
            "--json" => format = Format::Json,
            "--explain" => {
                explain = Some(it.next().ok_or("--explain needs a rule id")?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Cli {
        root: root.unwrap_or_else(default_root),
        mode,
        format,
        explain,
    })
}

/// The workspace root: two levels above this crate's manifest
/// (`crates/lint`), or the current directory when running a moved
/// binary.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(std::path::Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1).collect()) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(rule) = &cli.explain {
        return match rules::explain(rule) {
            Some(text) => {
                println!("{rule}: {text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "error: unknown rule {rule:?}; known rules: {}",
                    rules::ALL_RULES.join(", ")
                );
                ExitCode::from(2)
            }
        };
    }
    match run(&cli) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(cli: &Cli) -> Result<ExitCode, String> {
    let ws = engine::collect_workspace(&cli.root)
        .map_err(|e| format!("walking {}: {e}", cli.root.display()))?;
    let findings = rules::run_all(&ws);
    let baseline_path = cli.root.join(BASELINE_FILE);

    match cli.mode {
        BaselineMode::Write => {
            let baseline = Baseline::from_findings(&findings);
            std::fs::write(&baseline_path, baseline.render())
                .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
            eprintln!(
                "bcc-lint: wrote {} ({} findings across {} files)",
                baseline_path.display(),
                findings.len(),
                ws.files.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        BaselineMode::Off => {
            if cli.format == Format::Sarif {
                let records: Vec<_> = findings.iter().map(|f| (f, false)).collect();
                print!("{}", engine::sarif_report(&records));
            } else {
                for f in &findings {
                    print_finding(f, false, cli.format);
                }
            }
            eprintln!(
                "bcc-lint: {} findings in {} files",
                findings.len(),
                ws.files.len()
            );
            Ok(exit_for(findings.is_empty()))
        }
        BaselineMode::Check => {
            let text = std::fs::read_to_string(&baseline_path)
                .map_err(|e| format!("reading {}: {e}", baseline_path.display()))?;
            let baseline =
                Baseline::parse(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?;
            let (regressions, ratchets) = baseline.check(&findings);
            let num_new: usize = regressions.iter().map(|r| r.found.len() - r.allowed).sum();
            let is_new = |f: &rules::Finding| {
                regressions
                    .iter()
                    .any(|r| r.rule == f.rule && r.file == f.file)
            };
            if cli.format == Format::Sarif {
                let records: Vec<_> = findings.iter().map(|f| (f, !is_new(f))).collect();
                print!("{}", engine::sarif_report(&records));
            }
            for r in &regressions {
                eprintln!(
                    "bcc-lint: [{}] {}: {} findings exceed baseline allowance {}:",
                    r.rule,
                    r.file,
                    r.found.len(),
                    r.allowed
                );
                if cli.format != Format::Sarif {
                    for f in &r.found {
                        print_finding(f, false, cli.format);
                    }
                }
            }
            if cli.format == Format::Json {
                // Baselined buckets are still emitted for dashboards,
                // flagged so consumers can filter.
                for f in findings.iter().filter(|f| !is_new(f)) {
                    println!("{}", engine::json_record(f, true));
                }
            }
            for r in &ratchets {
                eprintln!(
                    "bcc-lint: ratchet available: [{}] {} allows {} but has {} — shrink the baseline",
                    r.rule, r.file, r.allowed, r.found
                );
            }
            eprintln!(
                "bcc-lint: {} findings ({} new, {} baselined allowance) in {} files",
                findings.len(),
                num_new,
                baseline.total(),
                ws.files.len()
            );
            Ok(exit_for(regressions.is_empty()))
        }
    }
}

fn print_finding(f: &rules::Finding, baselined: bool, format: Format) {
    match format {
        Format::Json => println!("{}", engine::json_record(f, baselined)),
        _ => {
            println!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message);
            if !f.snippet.is_empty() {
                println!("    | {}", f.snippet);
            }
            for step in &f.chain {
                println!("    > {step}");
            }
        }
    }
}

fn exit_for(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
