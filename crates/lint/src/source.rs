//! Per-file source model: lexed tokens plus the two pieces of context
//! every rule needs — which lines are *test code* and which findings
//! are *suppressed* by an inline `// bcc-lint: allow(<rule>)`.

use crate::lexer::{lex, TokKind, Token};
use std::collections::BTreeMap;

/// A lexed workspace file with rule context.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub path: String,
    /// The raw source lines (for snippets).
    pub lines: Vec<String>,
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// `test_lines[l]` (1-based) is true inside `#[cfg(test)]` /
    /// `#[test]` item bodies.
    test_lines: Vec<bool>,
    /// Line → rule → whether the `allow` carries a `: justification`.
    suppressions: BTreeMap<u32, BTreeMap<String, bool>>,
    /// Whole-file test status (`tests/`, `benches/`, `examples/`).
    pub is_test_file: bool,
}

impl SourceFile {
    /// Parses one file. `path` must be workspace-relative.
    pub fn parse(path: impl Into<String>, src: &str) -> Self {
        let path = path.into();
        let tokens = lex(src);
        let lines: Vec<String> = src.lines().map(str::to_string).collect();
        let test_lines = mark_test_lines(&tokens, lines.len());
        let suppressions = collect_suppressions(&tokens);
        let is_test_file = {
            let p = format!("/{path}");
            p.contains("/tests/") || p.contains("/benches/") || p.contains("/examples/")
        };
        SourceFile {
            path,
            lines,
            tokens,
            test_lines,
            suppressions,
            is_test_file,
        }
    }

    /// True if `line` (1-based) is inside test-only code, or the whole
    /// file is a test/bench/example target.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.is_test_file || self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// True if `rule` is suppressed at `line`: an
    /// `// bcc-lint: allow(rule)` on the same line (trailing) or the
    /// line directly above.
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.suppressions
                .get(l)
                .is_some_and(|rules| rules.contains_key(rule))
        })
    }

    /// True if a suppression covering `line` for `rule` carries a
    /// written justification (`// bcc-lint: allow(A1): reason`).
    /// Rules that demand justified allows (A1) re-emit otherwise.
    pub fn suppression_justified(&self, rule: &str, line: u32) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.suppressions
                .get(l)
                .and_then(|rules| rules.get(rule))
                .copied()
                .unwrap_or(false)
        })
    }

    /// The trimmed text of a 1-based line (empty if out of range).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get((line as usize).saturating_sub(1))
            .map(|s| s.trim())
            .unwrap_or("")
    }

    /// Non-comment tokens.
    pub fn code(&self) -> impl Iterator<Item = &Token> {
        self.tokens.iter().filter(|t| !t.is_comment())
    }
}

/// Marks the line span of every `#[cfg(test)]`- or `#[test]`-annotated
/// item. The scan is token-wise: on a test attribute, any further
/// attributes are skipped, then the annotated item's body is found by
/// brace matching (or ends at `;` for bodiless items).
fn mark_test_lines(tokens: &[Token], num_lines: usize) -> Vec<bool> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut test = vec![false; num_lines + 2];
    let mut i = 0usize;
    while i < code.len() {
        if code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let (end, is_test) = scan_attribute(&code, i + 1);
            if is_test {
                let start_line = code[i].line;
                let mut j = end;
                // Skip any further attributes on the same item.
                while code.get(j).is_some_and(|t| t.is_punct('#'))
                    && code.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    j = scan_attribute(&code, j + 1).0;
                }
                let end_line = item_end_line(&code, j);
                for l in start_line..=end_line {
                    if let Some(slot) = test.get_mut(l as usize) {
                        *slot = true;
                    }
                }
                i = j;
                continue;
            }
            i = end;
            continue;
        }
        i += 1;
    }
    test
}

/// Scans a `[...]` attribute starting at its `[`. Returns (index past
/// the closing `]`, whether the attribute marks test code). Test
/// markers are `#[test]`, `#[cfg(test)]`, and `test` nested only in
/// `all(…)`/`any(…)` inside a `cfg` (`#[cfg(all(test, …))]`);
/// `#[cfg(not(test))]` and `#[cfg_attr(test, …)]` items are built
/// outside tests and stay library code.
fn scan_attribute(code: &[&Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    // The predicate name before each open `(`, outermost first.
    let mut enclosing: Vec<&str> = Vec::new();
    let mut is_test = false;
    let mut i = open;
    while i < code.len() {
        let t = code[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (i + 1, is_test);
            }
        } else if t.is_punct('(') {
            let name = code[i - 1];
            enclosing.push(if name.kind == TokKind::Ident {
                &name.text
            } else {
                ""
            });
        } else if t.is_punct(')') {
            enclosing.pop();
        } else if t.is_ident("test") {
            is_test |= match enclosing.split_first() {
                None => i == open + 1 && code.get(i + 1).is_some_and(|n| n.is_punct(']')),
                Some((first, rest)) => {
                    *first == "cfg" && rest.iter().all(|p| *p == "all" || *p == "any")
                }
            };
        }
        i += 1;
    }
    (i, is_test)
}

/// The last line of the item starting at `code[start]`: brace-matched
/// from its first `{`, or the line of a terminating `;` if that comes
/// first (bodiless items like `use`).
fn item_end_line(code: &[&Token], start: usize) -> u32 {
    let mut i = start;
    while i < code.len() {
        let t = code[i];
        if t.is_punct(';') {
            return t.line;
        }
        if t.is_punct('{') {
            let mut depth = 0usize;
            while i < code.len() {
                if code[i].is_punct('{') {
                    depth += 1;
                } else if code[i].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return code[i].line;
                    }
                }
                i += 1;
            }
            break;
        }
        i += 1;
    }
    code.last().map_or(0, |t| t.line)
}

/// Extracts `bcc-lint: allow(R1, R2)` directives from comments. An
/// optional trailing `: reason` after the closing paren marks the
/// allow as *justified* (required by A1).
fn collect_suppressions(tokens: &[Token]) -> BTreeMap<u32, BTreeMap<String, bool>> {
    let mut out: BTreeMap<u32, BTreeMap<String, bool>> = BTreeMap::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        let Some(at) = t.text.find("bcc-lint:") else {
            continue;
        };
        let rest = &t.text[at + "bcc-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let args = &rest[open + "allow(".len()..];
        let Some(close) = args.find(')') else {
            continue;
        };
        let justified = args[close + 1..]
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        let rules = out.entry(t.line).or_default();
        for rule in args[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                // A justified allow wins over a bare one on the line.
                let slot = rules.entry(rule.to_string()).or_insert(false);
                *slot = *slot || justified;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "pub fn lib_code() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\npub fn after() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(6));
        assert!(f.is_test_line(7));
        assert!(!f.is_test_line(8));
    }

    #[test]
    fn standalone_test_fn_is_marked() {
        let src = "fn helper() {}\n#[test]\nfn check() {\n    body();\n}\nfn tail() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn non_test_cfg_attribute_is_ignored() {
        let src = "#[cfg(feature = \"x\")]\nmod m {\n    fn f() {}\n}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn only_test_builds_are_marked() {
        let src = "#[cfg(not(test))]\nfn lib_only() {}\n#[cfg_attr(test, derive(Debug))]\nstruct S;\n#[cfg(all(test, feature = \"x\"))]\nfn a() {}\n#[cfg(any(unix, test))]\nfn b() {}\n#[cfg(all(not(test), unix))]\nfn c() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.is_test_line(2));
        assert!(!f.is_test_line(4));
        assert!(f.is_test_line(6));
        assert!(f.is_test_line(8));
        assert!(!f.is_test_line(10));
    }

    #[test]
    fn braces_in_strings_do_not_break_matching() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}}}{\";\n    fn f() {}\n}\nfn lib() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn tests_dir_files_are_wholly_test() {
        let f = SourceFile::parse("crates/x/tests/integration.rs", "fn f() { x.unwrap(); }\n");
        assert!(f.is_test_line(1));
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "// bcc-lint: allow(P1)\nlet a = x.unwrap();\nlet b = y.unwrap(); // bcc-lint: allow(P1, D1)\nlet c = z.unwrap();\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.is_suppressed("P1", 2));
        assert!(f.is_suppressed("P1", 3));
        assert!(f.is_suppressed("D1", 3));
        assert!(!f.is_suppressed("P1", 5));
        assert!(!f.is_suppressed("D2", 2));
    }

    #[test]
    fn justified_allows_are_distinguished() {
        // Blank separators keep each allow's line±1 reach from
        // overlapping the next case.
        let src = "let a = x + y; // bcc-lint: allow(A1): counter bounded by n\n\nlet b = x + y; // bcc-lint: allow(A1)\n\nlet c = x + y; // bcc-lint: allow(A1):   \n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.is_suppressed("A1", 1));
        assert!(f.suppression_justified("A1", 1));
        assert!(f.is_suppressed("A1", 3));
        assert!(!f.suppression_justified("A1", 3));
        // A colon with only whitespace after it is not a justification.
        assert!(!f.suppression_justified("A1", 5));
    }

    #[test]
    fn line_text_snippets() {
        let f = SourceFile::parse("x.rs", "first\n   second indented\n");
        assert_eq!(f.line_text(2), "second indented");
        assert_eq!(f.line_text(99), "");
    }
}
