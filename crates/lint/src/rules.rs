//! The rule set. Each rule protects a specific guarantee of the
//! reproduction (see DESIGN.md §"Static analysis & enforced
//! invariants"):
//!
//! * **D1** — nondeterministic iteration: `HashMap`/`HashSet` in the
//!   crates whose outputs feed experiment [`Report`]s. Hash iteration
//!   order varies per process, which would break the byte-identical
//!   `--jobs 1` ≡ `--jobs N` guarantee (and, via float summation
//!   order, the entropy accounting of Theorem 4.5).
//! * **D2** — wall-clock/entropy reads outside the runner's timing
//!   layer: a job body reading `Instant::now` or an OS entropy source
//!   is no longer a pure function of its seed. A per-file carve-out
//!   ([`D2_CARVEOUTS`]) admits the serve accept loop's drain watchdog
//!   clock; entropy reads stay forbidden everywhere.
//! * **P1** — `unwrap`/`expect`/`panic!`-family in non-test library
//!   code: new panic paths are errors; pre-existing debt lives in
//!   `lint-baseline.toml` and may only shrink.
//! * **K1** — knowledge-regime hygiene: protocol modules in
//!   `crates/algorithms` may see the model only through the node
//!   surface (`InitialKnowledge`/`Inbox`/`NodeProgram` — the KT-0/KT-1
//!   views). Touching `Simulator`, `Instance`, or run outcomes from a
//!   protocol would let an algorithm read knowledge the paper's
//!   KT-0/KT-1 separation (Section 1.2) says it cannot have.
//! * **R1** — experiment-registry completeness: every
//!   `crates/experiments/src/exp_*.rs` module must expose
//!   `jobs()`/`reduce()`, `lib.rs` must name both as
//!   `exp_xx::jobs`/`exp_xx::reduce` (its `REGISTRY` row), and the
//!   id must be quoted there, so no series silently drops out of
//!   `all` runs.
//! * **U1** — public surface only tests reach: a `pub fn` in a
//!   library crate (`crates/*/src`, not `main.rs` or `src/bin/`) whose
//!   name, as an identifier, appears in no non-test code except as
//!   the name of an `fn` definition (its own or a namesake's).
//!   Name-based and conservative: any non-test use of
//!   the name — in the workspace or in a nested workspace's `src/`
//!   ([`Workspace::referrers`]) — keeps it silent. A bare `allow(U1)`
//!   is itself a finding, as with A1.
//! * **G1** — reads of the artifact store's process-global counters
//!   (`.hits()`, `.misses()`, `.lookups()`, [`G1_COUNTERS`]) in
//!   non-test code. Their values depend on what earlier runs left in
//!   a shared store, so a report, trace or dump that read them would
//!   differ across `--jobs`, cache warmth and daemon uptime; counts
//!   that reach an artifact are taken per job (`thread_lookups`). A
//!   read that never reaches one, such as the daemon's live `stats`
//!   reply, stays behind an allow, and a bare `allow(G1)` is itself a
//!   finding.
//!
//! [`Report`]: https://docs.rs/bcc-experiments

use crate::lexer::TokKind;
use crate::source::SourceFile;
use std::collections::BTreeSet;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`"D1"`, …).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Severity (`"error"` — the baseline, not the severity, is what
    /// lets pre-existing debt through).
    pub severity: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Trimmed source line.
    pub snippet: String,
    /// Call-chain evidence for interprocedural rules (N1/L1): the
    /// qualified functions from the reporting site down to the
    /// source/conflict. Empty for token-local rules.
    pub chain: Vec<String>,
}

/// All lexed workspace files.
#[derive(Debug)]
pub struct Workspace {
    /// Parsed files, sorted by path.
    pub files: Vec<SourceFile>,
    /// `src/` files of nested workspaces (`perfbench/`): not linted,
    /// read only as U1 referrers.
    pub referrers: Vec<SourceFile>,
}

/// Crates whose non-test code feeds experiment reports: the D1 scope.
/// `crates/trace` and `crates/metrics` are included because merged
/// traces and metric dumps carry the same byte-identity guarantee as
/// reports.
pub const D1_PATHS: [&str; 12] = [
    "crates/experiments/",
    "crates/runner/",
    "crates/partitions/",
    "crates/core/",
    "crates/info/",
    "crates/trace/",
    "crates/engine/",
    "crates/metrics/",
    "crates/serve/",
    "crates/prof/",
    "crates/transport/",
    // A single file, not the whole crate: postmortem renderings feed
    // reports, while the rest of `bcc-model` keeps its hash-based
    // internals.
    "crates/model/src/postmortem.rs",
];

/// Crates allowed to read clocks: the runner owns deadlines and latency
/// metrics — its *results* (timings) are labelled as measurements,
/// never folded into report bytes — and the bench
/// crate's throughput recorder exists only to time things.
pub const D2_EXEMPT: [&str; 2] = ["crates/runner/", "crates/bench/"];

/// Single files allowed to read the monotonic clock — and nothing
/// else from D2's list. The serve accept loop needs `Instant::now`
/// for its post-drain watchdog (a liveness bound, never folded into
/// request results); every other serve module stays fully D2-checked,
/// and OS-entropy reads stay forbidden even in these files.
pub const D2_CARVEOUTS: [&str; 1] = ["crates/serve/src/net.rs"];

/// `ArtifactStore` methods that read its process-global counters: the
/// G1 scope. Matched by name as empty-argument method calls.
pub const G1_COUNTERS: [&str; 3] = ["hits", "lookups", "misses"];

/// Path prefix of the protocol crate checked by K1.
pub const K1_PATH: &str = "crates/algorithms/";

/// `bcc_model` items a protocol module must not name: everything that
/// exists outside a single node's KT-0/KT-1 view.
pub const K1_FORBIDDEN: [&str; 8] = [
    "Simulator",
    "SimConfig",
    "Instance",
    "RunOutcome",
    "NodeView",
    "Transcript",
    "runs_indistinguishable",
    "Transport",
];

/// Runs every rule over the workspace; findings are sorted by
/// (file, line, rule) and inline suppressions are already applied.
/// The interprocedural rules (N1/L1) share one call-graph
/// [`Model`](crate::callgraph::Model) built here.
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let model = crate::callgraph::Model::build(ws);
    let mut out = Vec::new();
    for file in &ws.files {
        rule_d1(file, &mut out);
        rule_d2(file, &mut out);
        rule_p1(file, &mut out);
        rule_k1(file, &mut out);
        rule_a1(file, &mut out);
        rule_g1(file, &mut out);
    }
    rule_r1(ws, &mut out);
    rule_u1(ws, &mut out);
    crate::taint::rule_n1(ws, &model, &mut out);
    crate::locks::rule_l1(ws, &model, &mut out);
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out
}

/// Every rule id, in report order — the baseline and SARIF renderers
/// iterate this.
pub const ALL_RULES: &[&str] = &["A1", "D1", "D2", "G1", "K1", "L1", "N1", "P1", "R1", "U1"];

/// One-paragraph rationale per rule, for `--explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "D1" => {
            "D1 — hash-ordered iteration in report-feeding crates. \
             `HashMap`/`HashSet` iteration order varies per process, which \
             breaks the byte-identical `--jobs 1` = `--jobs N` guarantee \
             (and, via float summation order, the entropy accounting of \
             Theorem 4.5). Use `BTreeMap`/`BTreeSet` or sort before \
             iterating."
        }
        "D2" => {
            "D2 — wall-clock or OS-entropy reads outside the runner's \
             timing layer. A job body reading `Instant::now` or an entropy \
             source is no longer a pure function of its seed; derive \
             randomness from the blessed per-job seed path instead."
        }
        "P1" => {
            "P1 — panic paths (`unwrap`/`expect`/`panic!`-family) in \
             non-test library code. New panic paths are errors; \
             pre-existing debt lives in lint-baseline.toml and may only \
             shrink."
        }
        "K1" => {
            "K1 — knowledge-regime hygiene. Protocol modules in \
             crates/algorithms may see the model only through the node \
             surface (InitialKnowledge/Inbox/NodeProgram): the KT-0/KT-1 \
             separation of Section 1.2."
        }
        "R1" => {
            "R1 — experiment-registry completeness. Every exp_*.rs module \
             must expose jobs()/reduce(), and lib.rs must name both \
             (exp_xx::jobs, exp_xx::reduce: its REGISTRY row) and quote \
             its id, so no series drops out of `all` runs."
        }
        "N1" => {
            "N1 — interprocedural nondeterminism taint. Entropy, wall \
             clock, and hash-iteration sources are propagated through the \
             workspace call graph; any function that both reaches a source \
             and emits through a report/trace/metrics sink is flagged with \
             the full call chain. Subsumes the crate-scoped D1/D2 checks \
             path-sensitively. Suppress at the source line to bless a \
             value, or at the sink line to bless one emission."
        }
        "L1" => {
            "L1 — lock-order analysis. Acquisition sequences (with guard \
             extents modeled from let/drop/scope structure) are propagated \
             through the call graph; cycles in the held->acquired graph \
             and inversions of the canonical serve order (server -> \
             admission -> pool -> store -> hub, DESIGN.md \u{a7}11) are \
             flagged with witness chains."
        }
        "A1" => {
            "A1 — unchecked arithmetic on bit-accounting quantities \
             (identifiers with a `bits` segment, or round counters). The \
             paper's lower-bound accounting (Theorem 4.5) is only evidence \
             if counters cannot silently wrap: use checked_*/saturating_* \
             arithmetic, or `// bcc-lint: allow(A1): <why overflow is \
             impossible>` with a written justification."
        }
        "U1" => {
            "U1 — public surface only tests reach. A `pub fn` in a library \
             crate (crates/*/src, not main.rs or src/bin/) whose name, as an \
             identifier, appears in no non-test code except as the name \
             of an fn definition: delete it, or move it into the test that uses it. \
             Test code is `tests/`, `benches/`, `examples/` and \
             `#[cfg(test)]`/`#[test]` items; the nested perfbench/src \
             workspace counts as a referrer. Scalar reference oracles may \
             stay with `// bcc-lint: allow(U1): <reason>`."
        }
        "G1" => {
            "G1 — reads of the artifact store's process-global counters \
             (`.hits()`, `.misses()`, `.lookups()`) in non-test code. They \
             count every lookup any run made on a shared store, so a \
             report, trace or dump built from them would depend on \
             `--jobs`, cache warmth and daemon uptime. Count per job with \
             `thread_lookups` instead. A read that never reaches an \
             artifact (the daemon's live `stats` reply) may stay with \
             `// bcc-lint: allow(G1): <reason>`; a bare allow is itself a \
             finding. Name-based: any type's method of these names counts."
        }
        _ => return None,
    })
}

fn emit(file: &SourceFile, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
    if file.is_suppressed(rule, line) {
        return;
    }
    push(file, out, rule, line, message);
}

/// [`emit`] for the rules whose allows must say why (A1, G1, U1): a
/// justified allow silences the finding, and a bare one is reported
/// instead, asking for `// bcc-lint: allow(<rule>): <why>`.
fn emit_unless_justified(
    file: &SourceFile,
    out: &mut Vec<Finding>,
    rule: &'static str,
    line: u32,
    subject: &str,
    why: &str,
    message: String,
) {
    let message = if !file.is_suppressed(rule, line) {
        message
    } else if file.suppression_justified(rule, line) {
        return;
    } else {
        format!(
            "`allow({rule})` on `{subject}` has no justification: write \
             `// bcc-lint: allow({rule}): <{why}>`"
        )
    };
    push(file, out, rule, line, message);
}

fn push(file: &SourceFile, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
    out.push(Finding {
        rule,
        file: file.path.clone(),
        line,
        severity: "error",
        message,
        snippet: file.line_text(line).to_string(),
        chain: Vec::new(),
    });
}

/// D1: hash-ordered collections in report-feeding crates.
fn rule_d1(file: &SourceFile, out: &mut Vec<Finding>) {
    if !D1_PATHS.iter().any(|p| file.path.starts_with(p)) {
        return;
    }
    for t in file.code() {
        if t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !file.is_test_line(t.line)
        {
            emit(
                file,
                out,
                "D1",
                t.line,
                format!(
                    "`{}` in a report-feeding crate: iteration order is \
                     nondeterministic; use `BTree{}` or sort before iterating",
                    t.text,
                    &t.text[4..]
                ),
            );
        }
    }
}

/// D2: wall-clock or OS-entropy reads outside the runner.
fn rule_d2(file: &SourceFile, out: &mut Vec<Finding>) {
    if D2_EXEMPT.iter().any(|p| file.path.starts_with(p)) {
        return;
    }
    let clock_carveout = D2_CARVEOUTS.contains(&file.path.as_str());
    let code: Vec<_> = file.code().collect();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        let clock_type = (t.text == "Instant" || t.text == "SystemTime") && !clock_carveout;
        if clock_type
            && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            emit(
                file,
                out,
                "D2",
                t.line,
                format!(
                    "`{}::now()` outside the runner's timing layer: job bodies \
                     must be pure functions of their seed",
                    t.text
                ),
            );
        }
        if ["thread_rng", "from_entropy", "OsRng", "getrandom"].contains(&t.text.as_str()) {
            emit(
                file,
                out,
                "D2",
                t.line,
                format!(
                    "`{}` draws OS entropy: derive randomness from the blessed \
                     per-job seed path (`job_seed`) instead",
                    t.text
                ),
            );
        }
    }
}

/// P1: panic paths in non-test library code.
fn rule_p1(file: &SourceFile, out: &mut Vec<Finding>) {
    let code: Vec<_> = file.code().collect();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        let method_call = |name: &str| {
            t.text == name
                && i > 0
                && code[i - 1].is_punct('.')
                && code.get(i + 1).is_some_and(|n| n.is_punct('('))
        };
        if method_call("unwrap") || method_call("expect") {
            emit(
                file,
                out,
                "P1",
                t.line,
                format!(
                    "`.{}()` in library code: return a typed error (or add the \
                     call to lint-baseline.toml only when shrinking existing debt)",
                    t.text
                ),
            );
            continue;
        }
        let panic_macro = ["panic", "unreachable", "todo", "unimplemented"]
            .contains(&t.text.as_str())
            && code.get(i + 1).is_some_and(|n| n.is_punct('!'));
        if panic_macro {
            emit(
                file,
                out,
                "P1",
                t.line,
                format!(
                    "`{}!` in library code: return a typed error instead",
                    t.text
                ),
            );
        }
    }
}

/// K1: protocol modules must stay inside the node-view surface.
fn rule_k1(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.path.starts_with(K1_PATH) {
        return;
    }
    for t in file.code() {
        if t.kind == TokKind::Ident
            && K1_FORBIDDEN.contains(&t.text.as_str())
            && !file.is_test_line(t.line)
        {
            emit(
                file,
                out,
                "K1",
                t.line,
                format!(
                    "`{}` reaches beyond the KT-0/KT-1 node view: protocol code \
                     may only use InitialKnowledge/Inbox/NodeProgram (the \
                     knowledge separation of Section 1.2)",
                    t.text
                ),
            );
        }
    }
}

/// True for identifiers that carry bit-accounting or round-count
/// semantics: lowercase snake names with a `bits`, `round` or `rounds`
/// segment (`total_bits`, `rounds_run`, `round_in`). Uppercase consts
/// (`WEIGHT_BITS`) are compile-time and exempt.
fn is_accounting_ident(text: &str) -> bool {
    if text.chars().any(|c| c.is_ascii_uppercase()) {
        return false;
    }
    text.split('_')
        .any(|s| s == "bits" || s == "round" || s == "rounds")
}

/// A1: unchecked `+`/`-`/`*`/`<<` arithmetic on bit-accounting
/// quantities. Unlike other rules, a bare `allow(A1)` is not enough:
/// the suppression must carry a justification
/// (`// bcc-lint: allow(A1): <why overflow is impossible>`).
fn rule_a1(file: &SourceFile, out: &mut Vec<Finding>) {
    let code: Vec<_> = file.code().collect();
    let is_operand_end = |t: Option<&&crate::lexer::Token>| {
        t.is_some_and(|t| {
            matches!(t.kind, TokKind::Ident | TokKind::Num) || t.is_punct(')') || t.is_punct(']')
        })
    };
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || !is_accounting_ident(&t.text) || file.is_test_line(t.line) {
            continue;
        }
        // Followed by an arithmetic operator: `bits + x`, `bits -= x`,
        // `bits << w` (`->` arrows excluded).
        let followed = match code.get(i + 1) {
            Some(n) if n.is_punct('+') || n.is_punct('*') => true,
            Some(n) if n.is_punct('-') => !code.get(i + 2).is_some_and(|x| x.is_punct('>')),
            Some(n) if n.is_punct('<') => code.get(i + 2).is_some_and(|x| x.is_punct('<')),
            _ => false,
        };
        // Preceded by a binary operator, walking back over a field
        // chain with empty-argument method calls
        // (`run.bits_exchanged`, `out.stats().rounds`): `x + run.bits`,
        // `1 << bits`, `x += bits`. Unary `-x`/`*x` (no operand before
        // the op) are excluded.
        let mut j = i;
        while j >= 2 && code[j - 1].is_punct('.') {
            let call = j >= 4 && code[j - 2].is_punct(')') && code[j - 3].is_punct('(');
            let step = if call { 4 } else { 2 };
            if code[j - step].kind != TokKind::Ident {
                break;
            }
            j -= step;
        }
        let preceded = if j == 0 {
            false
        } else {
            let p = code[j - 1];
            let before = if j >= 2 { code.get(j - 2) } else { None };
            if p.is_punct('+') || p.is_punct('-') || p.is_punct('*') {
                is_operand_end(before)
            } else if p.is_punct('<') {
                before.is_some_and(|b| b.is_punct('<'))
            } else if p.is_punct('=') {
                // Compound-assign RHS: `x += bits`, `x <<= bits`.
                before.is_some_and(|b| {
                    b.is_punct('+') || b.is_punct('-') || b.is_punct('*') || b.is_punct('<')
                })
            } else {
                false
            }
        };
        if !followed && !preceded {
            continue;
        }
        emit_unless_justified(
            file,
            out,
            "A1",
            t.line,
            &t.text,
            "why overflow is impossible",
            format!(
                "unchecked arithmetic on bit-accounting quantity `{}`: bit \
                 counts feeding the lower-bound measurements must use \
                 `checked_*`/`saturating_*` (or a justified allow)",
                t.text
            ),
        );
    }
}

/// G1: reads of the artifact store's process-global counters in
/// non-test code.
fn rule_g1(file: &SourceFile, out: &mut Vec<Finding>) {
    let code: Vec<_> = file.code().collect();
    for w in code.windows(4) {
        let [dot, name, open, close] = w else {
            continue;
        };
        if !dot.is_punct('.')
            || name.kind != TokKind::Ident
            || !G1_COUNTERS.contains(&name.text.as_str())
            || !open.is_punct('(')
            || !close.is_punct(')')
            || file.is_test_line(name.line)
        {
            continue;
        }
        emit_unless_justified(
            file,
            out,
            "G1",
            name.line,
            &format!(".{}()", name.text),
            "why the value never reaches a report, trace or dump",
            format!(
                "`.{}()` reads a process-global artifact-store counter, \
                 whose value depends on what earlier runs left in a shared \
                 store: count per job with `thread_lookups` (or justify a \
                 read that never reaches an artifact)",
                name.text
            ),
        );
    }
}

/// True for a library source file: `crates/<name>/src/…`, except a
/// binary's `main.rs` and `src/bin/` targets.
fn is_library_file(path: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates")
        && parts.next().is_some()
        && parts.next() == Some("src")
        && !path.ends_with("/main.rs")
        && !path.contains("/src/bin/")
}

/// U1: `pub fn`s whose name no non-test code uses. The name token of
/// an `fn` definition is not a use, so two same-named test-only
/// `pub fn`s in different files do not hide each other.
fn rule_u1(ws: &Workspace, out: &mut Vec<Finding>) {
    let mut uses: BTreeSet<&str> = BTreeSet::new();
    for file in ws.files.iter().chain(&ws.referrers) {
        let mut after_fn = false;
        for t in file.code() {
            let defined = std::mem::replace(&mut after_fn, t.is_ident("fn"));
            if t.kind == TokKind::Ident && !defined && !file.is_test_line(t.line) {
                uses.insert(t.text.as_str());
            }
        }
    }
    for file in ws.files.iter().filter(|f| is_library_file(&f.path)) {
        let code: Vec<_> = file.code().collect();
        for w in code.windows(3) {
            let [vis, kw, name] = w else { continue };
            if !vis.is_ident("pub")
                || !kw.is_ident("fn")
                || name.kind != TokKind::Ident
                || file.is_test_line(name.line)
                || uses.contains(name.text.as_str())
            {
                continue;
            }
            emit_unless_justified(
                file,
                out,
                "U1",
                name.line,
                &name.text,
                "why tests need it here",
                format!(
                    "`pub fn {}` has no caller outside test code: delete it, \
                     or move it into the test that calls it",
                    name.text
                ),
            );
        }
    }
}

/// R1: every experiment module is complete and registered.
fn rule_r1(ws: &Workspace, out: &mut Vec<Finding>) {
    let lib = ws
        .files
        .iter()
        .find(|f| f.path == "crates/experiments/src/lib.rs");
    for file in &ws.files {
        let Some(name) = file
            .path
            .strip_prefix("crates/experiments/src/")
            .and_then(|p| p.strip_suffix(".rs"))
            .filter(|p| p.starts_with("exp_") && !p.contains('/'))
        else {
            continue;
        };
        // Module name `exp_e10_lattice` → experiment id `e10`.
        let id = name
            .trim_start_matches("exp_")
            .split('_')
            .next()
            .unwrap_or_default();
        for f in ["jobs", "reduce"] {
            if !has_pub_fn(file, f) {
                emit(
                    file,
                    out,
                    "R1",
                    1,
                    format!("experiment module `{name}` does not define `pub fn {f}`"),
                );
            }
        }
        let Some(lib) = lib else {
            continue;
        };
        for f in ["jobs", "reduce"] {
            if !references_fn(lib, name, f) {
                emit(
                    lib,
                    out,
                    "R1",
                    1,
                    format!(
                        "`{name}::{f}` is never referenced in lib.rs (no REGISTRY row) \
                         — experiment `{id}` would silently drop from suite runs"
                    ),
                );
            }
        }
        let quoted = format!("\"{id}\"");
        if !lib
            .code()
            .any(|t| t.kind == TokKind::StrLit && t.text == quoted)
        {
            emit(
                lib,
                out,
                "R1",
                1,
                format!("experiment id \"{id}\" missing from the id registry in lib.rs"),
            );
        }
    }
}

fn has_pub_fn(file: &SourceFile, name: &str) -> bool {
    let code: Vec<_> = file.code().collect();
    code.windows(3)
        .any(|w| w[0].is_ident("pub") && w[1].is_ident("fn") && w[2].is_ident(name))
}

/// A path use of `module::function` anywhere in the file — a
/// REGISTRY row's `jobs: exp_xx::jobs` qualifies; `mod exp_xx;` does not.
fn references_fn(file: &SourceFile, module: &str, function: &str) -> bool {
    let code: Vec<_> = file.code().collect();
    code.windows(4).any(|w| {
        w[0].is_ident(module) && w[1].is_punct(':') && w[2].is_punct(':') && w[3].is_ident(function)
    })
}
