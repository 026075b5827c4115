//! N1 — interprocedural nondeterminism taint.
//!
//! A *source* is a token whose value (or iteration order) is not a
//! pure function of the job seed: `HashMap`/`HashSet` (hash-ordered
//! iteration), `Instant::now`/`SystemTime::now` (wall clock, outside
//! the runner's exemptions), or an OS entropy read. A *sink* is a
//! direct call into the report/trace/metrics emission surface
//! ([`SINK_NAMES`]). A function is *tainted* when it can reach a
//! source through the call graph; a tainted function that also emits
//! through a sink gets one N1 finding carrying the full call chain
//! from the sink down to the source as evidence.
//!
//! This subsumes the crate-scoped D1/D2 checks path-sensitively: a
//! hash map three calls away from a `counter()` emission is flagged
//! with the chain, while a hash map whose values never reach any
//! output stays silent at N1 level (D1 still applies in report
//! crates). Suppression is honored at either endpoint: an
//! `allow(N1)` on the source line blocks every chain from it; one on
//! the sink line blocks that sink.

use crate::callgraph::Model;
use crate::lexer::TokKind;
use crate::rules::{Finding, Workspace, D2_CARVEOUTS, D2_EXEMPT};

/// Emission-surface calls treated as sinks: the report, trace, and
/// metrics vocabulary through which bytes leave the system.
pub const SINK_NAMES: &[&str] = &[
    "counter",
    "event",
    "full_observe",
    "gauge",
    "observe",
    "span_end",
    "span_start",
    "to_json",
    "write_jsonl",
];

/// One nondeterminism source found in a function body.
struct TaintSource {
    /// Global fn id containing the token.
    fn_id: usize,
    /// Human description, e.g. "`HashMap` iteration order".
    desc: String,
    /// 1-based line of the source token.
    line: u32,
}

/// Runs the N1 analysis over the workspace.
pub fn rule_n1(ws: &Workspace, model: &Model, out: &mut Vec<Finding>) {
    let sources = collect_sources(ws, model);
    if sources.is_empty() {
        return;
    }
    // Multi-source BFS over reverse call edges: `origin[f]` is the
    // source whose taint reached `f` first (deterministic: sources
    // and edges are iterated in global-id order), `parent[f]` the
    // next hop toward it.
    let n = model.fn_count();
    let mut origin: Vec<Option<usize>> = vec![None; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for (si, s) in sources.iter().enumerate() {
        if origin[s.fn_id].is_none() {
            origin[s.fn_id] = Some(si);
            queue.push_back(s.fn_id);
        }
    }
    while let Some(f) = queue.pop_front() {
        for &caller in &model.redges[f] {
            if origin[caller].is_none() {
                origin[caller] = origin[f];
                parent[caller] = Some(f);
                queue.push_back(caller);
            }
        }
    }
    for (id, orig) in origin.iter().enumerate() {
        let Some(si) = *orig else { continue };
        let f = model.fn_at(id);
        if f.is_test {
            continue;
        }
        let Some((sink_name, sink_line)) = first_sink(f) else {
            continue;
        };
        let source = &sources[si];
        let (fi, _) = model.fn_locs[id];
        let sink_file = &ws.files[fi];
        let (sfi, _) = model.fn_locs[source.fn_id];
        let source_file = &ws.files[sfi];
        if sink_file.is_suppressed("N1", sink_line) || source_file.is_suppressed("N1", source.line)
        {
            continue;
        }
        let mut chain = Vec::new();
        let mut cur = id;
        chain.push(model.qualified(cur));
        while let Some(next) = parent[cur] {
            chain.push(model.qualified(next));
            cur = next;
        }
        chain.push(format!(
            "source: {} at {}:{}",
            source.desc, source_file.path, source.line
        ));
        out.push(Finding {
            rule: "N1",
            file: sink_file.path.clone(),
            line: sink_line,
            severity: "error",
            message: format!(
                "`{sink_name}` emits bytes influenced by {} ({} call{} from the source)",
                source.desc,
                chain.len() - 2,
                if chain.len() == 3 { "" } else { "s" }
            ),
            snippet: sink_file.line_text(sink_line).to_string(),
            chain,
        });
    }
}

/// The first direct sink call in a function, if any.
fn first_sink(f: &crate::parser::ParsedFn) -> Option<(String, u32)> {
    for ev in &f.events {
        if let crate::parser::Event::Call(c) = ev {
            if let Some(last) = c.path.last() {
                if SINK_NAMES.contains(&last.as_str()) {
                    return Some((last.clone(), c.line));
                }
            }
        }
    }
    None
}

/// Scans every non-test function span for nondeterminism sources.
fn collect_sources(ws: &Workspace, model: &Model) -> Vec<TaintSource> {
    let mut out = Vec::new();
    for id in 0..model.fn_count() {
        let f = model.fn_at(id);
        if f.is_test {
            continue;
        }
        let (fi, _) = model.fn_locs[id];
        let file = &ws.files[fi];
        let clock_exempt = D2_EXEMPT.iter().any(|p| file.path.starts_with(p))
            || D2_CARVEOUTS.contains(&file.path.as_str());
        let entropy_exempt = D2_EXEMPT.iter().any(|p| file.path.starts_with(p));
        let code: Vec<_> = file.code().collect();
        for (i, t) in code.iter().enumerate() {
            if t.kind != TokKind::Ident
                || t.line < f.line
                || t.line > f.end_line
                || file.is_test_line(t.line)
                || file.is_suppressed("N1", t.line)
            {
                continue;
            }
            match t.text.as_str() {
                "HashMap" | "HashSet" => out.push(TaintSource {
                    fn_id: id,
                    desc: format!("`{}` iteration order", t.text),
                    line: t.line,
                }),
                "Instant" | "SystemTime"
                    if !clock_exempt
                        && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
                        && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
                        && code.get(i + 3).is_some_and(|t| t.is_ident("now")) =>
                {
                    out.push(TaintSource {
                        fn_id: id,
                        desc: format!("`{}::now()` (wall clock)", t.text),
                        line: t.line,
                    });
                }
                "thread_rng" | "from_entropy" | "OsRng" | "getrandom" if !entropy_exempt => {
                    out.push(TaintSource {
                        fn_id: id,
                        desc: format!("`{}` (OS entropy)", t.text),
                        line: t.line,
                    });
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Model;
    use crate::source::SourceFile;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace {
            files: files
                .iter()
                .map(|(p, s)| SourceFile::parse(*p, s))
                .collect(),
            referrers: Vec::new(),
        };
        let model = Model::build(&ws);
        let mut out = Vec::new();
        rule_n1(&ws, &model, &mut out);
        out
    }

    #[test]
    fn cross_function_taint_reaches_the_sink_with_a_chain() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "use std::collections::HashMap;\n\
             pub fn jitter() -> u32 { let m: HashMap<u32, u32> = HashMap::new(); m.len() as u32 }\n\
             pub fn report(scope: &Scope) { let v = jitter(); scope.counter(\"x\", v); }\n",
        )]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "N1");
        assert_eq!(f[0].line, 3);
        assert!(f[0].chain.first().unwrap().ends_with("report"));
        assert!(f[0].chain.last().unwrap().contains("HashMap"));
    }

    #[test]
    fn untainted_sinks_and_sourceless_graphs_are_silent() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "pub fn clean(scope: &Scope) { scope.counter(\"x\", 1); }\n",
        )]);
        assert!(f.is_empty());
    }

    #[test]
    fn source_line_suppression_blocks_every_chain() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "// bcc-lint: allow(N1)\n\
             pub fn jitter() -> u32 { let m = HashMap::new(); 0 }\n\
             pub fn report(scope: &Scope) { let v = jitter(); scope.counter(\"x\", v); }\n",
        )]);
        assert!(f.is_empty());
    }

    #[test]
    fn sources_in_test_code_do_not_taint() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "pub fn report(scope: &Scope) { scope.counter(\"x\", 1); }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { let m = HashMap::new(); super::report(&s); }\n}\n",
        )]);
        assert!(f.is_empty());
    }
}
