//! L1 — interprocedural lock-order analysis.
//!
//! Every acquisition site is mapped to a *lock class*:
//!
//! * `self.state.lock()` inside `impl Admission` → `Admission::state`;
//! * `slot.lock()` where `slot: &Slot<T>` → `Slot` (parameter
//!   types name the class);
//! * a chain rooted in an unknown local → a per-function unique
//!   class (it cannot alias anything else).
//!
//! Guard *extents* are modeled from parser events: an unbound guard
//! dies at its statement's `;`, a `let`-bound guard at scope exit or
//! an explicit `drop(g)`. Functions whose return type names a
//! `*Guard*` are lock helpers: the caller inherits their direct
//! acquisitions with the caller-side binding and extent. All other
//! callees are assumed to release what they take before returning
//! (DESIGN.md §12 lists the caveats: `Condvar::wait` re-acquisition
//! and `Drop` impls are invisible).
//!
//! While any guard is held, each further acquisition — direct or via
//! the transitive acquisition closure of a callee — records an
//! ordered pair `held → acquired`. Two checks run over the pair
//! graph:
//!
//! 1. **Cycles** (strongly connected components, self-edges
//!    included): a potential deadlock between concurrent call paths.
//! 2. **Canonical serve order** (DESIGN.md §11): server → admission
//!    → store → hub. A pair acquiring a lower-ranked class
//!    while holding a higher-ranked one is an inversion even without
//!    a full cycle in the code today.

use crate::callgraph::Model;
use crate::parser::Event;
use crate::rules::{Finding, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// Chained methods that return the receiver guard unchanged — the
/// workspace's poison-recovery idiom `lock().unwrap_or_else(|e|
/// e.into_inner())` keeps the guard alive through these.
const GUARD_TRANSPARENT: &[&str] = &["expect", "into_inner", "unwrap", "unwrap_or_else"];

/// Canonical lock rank for the serve stack (DESIGN.md §11): lower
/// ranks must be acquired first. Types not listed have no rank and
/// are only subject to the cycle check.
fn rank(class: &str) -> Option<u32> {
    let ty = class.split("::").next().unwrap_or(class);
    match ty {
        "Server" | "Results" => Some(0),
        "Admission" => Some(1),
        "ArtifactStore" => Some(2),
        "MetricsHub" | "Collector" => Some(3),
        // Socket-transport coordinator locks: a round exchange runs
        // under the trace scope (Collector), so the factory slot and
        // the worker-group link table sit innermost.
        "SocketFactory" => Some(4),
        "WorkerGroup" => Some(5),
        // The telemetry buffer is acquired under the group lock while
        // an ended session's spans are recorded, and is always
        // released before the flush absorbs into Collector/MetricsHub
        // — so it sits innermost of all.
        "TelemetryStore" => Some(6),
        _ => None,
    }
}

/// First witness for an ordered `held → acquired` pair.
#[derive(Debug, Clone)]
struct Witness {
    file: String,
    line: u32,
    /// Evidence: where the pair arises, call chain included.
    via: String,
}

/// One held guard during simulation.
struct Held {
    class: String,
    binding: Option<String>,
    scope: usize,
    transient: bool,
}

/// Runs the L1 analysis over the workspace.
pub fn rule_l1(ws: &Workspace, model: &Model, out: &mut Vec<Finding>) {
    let n = model.fn_count();
    // Direct acquisition classes per fn (used for guard-helper
    // propagation) and the transitive closure over calls.
    let mut direct: Vec<Vec<String>> = vec![Vec::new(); n];
    for (id, slot) in direct.iter_mut().enumerate() {
        for ev in &model.fn_at(id).events {
            if let Event::Acquire { recv, .. } = ev {
                slot.push(classify(model, id, recv));
            }
        }
    }
    let mut star: Vec<BTreeSet<String>> =
        direct.iter().map(|v| v.iter().cloned().collect()).collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            for &callee in &model.edges[id] {
                if callee == id {
                    continue;
                }
                let add: Vec<String> = star[callee]
                    .iter()
                    .filter(|c| !star[id].contains(*c))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    star[id].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut pairs: BTreeMap<(String, String), Witness> = BTreeMap::new();
    for id in 0..n {
        simulate(model, id, &direct, &star, &mut pairs);
    }

    let by_path: BTreeMap<&str, &crate::source::SourceFile> =
        ws.files.iter().map(|f| (f.path.as_str(), f)).collect();
    let suppressed = |w: &Witness| {
        by_path
            .get(w.file.as_str())
            .is_some_and(|f| f.is_suppressed("L1", w.line))
    };

    // Cycle check: SCCs of the class digraph.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (h, a) in pairs.keys() {
        adj.entry(h.as_str()).or_default().insert(a.as_str());
        adj.entry(a.as_str()).or_default();
    }
    for scc in sccs(&adj) {
        let set: BTreeSet<&str> = scc.iter().copied().collect();
        let cyclic = scc.len() > 1 || adj.get(scc[0]).is_some_and(|s| s.contains(scc[0]));
        if !cyclic {
            continue;
        }
        let intra: Vec<(&(String, String), &Witness)> = pairs
            .iter()
            .filter(|((h, a), _)| set.contains(h.as_str()) && set.contains(a.as_str()))
            .collect();
        if intra.iter().any(|(_, w)| suppressed(w)) {
            continue;
        }
        let Some((_, first)) = intra.iter().min_by_key(|(_, w)| (w.file.clone(), w.line)) else {
            continue;
        };
        let classes: Vec<&str> = scc.clone();
        let chain: Vec<String> = intra
            .iter()
            .map(|((h, a), w)| format!("{h} -> {a} at {}:{} ({})", w.file, w.line, w.via))
            .collect();
        out.push(Finding {
            rule: "L1",
            file: first.file.clone(),
            line: first.line,
            severity: "error",
            message: format!(
                "lock-order cycle between {{{}}}: concurrent call paths can \
                 deadlock; acquire these in one canonical order",
                classes.join(", ")
            ),
            snippet: by_path
                .get(first.file.as_str())
                .map(|f| f.line_text(first.line).to_string())
                .unwrap_or_default(),
            chain,
        });
    }

    // Canonical-rank check for the serve stack.
    for ((h, a), w) in &pairs {
        let (Some(rh), Some(ra)) = (rank(h), rank(a)) else {
            continue;
        };
        if rh <= ra || suppressed(w) {
            continue;
        }
        out.push(Finding {
            rule: "L1",
            file: w.file.clone(),
            line: w.line,
            severity: "error",
            message: format!(
                "`{a}` acquired while holding `{h}` — inverts the canonical \
                 serve lock order (server -> admission -> store -> hub, \
                 DESIGN.md \u{a7}11)"
            ),
            snippet: by_path
                .get(w.file.as_str())
                .map(|f| f.line_text(w.line).to_string())
                .unwrap_or_default(),
            chain: vec![w.via.clone()],
        });
    }
}

/// Simulates one function's events, recording `held → acquired`
/// pairs into `pairs` (first witness wins; iteration order is
/// deterministic).
fn simulate(
    model: &Model,
    id: usize,
    direct: &[Vec<String>],
    star: &[BTreeSet<String>],
    pairs: &mut BTreeMap<(String, String), Witness>,
) {
    let f = model.fn_at(id);
    if f.is_test {
        return;
    }
    let file = model.file_of(id);
    let events = &f.events;
    let mut held: Vec<Held> = Vec::new();
    let mut scope = 0usize;
    let mut record = |held: &[Held], acquired: &str, line: u32, via: String| {
        for h in held {
            if h.class == acquired && h.transient {
                // A transient re-take of the same class within one
                // statement is the `map.lock().x; map.lock().y;`
                // chain pattern — same instance, not an order edge.
                continue;
            }
            pairs
                .entry((h.class.clone(), acquired.to_string()))
                .or_insert_with(|| Witness {
                    file: file.path.clone(),
                    line,
                    via: via.clone(),
                });
        }
    };
    for (i, ev) in events.iter().enumerate() {
        match ev {
            Event::EnterBlock => scope += 1,
            Event::ExitBlock => {
                held.retain(|h| h.scope < scope);
                scope = scope.saturating_sub(1);
            }
            Event::StmtEnd => held.retain(|h| !h.transient),
            Event::DropVar { name, .. } => {
                held.retain(|h| h.binding.as_deref() != Some(name.as_str()));
            }
            Event::Acquire {
                recv,
                binding,
                line,
                ..
            } => {
                let class = classify(model, id, recv);
                record(
                    &held,
                    &class,
                    *line,
                    format!("direct acquisition in {}", model.qualified(id)),
                );
                let bound = binding.is_some() && survives_statement(events, i);
                held.push(Held {
                    class,
                    binding: if bound { binding.clone() } else { None },
                    scope,
                    transient: !bound,
                });
            }
            Event::Call(call) => {
                for callee in model.resolve_call(id, call) {
                    if callee == id {
                        continue;
                    }
                    let callee_fn = model.fn_at(callee);
                    if callee_fn.returns_guard {
                        // Lock helper: its direct classes become our
                        // own acquisitions with our extent.
                        for class in &direct[callee] {
                            record(
                                &held,
                                class,
                                call.line,
                                format!(
                                    "via guard helper {} called from {}",
                                    model.qualified(callee),
                                    model.qualified(id)
                                ),
                            );
                            let bound = call.binding.is_some() && survives_statement(events, i);
                            held.push(Held {
                                class: class.clone(),
                                binding: if bound { call.binding.clone() } else { None },
                                scope,
                                transient: !bound,
                            });
                        }
                    } else if !held.is_empty() {
                        for class in &star[callee] {
                            record(
                                &held,
                                class,
                                call.line,
                                format!(
                                    "{} acquires it inside the call to {}",
                                    model.qualified(id),
                                    model.qualified(callee)
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Whether the value produced at event `i` survives its statement:
/// only guard-transparent chained calls may sit between it and the
/// `;`. (`lock().pop_front()` consumes the guard; `lock()
/// .unwrap_or_else(|e| e.into_inner())` does not.)
fn survives_statement(events: &[Event], i: usize) -> bool {
    for ev in events.iter().skip(i + 1) {
        match ev {
            Event::StmtEnd => return true,
            Event::Call(c)
                if c.path.len() == 1 && GUARD_TRANSPARENT.contains(&c.path[0].as_str()) =>
            {
                continue;
            }
            _ => return false,
        }
    }
    false
}

/// Maps an acquisition receiver chain to its lock class.
fn classify(model: &Model, id: usize, recv: &[String]) -> String {
    let f = model.fn_at(id);
    if recv.first().is_some_and(|r| r == "self") {
        if let Some(ty) = f.type_name.as_deref().filter(|t| !t.is_empty()) {
            return format!("{}::{}", ty, recv[1..].join("."));
        }
    }
    if let Some(first) = recv.first() {
        if let Some((_, ty)) = f.params.iter().find(|(p, _)| p == first) {
            if recv.len() == 1 {
                return ty.clone();
            }
            return format!("{}::{}", ty, recv[1..].join("."));
        }
    }
    let file = model.file_of(id);
    format!(
        "{}::{}::{}::{}",
        file.crate_name,
        file.module,
        f.name,
        recv.join(".")
    )
}

/// Kosaraju SCCs over a string-keyed digraph, in deterministic
/// (sorted-key) order. Each SCC's nodes are sorted.
fn sccs<'a>(adj: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Vec<Vec<&'a str>> {
    let mut order: Vec<&str> = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for &start in adj.keys() {
        if seen.contains(start) {
            continue;
        }
        // Iterative post-order DFS.
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(
            start,
            adj.get(start)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default(),
        )];
        seen.insert(start);
        while let Some((node, todo)) = stack.last_mut() {
            let node = *node;
            if let Some(next) = todo.pop() {
                if seen.insert(next) {
                    let children = adj
                        .get(next)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    stack.push((next, children));
                }
            } else {
                order.push(node);
                stack.pop();
            }
        }
    }
    let mut radj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (&h, outs) in adj {
        radj.entry(h).or_default();
        for &a in outs {
            radj.entry(a).or_default().insert(h);
        }
    }
    let mut assigned: BTreeSet<&str> = BTreeSet::new();
    let mut out: Vec<Vec<&str>> = Vec::new();
    for &root in order.iter().rev() {
        if assigned.contains(root) {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![root];
        assigned.insert(root);
        while let Some(node) = stack.pop() {
            comp.push(node);
            if let Some(preds) = radj.get(node) {
                for &p in preds {
                    if assigned.insert(p) {
                        stack.push(p);
                    }
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
        rule_l1(&ws, &model, &mut out);
        out
    }

    #[test]
    fn opposed_acquisition_orders_form_a_cycle() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "impl Left {\n    pub fn ab(&self) {\n        let a = self.a.lock();\n        let b = self.b.lock();\n    }\n    pub fn ba(&self) {\n        let b = self.b.lock();\n        let a = self.a.lock();\n    }\n}\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "L1");
        assert!(f[0].message.contains("cycle"));
        assert!(f[0].chain.iter().any(|c| c.contains("Left::a -> Left::b")));
    }

    #[test]
    fn transient_statement_guards_do_not_pair() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "impl S {\n    pub fn go(&self) {\n        self.a.lock().push(1);\n        self.b.lock().push(2);\n    }\n    pub fn back(&self) {\n        self.b.lock().push(1);\n        self.a.lock().push(2);\n    }\n}\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn drop_releases_the_guard_before_the_next_lock() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "impl S {\n    pub fn ab(&self) {\n        let a = self.a.lock();\n        drop(a);\n        let b = self.b.lock();\n    }\n    pub fn ba(&self) {\n        let b = self.b.lock();\n        drop(b);\n        let a = self.a.lock();\n    }\n}\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn guard_helpers_propagate_extent_to_callers() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "impl S {\n    fn lock_a(&self) -> MutexGuard<'_, u32> { self.a.lock() }\n    fn lock_b(&self) -> MutexGuard<'_, u32> { self.b.lock() }\n    pub fn ab(&self) {\n        let a = self.lock_a();\n        let b = self.lock_b();\n    }\n    pub fn ba(&self) {\n        let b = self.lock_b();\n        let a = self.lock_a();\n    }\n}\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].chain.iter().any(|c| c.contains("guard helper")));
    }

    #[test]
    fn transitive_acquisitions_through_calls_pair_with_held_guards() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "impl S {\n    pub fn outer(&self) {\n        let a = self.a.lock();\n        self.deep();\n    }\n    fn deep(&self) {\n        let b = self.b.lock();\n        let back = self.a.lock();\n    }\n}\n",
        )]);
        // outer holds S::a across deep(), which takes S::b then S::a:
        // the S::a -> S::b -> S::a cycle must be found.
        assert!(f.iter().any(|x| x.message.contains("cycle")), "{f:?}");
    }

    #[test]
    fn serve_rank_inversions_fire_without_a_cycle() {
        let f = run(&[(
            "crates/serve/src/server.rs",
            "impl MetricsHub {\n    pub fn bad(&self, adm: &Admission) {\n        let g = self.store.lock();\n        let a = adm.state.lock();\n    }\n}\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("canonical serve lock order"));
    }

    #[test]
    fn suppressed_witnesses_silence_the_cycle() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "impl Left {\n    pub fn ab(&self) {\n        let a = self.a.lock();\n        let b = self.b.lock(); // bcc-lint: allow(L1)\n    }\n    pub fn ba(&self) {\n        let b = self.b.lock();\n        let a = self.a.lock();\n    }\n}\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
