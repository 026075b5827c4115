//! The workspace call graph: every parsed `fn` becomes a node, and
//! call sites resolve to edges through per-crate symbol tables.
//!
//! Resolution is deliberately conservative in both directions (see
//! DESIGN.md §12):
//!
//! * **Unknown callees degrade to no edge.** A call that cannot be
//!   matched to a workspace function (std, vendored shims, macros)
//!   contributes nothing — analyses must treat missing edges as
//!   "no information", not "proven absent".
//! * **Method calls over-approximate.** Without type inference, a
//!   method call on an unresolved receiver matches *every* workspace
//!   method of that name, except names on the [`STD_METHODS`]
//!   denylist (std collection/iterator/sync vocabulary) whose matches
//!   would be noise. `self.m()` resolves precisely within the
//!   enclosing impl, and a receiver that is a typed parameter
//!   resolves against that parameter's type.
//!
//! Node order — and therefore every downstream iteration — is fixed
//! by (file path, source order), which keeps findings byte-stable.

use crate::parser::{parse_file, Call, Event, ParsedFile, ParsedFn};
use crate::rules::Workspace;
use std::collections::BTreeMap;

/// Method names resolved as std vocabulary rather than workspace
/// dyn-dispatch: the fallback (not `self.m()` / typed-receiver)
/// resolution skips these. Workspace verbs that matter to the
/// analyses — `spawn`, `send`, `broadcast`, `receive`, `finish`,
/// `observe`, `absorb`, `to_json`, `write_jsonl` — are deliberately
/// absent so their call chains survive.
pub const STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "ceil",
    "chain",
    "chars",
    "checked_add",
    "checked_mul",
    "checked_sub",
    "chunks",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "concat",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect",
    "extend",
    "fetch_add",
    "fetch_or",
    "fetch_sub",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "insert",
    "into_inner",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "is_some_and",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "load",
    "lock",
    "map",
    "map_err",
    "map_or",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "notify_all",
    "notify_one",
    "ok",
    "ok_or",
    "ok_or_else",
    "parse",
    "partition",
    "peek",
    "pop",
    "pop_back",
    "pop_front",
    "position",
    "push",
    "push_back",
    "push_front",
    "push_str",
    "read",
    "recv",
    "remove",
    "replace",
    "retain",
    "rev",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "split_off",
    "split_once",
    "splitn",
    "starts_with",
    "store",
    "strip_prefix",
    "strip_suffix",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "wait",
    "wait_timeout",
    "windows",
    "wrapping_add",
    "write",
    "write_all",
    "zip",
];

/// The interprocedural model: parsed files, the flattened function
/// list, and the resolved call graph (forward and reverse edges).
#[derive(Debug)]
pub struct Model {
    /// Parsed files, in [`Workspace`] (path-sorted) order.
    pub files: Vec<ParsedFile>,
    /// Global fn id → `(file index, fn index within file)`.
    pub fn_locs: Vec<(usize, usize)>,
    /// Forward edges, sorted and deduplicated per node.
    pub edges: Vec<Vec<usize>>,
    /// Reverse edges, sorted and deduplicated per node.
    pub redges: Vec<Vec<usize>>,
    /// `fn name → global ids` (methods and free fns).
    by_name: BTreeMap<String, Vec<usize>>,
    /// `(impl type, fn name) → global ids`.
    by_type: BTreeMap<(String, String), Vec<usize>>,
    /// `(crate, module, fn name) → global ids` (free fns only).
    by_crate_mod: BTreeMap<(String, String, String), Vec<usize>>,
    /// `(crate, fn name) → global ids` (free fns only).
    by_crate: BTreeMap<(String, String), Vec<usize>>,
    /// `(module, fn name) → global ids` (free fns only).
    by_mod: BTreeMap<(String, String), Vec<usize>>,
}

impl Model {
    /// Parses every workspace file and builds the call graph.
    pub fn build(ws: &Workspace) -> Model {
        let files: Vec<ParsedFile> = ws.files.iter().map(parse_file).collect();
        let mut fn_locs = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, _) in file.fns.iter().enumerate() {
                fn_locs.push((fi, gi));
            }
        }
        let mut m = Model {
            files,
            fn_locs,
            edges: Vec::new(),
            redges: Vec::new(),
            by_name: BTreeMap::new(),
            by_type: BTreeMap::new(),
            by_crate_mod: BTreeMap::new(),
            by_crate: BTreeMap::new(),
            by_mod: BTreeMap::new(),
        };
        for id in 0..m.fn_locs.len() {
            let (fi, gi) = m.fn_locs[id];
            let file = &m.files[fi];
            let f = &file.fns[gi];
            m.by_name.entry(f.name.clone()).or_default().push(id);
            if let Some(ty) = &f.type_name {
                m.by_type
                    .entry((ty.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
            } else {
                m.by_crate_mod
                    .entry((file.crate_name.clone(), file.module.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
                m.by_crate
                    .entry((file.crate_name.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
                m.by_mod
                    .entry((file.module.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
            }
        }
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); m.fn_locs.len()];
        let mut redges: Vec<Vec<usize>> = vec![Vec::new(); m.fn_locs.len()];
        for (id, slot) in edges.iter_mut().enumerate() {
            let mut out = Vec::new();
            for ev in &m.fn_at(id).events {
                if let Event::Call(call) = ev {
                    out.extend(m.resolve_call(id, call));
                }
            }
            out.sort_unstable();
            out.dedup();
            for &callee in &out {
                redges[callee].push(id);
            }
            *slot = out;
        }
        for r in &mut redges {
            r.sort_unstable();
            r.dedup();
        }
        m.edges = edges;
        m.redges = redges;
        m
    }

    /// Number of functions in the graph.
    pub fn fn_count(&self) -> usize {
        self.fn_locs.len()
    }

    /// The function behind a global id.
    pub fn fn_at(&self, id: usize) -> &ParsedFn {
        let (fi, gi) = self.fn_locs[id];
        &self.files[fi].fns[gi]
    }

    /// The file containing a global id.
    pub fn file_of(&self, id: usize) -> &ParsedFile {
        &self.files[self.fn_locs[id].0]
    }

    /// `crate::module::Type::name` (type omitted for free fns) — the
    /// evidence format used in finding call chains.
    pub fn qualified(&self, id: usize) -> String {
        let file = self.file_of(id);
        let f = self.fn_at(id);
        match &f.type_name {
            Some(ty) if !ty.is_empty() => {
                format!("{}::{}::{}::{}", file.crate_name, file.module, ty, f.name)
            }
            _ => format!("{}::{}::{}", file.crate_name, file.module, f.name),
        }
    }

    /// Resolves one call site to zero or more workspace functions.
    pub fn resolve_call(&self, caller: usize, call: &Call) -> Vec<usize> {
        if call.is_method {
            self.resolve_method(caller, call)
        } else {
            self.resolve_path(caller, call)
        }
    }

    fn resolve_method(&self, caller: usize, call: &Call) -> Vec<usize> {
        let name = match call.path.first() {
            Some(n) => n.as_str(),
            None => return Vec::new(),
        };
        // `self.m()` → the enclosing impl's own method, if it exists.
        if let Some(recv) = &call.recv {
            if recv.len() == 1 && recv[0] == "self" {
                if let Some(ty) = &self.fn_at(caller).type_name {
                    let hits = self.type_hits(caller, ty, name);
                    if !hits.is_empty() {
                        return hits;
                    }
                }
            }
            // `param.m()` where `param: T` → `T::m`, if it exists.
            if recv.len() == 1 {
                let f = self.fn_at(caller);
                if let Some((_, ty)) = f.params.iter().find(|(p, _)| *p == recv[0]) {
                    let hits = self.type_hits(caller, ty, name);
                    if !hits.is_empty() {
                        return hits;
                    }
                }
            }
        }
        // Fallback: dyn-dispatch over-approximation across every
        // workspace method of this name, unless it reads as std
        // vocabulary.
        if STD_METHODS.contains(&name) {
            return Vec::new();
        }
        self.by_name
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| self.fn_at(id).type_name.is_some())
                    .collect()
            })
            .unwrap_or_default()
    }

    fn resolve_path(&self, caller: usize, call: &Call) -> Vec<usize> {
        let segs = &call.path;
        let last = match segs.last() {
            Some(l) => l.as_str(),
            None => return Vec::new(),
        };
        let file = self.file_of(caller);
        if segs.len() == 1 {
            // Bare `f()`: same module, then unique-in-crate, then
            // unique-in-workspace.
            let key = (
                file.crate_name.clone(),
                file.module.clone(),
                last.to_string(),
            );
            if let Some(ids) = self.by_crate_mod.get(&key) {
                return ids.clone();
            }
            if let Some(ids) = self
                .by_crate
                .get(&(file.crate_name.clone(), last.to_string()))
            {
                if ids.len() == 1 {
                    return ids.clone();
                }
            }
            let free: Vec<usize> = self
                .by_name
                .get(last)
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|&id| self.fn_at(id).type_name.is_none())
                        .collect()
                })
                .unwrap_or_default();
            if free.len() == 1 {
                return free;
            }
            return Vec::new();
        }
        let first = segs[0].as_str();
        if first == "Self" {
            if let Some(ty) = &self.fn_at(caller).type_name {
                return self.type_hits(caller, ty, last);
            }
            return Vec::new();
        }
        if first == "crate" || first == "self" || first == "super" {
            // `crate::module::f` names the module explicitly;
            // `crate::f` / `self::f` / `super::f` fall back to a
            // unique same-crate free fn.
            if first == "crate" && segs.len() >= 3 {
                let key = (
                    file.crate_name.clone(),
                    segs[segs.len() - 2].clone(),
                    last.to_string(),
                );
                if let Some(ids) = self.by_crate_mod.get(&key) {
                    return ids.clone();
                }
            }
            if let Some(ids) = self
                .by_crate
                .get(&(file.crate_name.clone(), last.to_string()))
            {
                if ids.len() == 1 {
                    return ids.clone();
                }
            }
            return Vec::new();
        }
        if let Some(krate) = first.strip_prefix("bcc_") {
            // Cross-crate: `bcc_x::f`, `bcc_x::module::f`, or
            // `bcc_x::Type::f`.
            if segs.len() >= 3 {
                let mid = segs[segs.len() - 2].as_str();
                if mid.starts_with(char::is_uppercase) {
                    let hits: Vec<usize> = self
                        .by_type
                        .get(&(mid.to_string(), last.to_string()))
                        .map(|ids| {
                            ids.iter()
                                .copied()
                                .filter(|&id| self.file_of(id).crate_name == krate)
                                .collect()
                        })
                        .unwrap_or_default();
                    return hits;
                }
                if let Some(ids) =
                    self.by_crate_mod
                        .get(&(krate.to_string(), mid.to_string(), last.to_string()))
                {
                    return ids.clone();
                }
                return Vec::new();
            }
            return self
                .by_crate
                .get(&(krate.to_string(), last.to_string()))
                .cloned()
                .unwrap_or_default();
        }
        if first.starts_with(char::is_uppercase) {
            // `Type::f` — an associated function or enum variant;
            // variants simply fail the lookup.
            return self.type_hits(caller, first, last);
        }
        // `module::f` in any crate (the workspace has no module name
        // collisions that matter; collisions over-approximate).
        self.by_mod
            .get(&(first.to_string(), last.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// `(type, name)` lookup preferring the caller's own crate when
    /// the type name exists in several.
    fn type_hits(&self, caller: usize, ty: &str, name: &str) -> Vec<usize> {
        let Some(ids) = self.by_type.get(&(ty.to_string(), name.to_string())) else {
            return Vec::new();
        };
        let here = &self.file_of(caller).crate_name;
        let same: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&id| &self.file_of(id).crate_name == here)
            .collect();
        if same.is_empty() {
            ids.clone()
        } else {
            same
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files
                .iter()
                .map(|(p, s)| SourceFile::parse(*p, s))
                .collect(),
            referrers: Vec::new(),
        }
    }

    fn id_of(m: &Model, qualified: &str) -> usize {
        (0..m.fn_count())
            .find(|&id| m.qualified(id) == qualified)
            .unwrap_or_else(|| panic!("no fn {qualified}"))
    }

    #[test]
    fn direct_and_cross_crate_edges() {
        let m = Model::build(&ws(&[
            (
                "crates/alpha/src/lib.rs",
                "pub fn top() { helper(); bcc_beta::sink(1); }\nfn helper() {}\n",
            ),
            ("crates/beta/src/lib.rs", "pub fn sink(x: u32) {}\n"),
        ]));
        let top = id_of(&m, "alpha::alpha::top");
        let helper = id_of(&m, "alpha::alpha::helper");
        let sink = id_of(&m, "beta::beta::sink");
        assert_eq!(m.edges[top], vec![helper, sink]);
        assert_eq!(m.redges[sink], vec![top]);
    }

    #[test]
    fn cycles_are_representable() {
        let m = Model::build(&ws(&[(
            "crates/a/src/lib.rs",
            "pub fn ping() { pong(); }\npub fn pong() { ping(); }\n",
        )]));
        let ping = id_of(&m, "a::a::ping");
        let pong = id_of(&m, "a::a::pong");
        assert_eq!(m.edges[ping], vec![pong]);
        assert_eq!(m.edges[pong], vec![ping]);
    }

    #[test]
    fn self_method_calls_resolve_within_the_impl() {
        let m = Model::build(&ws(&[(
            "crates/a/src/lib.rs",
            "pub struct S;\nimpl S {\n    pub fn outer(&self) { self.inner(); }\n    fn inner(&self) {}\n}\npub struct T;\nimpl T {\n    fn inner(&self) {}\n}\n",
        )]));
        let outer = id_of(&m, "a::a::S::outer");
        let inner_s = id_of(&m, "a::a::S::inner");
        assert_eq!(m.edges[outer], vec![inner_s]);
    }

    #[test]
    fn typed_param_receivers_resolve_to_the_param_type() {
        let m = Model::build(&ws(&[(
            "crates/a/src/lib.rs",
            "pub struct Pool;\nimpl Pool {\n    pub fn run(&self) {}\n}\npub fn drive(pool: &Pool) { pool.run(); }\n",
        )]));
        let drive = id_of(&m, "a::a::drive");
        let run = id_of(&m, "a::a::Pool::run");
        assert_eq!(m.edges[drive], vec![run]);
    }

    #[test]
    fn unknown_and_std_callees_degrade_to_no_edge() {
        let m = Model::build(&ws(&[(
            "crates/a/src/lib.rs",
            "pub fn f(v: &str) { v.len(); std_thing(); xs.insert(1); }\n",
        )]));
        let f = id_of(&m, "a::a::f");
        assert!(m.edges[f].is_empty());
    }

    #[test]
    fn dyn_dispatch_over_approximates_non_std_methods() {
        let m = Model::build(&ws(&[(
            "crates/a/src/lib.rs",
            "pub struct X;\nimpl X {\n    pub fn absorb(&self) {}\n}\npub fn f(h: &dyn H) { h.absorb(); }\n",
        )]));
        let f = id_of(&m, "a::a::f");
        let absorb = id_of(&m, "a::a::X::absorb");
        assert_eq!(m.edges[f], vec![absorb]);
    }

    #[test]
    fn type_paths_and_self_paths_resolve() {
        let m = Model::build(&ws(&[(
            "crates/a/src/lib.rs",
            "pub struct B;\nimpl B {\n    pub fn parse() {}\n    pub fn both() { Self::parse(); B::parse(); }\n}\n",
        )]));
        let both = id_of(&m, "a::a::B::both");
        let parse = id_of(&m, "a::a::B::parse");
        assert_eq!(m.edges[both], vec![parse]);
    }

    #[test]
    fn qualified_names_are_stable_evidence() {
        let m = Model::build(&ws(&[(
            "crates/serve/src/server.rs",
            "pub struct Server;\nimpl Server {\n    pub fn run(&self) {}\n}\n",
        )]));
        assert_eq!(m.qualified(0), "serve::server::Server::run");
    }
}
