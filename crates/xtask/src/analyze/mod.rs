//! The multi-pass static analysis suite (`xtask analyze`).
//!
//! Four passes run over a shared parse of the workspace:
//!
//! * [`locks`] — lock-order / deadlock: every `Mutex`/`RwLock`/`Condvar`
//!   acquisition site, the lock-acquisition graph, cycles, and locks held
//!   across channel sends or `Faults::fire` points.
//! * [`panics`] — interprocedural may-panic propagation from the serving
//!   entry points, reported with full call chains.
//! * [`metrics`] — the exported-metrics surface ratchet over
//!   `obsv/src/metrics.rs` and `crates/obsv/metrics.schema`.
//! * [`kernels`] — striped/scalar kernel signature parity over the
//!   `align` crate (every `_striped` entry point shadows its scalar
//!   oracle with a matching shape).
//!
//! All passes reuse the lint engine's suppression machinery: inline
//! `// lint: allow(<rule>)` annotations and the `lint.allow` budget file.
//! Soundness caveats of the underlying approximate call graph are
//! documented in DESIGN.md §"Static analysis architecture".

pub(crate) mod kernels;
pub(crate) mod locks;
pub(crate) mod metrics;
pub(crate) mod panics;

use crate::lexer::{lex, Lexed};
use crate::parser::{parse_fns, Call, CallKind, FnInfo};
use crate::rules::{allowed_lines, test_mask};
use std::collections::{HashMap, HashSet};

/// One parsed source file, shared by every pass.
pub(crate) struct FileUnit {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Owning crate (`crates/<k>/src/...` → `k`; `src/...` → `root`;
    /// fixture files use their file stem so lock identities and chains
    /// stay readable in fixture runs).
    pub krate: String,
    pub lexed: Lexed,
    pub fns: Vec<FnInfo>,
    /// Per-token brace depth (see [`crate::parser::brace_depths`]).
    pub depth: Vec<usize>,
    /// Per-token test-region mask.
    pub mask: Vec<bool>,
    /// Lines suppressed per rule by inline `lint: allow(...)` comments.
    pub allowed: HashMap<String, HashSet<usize>>,
}

impl FileUnit {
    /// Whether `line` carries an inline suppression for `rule`.
    fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allowed.get(rule).is_some_and(|l| l.contains(&line))
    }
}

/// Parse `(rel_path, source)` pairs into analysis units.
pub(crate) fn build_units(files: &[(String, String)]) -> Vec<FileUnit> {
    files
        .iter()
        .map(|(rel, src)| {
            let lexed = lex(src);
            let mask = test_mask(&lexed.tokens);
            let fns = parse_fns(&lexed.tokens, &mask);
            let depth = crate::parser::brace_depths(&lexed.tokens);
            let allowed = allowed_lines(&lexed);
            FileUnit { rel: rel.clone(), krate: crate_of(rel), lexed, fns, depth, mask, allowed }
        })
        .collect()
}

fn crate_of(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((k, tail)) = rest.split_once('/') {
            if tail.starts_with("src/") || tail == "src" {
                return k.to_string();
            }
            // Fixture and other out-of-src files: use the file stem.
            return rel
                .rsplit('/')
                .next()
                .and_then(|f| f.strip_suffix(".rs"))
                .unwrap_or(k)
                .to_string();
        }
    }
    "root".to_string()
}

/// Paths the interprocedural passes look at: library code, not bins or
/// benches (mirrors the lint rules' `scope_library`).
fn in_analysis_scope(rel: &str) -> bool {
    !rel.contains("/bin/") && !rel.starts_with("crates/bench/")
}

/// A function, addressed as (unit index, fn index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct FnRef {
    pub file: usize,
    pub f: usize,
}

/// Name → candidate functions, over non-test fns of in-scope units.
pub(crate) struct CallIndex {
    by_name: HashMap<String, Vec<FnRef>>,
}

/// Build the resolution index.
pub(crate) fn build_index(units: &[FileUnit]) -> CallIndex {
    let mut by_name: HashMap<String, Vec<FnRef>> = HashMap::new();
    for (file, u) in units.iter().enumerate() {
        if !in_analysis_scope(&u.rel) {
            continue;
        }
        for (f, info) in u.fns.iter().enumerate() {
            if info.is_test || info.body.is_empty() {
                continue;
            }
            by_name.entry(info.name.clone()).or_default().push(FnRef { file, f });
        }
    }
    CallIndex { by_name }
}

/// Method names that collide with ubiquitous std APIs: resolving these
/// globally would wire unrelated crates together (`.lock(` on a std
/// `Mutex` is not `serve::batcher::lock`). They still resolve same-file
/// and same-crate, where the receiver type is far more likely ours.
const STD_COLLISIONS: [&str; 30] = [
    "send", "recv", "lock", "try_lock", "read", "write", "wait", "notify_all", "notify_one",
    "join", "spawn", "get", "get_mut", "insert", "remove", "push", "pop", "len", "is_empty",
    "iter", "next", "clone", "drop", "fmt", "new", "default", "flush", "take", "clear", "extend",
];

/// Resolve a call site to workspace functions: same-file candidates win,
/// then same-crate, then (for plain calls, or uniquely-named methods not
/// colliding with std) global. A `Path::name(...)` qualifier must match
/// the candidate's impl type or crate, or the call is treated as
/// external. Returns every candidate at the winning scope — the passes
/// union over them (may-analysis).
fn resolve(units: &[FileUnit], index: &CallIndex, file: usize, call: &Call) -> Vec<FnRef> {
    if call.kind == CallKind::Macro {
        return Vec::new();
    }
    let Some(all) = index.by_name.get(&call.name) else { return Vec::new() };
    let viable: Vec<FnRef> = all
        .iter()
        .copied()
        .filter(|r| {
            let info = &units[r.file].fns[r.f];
            match call.kind {
                CallKind::Method => info.has_self,
                _ => match &call.qualifier {
                    // `Type::assoc(...)` must name the impl type or crate.
                    Some(q) => {
                        info.impl_type.as_deref() == Some(q.as_str())
                            || units[r.file].krate == *q
                    }
                    None => !info.has_self,
                },
            }
        })
        .collect();
    let same_file: Vec<FnRef> = viable.iter().copied().filter(|r| r.file == file).collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let krate = &units[file].krate;
    let same_crate: Vec<FnRef> =
        viable.iter().copied().filter(|r| units[r.file].krate == *krate).collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    match call.kind {
        CallKind::Plain => viable,
        CallKind::Method
            if viable.len() == 1 && !STD_COLLISIONS.contains(&call.name.as_str()) =>
        {
            viable
        }
        _ => Vec::new(),
    }
}

/// The serving entry points the reachability passes start from:
/// `engine::search_batch*`, everything public in `serve::server`, and the
/// batcher's public surface. Fixture files use the same `search_batch`
/// naming convention to mark their entry.
fn entry_fns(units: &[FileUnit]) -> Vec<FnRef> {
    let mut out = Vec::new();
    for (file, u) in units.iter().enumerate() {
        for (f, info) in u.fns.iter().enumerate() {
            if info.is_test || info.body.is_empty() {
                continue;
            }
            let is_entry = (u.krate == "engine" && info.name.starts_with("search_batch"))
                || (u.krate == "serve"
                    && (u.rel.ends_with("/server.rs") || u.rel.ends_with("/batcher.rs"))
                    && info.is_pub)
                || (u.rel.contains("fixtures/") && info.name.starts_with("search_batch"));
            if is_entry {
                out.push(FnRef { file, f });
            }
        }
    }
    out
}

/// `path:line fn_name` — the chain-element format shared by the passes.
fn describe(units: &[FileUnit], r: FnRef) -> String {
    let u = &units[r.file];
    let info = &u.fns[r.f];
    format!("{}:{} {}", u.rel, info.line, info.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(rel: &str, src: &str) -> Vec<FileUnit> {
        build_units(&[(rel.to_string(), src.to_string())])
    }

    #[test]
    fn crate_names_resolve() {
        assert_eq!(crate_of("crates/serve/src/batcher.rs"), "serve");
        assert_eq!(crate_of("src/main.rs"), "root");
        assert_eq!(crate_of("crates/xtask/fixtures/lock_cycle.rs"), "lock_cycle");
    }

    #[test]
    fn same_file_resolution_beats_global() {
        let a =
            ("crates/a/src/lib.rs".to_string(), "fn go() { work(); } fn f() { go(); }".to_string());
        let b = ("crates/b/src/lib.rs".to_string(), "fn go() { work(); }".to_string());
        let units = build_units(&[a, b]);
        let index = build_index(&units);
        let calls = crate::parser::calls_in(&units[0].lexed.tokens, units[0].fns[1].body.clone());
        let refs = resolve(&units, &index, 0, &calls[0]);
        assert_eq!(refs, vec![FnRef { file: 0, f: 0 }]);
    }

    #[test]
    fn qualified_calls_need_a_matching_type_or_crate() {
        let src = "struct S; impl S { fn make() -> S { S } }\nfn f() { S::make(); Instant::now(); }";
        let units = unit("crates/a/src/lib.rs", src);
        let index = build_index(&units);
        let calls = crate::parser::calls_in(&units[0].lexed.tokens, units[0].fns[1].body.clone());
        let make = calls.iter().find(|c| c.name == "make").unwrap();
        assert_eq!(resolve(&units, &index, 0, make).len(), 1);
        let now = calls.iter().find(|c| c.name == "now").unwrap();
        assert!(resolve(&units, &index, 0, now).is_empty(), "Instant::now is external");
    }

    #[test]
    fn std_colliding_methods_do_not_resolve_across_crates() {
        let a = ("crates/a/src/lib.rs".to_string(),
            "struct Comm; impl Comm { fn send(&self) {} }".to_string());
        let b = ("crates/b/src/lib.rs".to_string(), "fn f(tx: &Tx) { tx.send(); }".to_string());
        let units = build_units(&[a, b]);
        let index = build_index(&units);
        let calls = crate::parser::calls_in(&units[1].lexed.tokens, units[1].fns[0].body.clone());
        assert!(resolve(&units, &index, 1, &calls[0]).is_empty());
    }

    #[test]
    fn entries_cover_engine_serve_and_fixtures() {
        let files = vec![
            ("crates/engine/src/lib.rs".to_string(),
             "pub fn search_batch() { run(); }\nfn helper() { run(); }".to_string()),
            ("crates/serve/src/server.rs".to_string(),
             "pub fn serve() { run(); }\nfn private() { run(); }".to_string()),
            ("crates/xtask/fixtures/panic_reach.rs".to_string(),
             "pub fn search_batch_fixture() { run(); }".to_string()),
        ];
        let units = build_units(&files);
        let names: Vec<String> = entry_fns(&units)
            .into_iter()
            .map(|r| units[r.file].fns[r.f].name.clone())
            .collect();
        assert_eq!(names, vec!["search_batch", "serve", "search_batch_fixture"]);
    }
}
