//! The static analysis suite (`xtask analyze`).
//!
//! One pass runs over a shared parse of the workspace:
//! [`locks`] — lock-order / deadlock: every `Mutex`/`RwLock`/`Condvar`
//! acquisition site, the lock-acquisition graph, cycles, and locks held
//! across channel sends or `Faults::fire` points. Clippy has no lint for
//! any of these. What clippy and rustc do check (no unwrap or panic in
//! library code, cast discipline, lock-free kernels, doc coverage) sits in
//! the crate roots and `clippy.toml`.
//!
//! A site the pass must not convict carries an inline
//! `// lint: allow(<rule>): <invariant>` comment ([`allowed_lines`]).
//! Soundness caveats of the underlying approximate call graph are
//! documented in DESIGN.md §"Static analysis architecture".

pub(crate) mod locks;

use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::parser::{parse_fns, Call, CallKind, FnInfo};
use std::collections::{HashMap, HashSet};

/// One analysis violation.
#[derive(Clone, Debug)]
pub(crate) struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub msg: String,
    /// The lock sites or call chain behind the finding (empty for
    /// single-site findings). Carried into the JSON report; the
    /// human-readable `msg` already spells it out.
    pub chain: Vec<String>,
}

impl Finding {
    /// A single-site finding (no call chain).
    pub(crate) fn new(rule: &'static str, path: &str, line: usize, msg: String) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            msg,
            chain: Vec::new(),
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// One parsed source file.
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

/// Resolve a lexed file's inline `lint: allow(...)` annotations to the
/// line sets they suppress, per rule.
pub(crate) fn allowed_lines(lexed: &Lexed) -> HashMap<String, HashSet<usize>> {
    let mut allowed: HashMap<String, HashSet<usize>> = HashMap::new();
    for allow in &lexed.allows {
        let lines = allowed.entry(allow.rule.clone()).or_default();
        lines.insert(allow.line);
        if allow.stands_alone {
            // A standalone comment covers the next line that carries
            // code (skipping further comment-only lines).
            if let Some(next) = lexed
                .tokens
                .iter()
                .find(|t| t.line > allow.line && t.kind != TokKind::DocComment)
            {
                lines.insert(next.line);
            }
        }
    }
    allowed
}

/// Mark tokens covered by `#[cfg(test)]` / `#[test]` items (attribute →
/// following braced item). Nested regions simply re-mark.
pub(crate) fn test_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].text == "#" && matches!(tokens.get(i + 1), Some(t) if t.text == "[")) {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to its matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut attr: Vec<&str> = Vec::new();
        while j < tokens.len() && depth > 0 {
            match tokens[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                other => attr.push(other),
            }
            j += 1;
        }
        let is_test_attr = attr.first() == Some(&"test")
            || (attr.first() == Some(&"cfg") && attr.contains(&"test"));
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes, then mark the braced item.
        let mut k = j;
        while k + 1 < tokens.len() && tokens[k].text == "#" && tokens[k + 1].text == "[" {
            let mut d = 1usize;
            k += 2;
            while k < tokens.len() && d > 0 {
                match tokens[k].text.as_str() {
                    "[" => d += 1,
                    "]" => d -= 1,
                    _ => {}
                }
                k += 1;
            }
        }
        while k < tokens.len() && tokens[k].text != "{" && tokens[k].text != ";" {
            k += 1;
        }
        if k < tokens.len() && tokens[k].text == "{" {
            let mut d = 1usize;
            let open = k;
            k += 1;
            while k < tokens.len() && d > 0 {
                match tokens[k].text.as_str() {
                    "{" => d += 1,
                    "}" => d -= 1,
                    _ => {}
                }
                k += 1;
            }
            for m in mask.iter_mut().take(k).skip(open) {
                *m = true;
            }
        }
        i = j;
    }
    mask
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

/// Paths the analysis looks at: library code, not bins or benches.
pub(crate) fn in_analysis_scope(rel: &str) -> bool {
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

/// `path:line fn_name` — the chain-element format of a finding.
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
    fn test_mask_covers_nested_items() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x.unwrap(); }\n}\nfn lib2(x: Option<u8>) { x.unwrap(); }";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let unwraps: Vec<(usize, bool)> = lexed
            .tokens
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(t, &in_test)| (t.line, in_test))
            .collect();
        assert_eq!(unwraps, vec![(5, true), (7, false)]);
    }

    #[test]
    fn inline_allow_suppresses_same_line_and_next_code_line() {
        let same =
            "fn f(m: &Mutex<u8>) { fire(m.lock()) } // lint: allow(lock-across-fire): atomics only";
        assert!(allowed_lines(&lex(same))["lock-across-fire"].contains(&1));
        let above = "// lint: allow(lock-across-fire): invariant documented here,\n// across two comment lines.\nfn f(m: &Mutex<u8>) { fire(m.lock()) }";
        assert!(allowed_lines(&lex(above))["lock-across-fire"].contains(&3));
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
}
