//! Panic-freedom reachability.
//!
//! The serving path — `engine::search_batch*` and the public surface of
//! `serve::server` / `serve::batcher` — must not panic: a panic in a
//! worker poisons locks and kills in-flight queries for every client
//! sharing the process. This pass collects every potential panic site
//! (`.unwrap()`, `.expect(..)`, `panic!`, `unreachable!`, `todo!`,
//! `unimplemented!`; slice indexing too under `--strict-panics`) and
//! propagates may-panic backwards over the approximate call graph from
//! the entry points, reporting each reachable site with the shortest
//! call chain that reaches it.
//!
//! `assert!`-style macros are deliberately excluded: asserts state
//! invariants and are the *sanctioned* way to panic on programmer error.
//! A site that is unreachable-by-construction carries an inline
//! `// lint: allow(panic-reach): <invariant>` (or `allow(no-unwrap)`,
//! which already implies the justification for unwrap sites).

use super::{describe, entry_fns, resolve, CallIndex, FileUnit, FnRef};
use crate::parser::{calls_in, CallKind};
use crate::rules::Finding;
use std::collections::{HashMap, HashSet, VecDeque};

pub(crate) const RULE: &str = "panic-reach";

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// A potential panic site inside one fn.
struct Site {
    line: usize,
    what: String,
}

pub(crate) struct Options {
    /// Also treat slice/array indexing (`a[i]`) as a panic site. Off by
    /// default: index panics are pervasive and mostly guarded by
    /// construction; the flag exists for audit sweeps.
    pub strict: bool,
}

pub(crate) fn check(units: &[FileUnit], index: &CallIndex, opts: &Options) -> Vec<Finding> {
    // Direct sites and adjacency per fn.
    let mut direct: HashMap<FnRef, Vec<Site>> = HashMap::new();
    let mut callees: HashMap<FnRef, Vec<FnRef>> = HashMap::new();
    for (file, u) in units.iter().enumerate() {
        if !super::in_analysis_scope(&u.rel) {
            continue;
        }
        for (f, info) in u.fns.iter().enumerate() {
            if info.is_test || info.body.is_empty() {
                continue;
            }
            let r = FnRef { file, f };
            let mut sites = Vec::new();
            let mut adj = Vec::new();
            for call in calls_in(&u.lexed.tokens, info.body.clone()) {
                if u.mask.get(call.tok).copied().unwrap_or(false) {
                    continue;
                }
                let suppressed = u.is_allowed(RULE, call.line)
                    || u.is_allowed("no-unwrap", call.line);
                match call.kind {
                    CallKind::Method if call.name == "unwrap" || call.name == "expect" => {
                        if !suppressed {
                            sites.push(Site {
                                line: call.line,
                                what: format!(".{}()", call.name),
                            });
                        }
                    }
                    CallKind::Macro if PANIC_MACROS.contains(&call.name.as_str()) => {
                        if !suppressed {
                            sites.push(Site { line: call.line, what: format!("{}!", call.name) });
                        }
                    }
                    CallKind::Macro => {}
                    _ => adj.extend(resolve(units, index, file, &call)),
                }
            }
            if opts.strict {
                index_sites(u, info, &mut sites);
            }
            direct.insert(r, sites);
            callees.insert(r, adj);
        }
    }

    // Multi-source BFS from the entries; parent pointers give the
    // shortest entry→site chain for each first-discovered fn.
    let entries = entry_fns(units);
    let mut parent: HashMap<FnRef, Option<FnRef>> = HashMap::new();
    let mut queue: VecDeque<FnRef> = VecDeque::new();
    for e in &entries {
        if super::in_analysis_scope(&units[e.file].rel) && !parent.contains_key(e) {
            parent.insert(*e, None);
            queue.push_back(*e);
        }
    }
    let mut findings = Vec::new();
    let mut reported: HashSet<(String, usize)> = HashSet::new();
    while let Some(r) = queue.pop_front() {
        if let Some(sites) = direct.get(&r) {
            let u = &units[r.file];
            for s in sites {
                if !reported.insert((u.rel.clone(), s.line)) {
                    continue;
                }
                let chain = chain_to(units, &parent, r);
                let entry = chain.first().cloned().unwrap_or_default();
                let mut f = Finding::new(
                    RULE,
                    &u.rel,
                    s.line,
                    format!(
                        "{} reachable from serving entry `{}` — return an error or \
                         annotate the unreachable invariant",
                        s.what, entry
                    ),
                );
                f.chain = chain;
                f.chain.push(format!("{}:{} {}", u.rel, s.line, s.what));
                findings.push(f);
            }
        }
        for c in callees.get(&r).cloned().unwrap_or_default() {
            if let std::collections::hash_map::Entry::Vacant(v) = parent.entry(c) {
                v.insert(Some(r));
                queue.push_back(c);
            }
        }
    }
    findings.sort_by_key(|f| (f.path.clone(), f.line));
    findings
}

/// The entry→fn call chain recovered from BFS parent pointers.
fn chain_to(
    units: &[FileUnit],
    parent: &HashMap<FnRef, Option<FnRef>>,
    mut r: FnRef,
) -> Vec<String> {
    let mut chain = vec![describe(units, r)];
    while let Some(Some(p)) = parent.get(&r) {
        chain.push(describe(units, *p));
        r = *p;
    }
    chain.reverse();
    chain
}

/// `--strict-panics`: slice/array indexing sites. An `[` directly after
/// an identifier, `]`, or `)` inside a body is (approximately) an index
/// expression; attributes (`#[..]`) and slice patterns don't match.
fn index_sites(u: &FileUnit, info: &crate::parser::FnInfo, sites: &mut Vec<Site>) {
    let tokens = &u.lexed.tokens;
    for i in info.body.clone() {
        if tokens[i].text != "[" || i == 0 {
            continue;
        }
        let prev = &tokens[i - 1];
        let indexes = matches!(prev.text.as_str(), "]" | ")")
            || (prev.kind == crate::lexer::TokKind::Ident
                && !matches!(prev.text.as_str(), "mut" | "let" | "return" | "in"));
        if indexes
            && !u.mask.get(i).copied().unwrap_or(false)
            && !u.is_allowed(RULE, tokens[i].line)
        {
            sites.push(Site { line: tokens[i].line, what: "slice index".to_string() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{build_index, build_units};

    fn run_with(rel: &str, src: &str, strict: bool) -> Vec<Finding> {
        let units = build_units(&[(rel.to_string(), src.to_string())]);
        let index = build_index(&units);
        check(&units, &index, &Options { strict })
    }

    fn run(src: &str) -> Vec<Finding> {
        run_with("crates/engine/src/lib.rs", src, false)
    }

    #[test]
    fn unwrap_in_entry_is_flagged() {
        let f = run("pub fn search_batch(x: Option<u8>) -> u8 { x.unwrap() }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE);
        assert!(f[0].msg.contains(".unwrap()"), "{}", f[0].msg);
    }

    #[test]
    fn interprocedural_chain_is_reported() {
        let src = "
            fn finish(x: Option<u8>) -> u8 { x.expect(\"set\") }
            fn step(x: Option<u8>) -> u8 { finish(x) }
            pub fn search_batch(x: Option<u8>) -> u8 { step(x) }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].chain.len(), 4, "{:?}", f[0].chain);
        assert!(f[0].chain[0].contains("search_batch"));
        assert!(f[0].chain[3].contains(".expect()"));
    }

    #[test]
    fn unreachable_fns_are_not_flagged() {
        let src = "
            fn orphan(x: Option<u8>) -> u8 { x.unwrap() }
            pub fn search_batch() -> u8 { 0 }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn panic_macros_count_but_asserts_do_not() {
        let src = "
            pub fn search_batch(n: u8) {
                assert!(n < 10);
                if n == 9 { unreachable!(\"checked\") }
            }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("unreachable!"), "{}", f[0].msg);
    }

    #[test]
    fn inline_allows_suppress_either_rule_name() {
        let src = "
            pub fn search_batch(x: Option<u8>, y: Option<u8>) -> u8 {
                let a = x.unwrap(); // lint: allow(no-unwrap): caller checked
                let b = y.unwrap(); // lint: allow(panic-reach): caller checked
                a + b
            }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn strict_mode_flags_indexing() {
        let src = "pub fn search_batch(v: &[u8]) -> u8 { v[0] }";
        assert!(run_with("crates/engine/src/lib.rs", src, false).is_empty());
        let f = run_with("crates/engine/src/lib.rs", src, true);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("slice index"), "{}", f[0].msg);
    }

    #[test]
    fn attributes_are_not_indexing() {
        let src = "
            #[derive(Debug)]
            pub struct S;
            pub fn search_batch() {}
        ";
        assert!(run_with("crates/engine/src/lib.rs", src, true).is_empty());
    }

    #[test]
    fn test_fns_are_skipped_entirely() {
        let src = "
            pub fn search_batch() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { None::<u8>.unwrap(); }
            }
        ";
        assert!(run(src).is_empty());
    }
}
