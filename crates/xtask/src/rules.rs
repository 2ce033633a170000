//! The muBLASTP-specific lint rules.
//!
//! Each rule is a pure function over a lexed file plus a path-scope
//! predicate. Rules operate on the token stream from [`crate::lexer`],
//! with test regions (`#[cfg(test)]` / `#[test]` items) excluded — the
//! policy targets *library* code; tests may unwrap freely.
//!
//! Suppression mechanisms, in order of preference:
//! 1. fix the finding;
//! 2. an inline `// lint: allow(<rule>): <reason citing the invariant>`
//!    on (or immediately above) the offending line;
//! 3. a per-file budget in `crates/xtask/lint.allow` — the burn-down
//!    ratchet for pre-existing debt (new findings over budget still fail).

use crate::lexer::{lex, Lexed, Tok, TokKind};
use std::collections::{HashMap, HashSet};

/// One lint or analysis violation.
#[derive(Clone, Debug)]
pub(crate) struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub msg: String,
    /// For interprocedural findings: the call chain from an entry point
    /// to the offending site (empty for single-site findings). Carried
    /// into the JSON report; the human-readable `msg` already spells it
    /// out.
    pub chain: Vec<String>,
}

impl Finding {
    /// A single-site finding (no call chain).
    pub(crate) fn new(rule: &'static str, path: &str, line: usize, msg: String) -> Finding {
        Finding { rule, path: path.to_string(), line, msg, chain: Vec::new() }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

/// A lint rule: name, rationale, path scope, and the check itself.
pub(crate) struct Rule {
    pub name: &'static str,
    pub desc: &'static str,
    pub in_scope: fn(&str) -> bool,
    pub check: fn(&FileCx<'_>, &mut Vec<Finding>),
}

/// All rules, in reporting order.
pub(crate) fn all_rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "no-unwrap",
            desc: "no `.unwrap()` / `.expect(` in non-test library code; return Result or \
                   annotate the invariant",
            in_scope: scope_library,
            check: check_no_unwrap,
        },
        Rule {
            name: "lossy-cast",
            desc: "no narrowing `as` casts in the dbindex offset-compression and sorting radix \
                   paths; the u16/u32 local-offset invariants (paper Sec. III) must be cited",
            in_scope: scope_cast_paths,
            check: check_lossy_cast,
        },
        Rule {
            name: "kernel-locks",
            desc: "no Mutex/RwLock inside engine/src/kernels — hot loops stay lock-free by \
                   construction (per-thread scratch, paper Sec. IV-D)",
            in_scope: scope_kernels,
            check: check_kernel_locks,
        },
        Rule {
            name: "relaxed-ordering",
            desc: "Ordering::Relaxed only at allowlisted sites (the scheduler cursor); every \
                   other atomic must state a stronger ordering",
            in_scope: scope_library,
            check: check_relaxed_ordering,
        },
        Rule {
            name: "doc-pub-fn",
            desc: "every `pub fn` in engine/dbindex/parallel carries a doc comment",
            in_scope: scope_documented_crates,
            check: check_doc_pub_fn,
        },
    ]
}

// ---------------------------------------------------------------------
// Path scopes (paths are workspace-relative with forward slashes).
// ---------------------------------------------------------------------

fn scope_library(path: &str) -> bool {
    (path.starts_with("crates/") || path.starts_with("src/"))
        && !path.contains("/bin/")
        && !path.starts_with("crates/bench/")
}

fn scope_cast_paths(path: &str) -> bool {
    path.starts_with("crates/dbindex/src/") || path.starts_with("crates/sorting/src/")
}

fn scope_kernels(path: &str) -> bool {
    path.starts_with("crates/engine/src/kernels/")
}

fn scope_documented_crates(path: &str) -> bool {
    ["crates/engine/src/", "crates/dbindex/src/", "crates/parallel/src/"]
        .iter()
        .any(|p| path.starts_with(p))
        && !path.contains("/bin/")
}

// ---------------------------------------------------------------------
// Per-file lint context.
// ---------------------------------------------------------------------

/// A lexed file prepared for rule checks: tokens, an is-test mask, and
/// the lines suppressed per rule by inline allows.
pub(crate) struct FileCx<'a> {
    pub path: &'a str,
    pub tokens: &'a [Tok],
    in_test: Vec<bool>,
    allowed: HashMap<String, HashSet<usize>>,
}

impl<'a> FileCx<'a> {
    /// Prepare a lexed file for rule checks: compute the test mask and
    /// resolve inline `lint: allow(...)` annotations to line sets.
    fn new(path: &'a str, lexed: &'a Lexed) -> FileCx<'a> {
        let in_test = test_mask(&lexed.tokens);
        let allowed = allowed_lines(lexed);
        FileCx { path, tokens: &lexed.tokens, in_test, allowed }
    }

    /// Whether the token at `tok_index` sits inside a test region.
    fn is_test(&self, tok_index: usize) -> bool {
        self.in_test.get(tok_index).copied().unwrap_or(false)
    }

    /// Whether `line` carries an inline `lint: allow(rule)` suppression.
    fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allowed.get(rule).is_some_and(|lines| lines.contains(&line))
    }

    /// Emit a finding unless the line is inline-suppressed for `rule`.
    fn report(&self, rule: &'static str, line: usize, msg: String, out: &mut Vec<Finding>) {
        if !self.is_allowed(rule, line) {
            out.push(Finding::new(rule, self.path, line, msg));
        }
    }
}

/// Resolve a lexed file's inline `lint: allow(...)` annotations to the
/// line sets they suppress, per rule. Shared by the lint engine (via
/// [`FileCx`]) and the analysis passes (via their per-file units).
pub(crate) fn allowed_lines(lexed: &Lexed) -> HashMap<String, HashSet<usize>> {
    let mut allowed: HashMap<String, HashSet<usize>> = HashMap::new();
    for allow in &lexed.allows {
        let lines = allowed.entry(allow.rule.clone()).or_default();
        lines.insert(allow.line);
        if allow.stands_alone {
            // A standalone comment covers the next line that carries
            // code (skipping further comment-only lines).
            if let Some(next) =
                lexed.tokens.iter().find(|t| t.line > allow.line && t.kind != TokKind::DocComment)
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

// ---------------------------------------------------------------------
// The checks.
// ---------------------------------------------------------------------

fn check_no_unwrap(cx: &FileCx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in cx.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "unwrap" && t.text != "expect") {
            continue;
        }
        if cx.is_test(i) {
            continue;
        }
        let after_dot = i > 0 && cx.tokens[i - 1].text == ".";
        let called = matches!(cx.tokens.get(i + 1), Some(n) if n.text == "(");
        if after_dot && called {
            cx.report(
                "no-unwrap",
                t.line,
                format!(
                    "`.{}(…)` in library code — return a Result, or annotate the invariant \
                     with `lint: allow(no-unwrap)`",
                    t.text
                ),
                out,
            );
        }
    }
}

const NARROW_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

fn check_lossy_cast(cx: &FileCx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in cx.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "as" || cx.is_test(i) {
            continue;
        }
        let Some(target) = cx.tokens.get(i + 1) else { continue };
        if target.kind == TokKind::Ident && NARROW_TARGETS.contains(&target.text.as_str()) {
            cx.report(
                "lossy-cast",
                t.line,
                format!(
                    "`as {}` can silently truncate — use try_into, or annotate the \
                     width invariant with `lint: allow(lossy-cast)`",
                    target.text
                ),
                out,
            );
        }
    }
}

fn check_kernel_locks(cx: &FileCx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in cx.tokens.iter().enumerate() {
        if t.kind == TokKind::Ident
            && (t.text == "Mutex" || t.text == "RwLock")
            && !cx.is_test(i)
        {
            cx.report(
                "kernel-locks",
                t.line,
                format!(
                    "`{}` inside a kernel — hot loops use per-thread scratch, never locks \
                     (paper Sec. IV-D)",
                    t.text
                ),
                out,
            );
        }
    }
}

fn check_relaxed_ordering(cx: &FileCx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in cx.tokens.iter().enumerate() {
        if t.kind == TokKind::Ident && t.text == "Relaxed" && !cx.is_test(i) {
            cx.report(
                "relaxed-ordering",
                t.line,
                "`Ordering::Relaxed` outside an allowlisted site — state the required \
                 ordering, or annotate why no ordering is needed"
                    .to_string(),
                out,
            );
        }
    }
}

fn check_doc_pub_fn(cx: &FileCx<'_>, out: &mut Vec<Finding>) {
    let mut pending_doc = false;
    let mut i = 0;
    while i < cx.tokens.len() {
        let t = &cx.tokens[i];
        if cx.is_test(i) {
            pending_doc = false;
            i += 1;
            continue;
        }
        match (t.kind, t.text.as_str()) {
            (TokKind::DocComment, _) => {
                // Outer docs (`///`, `/**`) document the *next* item;
                // inner docs (`//!`, `/*!`) document the enclosing one
                // and must not satisfy the rule for a following fn.
                pending_doc = !t.text.starts_with("//!") && !t.text.starts_with("/*!");
            }
            (TokKind::Punct, "#") if matches!(cx.tokens.get(i + 1), Some(n) if n.text == "[") => {
                // Attributes between a doc comment and its item are fine.
                let mut depth = 1usize;
                i += 2;
                while i < cx.tokens.len() && depth > 0 {
                    match cx.tokens[i].text.as_str() {
                        "[" => depth += 1,
                        "]" => depth -= 1,
                        _ => {}
                    }
                    i += 1;
                }
                continue;
            }
            (TokKind::Ident, "pub")
                if matches!(cx.tokens.get(i + 1), Some(n) if n.text == "fn") =>
            {
                if !pending_doc {
                    let name = cx
                        .tokens
                        .get(i + 2)
                        .map(|n| n.text.clone())
                        .unwrap_or_else(|| "?".to_string());
                    cx.report(
                        "doc-pub-fn",
                        t.line,
                        format!("`pub fn {name}` has no doc comment"),
                        out,
                    );
                }
                pending_doc = false;
                i += 2;
                continue;
            }
            _ => pending_doc = false,
        }
        i += 1;
    }
}

/// Lint one file's source against every rule whose scope matches `path`
/// (or against all rules when `ignore_scope` — used for fixture files).
pub(crate) fn lint_source(path: &str, src: &str, ignore_scope: bool) -> Vec<Finding> {
    let lexed = lex(src);
    let cx = FileCx::new(path, &lexed);
    let mut findings = Vec::new();
    for rule in all_rules() {
        if ignore_scope || (rule.in_scope)(path) {
            (rule.check)(&cx, &mut findings);
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<String> {
        lint_source(path, src, false).into_iter().map(|f| f.rule.to_string()).collect()
    }

    #[test]
    fn unwrap_flagged_in_library_code() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(rules_of("crates/engine/src/hit.rs", src).contains(&"no-unwrap".to_string()));
    }

    #[test]
    fn unwrap_in_tests_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}";
        assert!(!rules_of("crates/engine/src/hit.rs", src).contains(&"no-unwrap".to_string()));
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }";
        assert!(rules_of("crates/engine/src/hit.rs", src).is_empty());
    }

    #[test]
    fn inline_allow_suppresses_same_line_and_next_code_line() {
        let same = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint: allow(no-unwrap): seeded";
        assert!(rules_of("crates/engine/src/hit.rs", same).is_empty());
        let above = "// lint: allow(no-unwrap): invariant documented here,\n// across two comment lines.\nfn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(rules_of("crates/engine/src/hit.rs", above).is_empty());
    }

    #[test]
    fn lossy_cast_scoped_to_cast_paths() {
        let src = "fn f(x: usize) -> u32 { x as u32 }";
        assert!(rules_of("crates/dbindex/src/block.rs", src).contains(&"lossy-cast".to_string()));
        assert!(rules_of("crates/sorting/src/radix.rs", src).contains(&"lossy-cast".to_string()));
        assert!(!rules_of("crates/align/src/sw.rs", src).contains(&"lossy-cast".to_string()));
        // Widening is fine.
        let widen = "fn f(x: u32) -> usize { x as usize }";
        assert!(rules_of("crates/dbindex/src/block.rs", widen).is_empty());
    }

    #[test]
    fn kernel_locks_flagged_only_in_kernels() {
        let src = "use std::sync::Mutex;\npub struct S { m: Mutex<u8> }";
        assert!(
            rules_of("crates/engine/src/kernels/mublastp.rs", src)
                .contains(&"kernel-locks".to_string())
        );
        assert!(!rules_of("crates/engine/src/driver.rs", src).contains(&"kernel-locks".to_string()));
    }

    #[test]
    fn relaxed_ordering_needs_annotation() {
        let src = "fn f(a: &AtomicUsize) -> usize { a.load(Ordering::Relaxed) }";
        assert!(
            rules_of("crates/cluster/src/mpi.rs", src).contains(&"relaxed-ordering".to_string())
        );
        let allowed = "fn f(a: &AtomicUsize) -> usize {\n    // lint: allow(relaxed-ordering): cursor only\n    a.load(Ordering::Relaxed)\n}";
        assert!(!rules_of("crates/cluster/src/mpi.rs", allowed)
            .contains(&"relaxed-ordering".to_string()));
    }

    #[test]
    fn undocumented_pub_fn_flagged() {
        let src = "pub fn naked() {}";
        assert!(rules_of("crates/engine/src/hit.rs", src).contains(&"doc-pub-fn".to_string()));
        let documented = "/// Does things.\n#[inline]\npub fn dressed() {}";
        assert!(rules_of("crates/engine/src/hit.rs", documented).is_empty());
        // pub(crate) fn is internal API: exempt.
        let internal = "pub(crate) fn helper() {}";
        assert!(rules_of("crates/engine/src/hit.rs", internal).is_empty());
        // Out of the three documented crates: exempt.
        assert!(rules_of("crates/scoring/src/matrix.rs", src).is_empty());
    }

    #[test]
    fn doc_comment_must_be_adjacent() {
        let src = "/// Docs for the struct below.\npub struct S;\npub fn naked() {}";
        assert!(rules_of("crates/engine/src/hit.rs", src).contains(&"doc-pub-fn".to_string()));
    }

    #[test]
    fn test_mask_covers_nested_items() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x.unwrap(); }\n}\nfn lib2(x: Option<u8>) { x.unwrap(); }";
        let findings = lint_source("crates/engine/src/hit.rs", src, false);
        let unwraps: Vec<_> = findings.iter().filter(|f| f.rule == "no-unwrap").collect();
        assert_eq!(unwraps.len(), 1, "{findings:?}");
        assert_eq!(unwraps[0].line, 7);
    }
}
