//! A brace-aware item parser layered over [`crate::lexer`].
//!
//! The analysis passes need more structure than the token-level lint
//! rules: which function a token belongs to, what an `fn`'s parameters
//! and return type are, which `impl` block encloses it, and what calls
//! its body makes. This module recovers exactly that — items, signatures,
//! bodies, and call sites — from the token stream, without becoming a
//! Rust parser. It is approximate by design: macros are opaque, types
//! are names not semantics, and trait dispatch is resolved by name. The
//! soundness consequences are documented in DESIGN.md §"Static analysis
//! architecture".

use crate::lexer::{Tok, TokKind};
use std::ops::Range;

/// One parameter of a parsed `fn`: the binding name and its type, as
/// flat token text (`&Mutex<QueueState>` becomes `& Mutex < QueueState >`).
#[derive(Clone, Debug)]
pub(crate) struct Param {
    pub name: String,
    pub ty: String,
}

/// One parsed function item.
#[derive(Clone, Debug)]
pub(crate) struct FnInfo {
    pub name: String,
    /// The `Self` type when the fn sits inside an `impl` block (for
    /// trait impls, the implementing type after `for`).
    pub impl_type: Option<String>,
    pub line: usize,
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` / `#[test]` region.
    pub is_test: bool,
    /// Whether the signature takes `self` in any form.
    pub has_self: bool,
    pub params: Vec<Param>,
    /// Return type as flat token text; empty when the fn returns `()`.
    pub ret: String,
    /// Token-index range of the body, *exclusive* of its braces. Empty
    /// for bodiless trait-method declarations.
    pub body: Range<usize>,
}

/// How a call site spells itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CallKind {
    /// `name(...)` or `Path::name(...)`.
    Plain,
    /// `.name(...)`.
    Method,
    /// `name!(...)`, `name![...]`, `name!{...}`.
    Macro,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub(crate) struct Call {
    pub kind: CallKind,
    pub name: String,
    /// For `Path::name(...)`: the path segment right before the `::`.
    pub qualifier: Option<String>,
    pub line: usize,
    /// Token index of the name.
    pub tok: usize,
    /// Token index of the opening delimiter.
    pub args_open: usize,
}

/// Per-token brace depth: `depth[i]` is the number of unclosed `{` at
/// token `i` (an opening brace counts at its own position, its matching
/// close does not). The analysis passes use this for scope lifetimes.
pub(crate) fn brace_depths(tokens: &[Tok]) -> Vec<usize> {
    let mut depth = 0usize;
    tokens
        .iter()
        .map(|t| match t.text.as_str() {
            "{" => {
                depth += 1;
                depth
            }
            "}" => {
                let d = depth;
                depth = depth.saturating_sub(1);
                d
            }
            _ => depth,
        })
        .collect()
}

/// Words that look like `name(` but open control flow, not calls.
const NON_CALL_KEYWORDS: [&str; 16] = [
    "if", "else", "while", "for", "match", "return", "loop", "in", "as", "move", "let", "impl",
    "use", "mod", "where", "fn",
];

/// Parse every `fn` item in a lexed file. `test_mask` is the per-token
/// test-region mask from [`crate::rules`].
pub(crate) fn parse_fns(tokens: &[Tok], test_mask: &[bool]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    // Spans of `impl` blocks: (type name, body token range).
    let impls = impl_spans(tokens);
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if !(t.kind == TokKind::Ident && t.text == "fn") {
            i += 1;
            continue;
        }
        // `fn` in a type position (`fn(&str) -> bool`) has no name ident.
        let Some(name_tok) = tokens.get(i + 1) else { break };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        let is_pub = looks_pub(tokens, i);
        let is_test = test_mask.get(i).copied().unwrap_or(false);
        let impl_type = impls
            .iter()
            .find(|(_, r)| r.contains(&i))
            .map(|(ty, _)| ty.clone());
        // Skip generics on the fn itself, then expect the param list.
        let mut j = i + 2;
        if tokens.get(j).is_some_and(|t| t.text == "<") {
            j = skip_angles(tokens, j);
        }
        if tokens.get(j).is_none_or(|t| t.text != "(") {
            i += 1;
            continue;
        }
        let params_close = match_delim(tokens, j, "(", ")");
        let (params, has_self) = parse_params(tokens, j + 1..params_close);
        // Return type: everything after `->` up to `{`, `;`, or `where`.
        let mut k = params_close + 1;
        let mut ret = String::new();
        if tokens.get(k).is_some_and(|t| t.text == "-")
            && tokens.get(k + 1).is_some_and(|t| t.text == ">")
        {
            k += 2;
            let mut parts = Vec::new();
            while let Some(t) = tokens.get(k) {
                if t.text == "{" || t.text == ";" || (t.kind == TokKind::Ident && t.text == "where")
                {
                    break;
                }
                parts.push(t.text.as_str());
                k += 1;
            }
            ret = parts.join(" ");
        }
        // A `where` clause sits between the signature and the body.
        while let Some(t) = tokens.get(k) {
            if t.text == "{" || t.text == ";" {
                break;
            }
            k += 1;
        }
        let body = if tokens.get(k).is_some_and(|t| t.text == "{") {
            let close = match_delim(tokens, k, "{", "}");
            (k + 1)..close
        } else {
            k..k // bodiless declaration
        };
        fns.push(FnInfo {
            name,
            impl_type,
            line: t.line,
            is_pub,
            is_test,
            has_self,
            params,
            ret,
            body: body.clone(),
        });
        // Continue *inside* the body: nested fns are items too.
        i = body.start.max(i + 1);
    }
    fns
}

/// Find `impl` blocks and the type they implement on.
fn impl_spans(tokens: &[Tok]) -> Vec<(String, Range<usize>)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].kind == TokKind::Ident && tokens[i].text == "impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|t| t.text == "<") {
            j = skip_angles(tokens, j);
        }
        // Collect the head up to `{`; a `for` splits trait from type.
        let mut segment: Vec<usize> = Vec::new();
        while let Some(t) = tokens.get(j) {
            match t.text.as_str() {
                "{" => break,
                "for" if t.kind == TokKind::Ident => segment.clear(),
                "where" if t.kind == TokKind::Ident => break,
                _ => segment.push(j),
            }
            j += 1;
        }
        // The type name is the first plain ident of the (post-`for`)
        // segment that is not a path prefix (`std::fmt::Display` → the
        // last `::`-joined ident before generics).
        let ty = segment
            .iter()
            .filter(|&&k| tokens[k].kind == TokKind::Ident)
            .filter(|&&k| !matches!(tokens.get(k + 1), Some(n) if n.text == ":"))
            .map(|&k| tokens[k].text.clone())
            .next_back();
        if tokens.get(j).is_some_and(|t| t.text == "{") {
            let close = match_delim(tokens, j, "{", "}");
            if let Some(ty) = ty {
                spans.push((ty, j..close));
            }
            // Impl bodies nest fns but never other impls; skip the head
            // only, so nested parsing stays simple.
            i = j + 1;
        } else {
            i = j;
        }
    }
    spans
}

/// Whether the tokens right before `fn` at `fn_tok` carry a `pub`.
fn looks_pub(tokens: &[Tok], fn_tok: usize) -> bool {
    let mut j = fn_tok;
    while j > 0 {
        j -= 1;
        match tokens[j].text.as_str() {
            "unsafe" | "const" | "async" | "extern" => {}
            ")" | "(" | "crate" | "super" | "self" | "in" => {}
            "pub" => return true,
            _ => return false,
        }
    }
    false
}

/// Split a param-list token range at top-level commas into [`Param`]s,
/// reporting whether any form of `self` appears.
fn parse_params(tokens: &[Tok], range: Range<usize>) -> (Vec<Param>, bool) {
    let mut params = Vec::new();
    let mut has_self = false;
    let mut depth = 0i32;
    let mut chunk: Vec<usize> = Vec::new();
    let mut flush = |chunk: &mut Vec<usize>, has_self: &mut bool| {
        if chunk.is_empty() {
            return;
        }
        // `self`, `&self`, `&mut self`, `mut self`, `self: Pin<...>`.
        let first_ident = chunk
            .iter()
            .map(|&k| &tokens[k])
            .find(|t| t.kind == TokKind::Ident && t.text != "mut");
        if first_ident.is_some_and(|t| t.text == "self") {
            *has_self = true;
            chunk.clear();
            return;
        }
        let colon = chunk.iter().position(|&k| tokens[k].text == ":");
        let (name, ty) = match colon {
            Some(c) => {
                let name = chunk[..c]
                    .iter()
                    .map(|&k| &tokens[k])
                    .find(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                let ty = chunk[c + 1..]
                    .iter()
                    .map(|&k| tokens[k].text.as_str())
                    .collect::<Vec<_>>()
                    .join(" ");
                (name, ty)
            }
            None => (String::new(), String::new()),
        };
        params.push(Param { name, ty });
        chunk.clear();
    };
    for k in range {
        match tokens[k].text.as_str() {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            "," if depth == 0 => {
                flush(&mut chunk, &mut has_self);
                continue;
            }
            _ => {}
        }
        chunk.push(k);
    }
    flush(&mut chunk, &mut has_self);
    (params, has_self)
}

/// Skip a `<...>` group starting at the `<` token; returns the index
/// right after the matching `>`. `->` arrows inside are stepped over.
fn skip_angles(tokens: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "<" => depth += 1,
            ">" if j > 0 && tokens[j - 1].text == "-" => {}
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Index of the token matching the opening delimiter at `open` (which
/// must hold `open_text`). Returns the last token index on imbalance.
pub(crate) fn match_delim(tokens: &[Tok], open: usize, open_text: &str, close_text: &str) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        let t = tokens[j].text.as_str();
        if t == open_text {
            depth += 1;
        } else if t == close_text {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Every call site in a token range (typically an [`FnInfo::body`]).
pub(crate) fn calls_in(tokens: &[Tok], range: Range<usize>) -> Vec<Call> {
    let mut out = Vec::new();
    for i in range.clone() {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = tokens.get(i + 1).map(|n| n.text.as_str());
        // Macro: `name!` followed by any open delimiter.
        if next == Some("!")
            && matches!(tokens.get(i + 2).map(|n| n.text.as_str()), Some("(" | "[" | "{"))
        {
            out.push(Call {
                kind: CallKind::Macro,
                name: t.text.clone(),
                qualifier: None,
                line: t.line,
                tok: i,
                args_open: i + 2,
            });
            continue;
        }
        if next != Some("(") {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| tokens[p].text.as_str());
        if prev == Some(".") {
            out.push(Call {
                kind: CallKind::Method,
                name: t.text.clone(),
                qualifier: None,
                line: t.line,
                tok: i,
                args_open: i + 1,
            });
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // `Path::name(` → qualifier is the segment before the `::`.
        let qualifier = if i >= 3
            && tokens[i - 1].text == ":"
            && tokens[i - 2].text == ":"
            && tokens[i - 3].kind == TokKind::Ident
        {
            Some(tokens[i - 3].text.clone())
        } else {
            None
        };
        out.push(Call {
            kind: CallKind::Plain,
            name: t.text.clone(),
            qualifier,
            line: t.line,
            tok: i,
            args_open: i + 1,
        });
    }
    out
}

/// The receiver chain of a method call, innermost field last:
/// `self.shared.queue.lock()` → `["self", "shared", "queue"]`;
/// `slots[qi].lock()` → `["slots"]`. Empty when the receiver is a call
/// result or otherwise not a plain field path.
pub(crate) fn receiver_chain(tokens: &[Tok], name_tok: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    // tokens[name_tok - 1] is the `.`; start left of it.
    let mut j = match name_tok.checked_sub(2) {
        Some(j) => j as isize,
        None => return segs,
    };
    loop {
        if j < 0 {
            break;
        }
        let t = &tokens[j as usize];
        match t.text.as_str() {
            "]" => {
                // Skip an index expression backwards to its `[`.
                let mut depth = 0i32;
                while j >= 0 {
                    match tokens[j as usize].text.as_str() {
                        "]" => depth += 1,
                        "[" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j -= 1;
                }
                j -= 1;
                continue;
            }
            _ if t.kind == TokKind::Ident => {
                segs.push(t.text.clone());
                // Keep walking only across `.` joins.
                if j >= 2 && tokens[j as usize - 1].text == "." {
                    j -= 2;
                    continue;
                }
                break;
            }
            _ => break,
        }
    }
    segs.reverse();
    segs
}

/// The last plain ident of a call's first argument:
/// `lock(&self.shared.queue)` → `Some("queue")`. `None` for empty args.
pub(crate) fn first_arg_last_ident(tokens: &[Tok], args_open: usize) -> Option<String> {
    let close = match_delim(tokens, args_open, "(", ")");
    let mut depth = 0i32;
    let mut last = None;
    for t in &tokens[args_open + 1..close] {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "," if depth == 0 => break,
            _ if t.kind == TokKind::Ident => last = Some(t.text.clone()),
            _ => {}
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_mask;

    fn parse(src: &str) -> (Vec<Tok>, Vec<FnInfo>) {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let fns = parse_fns(&lexed.tokens, &mask);
        (lexed.tokens, fns)
    }

    #[test]
    fn signatures_parse_params_ret_and_pub() {
        let src = "pub fn lock(queue: &Mutex<QueueState>) -> MutexGuard<'_, QueueState> { queue.lock() }";
        let (_, fns) = parse(src);
        assert_eq!(fns.len(), 1);
        let f = &fns[0];
        assert_eq!(f.name, "lock");
        assert!(f.is_pub);
        assert!(!f.has_self);
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].name, "queue");
        assert!(f.params[0].ty.contains("Mutex"));
        assert!(f.ret.contains("MutexGuard"));
    }

    #[test]
    fn impl_blocks_attach_the_self_type() {
        let src = "impl Batcher { fn submit(&self, x: u8) {} }\nimpl std::fmt::Display for Finding { fn fmt(&self) {} }";
        let (_, fns) = parse(src);
        assert_eq!(fns[0].impl_type.as_deref(), Some("Batcher"));
        assert!(fns[0].has_self);
        assert_eq!(fns[1].impl_type.as_deref(), Some("Finding"));
    }

    #[test]
    fn bodies_exclude_braces_and_nest() {
        let src = "fn outer() { if x { inner(); } }\nfn later() {}";
        let (tokens, fns) = parse(src);
        assert_eq!(fns.len(), 2);
        let body: Vec<&str> = fns[0].body.clone().map(|i| tokens[i].text.as_str()).collect();
        assert_eq!(body, vec!["if", "x", "{", "inner", "(", ")", ";", "}"]);
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "#[cfg(test)]\nmod tests { fn helper() {} }\nfn lib() {}";
        let (_, fns) = parse(src);
        assert!(fns[0].is_test);
        assert!(!fns[1].is_test);
    }

    #[test]
    fn where_clauses_and_generics_do_not_derail() {
        let src = "pub fn search<I>(blocks: I, n: usize) -> Vec<u8> where I: IntoIterator<Item = u8> { go() }";
        let (_, fns) = parse(src);
        assert_eq!(fns[0].name, "search");
        assert_eq!(fns[0].params.len(), 2);
        assert!(fns[0].ret.contains("Vec"));
        assert!(!fns[0].body.is_empty());
    }

    #[test]
    fn calls_classify_plain_method_macro() {
        let src = "fn f() { helper(1); x.method(2); panic!(\"boom\"); Faults::fire(s); if cond(x) {} }";
        let (tokens, fns) = parse(src);
        let calls = calls_in(&tokens, fns[0].body.clone());
        let names: Vec<(&str, CallKind)> =
            calls.iter().map(|c| (c.name.as_str(), c.kind)).collect();
        assert!(names.contains(&("helper", CallKind::Plain)));
        assert!(names.contains(&("method", CallKind::Method)));
        assert!(names.contains(&("panic", CallKind::Macro)));
        assert!(names.contains(&("cond", CallKind::Plain)));
        let fire = calls.iter().find(|c| c.name == "fire").unwrap();
        assert_eq!(fire.qualifier.as_deref(), Some("Faults"));
        assert!(!names.iter().any(|(n, _)| *n == "if"));
    }

    #[test]
    fn receivers_walk_field_chains_and_indexing() {
        let src = "fn f() { self.shared.queue.lock(); slots[qi].lock(); make().lock(); }";
        let (tokens, fns) = parse(src);
        let calls = calls_in(&tokens, fns[0].body.clone());
        let locks: Vec<Vec<String>> = calls
            .iter()
            .filter(|c| c.name == "lock")
            .map(|c| receiver_chain(&tokens, c.tok))
            .collect();
        assert_eq!(locks[0], vec!["self", "shared", "queue"]);
        assert_eq!(locks[1], vec!["slots"]);
        assert!(locks[2].is_empty());
    }

    #[test]
    fn first_arg_digs_out_the_lock_field() {
        let src = "fn f() { lock(&self.shared.queue); lock(); wake(a.b, c); }";
        let (tokens, fns) = parse(src);
        let calls = calls_in(&tokens, fns[0].body.clone());
        assert_eq!(first_arg_last_ident(&tokens, calls[0].args_open).as_deref(), Some("queue"));
        assert_eq!(first_arg_last_ident(&tokens, calls[1].args_open), None);
        assert_eq!(first_arg_last_ident(&tokens, calls[2].args_open).as_deref(), Some("b"));
    }

    #[test]
    fn depths_track_scopes() {
        let src = "fn f() { let a = 1; { let b = 2; } let c = 3; }";
        let lexed = lex(src);
        let d = brace_depths(&lexed.tokens);
        let tok_at = |text: &str| lexed.tokens.iter().position(|t| t.text == text).unwrap();
        assert_eq!(d[tok_at("a")], 1);
        assert_eq!(d[tok_at("b")], 2);
        assert_eq!(d[tok_at("c")], 1);
    }
}
