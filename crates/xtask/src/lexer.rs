//! A minimal Rust lexer for the analysis.
//!
//! This is not a full grammar — the checks only need a token stream with
//! line numbers that is *reliable about what is code and what is not*:
//! strings (including raw and byte strings), char literals, lifetimes,
//! and nested block comments must never leak their contents into the
//! token stream, or every check would false-positive on prose. Doc
//! comments are kept as tokens; ordinary comments are dropped, except
//! that `lint: allow(<rule>)` annotations inside them are collected for
//! suppression.

/// Kinds of tokens the checks can observe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Identifier or keyword (`pub`, `fn`, `as`, `unwrap`, …).
    Ident,
    /// Numeric literal.
    Num,
    /// A single punctuation character.
    Punct,
    /// `///`, `//!`, `/** … */`, or `/*! … */`.
    DocComment,
}

/// One token with its 1-based source line.
#[derive(Clone, Debug)]
pub(crate) struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

/// An inline suppression: `// lint: allow(<rule>): reason`.
///
/// When the comment shares its line with code the suppression applies to
/// that line; when the comment stands alone it applies to the next line
/// that carries a token (so a multi-line comment block still covers the
/// statement it annotates).
#[derive(Clone, Debug)]
pub(crate) struct Allow {
    pub rule: String,
    pub line: usize,
    /// True when the comment was the first thing on its line.
    pub stands_alone: bool,
}

/// Lexer output: the token stream plus inline allow annotations.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    pub tokens: Vec<Tok>,
    pub allows: Vec<Allow>,
}

/// Tokenize `src`. Never fails: unterminated constructs simply consume
/// the rest of the input (the lexer is not a compiler; rustc will
/// reject such a file anyway).
pub(crate) fn lex(src: &str) -> Lexed {
    Lexer { b: src.as_bytes(), i: 0, line: 1, line_had_token: false, out: Lexed::default() }.run()
}

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
    line: usize,
    /// Whether a token has been emitted on the current line (decides
    /// whether an allow comment "stands alone").
    line_had_token: bool,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.line_had_token = false;
                    self.i += 1;
                }
                c if c.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.quote(),
                c if c.is_ascii_digit() => self.number(),
                c if c == b'_' || c.is_ascii_alphabetic() => self.ident(),
                c => {
                    self.push(TokKind::Punct, (c as char).to_string());
                    self.i += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, text: String) {
        self.out.tokens.push(Tok { kind, text, line: self.line });
        self.line_had_token = true;
    }

    fn scan_allows(&mut self, comment: &str, line: usize, stands_alone: bool) {
        let mut rest = comment;
        while let Some(at) = rest.find("lint:") {
            rest = rest[at + 5..].trim_start();
            let Some(tail) = rest.strip_prefix("allow(") else { continue };
            let Some(close) = tail.find(')') else { break };
            self.out.allows.push(Allow { rule: tail[..close].trim().to_string(), line, stands_alone });
            rest = &tail[close..];
        }
    }

    fn line_comment(&mut self) {
        let start = self.i;
        let start_line = self.line;
        let stands_alone = !self.line_had_token;
        let is_doc = matches!(self.peek(2), Some(b'/') | Some(b'!'))
            && !(self.peek(2) == Some(b'/') && self.peek(3) == Some(b'/'));
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        if is_doc {
            self.push(TokKind::DocComment, text);
            // Doc comments never "shield" code: the token was pushed, but
            // a doc line still counts as standing alone for allows below.
        } else {
            self.scan_allows(&text.clone(), start_line, stands_alone);
        }
    }

    fn block_comment(&mut self) {
        let start = self.i;
        let start_line = self.line;
        let stands_alone = !self.line_had_token;
        let is_doc = matches!(self.peek(2), Some(b'*') | Some(b'!'))
            && !(self.peek(2) == Some(b'*') && self.peek(3) == Some(b'/'));
        self.i += 2;
        let mut depth = 1usize;
        while self.i < self.b.len() && depth > 0 {
            if self.b[self.i] == b'\n' {
                self.line += 1;
                self.line_had_token = false;
            }
            if self.b[self.i] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.i += 2;
            } else if self.b[self.i] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.i += 2;
            } else {
                self.i += 1;
            }
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        if is_doc {
            self.out.tokens.push(Tok { kind: TokKind::DocComment, text, line: start_line });
        } else {
            self.scan_allows(&text.clone(), start_line, stands_alone);
        }
    }

    /// A `"`-delimited (cooked) string body, starting at the opening quote.
    fn string(&mut self) {
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'"' => {
                    self.i += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.line_had_token = false;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        self.line_had_token = true;
    }

    /// Raw string starting at `r` / after a `b`: `r##"…"##`.
    fn raw_string(&mut self) {
        self.i += 1; // past 'r'
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.i += 1;
        }
        self.i += 1; // past opening '"'
        while self.i < self.b.len() {
            if self.b[self.i] == b'\n' {
                self.line += 1;
                self.line_had_token = false;
            }
            if self.b[self.i] == b'"' {
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != Some(b'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.i += 1 + hashes;
                    self.line_had_token = true;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// `'` — either a lifetime (`'a`) or a char literal (`'x'`, `'\n'`).
    fn quote(&mut self) {
        let next = self.peek(1);
        let is_lifetime = matches!(next, Some(c) if c == b'_' || c.is_ascii_alphabetic()) && {
            // 'a followed by another quote is a char literal 'a'.
            let mut j = self.i + 1;
            while j < self.b.len() && (self.b[j] == b'_' || self.b[j].is_ascii_alphanumeric()) {
                j += 1;
            }
            self.b.get(j) != Some(&b'\'')
        };
        if is_lifetime {
            self.i += 1; // the ident scanner will consume the name
            self.line_had_token = true;
            return;
        }
        self.i += 1;
        if self.peek(0) == Some(b'\\') {
            self.i += 2;
        } else {
            self.i += 1;
        }
        if self.peek(0) == Some(b'\'') {
            self.i += 1;
        }
        self.line_had_token = true;
    }

    fn number(&mut self) {
        let start = self.i;
        while self.i < self.b.len()
            && (self.b[self.i] == b'_' || self.b[self.i].is_ascii_alphanumeric())
        {
            self.i += 1;
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        self.push(TokKind::Num, text);
    }

    fn ident(&mut self) {
        let start = self.i;
        while self.i < self.b.len()
            && (self.b[self.i] == b'_' || self.b[self.i].is_ascii_alphanumeric())
        {
            self.i += 1;
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        // String-literal prefixes: r"…", r#"…"#, b"…", br#"…"#, b'…'.
        match (text.as_str(), self.peek(0)) {
            ("r" | "br" | "rb", Some(b'"')) | ("r" | "br" | "rb", Some(b'#')) => {
                self.i = start;
                if text.len() == 2 {
                    self.i += 1; // skip the b/r prefix byte
                }
                self.raw_string();
                return;
            }
            ("b", Some(b'"')) => {
                self.string();
                return;
            }
            ("b", Some(b'\'')) => {
                self.quote();
                return;
            }
            _ => {}
        }
        self.push(TokKind::Ident, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_chars_do_not_leak() {
        let src = r#"let x = "unwrap() // not code"; let c = '"'; let l: &'static str = "/*";"#;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(ids.contains(&"static".to_string())); // lifetime name survives as ident
    }

    #[test]
    fn raw_and_byte_strings() {
        let src = r###"let a = r#"has "quotes" and unwrap()"#; let b2 = b"unwrap()"; let c = br#"x"#;"###;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment unwrap() */ fn f() {}";
        let ids = idents(src);
        assert_eq!(ids, vec!["fn", "f"]);
    }

    #[test]
    fn doc_comments_are_tokens() {
        let src = "/// docs here\npub fn f() {}\n//! inner\n";
        let toks = lex(src);
        let docs: Vec<_> = toks.tokens.iter().filter(|t| t.kind == TokKind::DocComment).collect();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].line, 1);
    }

    #[test]
    fn allow_annotations_parse() {
        let src = "// lint: allow(relaxed-ordering): invariant X\nlet y = a.load(Relaxed);\nlet z = b.load(Relaxed); // lint: allow(relaxed-ordering)\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 2);
        assert_eq!(lexed.allows[0].rule, "relaxed-ordering");
        assert!(lexed.allows[0].stands_alone);
        assert_eq!(lexed.allows[1].line, 3);
        assert!(!lexed.allows[1].stands_alone);
    }

    #[test]
    fn lines_are_tracked_through_literals() {
        let src = "let a = \"x\ny\";\nlet b = 1;";
        let lexed = lex(src);
        let b_tok = lexed.tokens.iter().find(|t| t.text == "b");
        assert_eq!(b_tok.map(|t| t.line), Some(3));
    }

    #[test]
    fn char_literal_versus_lifetime() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let d = '\\n'; }";
        let ids = idents(src);
        assert!(ids.contains(&"a".to_string()));
        assert!(!ids.contains(&"x".to_string()) || ids.iter().filter(|s| *s == "x").count() == 1);
    }
}
