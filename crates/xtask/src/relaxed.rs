//! The `relaxed-ordering` rule, kept as a test because no clippy lint
//! states it: outside test code, every `Ordering::Relaxed` in library code
//! carries a `// lint: allow(relaxed-ordering): <why>` comment that says
//! why no stronger ordering is needed.

use crate::analyze::{allowed_lines, in_analysis_scope, test_mask};
use crate::lexer::{lex, TokKind};
use crate::workspace::workspace_sources;
use std::path::Path;

const RULE: &str = "relaxed-ordering";

/// An unannotated `Relaxed` atomic outside the scheduler cursor: the
/// ordering argument is neither stated nor strengthened.
const FIXTURE: &str = "
use std::sync::atomic::{AtomicUsize, Ordering};

/// Publishes a result count with no ordering rationale.
pub fn publish(counter: &AtomicUsize, produced: usize) {
    counter.store(produced, Ordering::Relaxed);
}

/// Reads the count, again with no rationale.
pub fn read(counter: &AtomicUsize) -> usize {
    counter.load(Ordering::Relaxed)
}
";

/// `path:line` of each non-test `Relaxed` token in `src` that no
/// `lint: allow(relaxed-ordering)` comment covers.
fn unannotated(path: &str, src: &str) -> Vec<String> {
    let lexed = lex(src);
    let mask = test_mask(&lexed.tokens);
    let allowed = allowed_lines(&lexed);
    let covered = |line: usize| allowed.get(RULE).is_some_and(|l| l.contains(&line));
    lexed
        .tokens
        .iter()
        .zip(&mask)
        .filter(|&(t, &in_test)| {
            t.kind == TokKind::Ident && t.text == "Relaxed" && !in_test && !covered(t.line)
        })
        .map(|(t, _)| format!("{path}:{}", t.line))
        .collect()
}

#[test]
fn relaxed_ordering_is_annotated() {
    assert_eq!(
        unannotated("fixture.rs", FIXTURE).len(),
        2,
        "the rule must convict its fixture"
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let sources = workspace_sources(root);
    assert!(!sources.is_empty(), "no sources under {}", root.display());
    let mut found = Vec::new();
    for (rel, abs) in sources.iter().filter(|(rel, _)| in_analysis_scope(rel)) {
        let src = std::fs::read_to_string(abs).expect("readable source");
        found.extend(unannotated(rel, &src));
    }
    assert!(
        found.is_empty(),
        "`Ordering::Relaxed` without `// lint: allow({RULE}): <why>`:\n{}",
        found.join("\n")
    );
}
