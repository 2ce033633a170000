//! Every `Ordering::Relaxed` in library code says why no stronger ordering
//! is needed, in a `// relaxed: <why>` comment on its line or on the
//! comment lines just above it. Test code, binaries and `crates/bench`
//! are exempt. No clippy lint states this rule, so this test does.

use std::path::{Path, PathBuf};

/// An unannotated `Relaxed` atomic: the ordering argument is neither
/// stated nor strengthened. Both of its sites must be found.
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

/// `path:line` of each `Relaxed` outside comments and `#[cfg(test)]`
/// modules that no `// relaxed:` comment covers.
fn unannotated(path: &str, src: &str) -> Vec<String> {
    let (mut found, mut covered, mut cfg_test) = (Vec::new(), false, false);
    let mut test_mod_end: Option<String> = None;
    for (n, line) in src.lines().enumerate() {
        let trimmed = line.trim_start();
        if let Some(end) = &test_mod_end {
            if line == end {
                test_mod_end = None;
            }
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix("//") {
            covered |= comment.trim_start().starts_with("relaxed:");
            continue;
        }
        let (code, comment) = line.split_once("//").unwrap_or((line, ""));
        if code.trim().is_empty() {
            continue;
        }
        if cfg_test && trimmed.contains("mod ") && code.trim_end().ends_with('{') {
            let indent = &line[..line.len() - trimmed.len()];
            test_mod_end = Some(format!("{indent}}}"));
        }
        cfg_test = trimmed.starts_with("#[cfg(test)]") || (cfg_test && trimmed.starts_with("#["));
        let relaxed = code
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .any(|word| word == "Relaxed");
        if relaxed && !covered && !comment.trim_start().starts_with("relaxed:") {
            found.push(format!("{path}:{}", n + 1));
        }
        covered = false;
    }
    found
}

/// Every `.rs` file under `dir`, skipping `bin/` directories.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() && !path.ends_with("bin") {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn relaxed_ordering_is_annotated() {
    let want = ["fixture.rs:6", "fixture.rs:11"];
    assert_eq!(
        unannotated("fixture.rs", FIXTURE),
        want,
        "the rule must convict its fixture"
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    sources(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("directory entry").path();
        if !krate.ends_with("bench") {
            sources(&krate.join("src"), &mut files);
        }
    }
    assert!(
        files.len() > 50,
        "only {} sources found under {}",
        files.len(),
        root.display()
    );
    let mut found = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file).expect("readable source");
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .display()
            .to_string();
        found.extend(unannotated(&rel, &src));
    }
    assert!(
        found.is_empty(),
        "`Ordering::Relaxed` without `// relaxed: <why>`:\n{}",
        found.join("\n")
    );
}
