//! Workspace discovery and source walking.

use std::path::{Path, PathBuf};

/// Locate the workspace root by walking up from the current directory to
/// the first `Cargo.toml` that declares `[workspace]`.
pub(crate) fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if let Ok(text) = std::fs::read_to_string(dir.join("Cargo.toml")) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Every `.rs` file under `src/` and `crates/*/src/`, as
/// `(workspace-relative path with forward slashes, absolute path)`,
/// sorted for deterministic reports. Fixture files live outside any
/// `src/` directory and are deliberately not picked up here.
pub(crate) fn workspace_sources(root: &Path) -> Vec<(String, PathBuf)> {
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            dirs.push(e.path().join("src"));
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(&d, &mut files);
    }
    let mut out: Vec<(String, PathBuf)> = files
        .into_iter()
        .filter_map(|abs| {
            let rel = abs.strip_prefix(root).ok()?;
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            Some((rel, abs))
        })
        .collect();
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            walk(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}
