//! `xtask` — the lock-order analysis of muBLASTP-rs.
//!
//! Clippy and rustc enforce the workspace's other invariants from the
//! crate roots and `clippy.toml`: no unwrap or panic in library code, cast
//! discipline on the 16/32-bit local offsets (paper Sec. III), lock-free
//! kernels (Sec. IV-D) and doc coverage. What they cannot see is how locks
//! nest across calls, so this crate keeps that pass. It is
//! dependency-free on purpose: it must run anywhere the toolchain runs,
//! with nothing to download.
//!
//! ```text
//! cargo run -p xtask -- analyze               # the lock-order pass (CI gate)
//! cargo run -p xtask -- analyze --json FILE   # also write the findings as JSON
//! cargo run -p xtask -- fixtures              # self-test: every fixture must fail
//! ```
//!
//! Exit code 0 means clean; 1 means findings (or a broken fixture); 2
//! means the tool itself could not run. `cargo test -p xtask` also checks
//! that every `Ordering::Relaxed` in library code states why (the
//! `relaxed` test). The model checker of the scheduler's claim protocol
//! lives in `crates/parallel/src/model.rs` and runs under `cargo test -p
//! parallel`.

mod analyze;
mod json;
mod lexer;
mod parser;
#[cfg(test)]
mod relaxed;
mod workspace;

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("fixtures") => cmd_fixtures(),
        _ => {
            eprintln!("usage: xtask <analyze [--json FILE] | fixtures>");
            ExitCode::from(2)
        }
    }
}

/// `analyze`'s one flag: `--json FILE`.
fn parse_json_flag(args: &[String]) -> Result<Option<PathBuf>, String> {
    match args {
        [] => Ok(None),
        [flag, file] if flag == "--json" => Ok(Some(PathBuf::from(file))),
        [flag] if flag == "--json" => Err("--json needs a file argument".to_string()),
        [other, ..] => Err(format!("unknown argument `{other}`")),
    }
}

/// The lock-order analysis over the whole workspace.
fn cmd_analyze(args: &[String]) -> ExitCode {
    let json = match parse_json_flag(args) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = workspace::find_root() else {
        eprintln!("xtask: no workspace root (a Cargo.toml with [workspace]) above the cwd");
        return ExitCode::from(2);
    };
    let sources = workspace::workspace_sources(&root);
    let mut files = Vec::new();
    for (rel, abs) in &sources {
        match std::fs::read_to_string(abs) {
            Ok(src) => files.push((rel.clone(), src)),
            Err(e) => {
                eprintln!("xtask: cannot read {rel}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let units = analyze::build_units(&files);
    let index = analyze::build_index(&units);
    let findings = analyze::locks::check(&units, &index);
    eprintln!("xtask analyze: {} files", files.len());
    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, json::render(&findings)) {
            eprintln!("xtask: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!("xtask analyze: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask analyze: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// Self-test: every fixture under `crates/xtask/fixtures/` must trip the
/// lock rule named by its file stem (underscores ↔ dashes). A fixture
/// that passes its rule means the rule has lost its teeth.
fn cmd_fixtures() -> ExitCode {
    let Some(root) = workspace::find_root() else {
        eprintln!("xtask: no workspace root above the cwd");
        return ExitCode::from(2);
    };
    let dir = root.join("crates/xtask/fixtures");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        eprintln!("xtask: missing fixture directory {}", dir.display());
        return ExitCode::from(2);
    };
    let mut fixtures: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    fixtures.sort();
    if fixtures.is_empty() {
        eprintln!("xtask: no fixtures in {}", dir.display());
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in &fixtures {
        let stem = path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
        let expected = stem.replace('_', "-");
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let rel = format!("crates/xtask/fixtures/{stem}.rs");
        let units = analyze::build_units(&[(rel, src)]);
        let findings = analyze::locks::check(&units, &analyze::build_index(&units));
        let hits = findings.iter().filter(|f| f.rule == expected).count();
        let spurious = findings.iter().filter(|f| f.rule != expected).count();
        if hits == 0 {
            eprintln!("FAIL {stem}: fixture did not trip `{expected}`");
            failed = true;
        } else if spurious > 0 {
            eprintln!("FAIL {stem}: tripped rules other than `{expected}`:");
            for f in findings.iter().filter(|f| f.rule != expected) {
                eprintln!("  {f}");
            }
            failed = true;
        } else {
            eprintln!("ok   {stem}: {hits} finding(s) from `{expected}`");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        eprintln!("xtask fixtures: all {} fixtures convict their rule", fixtures.len());
        ExitCode::SUCCESS
    }
}
