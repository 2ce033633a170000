//! `xtask` — repo-native correctness tooling for muBLASTP-rs.
//!
//! The paper's contribution is eliminating *irregularity*; this crate is
//! the machinery that keeps the reproduction honest about it. It is
//! dependency-free on purpose: the lint engine must run anywhere the
//! toolchain runs, with nothing to download.
//!
//! ```text
//! cargo run -p xtask -- lint                  # lint the workspace (CI gate)
//! cargo run -p xtask -- lint FILE...          # lint specific files, all rules
//! cargo run -p xtask -- lint --update-allow   # ratchet lint.allow down to reality
//! cargo run -p xtask -- analyze               # lock-order and panic-reach passes
//! cargo run -p xtask -- fixtures              # self-test: every fixture must fail
//! cargo run -p xtask -- rules                 # list the rules and their rationale
//! ```
//!
//! `lint` and `analyze` accept `--json FILE` to also write the findings
//! as a machine-readable report (the CI artifact). Exit code 0 means
//! clean; 1 means findings (or a broken fixture); 2 means the tool
//! itself could not run. The companion concurrency model-checker lives
//! in `crates/parallel/src/model.rs` and runs under `cargo test -p
//! parallel`.

mod analyze;
mod json;
mod lexer;
mod parser;
mod rules;
mod workspace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("fixtures") => cmd_fixtures(),
        Some("rules") => cmd_rules(),
        _ => {
            eprintln!(
                "usage: xtask <lint [--json FILE] [--update-allow] [FILE...] \
                 | analyze [--json FILE] [--strict-panics] | fixtures | rules>"
            );
            ExitCode::from(2)
        }
    }
}

fn cmd_rules() -> ExitCode {
    for rule in rules::all_rules() {
        println!("{:<18} {}", rule.name, rule.desc);
    }
    for (name, desc) in [
        (analyze::locks::RULE_ORDER, "no cycles in the lock-acquisition graph (deadlock)"),
        (analyze::locks::RULE_SEND, "no channel send while holding a lock"),
        (analyze::locks::RULE_FIRE, "no Faults::fire point while holding a lock"),
        (analyze::panics::RULE, "no panic site reachable from a serving entry point"),
    ] {
        println!("{name:<18} {desc}");
    }
    ExitCode::SUCCESS
}

/// Split `--flag [value]` style options from positional arguments.
struct Opts {
    json: Option<PathBuf>,
    update_allow: bool,
    strict_panics: bool,
    paths: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        json: None,
        update_allow: false,
        strict_panics: false,
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                let v = it.next().ok_or("--json needs a file argument")?;
                o.json = Some(PathBuf::from(v));
            }
            "--update-allow" => o.update_allow = true,
            "--strict-panics" => o.strict_panics = true,
            f if f.starts_with("--") => return Err(format!("unknown flag `{f}`")),
            p => o.paths.push(p.to_string()),
        }
    }
    Ok(o)
}

/// Lint the whole workspace (no args) or specific files (args; path
/// scopes and the allowlist are bypassed so a fixture or scratch file is
/// judged by every rule).
fn cmd_lint(args: &[String]) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::from(2);
        }
    };
    if !opts.paths.is_empty() {
        let mut findings = Vec::new();
        for p in &opts.paths {
            match std::fs::read_to_string(p) {
                Ok(src) => findings.extend(rules::lint_source(p, &src, true)),
                Err(e) => {
                    eprintln!("xtask: cannot read {p}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        return report("lint", findings, Vec::new(), opts.json.as_deref());
    }

    let Some(root) = workspace::find_root() else {
        eprintln!("xtask: no workspace root (a Cargo.toml with [workspace]) above the cwd");
        return ExitCode::from(2);
    };
    let allow_path = root.join("crates/xtask/lint.allow");
    let budgets = match std::fs::read_to_string(&allow_path) {
        Ok(text) => match workspace::parse_allowlist(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("xtask: {e}");
                return ExitCode::from(2);
            }
        },
        Err(_) => Vec::new(), // no allowlist file: empty ratchet
    };
    let mut findings = Vec::new();
    let sources = workspace::workspace_sources(&root);
    if sources.is_empty() {
        eprintln!("xtask: found no .rs sources under {}", root.display());
        return ExitCode::from(2);
    }
    for (rel, abs) in &sources {
        match std::fs::read_to_string(abs) {
            Ok(src) => findings.extend(rules::lint_source(rel, &src, false)),
            Err(e) => {
                eprintln!("xtask: cannot read {rel}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if opts.update_allow {
        let new_text = workspace::update_allow(&findings, &budgets);
        if let Err(e) = std::fs::write(&allow_path, &new_text) {
            eprintln!("xtask: cannot write {}: {e}", allow_path.display());
            return ExitCode::from(2);
        }
        eprintln!("xtask lint: lint.allow ratcheted down to current findings");
        return ExitCode::SUCCESS;
    }
    let scanned = sources.len();
    let (kept, notes) = workspace::apply_budgets(findings, &budgets);
    eprintln!("xtask lint: scanned {scanned} files");
    report("lint", kept, notes, opts.json.as_deref())
}

/// The multi-pass static analysis suite: lock-order/deadlock and
/// panic-freedom reachability.
fn cmd_analyze(args: &[String]) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
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
    let per_pass = [
        analyze::locks::check(&units, &index),
        analyze::panics::check(&units, &index, &analyze::panics::Options {
            strict: opts.strict_panics,
        }),
    ];
    eprintln!("xtask analyze: {} files, {} passes", files.len(), per_pass.len());
    report("analyze", per_pass.concat(), Vec::new(), opts.json.as_deref())
}

fn report(
    tool: &str,
    findings: Vec<rules::Finding>,
    notes: Vec<String>,
    json: Option<&Path>,
) -> ExitCode {
    if let Some(path) = json {
        let doc = json::render(tool, &findings, &notes);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("xtask: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    for note in &notes {
        eprintln!("note: {note}");
    }
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!("xtask {tool}: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask {tool}: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// Which tool judges a fixture, and the rule it must trip.
enum FixtureKind {
    Lint,
    Locks,
    Panics,
}

fn fixture_kind(stem: &str) -> FixtureKind {
    match stem {
        s if s.starts_with("lock_") => FixtureKind::Locks,
        s if s.starts_with("panic_reach") => FixtureKind::Panics,
        _ => FixtureKind::Lint,
    }
}

/// Self-test: every fixture under `crates/xtask/fixtures/` must trip the
/// rule named by its file stem (underscores ↔ dashes) — lint fixtures
/// through the lint rules, analysis fixtures through the matching
/// analysis pass. A fixture that passes its rule means the rule has lost
/// its teeth.
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
        let findings = match fixture_kind(&stem) {
            FixtureKind::Lint => rules::lint_source(&rel, &src, true),
            FixtureKind::Locks => {
                let units = analyze::build_units(&[(rel.clone(), src)]);
                let index = analyze::build_index(&units);
                analyze::locks::check(&units, &index)
            }
            FixtureKind::Panics => {
                let units = analyze::build_units(&[(rel.clone(), src)]);
                let index = analyze::build_index(&units);
                analyze::panics::check(&units, &index, &analyze::panics::Options {
                    strict: false,
                })
            }
        };
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
