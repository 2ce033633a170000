//! Workspace discovery, source walking, and the allowlist ratchet.

use crate::rules::Finding;
use std::collections::HashMap;
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

/// One line of `crates/xtask/lint.allow`: up to `max` findings of `rule`
/// in `path` are tolerated (the burn-down ratchet).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Budget {
    pub rule: String,
    pub path: String,
    pub max: usize,
}

/// Parse the allowlist: `<rule> <path> <max>` per line, `#` comments.
/// Malformed lines are returned as errors rather than ignored — a typo'd
/// suppression must not silently widen the policy.
pub(crate) fn parse_allowlist(text: &str) -> Result<Vec<Budget>, String> {
    let mut budgets = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let [rule, path, max] = parts.as_slice() else {
            return Err(format!("lint.allow:{}: expected `<rule> <path> <max>`", lineno + 1));
        };
        let Ok(max) = max.parse::<usize>() else {
            return Err(format!("lint.allow:{}: bad budget `{max}`", lineno + 1));
        };
        budgets.push(Budget { rule: rule.to_string(), path: path.to_string(), max });
    }
    Ok(budgets)
}

/// Apply budgets: findings fully covered by a budget are suppressed;
/// over-budget groups are reported whole. Slack (budget higher than
/// reality) is noted; a *stale* entry — zero findings left — is a hard
/// `stale-allow` finding: dead suppressions are latent policy holes, and
/// `xtask lint --update-allow` removes them mechanically.
pub(crate) fn apply_budgets(
    findings: Vec<Finding>,
    budgets: &[Budget],
) -> (Vec<Finding>, Vec<String>) {
    let mut counts: HashMap<(&str, &str), usize> = HashMap::new();
    for f in &findings {
        *counts.entry((f.rule, f.path.as_str())).or_default() += 1;
    }
    let budget_of = |rule: &str, path: &str| {
        budgets.iter().find(|b| b.rule == rule && b.path == path).map(|b| b.max)
    };
    let mut notes = Vec::new();
    let kept: Vec<Finding> = findings
        .iter()
        .filter(|f| {
            let n = counts.get(&(f.rule, f.path.as_str())).copied().unwrap_or(0);
            match budget_of(f.rule, &f.path) {
                Some(max) if n <= max => false,
                Some(max) => {
                    // Reported below; note the breach once per group.
                    let note = format!(
                        "{}: [{}] {} findings exceed the allowlisted budget of {}",
                        f.path, f.rule, n, max
                    );
                    if !notes.contains(&note) {
                        notes.push(note);
                    }
                    true
                }
                None => true,
            }
        })
        .cloned()
        .collect();
    let mut kept = kept;
    for b in budgets {
        let n = counts.get(&(b.rule.as_str(), b.path.as_str())).copied().unwrap_or(0);
        if n == 0 {
            kept.push(Finding::new(
                "stale-allow",
                &b.path,
                0,
                format!(
                    "lint.allow entry `{} {} {}` matches no findings — remove it \
                     (or run `xtask lint --update-allow`)",
                    b.rule, b.path, b.max
                ),
            ));
        } else if n < b.max {
            notes.push(format!(
                "lint.allow: `{} {}` budget {} but only {} findings — ratchet down",
                b.rule, b.path, b.max, n
            ));
        }
    }
    (kept, notes)
}

/// Rewrite the allowlist so every budget equals the current finding
/// count, never raising a budget and never adding entries: the ratchet
/// only tightens. Entries whose findings are gone disappear.
pub(crate) fn update_allow(findings: &[Finding], budgets: &[Budget]) -> String {
    let mut counts: HashMap<(&str, &str), usize> = HashMap::new();
    for f in findings {
        *counts.entry((f.rule, f.path.as_str())).or_default() += 1;
    }
    let mut out = String::from(
        "# Per-file lint budgets (burn-down ratchet). `<rule> <path> <max>`.\n\
         # Maintained by `xtask lint --update-allow`: budgets only shrink, and\n\
         # entries are never added by hand without a removal plan.\n",
    );
    for b in budgets {
        let n = counts.get(&(b.rule.as_str(), b.path.as_str())).copied().unwrap_or(0);
        let new_max = n.min(b.max);
        if new_max > 0 {
            out.push_str(&format!("{} {} {}\n", b.rule, b.path, new_max));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line: usize) -> Finding {
        Finding::new(rule, path, line, String::new())
    }

    #[test]
    fn allowlist_parses_and_rejects_garbage() {
        let ok = "# comment\nno-unwrap crates/engine/src/report.rs 8\n\nrelaxed-ordering a.rs 1 # trailing\n";
        let budgets = parse_allowlist(ok).unwrap();
        assert_eq!(budgets.len(), 2);
        assert_eq!(budgets[0].max, 8);
        assert!(parse_allowlist("no-unwrap onlytwo").is_err());
        assert!(parse_allowlist("no-unwrap x.rs lots").is_err());
    }

    #[test]
    fn budgets_suppress_exactly_to_the_ratchet() {
        let budgets = parse_allowlist("no-unwrap a.rs 2").unwrap();
        let within = vec![finding("no-unwrap", "a.rs", 1), finding("no-unwrap", "a.rs", 9)];
        let (kept, notes) = apply_budgets(within, &budgets);
        assert!(kept.is_empty());
        assert!(notes.is_empty(), "{notes:?}");

        let over = vec![
            finding("no-unwrap", "a.rs", 1),
            finding("no-unwrap", "a.rs", 9),
            finding("no-unwrap", "a.rs", 12),
        ];
        let (kept, notes) = apply_budgets(over, &budgets);
        assert_eq!(kept.len(), 3, "over-budget groups report every finding");
        assert_eq!(notes.len(), 1);
    }

    #[test]
    fn slack_is_noted_and_stale_entries_are_hard_errors() {
        let budgets = parse_allowlist("no-unwrap a.rs 5\nno-unwrap gone.rs 2").unwrap();
        let (kept, notes) = apply_budgets(vec![finding("no-unwrap", "a.rs", 1)], &budgets);
        assert_eq!(kept.len(), 1, "{kept:?}");
        assert_eq!(kept[0].rule, "stale-allow");
        assert_eq!(kept[0].path, "gone.rs");
        assert!(notes.iter().any(|n| n.contains("ratchet down")));
    }

    #[test]
    fn update_allow_only_tightens() {
        let budgets =
            parse_allowlist("no-unwrap a.rs 5\nno-unwrap gone.rs 2\nno-unwrap b.rs 1").unwrap();
        let findings = vec![
            finding("no-unwrap", "a.rs", 1),
            finding("no-unwrap", "a.rs", 2),
            finding("no-unwrap", "b.rs", 1),
            finding("no-unwrap", "b.rs", 2), // over budget: stays at old max
            finding("no-unwrap", "new.rs", 1), // unbudgeted: never added
        ];
        let text = update_allow(&findings, &budgets);
        assert!(text.contains("no-unwrap a.rs 2\n"), "{text}");
        assert!(text.contains("no-unwrap b.rs 1\n"), "{text}");
        assert!(!text.contains("gone.rs"), "{text}");
        assert!(!text.contains("new.rs"), "{text}");
        let reparsed = parse_allowlist(&text).unwrap();
        assert_eq!(reparsed.len(), 2);
    }

    #[test]
    fn unbudgeted_findings_pass_through() {
        let (kept, _) = apply_budgets(vec![finding("no-unwrap", "b.rs", 3)], &[]);
        assert_eq!(kept.len(), 1);
    }
}
