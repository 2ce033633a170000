//! Minimal JSON emission for machine-readable reports (CI artifacts).
//! Serialization only — xtask stays dependency-free.

use crate::rules::Finding;

/// Escape a string for a JSON string literal (RFC 8259).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The findings report: shared schema between `lint --json` and
/// `analyze --json`.
pub(crate) fn render(tool: &str, findings: &[Finding], notes: &[String]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"tool\": \"{}\",\n", escape(tool)));
    out.push_str(&format!("  \"findings\": [{}\n  ],\n", items(findings)));
    let notes_json: Vec<String> =
        notes.iter().map(|n| format!("\"{}\"", escape(n))).collect();
    out.push_str(&format!("  \"notes\": [{}]\n", notes_json.join(", ")));
    out.push_str("}\n");
    out
}

fn items(findings: &[Finding]) -> String {
    let mut out = String::new();
    for (i, f) in findings.iter().enumerate() {
        let chain: Vec<String> =
            f.chain.iter().map(|c| format!("\"{}\"", escape(c))).collect();
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"msg\": \"{}\", \
             \"chain\": [{}]}}{}",
            escape(f.rule),
            escape(&f.path),
            f.line,
            escape(&f.msg),
            chain.join(", "),
            if i + 1 < findings.len() { "," } else { "" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn renders_findings_with_chains() {
        let mut f = Finding::new("panic-reach", "a.rs", 3, "bad \"thing\"".to_string());
        f.chain = vec!["a.rs:1 entry".to_string()];
        let s = render("analyze", &[f], &["note one".to_string()]);
        assert!(s.contains("\"tool\": \"analyze\""));
        assert!(s.contains("\"rule\": \"panic-reach\""));
        assert!(s.contains("\"line\": 3"));
        assert!(s.contains("bad \\\"thing\\\""));
        assert!(s.contains("\"chain\": [\"a.rs:1 entry\"]"));
        assert!(s.contains("\"notes\": [\"note one\"]"));
    }

    #[test]
    fn renders_empty_report() {
        let s = render("lint", &[], &[]);
        assert!(s.contains("\"findings\": [\n  ]"));
        assert!(s.contains("\"notes\": []"));
    }
}
