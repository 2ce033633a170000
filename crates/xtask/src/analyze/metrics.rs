//! Exported-metrics surface ratchet.
//!
//! `obsv/src/metrics.rs` *is* the metrics schema: the `names` module
//! spells every dotted series name out of identifiers (via the `series!`
//! macro, which exists precisely so the names survive this tool's
//! string-blind lexer), and `declare_all` binds each name to a series
//! kind (`def_counter`, `def_gauge_per_shard`, `def_hist_log2_us`, ...).
//! Dashboards and scrape configs key on those names; nothing in the type
//! system stops a refactor from renaming a series, changing its kind, or
//! silently dropping its declaration.
//!
//! This pass parses both halves syntactically and enforces two rules:
//!
//! * `metrics-decl` — the `names` module and `declare_all` must agree:
//!   every named series is declared exactly once, and every declaration
//!   names a known series const.
//! * `metrics-schema-drift` — each series (name + declaration kind) and
//!   the cell-geometry constants are fingerprinted (FNV-1a 64) at the
//!   current `METRICS_VERSION` and compared against the committed
//!   `crates/obsv/metrics.schema`. Pinned rows may never change; a
//!   deliberate surface change must bump `METRICS_VERSION`, after which
//!   `analyze --bless-metrics` appends rows for the new version and
//!   refuses to rewrite existing ones.
//!
//! Only rows at the current version are checked; older rows ride along
//! as a record of what dashboards were once promised.

use super::FileUnit;
use crate::rules::Finding;
use std::collections::BTreeMap;

pub(crate) const RULE_DECL: &str = "metrics-decl";
pub(crate) const RULE_DRIFT: &str = "metrics-schema-drift";
const RULE_PARSE: &str = "metrics-parse";

/// Constants that fix the cell geometry (bucket counts, striping); their
/// initializer tokens are fingerprinted alongside the series rows.
const GEOMETRY_CONSTS: [&str; 4] =
    ["METRICS_VERSION", "STRIPES", "LOG2_BUCKETS", "LINEAR_BUCKETS"];

/// One series: the `names` const it is bound to, its dotted name, and
/// (once `declare_all` is parsed) the `def_*` method declaring it.
#[derive(Clone, Debug)]
pub(crate) struct SeriesDecl {
    pub dotted: String,
    /// `def_counter`, `def_gauge_per_shard`, ... — empty until declared.
    pub kind: String,
    pub line: usize,
}

/// The parsed surface: `names`-const ident → series, plus the geometry
/// constants.
pub(crate) struct Model {
    pub version: u32,
    pub series: BTreeMap<String, SeriesDecl>,
    pub consts: BTreeMap<String, String>,
}

/// The unit holding the surface: the real `obsv/src/metrics.rs`, or a
/// fixture whose stem starts with `metrics`.
fn find_unit(units: &[FileUnit]) -> Option<usize> {
    units.iter().position(|u| {
        u.rel == "crates/obsv/src/metrics.rs"
            || (u.rel.contains("fixtures/")
                && u.rel.rsplit('/').next().is_some_and(|f| f.starts_with("metrics")))
    })
}

/// Run the pass: parse, the declaration check, and (when the committed
/// schema is supplied) the drift check.
pub(crate) fn check(units: &[FileUnit], schema: Option<&str>) -> Vec<Finding> {
    let Some(ui) = find_unit(units) else {
        return vec![Finding::new(
            RULE_PARSE,
            "crates/obsv/src/metrics.rs",
            0,
            "metrics source not found".to_string(),
        )];
    };
    let u = &units[ui];
    let (model, mut findings) = match parse(u) {
        Ok(pair) => pair,
        Err(f) => return vec![f],
    };
    if let Some(schema) = schema {
        findings.extend(drift_checks(u, &model, schema));
    }
    findings
}

/// Regenerate the schema: append rows for the current `METRICS_VERSION`,
/// carry historical rows forward verbatim, and refuse to rewrite a row
/// that is already pinned at the current version.
pub(crate) fn bless(units: &[FileUnit], old: Option<&str>) -> Result<String, Vec<Finding>> {
    let Some(ui) = find_unit(units) else {
        return Err(vec![Finding::new(
            RULE_PARSE,
            "crates/obsv/src/metrics.rs",
            0,
            "metrics source not found".to_string(),
        )]);
    };
    let u = &units[ui];
    let (model, decl_findings) = parse(u).map_err(|f| vec![f])?;
    if !decl_findings.is_empty() {
        return Err(decl_findings);
    }
    let mut rows = match old.map(parse_schema).transpose() {
        Ok(r) => r.unwrap_or_default(),
        Err(msg) => return Err(vec![Finding::new(RULE_DRIFT, &u.rel, 0, msg)]),
    };
    let mut violations = Vec::new();
    for (key, hash) in fingerprints(&model) {
        match rows.get(&key) {
            Some(h) if *h == hash => {}
            Some(_) => violations.push(Finding::new(
                RULE_DRIFT,
                &u.rel,
                series_line(&model, &key.0),
                format!(
                    "refusing to bless: `{} v{}` is already pinned and its shape \
                     changed — exported series are immutable per version; bump \
                     METRICS_VERSION instead",
                    key.0, key.1
                ),
            )),
            None => {
                rows.insert(key, hash);
            }
        }
    }
    if violations.is_empty() {
        Ok(schema_text(&rows))
    } else {
        Err(violations)
    }
}

fn series_line(model: &Model, dotted: &str) -> usize {
    model.series.values().find(|s| s.dotted == dotted).map_or(0, |s| s.line)
}

/// `(dotted name, version) → fingerprint` at the current version only.
/// The hash covers the declaration kind, so changing a counter into a
/// histogram under the same name is drift even though the name survives.
fn fingerprints(model: &Model) -> BTreeMap<(String, u32), u64> {
    let fnv = |bytes: &mut dyn Iterator<Item = u8>| {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    };
    let mut rows = BTreeMap::new();
    for s in model.series.values() {
        let text = format!("{}:{};", s.dotted, s.kind);
        rows.insert((s.dotted.clone(), model.version), fnv(&mut text.bytes()));
    }
    let consts: String =
        model.consts.iter().map(|(name, init)| format!("{name}={init};")).collect();
    rows.insert(("geometry".to_string(), model.version), fnv(&mut consts.bytes()));
    rows
}

fn schema_text(rows: &BTreeMap<(String, u32), u64>) -> String {
    let mut out = String::from(
        "# Exported metrics-series fingerprints (name + declaration kind) per\n\
         # surface version. Generated by `xtask analyze --bless-metrics`; rows\n\
         # are append-only — a hash change here means a series dashboards\n\
         # depend on was altered without a METRICS_VERSION bump.\n",
    );
    for ((series, v), h) in rows {
        out.push_str(&format!("{series} v{v} {h:016x}\n"));
    }
    out
}

fn parse_schema(text: &str) -> Result<BTreeMap<(String, u32), u64>, String> {
    let mut rows = BTreeMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let [series, ver, hash] = parts.as_slice() else {
            return Err(format!(
                "metrics.schema:{}: expected `<series> v<N> <hex>`",
                lineno + 1
            ));
        };
        let v = ver
            .strip_prefix('v')
            .and_then(|n| n.parse::<u32>().ok())
            .ok_or_else(|| format!("metrics.schema:{}: bad version `{ver}`", lineno + 1))?;
        let h = u64::from_str_radix(hash, 16)
            .map_err(|_| format!("metrics.schema:{}: bad hash `{hash}`", lineno + 1))?;
        rows.insert((series.to_string(), v), h);
    }
    Ok(rows)
}

fn drift_checks(u: &FileUnit, model: &Model, schema: &str) -> Vec<Finding> {
    let pinned = match parse_schema(schema) {
        Ok(r) => r,
        Err(msg) => return vec![Finding::new(RULE_DRIFT, &u.rel, 0, msg)],
    };
    if pinned.is_empty() {
        return vec![Finding::new(
            RULE_DRIFT,
            &u.rel,
            0,
            "metrics.schema is empty — run `xtask analyze --bless-metrics`".to_string(),
        )];
    }
    let current = fingerprints(model);
    let mut findings = Vec::new();
    for (key, hash) in pinned.iter().filter(|((_, v), _)| *v == model.version) {
        let line = series_line(model, &key.0);
        match current.get(key) {
            Some(h) if h == hash => {}
            Some(_) => findings.push(Finding::new(
                RULE_DRIFT,
                &u.rel,
                line,
                format!(
                    "`{} v{}` changed shape but is pinned in metrics.schema — \
                     exported series are immutable per version; bump \
                     METRICS_VERSION and run `xtask analyze --bless-metrics`",
                    key.0, key.1
                ),
            )),
            None => findings.push(Finding::new(
                RULE_DRIFT,
                &u.rel,
                0,
                format!("pinned `{} v{}` vanished from the metrics source", key.0, key.1),
            )),
        }
    }
    for key in current.keys() {
        if !pinned.contains_key(key) {
            findings.push(Finding::new(
                RULE_DRIFT,
                &u.rel,
                series_line(model, &key.0),
                format!(
                    "`{} v{}` is not pinned in metrics.schema — run \
                     `xtask analyze --bless-metrics` to append it",
                    key.0, key.1
                ),
            ));
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Surface parsing
// ---------------------------------------------------------------------

/// Parse the surface out of one source file: the `series!` name consts,
/// then the `def_*` calls in `declare_all`. Declaration mismatches are
/// returned alongside the model so `check` reports them and `bless`
/// refuses to pin an inconsistent surface.
fn parse(u: &FileUnit) -> Result<(Model, Vec<Finding>), Finding> {
    let series = name_consts(u);
    if series.is_empty() {
        return Err(Finding::new(
            RULE_PARSE,
            &u.rel,
            0,
            "no `series!` name constants found".to_string(),
        ));
    }
    let mut model = Model {
        version: version_const(u).unwrap_or(1),
        series,
        consts: geometry_consts(u),
    };
    let findings = apply_declarations(u, &mut model);
    Ok((model, findings))
}

/// `pub const METRICS_VERSION: u32 = N;`
fn version_const(u: &FileUnit) -> Option<u32> {
    let t = &u.lexed.tokens;
    (0..t.len()).find_map(|i| {
        (t[i].text == "METRICS_VERSION"
            && t.get(i + 1).is_some_and(|x| x.text == ":")
            && t.get(i + 3).is_some_and(|x| x.text == "="))
        .then(|| t.get(i + 4).and_then(|x| x.text.parse().ok()))
        .flatten()
    })
}

/// `const NAME ...= <init>;` initializer tokens for the geometry consts.
fn geometry_consts(u: &FileUnit) -> BTreeMap<String, String> {
    let t = &u.lexed.tokens;
    let mut out = BTreeMap::new();
    for i in 0..t.len() {
        if t[i].text != "const"
            || !t.get(i + 1).is_some_and(|x| GEOMETRY_CONSTS.contains(&x.text.as_str()))
        {
            continue;
        }
        let name = t[i + 1].text.clone();
        let Some(eq) = (i + 2..t.len().min(i + 16)).find(|&j| t[j].text == "=") else {
            continue;
        };
        let init: Vec<String> = (eq + 1..t.len())
            .take_while(|&j| t[j].text != ";")
            .map(|j| t[j].text.clone())
            .collect();
        out.insert(name, init.join(" "));
    }
    out
}

/// `const IDENT: &str = ... series!(a.b.c);` → IDENT → "a.b.c".
/// The macro's ident-path argument is the only token-visible spelling of
/// the name (string literals never reach the lexer).
fn name_consts(u: &FileUnit) -> BTreeMap<String, SeriesDecl> {
    let t = &u.lexed.tokens;
    let mut out = BTreeMap::new();
    for i in 0..t.len() {
        if t[i].text != "const"
            || t.get(i + 2).is_none_or(|x| x.text != ":")
            || t.get(i + 3).is_none_or(|x| x.text != "&")
            || t.get(i + 4).is_none_or(|x| x.text != "str")
        {
            continue;
        }
        let name = t[i + 1].text.clone();
        // Find `series ! (` within the initializer, then read the
        // dot-separated ident path up to the closing paren.
        let Some(open) = (i + 5..t.len().min(i + 16)).find(|&j| {
            t[j].text == "series"
                && t.get(j + 1).is_some_and(|x| x.text == "!")
                && t.get(j + 2).is_some_and(|x| x.text == "(")
        }) else {
            continue;
        };
        let parts: Vec<String> = (open + 3..t.len())
            .take_while(|&j| t[j].text != ")")
            .filter(|&j| t[j].text != ".")
            .map(|j| t[j].text.clone())
            .collect();
        if parts.is_empty() {
            continue;
        }
        out.insert(
            name,
            SeriesDecl { dotted: parts.join("."), kind: String::new(), line: t[i].line },
        );
    }
    out
}

/// Walk `declare_all` for `r.def_*(names::IDENT)` calls, binding each
/// series to its declaration kind and reporting mismatches: unknown
/// consts, double declarations, and named series never declared.
fn apply_declarations(u: &FileUnit, model: &mut Model) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(decl) = u.fns.iter().find(|f| f.name == "declare_all" && !f.body.is_empty())
    else {
        findings.push(Finding::new(
            RULE_DECL,
            &u.rel,
            0,
            "`declare_all` not found — the registry has no declaration site to pin"
                .to_string(),
        ));
        return findings;
    };
    let t = &u.lexed.tokens;
    for i in decl.body.clone() {
        if !t[i].text.starts_with("def_") || t.get(i + 1).is_none_or(|x| x.text != "(") {
            continue;
        }
        // Argument shapes: `names :: IDENT` (the `::` lexes as two `:`
        // tokens) or a bare `IDENT`.
        let arg = match (t.get(i + 2), t.get(i + 3), t.get(i + 4), t.get(i + 5)) {
            (Some(a), Some(b), Some(c), Some(d))
                if a.text == "names" && b.text == ":" && c.text == ":" =>
            {
                &d.text
            }
            (Some(a), _, _, _) => &a.text,
            _ => continue,
        };
        let line = t[i].line;
        match model.series.get_mut(arg) {
            None => {
                if !u.is_allowed(RULE_DECL, line) {
                    findings.push(Finding::new(
                        RULE_DECL,
                        &u.rel,
                        line,
                        format!("`declare_all` declares unknown series const `{arg}`"),
                    ));
                }
            }
            Some(s) if !s.kind.is_empty() => {
                if !u.is_allowed(RULE_DECL, line) {
                    findings.push(Finding::new(
                        RULE_DECL,
                        &u.rel,
                        line,
                        format!(
                            "series `{}` is declared twice (first as `{}`, again as `{}`)",
                            s.dotted, s.kind, t[i].text
                        ),
                    ));
                }
            }
            Some(s) => {
                s.kind = t[i].text.clone();
                s.line = line;
            }
        }
    }
    for (name, s) in &model.series {
        if s.kind.is_empty() && !u.is_allowed(RULE_DECL, s.line) {
            findings.push(Finding::new(
                RULE_DECL,
                &u.rel,
                s.line,
                format!(
                    "series const `{name}` (`{}`) is named but never declared in \
                     `declare_all` — it would render as nothing",
                    s.dotted
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::build_units;

    const MINI: &str = r#"
        pub const METRICS_VERSION: u32 = 1;
        const STRIPES: usize = 8;
        const LOG2_BUCKETS: usize = 64;
        pub mod names {
            pub const ACCEPTED: &str = crate::series!(serve.batcher.accepted);
            pub const DEPTH: &str = crate::series!(serve.queue.depth);
            pub const LATENCY: &str = crate::series!(serve.latency.total);
        }
        fn declare_all(r: &Registry) {
            r.def_counter_sharded(names::ACCEPTED);
            r.def_gauge(names::DEPTH);
            r.def_hist_log2_us(names::LATENCY);
        }
    "#;

    fn units_of(src: &str) -> Vec<FileUnit> {
        build_units(&[("crates/obsv/src/metrics.rs".to_string(), src.to_string())])
    }

    #[test]
    fn mini_surface_parses_and_is_clean() {
        let units = units_of(MINI);
        let (model, findings) = parse(&units[0]).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(model.version, 1);
        assert_eq!(model.series.len(), 3);
        assert_eq!(model.series["ACCEPTED"].dotted, "serve.batcher.accepted");
        assert_eq!(model.series["ACCEPTED"].kind, "def_counter_sharded");
        assert_eq!(model.consts.len(), 3);
        assert!(check(&units, None).is_empty(), "{:?}", check(&units, None));
    }

    #[test]
    fn undeclared_series_is_a_decl_violation() {
        let src = MINI.replace("r.def_gauge(names::DEPTH);", "");
        let f = check(&units_of(&src), None);
        assert!(f.iter().any(|f| f.rule == RULE_DECL && f.msg.contains("never declared")), "{f:?}");
    }

    #[test]
    fn double_declaration_is_a_decl_violation() {
        let src = MINI.replace(
            "r.def_gauge(names::DEPTH);",
            "r.def_gauge(names::DEPTH); r.def_counter(names::DEPTH);",
        );
        let f = check(&units_of(&src), None);
        assert!(f.iter().any(|f| f.rule == RULE_DECL && f.msg.contains("twice")), "{f:?}");
    }

    #[test]
    fn unknown_const_is_a_decl_violation() {
        let src = MINI.replace("r.def_gauge(names::DEPTH);",
            "r.def_gauge(names::DEPTH); r.def_counter(names::GHOST);");
        let f = check(&units_of(&src), None);
        assert!(f.iter().any(|f| f.rule == RULE_DECL && f.msg.contains("unknown")), "{f:?}");
    }

    #[test]
    fn bless_then_check_roundtrips() {
        let units = units_of(MINI);
        let schema = bless(&units, None).unwrap();
        assert!(schema.contains("serve.batcher.accepted v1"));
        assert!(schema.contains("geometry v1"));
        assert!(check(&units, Some(&schema)).is_empty());
    }

    #[test]
    fn kind_change_at_pinned_version_is_drift_and_bless_refuses_it() {
        let units = units_of(MINI);
        let schema = bless(&units, None).unwrap();
        for mutation in [
            MINI.replace("r.def_gauge(names::DEPTH);", "r.def_counter(names::DEPTH);"),
            MINI.replace("STRIPES: usize = 8", "STRIPES: usize = 4"),
        ] {
            let mutated = units_of(&mutation);
            let f = check(&mutated, Some(&schema));
            assert!(f.iter().any(|f| f.rule == RULE_DRIFT), "{f:?}");
            let refused = bless(&mutated, Some(&schema));
            assert!(refused.is_err());
        }
    }

    #[test]
    fn renamed_series_is_drift_on_both_sides() {
        let units = units_of(MINI);
        let schema = bless(&units, None).unwrap();
        let renamed = MINI.replace("series!(serve.queue.depth)", "series!(serve.queue.backlog)");
        let f = check(&units_of(&renamed), Some(&schema));
        assert!(f.iter().any(|f| f.rule == RULE_DRIFT && f.msg.contains("vanished")), "{f:?}");
        assert!(f.iter().any(|f| f.rule == RULE_DRIFT && f.msg.contains("not pinned")), "{f:?}");
    }

    #[test]
    fn version_bump_blesses_cleanly_and_keeps_history() {
        let units = units_of(MINI);
        let schema = bless(&units, None).unwrap();
        let v2 = MINI
            .replace("METRICS_VERSION: u32 = 1", "METRICS_VERSION: u32 = 2")
            .replace("r.def_gauge(names::DEPTH);", "r.def_counter(names::DEPTH);");
        let v2_units = units_of(&v2);
        let schema2 = bless(&v2_units, Some(&schema)).unwrap();
        assert!(schema2.contains("serve.queue.depth v1"), "history kept:\n{schema2}");
        assert!(schema2.contains("serve.queue.depth v2"));
        assert!(check(&v2_units, Some(&schema2)).is_empty());
        assert!(check(&units, Some(&schema)).iter().all(|f| f.rule != RULE_DRIFT));
    }

    #[test]
    fn unpinned_series_is_drift_until_blessed() {
        let units = units_of(MINI);
        let schema = bless(&units, None).unwrap();
        let trimmed: String = schema
            .lines()
            .filter(|l| !l.starts_with("serve.latency.total"))
            .collect::<Vec<_>>()
            .join("\n");
        let f = check(&units, Some(&trimmed));
        assert!(f.iter().any(|f| f.rule == RULE_DRIFT && f.msg.contains("not pinned")), "{f:?}");
    }
}
