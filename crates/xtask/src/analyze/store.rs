//! On-disk store-layout ratchet.
//!
//! `dbindex/src/store.rs` hand-rolls the block-store layout: a handful
//! of `const`s fix the header/footer geometry, and a small set of
//! serializer functions emit / consume `put_*` / `get_*` calls in field
//! order. Nothing in the type system stops a refactor from reordering a
//! footer row, widening a header field, or swapping two of a record's
//! array runs — any of which silently invalidates every store file
//! already on disk.
//!
//! This pass parses those functions *syntactically* and enforces two
//! rules:
//!
//! * `store-pair` — the header writer and reader must agree field for
//!   field (`header_bytes` puts vs `parse_header` gets, in order); the
//!   footer-directory writer and reader must agree on field widths
//!   (`finish` puts vs `read_directory` gets as multisets — the reader
//!   legally consumes the tail before seeking back to the rows); the
//!   bulk-array helpers must frame a run the same way (`put_u32s` puts vs
//!   `get_u32s` gets, in order); and a record's array runs must be read
//!   in the order they are written (`encode_block`'s `put_u32s(.., name)`
//!   vs `decode_block`'s `let name = get_u32s(..)`, by name).
//! * `store-layout-drift` — each layout-bearing function (and the layout
//!   constants) is fingerprinted (FNV-1a 64 over its direction-tagged op
//!   sequence) at the current `STORE_VERSION` and compared against the
//!   committed `crates/dbindex/store.schema`. Pinned rows may never
//!   change; a deliberate layout change must bump `STORE_VERSION`, after
//!   which `analyze --bless-store` appends rows for the new version and
//!   refuses to rewrite existing ones.
//!
//! Unlike the wire-protocol ratchet ([`super::proto`]), historical rows
//! are not recomputable from the current source (the file format is
//! replaced wholesale per version, not gated per field), so only rows at
//! the current version are checked; older rows ride along as a record of
//! what shipped.

use super::FileUnit;
use crate::rules::Finding;
use std::collections::BTreeMap;

pub const RULE_PAIR: &str = "store-pair";
pub const RULE_DRIFT: &str = "store-layout-drift";
pub const RULE_PARSE: &str = "store-parse";

/// The functions whose `put_*`/`get_*` call sequences *are* the layout.
const SECTIONS: [&str; 8] = [
    "put_u32s",
    "get_u32s",
    "encode_block",
    "decode_block",
    "header_bytes",
    "parse_header",
    "finish",
    "read_directory",
];

/// Constants that fix the file geometry; their initializer tokens are
/// fingerprinted alongside the op sequences.
const LAYOUT_CONSTS: [&str; 7] = [
    "STORE_VERSION",
    "HEADER_LEN",
    "N_BLOCKS_OFFSET",
    "DIR_ROW",
    "TAIL_LEN",
    "MAGIC",
    "FOOTER_MAGIC",
];

/// The bulk-array ops: one call moves a whole run, so which array it
/// moves is part of the layout (see [`Op::kind`]).
const BULK: &str = "u32s";

/// One `put_*` / `get_*` call inside a layout function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    /// The suffix after `put_` / `get_`: `u32`, `u64`. A bulk op also
    /// names its array — `u32s:offsets` — from the call's last argument
    /// (`put_u32s(out, offsets)`) or the binding it initialises
    /// (`let offsets = get_u32s(..)`), so two same-width runs swapping
    /// places is a layout change like any other.
    pub kind: String,
    /// `true` for `put_*` (writer side).
    pub put: bool,
    pub line: usize,
}

/// The parsed layout: per-function op sequences plus the geometry consts.
pub struct Model {
    pub version: u32,
    pub sections: BTreeMap<String, Vec<Op>>,
    /// First line of each section, for anchoring findings.
    pub lines: BTreeMap<String, usize>,
    /// `name → initializer token text` for the layout constants found.
    pub consts: BTreeMap<String, String>,
}

/// The unit holding the store: the real `dbindex/src/store.rs`, or a
/// fixture whose stem starts with `store`.
pub fn find_unit(units: &[FileUnit]) -> Option<usize> {
    units.iter().position(|u| {
        u.rel == "crates/dbindex/src/store.rs"
            || (u.rel.contains("fixtures/")
                && u.rel.rsplit('/').next().is_some_and(|f| f.starts_with("store")))
    })
}

/// Run the pass: parse, the pairing check, and (when the committed
/// schema is supplied) the drift check.
pub fn check(units: &[FileUnit], schema: Option<&str>) -> Vec<Finding> {
    let Some(ui) = find_unit(units) else {
        return vec![Finding::new(
            RULE_PARSE,
            "crates/dbindex/src/store.rs",
            0,
            "store source not found".to_string(),
        )];
    };
    let u = &units[ui];
    let model = match parse(u) {
        Ok(m) => m,
        Err(f) => return vec![f],
    };
    let mut findings = pair_checks(u, &model);
    if let Some(schema) = schema {
        findings.extend(drift_checks(u, &model, schema));
    }
    findings
}

/// Regenerate the schema: append rows for the current `STORE_VERSION`,
/// carry historical rows forward verbatim, and refuse to rewrite a row
/// that is already pinned at the current version.
pub fn bless(units: &[FileUnit], old: Option<&str>) -> Result<String, Vec<Finding>> {
    let Some(ui) = find_unit(units) else {
        return Err(vec![Finding::new(
            RULE_PARSE,
            "crates/dbindex/src/store.rs",
            0,
            "store source not found".to_string(),
        )]);
    };
    let u = &units[ui];
    let model = parse(u).map_err(|f| vec![f])?;
    let pairing = pair_checks(u, &model);
    if !pairing.is_empty() {
        return Err(pairing);
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
                model.lines.get(&key.0).copied().unwrap_or(0),
                format!(
                    "refusing to bless: `{} v{}` is already pinned and its layout \
                     changed — shipped store layouts are immutable; bump \
                     STORE_VERSION instead",
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

/// `(section, version) → fingerprint` at the current version only.
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
    for (section, ops) in &model.sections {
        let text: String = ops
            .iter()
            .map(|o| format!("{}:{};", if o.put { "put" } else { "get" }, o.kind))
            .collect();
        rows.insert((section.clone(), model.version), fnv(&mut text.bytes()));
    }
    let consts: String =
        model.consts.iter().map(|(name, init)| format!("{name}={init};")).collect();
    rows.insert(("consts".to_string(), model.version), fnv(&mut consts.bytes()));
    rows
}

fn schema_text(rows: &BTreeMap<(String, u32), u64>) -> String {
    let mut out = String::from(
        "# On-disk store-layout fingerprints per serializer section and format\n\
         # version. Generated by `xtask analyze --bless-store`; rows are\n\
         # append-only — a hash change here means a shipped file layout was\n\
         # altered without a STORE_VERSION bump.\n",
    );
    for ((section, v), h) in rows {
        out.push_str(&format!("{section} v{v} {h:016x}\n"));
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
        let [section, ver, hash] = parts.as_slice() else {
            return Err(format!(
                "store.schema:{}: expected `<section> v<N> <hex>`",
                lineno + 1
            ));
        };
        let v = ver
            .strip_prefix('v')
            .and_then(|n| n.parse::<u32>().ok())
            .ok_or_else(|| format!("store.schema:{}: bad version `{ver}`", lineno + 1))?;
        let h = u64::from_str_radix(hash, 16)
            .map_err(|_| format!("store.schema:{}: bad hash `{hash}`", lineno + 1))?;
        rows.insert((section.to_string(), v), h);
    }
    Ok(rows)
}

/// Writer/reader agreement: header fields in order, directory fields as
/// multisets (the reader consumes the tail first, then seeks to the rows).
fn pair_checks(u: &FileUnit, model: &Model) -> Vec<Finding> {
    let mut findings = Vec::new();
    let seq = |section: &str, put: bool| -> Option<Vec<String>> {
        model.sections.get(section).map(|ops| {
            ops.iter().filter(|o| o.put == put).map(|o| o.kind.clone()).collect()
        })
    };
    // Ordered pairings: (writer, reader, bulk runs only?, what disagrees).
    // Every store on disk has the writer's order, and two same-width runs
    // read in the wrong order still parse.
    let ordered = [
        ("header_bytes", "parse_header", false, "header fields"),
        ("put_u32s", "get_u32s", false, "array-run framing"),
        ("encode_block", "decode_block", true, "record array runs"),
    ];
    for (writer, reader, bulk_only, what) in ordered {
        let side = |section: &str, put: bool| {
            let mut kinds = seq(section, put)?;
            kinds.retain(|k| !bulk_only || k.starts_with(BULK));
            Some(kinds)
        };
        let (Some(w), Some(r)) = (side(writer, true), side(reader, false)) else {
            continue;
        };
        let line = model.lines.get(reader).copied().unwrap_or(0);
        if w != r && !u.is_allowed(RULE_PAIR, line) {
            findings.push(Finding::new(
                RULE_PAIR,
                &u.rel,
                line,
                format!(
                    "writer and reader disagree on the {what}: `{writer}` puts \
                     {w:?} but `{reader}` gets {r:?}"
                ),
            ));
        }
    }
    let multiset = |kinds: Vec<String>| {
        let mut m: BTreeMap<String, usize> = BTreeMap::new();
        for k in kinds {
            *m.entry(k).or_default() += 1;
        }
        m
    };
    if let (Some(w), Some(r)) = (seq("finish", true), seq("read_directory", false)) {
        let line = model.lines.get("read_directory").copied().unwrap_or(0);
        let (wm, rm) = (multiset(w), multiset(r));
        if wm != rm && !u.is_allowed(RULE_PAIR, line) {
            findings.push(Finding::new(
                RULE_PAIR,
                &u.rel,
                line,
                format!(
                    "directory writer and reader disagree on field widths: \
                     `finish` puts {wm:?} but `read_directory` gets {rm:?}"
                ),
            ));
        }
    }
    findings
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
            "store.schema is empty — run `xtask analyze --bless-store`".to_string(),
        )];
    }
    let current = fingerprints(model);
    let mut findings = Vec::new();
    for (key, hash) in pinned.iter().filter(|((_, v), _)| *v == model.version) {
        let line = model.lines.get(&key.0).copied().unwrap_or(0);
        match current.get(key) {
            Some(h) if h == hash => {}
            Some(_) => findings.push(Finding::new(
                RULE_DRIFT,
                &u.rel,
                line,
                format!(
                    "`{} v{}` layout changed but is pinned in store.schema — \
                     shipped file layouts are immutable; bump STORE_VERSION \
                     and run `xtask analyze --bless-store`",
                    key.0, key.1
                ),
            )),
            None => findings.push(Finding::new(
                RULE_DRIFT,
                &u.rel,
                0,
                format!("pinned `{} v{}` vanished from the store source", key.0, key.1),
            )),
        }
    }
    for key in current.keys() {
        if !pinned.contains_key(key) {
            findings.push(Finding::new(
                RULE_DRIFT,
                &u.rel,
                model.lines.get(&key.0).copied().unwrap_or(0),
                format!(
                    "`{} v{}` is not pinned in store.schema — run \
                     `xtask analyze --bless-store` to append it",
                    key.0, key.1
                ),
            ));
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Layout parsing
// ---------------------------------------------------------------------

/// Parse the layout out of one source file. Missing sections are simply
/// absent (the drift check reports a pinned section that vanishes), but a
/// file with *no* layout functions at all cannot be the store.
pub fn parse(u: &FileUnit) -> Result<Model, Finding> {
    let mut sections = BTreeMap::new();
    let mut lines = BTreeMap::new();
    for info in &u.fns {
        if info.is_test
            || info.body.is_empty()
            || !SECTIONS.contains(&info.name.as_str())
        {
            continue;
        }
        sections.insert(info.name.clone(), body_ops(u, info.body.clone()));
        lines.insert(info.name.clone(), info.line);
    }
    if sections.is_empty() {
        return Err(Finding::new(
            RULE_PARSE,
            &u.rel,
            0,
            "no store layout functions found".to_string(),
        ));
    }
    Ok(Model {
        version: store_version_const(u).unwrap_or(1),
        sections,
        lines,
        consts: layout_consts(u),
    })
}

/// `pub const STORE_VERSION: u32 = N;`
fn store_version_const(u: &FileUnit) -> Option<u32> {
    let t = &u.lexed.tokens;
    (0..t.len()).find_map(|i| {
        (t[i].text == "STORE_VERSION"
            && t.get(i + 1).is_some_and(|x| x.text == ":")
            && t.get(i + 3).is_some_and(|x| x.text == "="))
        .then(|| t.get(i + 4).and_then(|x| x.text.parse().ok()))
        .flatten()
    })
}

/// `const NAME ...= <init>;` initializer tokens for the layout constants.
fn layout_consts(u: &FileUnit) -> BTreeMap<String, String> {
    let t = &u.lexed.tokens;
    let mut out = BTreeMap::new();
    for i in 0..t.len() {
        if t[i].text != "const"
            || !t.get(i + 1).is_some_and(|x| LAYOUT_CONSTS.contains(&x.text.as_str()))
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

/// `put_*` / `get_*` calls in a fn body, in source order.
fn body_ops(u: &FileUnit, body: std::ops::Range<usize>) -> Vec<Op> {
    let t = &u.lexed.tokens;
    let mut ops = Vec::new();
    for i in body {
        if t[i].kind != crate::lexer::TokKind::Ident
            || !t.get(i + 1).is_some_and(|x| x.text == "(")
        {
            continue;
        }
        if let Some(kind) = t[i].text.strip_prefix("put_") {
            let kind = match kind {
                BULK => format!("{BULK}:{}", last_argument(t, i + 1)),
                _ => kind.to_string(),
            };
            ops.push(Op { kind, put: true, line: t[i].line });
        } else if let Some(kind) = t[i].text.strip_prefix("get_") {
            let kind = match kind {
                BULK => format!("{BULK}:{}", bound_name(t, i)),
                _ => kind.to_string(),
            };
            ops.push(Op { kind, put: false, line: t[i].line });
        }
    }
    ops
}

/// The last identifier inside the call whose `(` is at `open`:
/// `put_u32s(&mut out, offsets)` → `offsets`. `?` when there is none.
fn last_argument(t: &[crate::lexer::Tok], open: usize) -> String {
    let mut depth = 0usize;
    let mut last = "?";
    for tok in &t[open..] {
        match tok.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ if tok.kind == crate::lexer::TokKind::Ident => last = &tok.text,
            _ => {}
        }
    }
    last.to_string()
}

/// The binding a call at `call` initialises: `let offsets = get_u32s(..)`
/// → `offsets`. `?` when the call is not the whole initialiser.
fn bound_name(t: &[crate::lexer::Tok], call: usize) -> String {
    match (call.checked_sub(2).map(|i| &t[i]), call.checked_sub(1).map(|i| &t[i])) {
        (Some(name), Some(eq))
            if eq.text == "=" && name.kind == crate::lexer::TokKind::Ident =>
        {
            name.text.clone()
        }
        _ => "?".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::build_units;

    const MINI: &str = r#"
        pub const STORE_VERSION: u32 = 3;
        const HEADER_LEN: usize = 4 + 4 + 8 + 4;
        fn put_u32s(out: &mut Vec<u8>, vals: &[u32]) {
            put_u64(out, vals.len() as u64);
            for v in vals { out.extend_from_slice(&v.to_le_bytes()); }
        }
        fn get_u32s(data: &mut &[u8]) -> Result<Vec<u32>, E> {
            let count = get_u64(data)? as usize;
            Ok(take(data, count * 4)?.chunks_exact(4).map(le).collect())
        }
        fn encode_block(block: &Block) -> Vec<u8> {
            let (offsets, entries) = block.parts();
            let mut out = Vec::new();
            put_u32s(&mut out, offsets);
            put_u32s(&mut out, entries);
            put_u32(&mut out, crc32(&out));
            out
        }
        fn decode_block(body: &[u8]) -> Result<Block, E> {
            let mut cur = body;
            let offsets = get_u32s(&mut cur)?;
            let entries = get_u32s(&mut cur)?;
            Ok(Block::from_parts(offsets, entries))
        }
        fn header_bytes(config: &Config) -> Vec<u8> {
            let mut h = Vec::new();
            put_u32(&mut h, STORE_VERSION);
            put_u64(&mut h, config.block_bytes as u64);
            put_u32(&mut h, config.offset_bits);
            h
        }
        fn parse_header(data: &mut &[u8]) -> Result<Config, E> {
            let version = get_u32(data)?;
            let block_bytes = get_u64(data)?;
            let offset_bits = get_u32(data)?;
            Ok(Config { block_bytes, offset_bits })
        }
        fn finish(self) -> Vec<u8> {
            let mut b = Vec::new();
            for m in &self.dir {
                put_u64(&mut b, m.offset);
                put_u32(&mut b, m.len);
            }
            put_u32(&mut b, self.dir.len() as u32);
            b
        }
        fn read_directory(data: &mut &[u8]) -> Result<Dir, E> {
            let n = get_u32(data)?;
            let mut rows = Vec::new();
            for _ in 0..n {
                rows.push((get_u64(data)?, get_u32(data)?));
            }
            Ok(Dir { rows })
        }
    "#;

    const PUT_RUNS: &str =
        "put_u32s(&mut out, offsets);\n            put_u32s(&mut out, entries);";
    const PUT_RUNS_SWAPPED: &str =
        "put_u32s(&mut out, entries);\n            put_u32s(&mut out, offsets);";
    const GET_RUNS: &str = "let offsets = get_u32s(&mut cur)?;\n            \
                            let entries = get_u32s(&mut cur)?;";
    const GET_RUNS_SWAPPED: &str = "let entries = get_u32s(&mut cur)?;\n            \
                                    let offsets = get_u32s(&mut cur)?;";

    fn units_of(src: &str) -> Vec<FileUnit> {
        build_units(&[("crates/dbindex/src/store.rs".to_string(), src.to_string())])
    }

    #[test]
    fn mini_store_parses_and_is_clean() {
        let units = units_of(MINI);
        let model = parse(&units[0]).unwrap();
        assert_eq!(model.version, 3);
        assert_eq!(model.sections.len(), 8);
        assert_eq!(model.consts.len(), 2);
        assert_eq!(model.consts["HEADER_LEN"], "4 + 4 + 8 + 4");
        let kinds = |section: &str| -> Vec<&str> {
            model.sections[section].iter().map(|o| o.kind.as_str()).collect()
        };
        assert_eq!(kinds("encode_block"), vec!["u32s:offsets", "u32s:entries", "u32"]);
        assert_eq!(kinds("decode_block"), vec!["u32s:offsets", "u32s:entries"]);
        let header: Vec<&str> =
            model.sections["header_bytes"].iter().map(|o| o.kind.as_str()).collect();
        assert_eq!(header, vec!["u32", "u64", "u32"]);
        assert!(check(&units, None).is_empty(), "{:?}", check(&units, None));
    }

    #[test]
    fn reordered_header_reader_is_a_pairing_violation() {
        let src = MINI.replace(
            "let version = get_u32(data)?;\n            let block_bytes = get_u64(data)?;",
            "let block_bytes = get_u64(data)?;\n            let version = get_u32(data)?;",
        );
        let units = units_of(&src);
        let f = check(&units, None);
        assert!(f.iter().any(|f| f.rule == RULE_PAIR && f.msg.contains("header")), "{f:?}");
    }

    #[test]
    fn narrowed_directory_field_is_a_pairing_violation() {
        let src = MINI.replace("rows.push((get_u64(data)?, get_u32(data)?));",
            "rows.push((get_u64(data)?, get_u16(data)?));");
        let units = units_of(&src);
        let f = check(&units, None);
        assert!(f.iter().any(|f| f.rule == RULE_PAIR && f.msg.contains("directory")), "{f:?}");
    }

    /// Two `u32` runs are the same bytes to a width-only fingerprint; the
    /// pass pairs them by array name, so a one-sided swap — which would
    /// still parse, into a block whose CSR is its posting list — is caught
    /// without a schema.
    #[test]
    fn record_runs_read_in_the_wrong_order_are_a_pairing_violation() {
        assert!(MINI.contains(PUT_RUNS) && MINI.contains(GET_RUNS));
        for src in [
            MINI.replace(PUT_RUNS, PUT_RUNS_SWAPPED),
            MINI.replace(GET_RUNS, GET_RUNS_SWAPPED),
        ] {
            let f = check(&units_of(&src), None);
            assert!(f.iter().any(|f| f.rule == RULE_PAIR && f.msg.contains("record array runs")), "{f:?}");
        }
        let framed = MINI.replace("let count = get_u64(data)? as usize;",
            "let count = get_u32(data)? as usize;");
        let f = check(&units_of(&framed), None);
        assert!(f.iter().any(|f| f.rule == RULE_PAIR && f.msg.contains("array-run framing")), "{f:?}");
    }

    #[test]
    fn bless_then_check_roundtrips() {
        let units = units_of(MINI);
        let schema = bless(&units, None).unwrap();
        assert!(schema.contains("header_bytes v3"));
        assert!(schema.contains("consts v3"));
        assert!(check(&units, Some(&schema)).is_empty());
    }

    #[test]
    fn layout_change_at_pinned_version_is_drift_and_bless_refuses_it() {
        let units = units_of(MINI);
        let schema = bless(&units, None).unwrap();
        for mutation in [
            MINI.replace("put_u64(&mut h, config.block_bytes as u64);", ""),
            // Both sides swapped: pairs cleanly, and is still another file.
            MINI.replace(PUT_RUNS, PUT_RUNS_SWAPPED).replace(GET_RUNS, GET_RUNS_SWAPPED),
            MINI.replace("HEADER_LEN: usize = 4 + 4 + 8 + 4", "HEADER_LEN: usize = 4 + 4 + 8 + 8"),
        ] {
            let mutated = units_of(&mutation);
            let f = check(&mutated, Some(&schema));
            assert!(f.iter().any(|f| f.rule == RULE_DRIFT), "{f:?}");
            let refused = bless(&mutated, Some(&schema));
            assert!(refused.is_err());
        }
    }

    #[test]
    fn version_bump_blesses_cleanly_and_keeps_history() {
        let units = units_of(MINI);
        let schema = bless(&units, None).unwrap();
        let v4 = MINI
            .replace("STORE_VERSION: u32 = 3", "STORE_VERSION: u32 = 4")
            .replace("put_u32(&mut h, config.offset_bits);",
                "put_u32(&mut h, config.offset_bits);\n put_u64(&mut h, config.salt);")
            .replace("let offset_bits = get_u32(data)?;",
                "let offset_bits = get_u32(data)?;\n let salt = get_u64(data)?;");
        let v4_units = units_of(&v4);
        let schema4 = bless(&v4_units, Some(&schema)).unwrap();
        assert!(schema4.contains("header_bytes v3"), "history kept:\n{schema4}");
        assert!(schema4.contains("header_bytes v4"));
        assert!(check(&v4_units, Some(&schema4)).is_empty());
        // The old source against the new schema is also clean: v4 rows are
        // not checked at v3.
        assert!(check(&units, Some(&schema4)).iter().all(|f| f.rule != RULE_DRIFT));
    }

    #[test]
    fn unpinned_sections_are_drift_until_blessed() {
        let units = units_of(MINI);
        let schema = bless(&units, None).unwrap();
        let trimmed: String = schema
            .lines()
            .filter(|l| !l.starts_with("finish"))
            .collect::<Vec<_>>()
            .join("\n");
        let f = check(&units, Some(&trimmed));
        assert!(f.iter().any(|f| f.rule == RULE_DRIFT && f.msg.contains("not pinned")), "{f:?}");
    }
}
