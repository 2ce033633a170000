//! Wire-protocol schema ratchet.
//!
//! `serve/src/proto.rs` hand-rolls the frame codec: `encode_payload` /
//! `decode_payload` match on the frame variant and emit / consume
//! `put_*` / `get_*` calls. The shipped codec speaks one version and has
//! no gates; when the next version lands, its fields go behind a gate
//! binding (`let v8 = version >= 8;`) so the pinned layout stays
//! recomputable. Nothing in the type system stops a refactor from
//! reordering fields, dropping a version gate, or splicing a new field
//! into the middle of an already-shipped layout — any of which silently
//! breaks every deployed peer.
//!
//! This pass parses the codec *syntactically* and enforces three rules:
//!
//! * `proto-append-only` — within each encode arm the flat sequence of
//!   version gates must be nondecreasing: vN+1 fields go strictly after
//!   vN fields, so an old decoder's prefix read stays valid. (A gated
//!   column inside an older version's loop flattens to a monotone
//!   sequence and passes; a newer field spliced before an older one
//!   does not.)
//! * `proto-pair` — encode and decode must agree per variant: same
//!   version-gate set, and the same count of composite fields (`reply`,
//!   `latency`, `trace`, `str`, ...) at each gate. Primitive counts are
//!   deliberately *not* matched one-to-one — optional fields legally
//!   encode their flag byte in both match arms but read it once.
//! * `proto-schema-drift` — the layout of every variant at
//!   `PROTO_VERSION` is fingerprinted (FNV-1a 64 over the gate-tagged op
//!   sequence) and compared against the committed
//!   `crates/serve/proto.schema`, as is every older row still pinned
//!   there (recomputed from the gates). Shipped rows may never change;
//!   `analyze --bless-proto` appends rows for a new version and refuses
//!   to rewrite existing ones.

use super::FileUnit;
use crate::parser::match_delim;
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet, HashMap};

pub const RULE_APPEND: &str = "proto-append-only";
pub const RULE_PAIR: &str = "proto-pair";
pub const RULE_DRIFT: &str = "proto-schema-drift";
pub const RULE_PARSE: &str = "proto-parse";

/// One `put_*` / `get_*` call, tagged with the version gate in force.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    /// The suffix after `put_` / `get_`: `u32`, `latency`, `reply`, ...
    pub kind: String,
    pub gate: u32,
    pub line: usize,
}

/// The parsed codec: per-variant op sequences for both directions.
pub struct Model {
    pub max_version: u32,
    pub encode: BTreeMap<String, Vec<Op>>,
    pub decode: BTreeMap<String, Vec<Op>>,
    /// First line of each arm, for anchoring findings.
    pub arm_lines: BTreeMap<String, usize>,
}

/// Wire primitives; everything else is a composite whose encode/decode
/// counts must match per gate.
const PRIMITIVES: [&str; 6] = ["u8", "u16", "u32", "u64", "i32", "f64"];

/// The unit holding the codec: the real `serve/src/proto.rs`, or a
/// fixture whose stem starts with `proto`.
pub fn find_unit(units: &[FileUnit]) -> Option<usize> {
    units.iter().position(|u| {
        u.rel == "crates/serve/src/proto.rs"
            || (u.rel.contains("fixtures/")
                && u.rel.rsplit('/').next().is_some_and(|f| f.starts_with("proto")))
    })
}

/// Locate and parse the codec; the error is the pass's only finding.
fn load(units: &[FileUnit]) -> Result<(&FileUnit, Model), Vec<Finding>> {
    let Some(ui) = find_unit(units) else {
        return Err(vec![Finding::new(
            RULE_PARSE,
            "crates/serve/src/proto.rs",
            0,
            "protocol source not found".to_string(),
        )]);
    };
    let model = parse(&units[ui]).map_err(|f| vec![f])?;
    Ok((&units[ui], model))
}

/// Run the pass: parse, structural checks, and (when the committed
/// schema is supplied) the drift check.
pub fn check(units: &[FileUnit], schema: Option<&str>) -> Vec<Finding> {
    let (u, model) = match load(units) {
        Ok(loaded) => loaded,
        Err(findings) => return findings,
    };
    let mut findings = structure_checks(u, &model);
    if let Some(schema) = schema {
        findings.extend(drift_checks(u, &model, schema));
    }
    findings
}

/// Regenerate the schema, enforcing the append-only ratchet against the
/// previously committed text.
pub fn bless(units: &[FileUnit], old: Option<&str>) -> Result<String, Vec<Finding>> {
    let (u, model) = load(units)?;
    let structural = structure_checks(u, &model);
    if !structural.is_empty() {
        return Err(structural);
    }
    let mut new_rows = fingerprints(&model);
    if let Some(old) = old {
        let old_rows =
            parse_schema(old).map_err(|msg| vec![Finding::new(RULE_DRIFT, &u.rel, 0, msg)])?;
        let mut violations = pinned_row_drift(u, &model, &old_rows);
        if !violations.is_empty() {
            for f in &mut violations {
                f.msg.insert_str(0, "refusing to bless: ");
            }
            return Err(violations);
        }
        new_rows.extend(old_rows);
    }
    Ok(schema_text(&new_rows))
}

/// Fingerprint of one variant's layout as a version-`key.1` peer sees it
/// (ops gated at or below that version), or `None` when the codec has no
/// such variant or does not reach that version. Encode-side only: decode
/// is tied to encode by the pairing check.
fn fingerprint_at(model: &Model, key: &(String, u32)) -> Option<u64> {
    let ops = model.encode.get(&key.0).filter(|_| key.1 <= model.max_version)?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for op in ops.iter().filter(|o| o.gate <= key.1) {
        for b in format!("{}@{};", op.kind, op.gate).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    Some(h)
}

/// `(variant, PROTO_VERSION) → fingerprint`: the rows the shipped codec
/// must have pinned.
fn fingerprints(model: &Model) -> BTreeMap<(String, u32), u64> {
    model
        .encode
        .keys()
        .map(|variant| (variant.clone(), model.max_version))
        .filter_map(|key| fingerprint_at(model, &key).map(|h| (key, h)))
        .collect()
}

fn schema_text(rows: &BTreeMap<(String, u32), u64>) -> String {
    let mut out = String::from(
        "# Wire-layout fingerprints per frame variant and protocol version.\n\
         # Generated by `xtask analyze --bless-proto`; rows are append-only —\n\
         # a hash change here means a shipped layout was altered.\n",
    );
    for ((variant, v), h) in rows {
        out.push_str(&format!("{variant} v{v} {h:016x}\n"));
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
        let [variant, ver, hash] = parts.as_slice() else {
            return Err(format!(
                "proto.schema:{}: expected `<variant> v<N> <hex>`",
                lineno + 1
            ));
        };
        let v = ver
            .strip_prefix('v')
            .and_then(|n| n.parse::<u32>().ok())
            .ok_or_else(|| format!("proto.schema:{}: bad version `{ver}`", lineno + 1))?;
        let h = u64::from_str_radix(hash, 16)
            .map_err(|_| format!("proto.schema:{}: bad hash `{hash}`", lineno + 1))?;
        rows.insert((variant.to_string(), v), h);
    }
    Ok(rows)
}

/// Append-only ordering and encode/decode pairing.
fn structure_checks(u: &FileUnit, model: &Model) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (variant, ops) in &model.encode {
        let mut prev = 1;
        for op in ops {
            if op.gate < prev && !u.is_allowed(RULE_APPEND, op.line) {
                findings.push(Finding::new(
                    RULE_APPEND,
                    &u.rel,
                    op.line,
                    format!(
                        "`{variant}` encodes a v{} field after a v{prev} field — new \
                         fields must append after every older version's, or old \
                         decoders misparse the frame",
                        op.gate
                    ),
                ));
                break;
            }
            prev = prev.max(op.gate);
        }
    }
    let variants: BTreeSet<&String> = model.encode.keys().chain(model.decode.keys()).collect();
    for variant in variants {
        let line = model.arm_lines.get(variant.as_str()).copied().unwrap_or(0);
        let (Some(enc), Some(dec)) = (model.encode.get(variant), model.decode.get(variant))
        else {
            if !u.is_allowed(RULE_PAIR, line) {
                findings.push(Finding::new(
                    RULE_PAIR,
                    &u.rel,
                    line,
                    format!("`{variant}` has an encode or decode arm but not both"),
                ));
            }
            continue;
        };
        if u.is_allowed(RULE_PAIR, line) {
            continue;
        }
        let gates = |ops: &[Op]| ops.iter().map(|o| o.gate).collect::<BTreeSet<u32>>();
        let (eg, dg) = (gates(enc), gates(dec));
        if eg != dg {
            findings.push(Finding::new(
                RULE_PAIR,
                &u.rel,
                line,
                format!(
                    "`{variant}` encode touches version gates {eg:?} but decode touches \
                     {dg:?} — one side dropped or added a version block"
                ),
            ));
            continue;
        }
        let comps = |ops: &[Op]| {
            let mut m: BTreeMap<(String, u32), usize> = BTreeMap::new();
            for o in ops.iter().filter(|o| !PRIMITIVES.contains(&o.kind.as_str())) {
                *m.entry((o.kind.clone(), o.gate)).or_default() += 1;
            }
            m
        };
        let (ec, dc) = (comps(enc), comps(dec));
        if ec != dc {
            let diff: Vec<String> = ec
                .iter()
                .filter(|(k, n)| dc.get(k) != Some(n))
                .map(|((k, g), n)| format!("{n}×{k}@v{g}"))
                .chain(
                    dc.iter()
                        .filter(|(k, _)| !ec.contains_key(k))
                        .map(|((k, g), n)| format!("decode-only {n}×{k}@v{g}")),
                )
                .collect();
            findings.push(Finding::new(
                RULE_PAIR,
                &u.rel,
                line,
                format!(
                    "`{variant}` encode/decode disagree on composite fields: {}",
                    diff.join(", ")
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
            "proto.schema is empty — run `xtask analyze --bless-proto`".to_string(),
        )];
    }
    let mut findings = pinned_row_drift(u, model, &pinned);
    for key in fingerprints(model).keys() {
        if !pinned.contains_key(key) {
            findings.push(Finding::new(
                RULE_DRIFT,
                &u.rel,
                model.arm_lines.get(&key.0).copied().unwrap_or(0),
                format!(
                    "`{} v{}` is not pinned in proto.schema — run \
                     `xtask analyze --bless-proto` to append it",
                    key.0, key.1
                ),
            ));
        }
    }
    findings
}

/// One finding per pinned row the codec no longer reproduces.
fn pinned_row_drift(
    u: &FileUnit,
    model: &Model,
    pinned: &BTreeMap<(String, u32), u64>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (key, hash) in pinned {
        let line = model.arm_lines.get(&key.0).copied().unwrap_or(0);
        match fingerprint_at(model, key) {
            Some(h) if h == *hash => {}
            Some(_) => findings.push(Finding::new(
                RULE_DRIFT,
                &u.rel,
                line,
                format!(
                    "`{} v{}` wire layout changed but is pinned in proto.schema — \
                     shipped layouts are immutable; append new fields behind a new \
                     version gate",
                    key.0, key.1
                ),
            )),
            None => findings.push(Finding::new(
                RULE_DRIFT,
                &u.rel,
                0,
                format!("pinned `{} v{}` vanished from the codec", key.0, key.1),
            )),
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Codec parsing
// ---------------------------------------------------------------------

/// Parse the codec out of one source file.
pub fn parse(u: &FileUnit) -> Result<Model, Finding> {
    let fail = |msg: &str| Finding::new(RULE_PARSE, &u.rel, 0, msg.to_string());
    let find_fn = |name: &str| {
        u.fns
            .iter()
            .find(|f| f.name == name && !f.body.is_empty())
            .ok_or_else(|| fail(&format!("no `fn {name}` found")))
    };
    let ft = find_fn("frame_type")?;
    let enc = find_fn("encode_payload")?;
    let dec = find_fn("decode_payload")?;

    let numbers = frame_numbers(u, ft.body.clone())?;
    let mut max_version = proto_version_const(u).unwrap_or(0);
    let mut encode = BTreeMap::new();
    let mut arm_lines = BTreeMap::new();
    for arm in match_arms(u, enc.body.clone())? {
        let gates = gate_bindings(u, enc.body.clone());
        let ops = arm_ops(u, arm.body.clone(), &gates);
        for variant in variant_names(u, arm.pattern.clone()) {
            arm_lines.entry(variant.clone()).or_insert(arm.line);
            encode.insert(variant, ops.clone());
        }
    }
    let mut decode = BTreeMap::new();
    for arm in match_arms(u, dec.body.clone())? {
        let gates = gate_bindings(u, dec.body.clone());
        let ops = arm_ops(u, arm.body.clone(), &gates);
        for key in pattern_numbers(u, arm.pattern.clone()) {
            let Some(variant) = numbers.get(&key) else {
                return Err(fail(&format!(
                    "decode arm for frame type {key} has no frame_type counterpart"
                )));
            };
            arm_lines.entry(variant.clone()).or_insert(arm.line);
            decode.insert(variant.clone(), ops.clone());
        }
    }
    if max_version == 0 {
        // Fixtures omit the PROTO_VERSION const; span every gate seen.
        max_version = encode
            .values()
            .chain(decode.values())
            .flatten()
            .map(|o| o.gate)
            .max()
            .unwrap_or(1);
    }
    if encode.is_empty() {
        return Err(fail("encode_payload has no variant arms"));
    }
    Ok(Model { max_version, encode, decode, arm_lines })
}

/// `pub const PROTO_VERSION: u32 = N;`
fn proto_version_const(u: &FileUnit) -> Option<u32> {
    let t = &u.lexed.tokens;
    (0..t.len()).find_map(|i| {
        (t[i].text == "PROTO_VERSION"
            && t.get(i + 1).is_some_and(|x| x.text == ":")
            && t.get(i + 3).is_some_and(|x| x.text == "="))
        .then(|| t.get(i + 4).and_then(|x| x.text.parse().ok()))
        .flatten()
    })
}

/// `let vN = version >= K;` bindings in a fn body (`>=` lexes as two
/// punct tokens).
fn gate_bindings(u: &FileUnit, body: std::ops::Range<usize>) -> HashMap<String, u32> {
    let t = &u.lexed.tokens;
    let mut gates = HashMap::new();
    for i in body {
        if t[i].text == "let"
            && t.get(i + 2).is_some_and(|x| x.text == "=")
            && t.get(i + 3).is_some_and(|x| x.text == "version")
            && t.get(i + 4).is_some_and(|x| x.text == ">")
            && t.get(i + 5).is_some_and(|x| x.text == "=")
        {
            if let (Some(name), Some(k)) = (
                t.get(i + 1).map(|x| x.text.clone()),
                t.get(i + 6).and_then(|x| x.text.parse::<u32>().ok()),
            ) {
                gates.insert(name, k);
            }
        }
    }
    gates
}

struct Arm {
    pattern: std::ops::Range<usize>,
    body: std::ops::Range<usize>,
    line: usize,
}

/// Split the first `match` in `body` into arms. Patterns end at a
/// bracket-balanced `=>`; block bodies are brace-delimited, expression
/// bodies run to the arm-level comma.
fn match_arms(u: &FileUnit, body: std::ops::Range<usize>) -> Result<Vec<Arm>, Finding> {
    let t = &u.lexed.tokens;
    let m = body
        .clone()
        .find(|&i| t[i].text == "match")
        .ok_or_else(|| Finding::new(RULE_PARSE, &u.rel, 0, "no match expression".to_string()))?;
    let open = (m..body.end)
        .find(|&i| t[i].text == "{")
        .ok_or_else(|| Finding::new(RULE_PARSE, &u.rel, 0, "unterminated match".to_string()))?;
    let close = match_delim(t, open, "{", "}");
    let mut arms = Vec::new();
    let mut i = open + 1;
    while i < close {
        let pat_start = i;
        let mut depth = 0i32;
        while i < close {
            match t[i].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth == 0 && t.get(i + 1).is_some_and(|x| x.text == ">") => break,
                _ => {}
            }
            i += 1;
        }
        if i >= close {
            break;
        }
        let pattern = pat_start..i;
        let line = t[pat_start].line;
        i += 2;
        let arm_body = if t.get(i).is_some_and(|x| x.text == "{") {
            let end = match_delim(t, i, "{", "}");
            let b = i + 1..end;
            i = end + 1;
            b
        } else {
            let start = i;
            let mut depth = 0i32;
            while i < close {
                match t[i].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => break,
                    _ => {}
                }
                i += 1;
            }
            start..i
        };
        if t.get(i).is_some_and(|x| x.text == ",") {
            i += 1;
        }
        arms.push(Arm { pattern, body: arm_body, line });
    }
    Ok(arms)
}

/// Variant names in a (possibly `|`-joined) pattern: the ident after
/// each `::` path separator.
fn variant_names(u: &FileUnit, pattern: std::ops::Range<usize>) -> Vec<String> {
    let t = &u.lexed.tokens;
    let mut names = Vec::new();
    for i in pattern {
        if t[i].kind == crate::lexer::TokKind::Ident
            && i >= 2
            && t[i - 1].text == ":"
            && t[i - 2].text == ":"
        {
            names.push(t[i].text.clone());
        }
    }
    names
}

/// Frame-type-number keys in a decode pattern (`1 | 2 => ...`). An
/// ident-only pattern (the catch-all) yields none.
fn pattern_numbers(u: &FileUnit, pattern: std::ops::Range<usize>) -> Vec<u8> {
    let t = &u.lexed.tokens;
    pattern.filter_map(|i| {
        (t[i].kind == crate::lexer::TokKind::Num).then(|| t[i].text.parse().ok()).flatten()
    })
    .collect()
}

/// number → variant from `fn frame_type`: arms `Frame::Name(..) => N`.
fn frame_numbers(
    u: &FileUnit,
    body: std::ops::Range<usize>,
) -> Result<HashMap<u8, String>, Finding> {
    let mut map = HashMap::new();
    for arm in match_arms(u, body)? {
        let names = variant_names(u, arm.pattern);
        let nums = pattern_numbers(u, arm.body);
        if let (Some(name), Some(n)) = (names.first(), nums.first()) {
            map.insert(*n, name.clone());
        }
    }
    if map.is_empty() {
        return Err(Finding::new(
            RULE_PARSE,
            &u.rel,
            0,
            "frame_type maps no variants".to_string(),
        ));
    }
    Ok(map)
}

/// Extract `put_*` / `get_*` calls in an arm body (or references passing
/// one as a list's item decoder), tagging each with the strongest version
/// gate in force. A gate ident arms a *pending* gate
/// that covers ops up to and inside the `{` it guards (this also covers
/// short-circuit reads like `if v4 && get_u8(data)? != 0`).
fn arm_ops(
    u: &FileUnit,
    body: std::ops::Range<usize>,
    gates: &HashMap<String, u32>,
) -> Vec<Op> {
    let t = &u.lexed.tokens;
    let mut ops = Vec::new();
    let mut pending: Option<u32> = None;
    // Stack of (exclusive end token, gate) for entered gated blocks.
    let mut stack: Vec<(usize, u32)> = Vec::new();
    for i in body {
        while stack.last().is_some_and(|&(end, _)| i >= end) {
            stack.pop();
        }
        match t[i].text.as_str() {
            "{" => {
                if let Some(g) = pending.take() {
                    stack.push((match_delim(t, i, "{", "}"), g));
                }
            }
            ";" | "," | "}" => pending = None,
            _ => {}
        }
        if t[i].kind != crate::lexer::TokKind::Ident {
            continue;
        }
        if let Some(&g) = gates.get(&t[i].text) {
            // A gate read, not its `let` binding.
            if i == 0 || t[i - 1].text != "let" {
                pending = Some(pending.unwrap_or(1).max(g));
            }
            continue;
        }
        let is_call_or_fn_arg =
            t.get(i + 1).is_some_and(|x| matches!(x.text.as_str(), "(" | ")" | ","));
        if !is_call_or_fn_arg {
            continue;
        }
        let kind = t[i]
            .text
            .strip_prefix("put_")
            .or_else(|| t[i].text.strip_prefix("get_"))
            .map(str::to_string);
        if let Some(kind) = kind {
            let gate = stack
                .iter()
                .map(|&(_, g)| g)
                .chain(pending)
                .max()
                .unwrap_or(1)
                .max(1);
            ops.push(Op { kind, gate, line: t[i].line });
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::build_units;

    const MINI: &str = r#"
        pub const PROTO_VERSION: u32 = 2;
        fn frame_type(frame: &Frame) -> u8 {
            match frame {
                Frame::Search(_) => 1,
                Frame::Ping => 2,
            }
        }
        fn encode_payload(frame: &Frame, version: u32) -> Vec<u8> {
            let v2 = version >= 2;
            let mut p = Vec::new();
            match frame {
                Frame::Search(req) => {
                    put_str(&mut p, &req.q);
                    match req.limit {
                        Some(v) => { put_u8(&mut p, 1); put_u32(&mut p, v); }
                        None => put_u8(&mut p, 0),
                    }
                    if v2 { put_u64(&mut p, req.trace); }
                }
                Frame::Ping => {}
            }
            p
        }
        fn decode_payload(ft: u8, mut p: &[u8], version: u32) -> Result<Frame, E> {
            let v2 = version >= 2;
            let data = &mut p;
            match ft {
                1 => {
                    let q = get_str(data)?;
                    let limit = if get_u8(data)? != 0 { Some(get_u32(data)?) } else { None };
                    let trace = if v2 { get_u64(data)? } else { 0 };
                    Frame::Search(Req { q, limit, trace })
                }
                2 => Frame::Ping,
                other => return Err(E::Unknown(other)),
            }
        }
    "#;

    fn units_of(src: &str) -> Vec<FileUnit> {
        build_units(&[("crates/serve/src/proto.rs".to_string(), src.to_string())])
    }

    #[test]
    fn mini_codec_parses_and_is_clean() {
        let units = units_of(MINI);
        let model = parse(&units[0]).unwrap();
        assert_eq!(model.max_version, 2);
        let enc: Vec<(String, u32)> =
            model.encode["Search"].iter().map(|o| (o.kind.clone(), o.gate)).collect();
        assert_eq!(
            enc,
            vec![
                ("str".to_string(), 1),
                ("u8".to_string(), 1),
                ("u32".to_string(), 1),
                ("u8".to_string(), 1),
                ("u64".to_string(), 2),
            ]
        );
        assert!(model.encode.contains_key("Ping"));
        assert!(check(&units, None).is_empty(), "{:?}", check(&units, None));
    }

    #[test]
    fn out_of_order_gate_is_append_only_violation() {
        let src = MINI.replace(
            "if v2 { put_u64(&mut p, req.trace); }\n",
            "if v2 { put_u64(&mut p, req.trace); }\n                    put_u8(&mut p, 9);\n",
        );
        let units = units_of(&src);
        let f = check(&units, None);
        assert!(f.iter().any(|f| f.rule == RULE_APPEND), "{f:?}");
    }

    #[test]
    fn dropped_decode_gate_is_a_pairing_violation() {
        let src = MINI.replace("let trace = if v2 { get_u64(data)? } else { 0 };", "let trace = 0;");
        let units = units_of(&src);
        let f = check(&units, None);
        assert!(f.iter().any(|f| f.rule == RULE_PAIR && f.msg.contains("Search")), "{f:?}");
    }

    #[test]
    fn composite_counts_must_match() {
        let src = MINI.replace("let q = get_str(data)?;", "let q = String::new();");
        let units = units_of(&src);
        let f = check(&units, None);
        assert!(f.iter().any(|f| f.rule == RULE_PAIR && f.msg.contains("str")), "{f:?}");
    }

    #[test]
    fn bless_then_check_roundtrips() {
        let units = units_of(MINI);
        let schema = bless(&units, None).unwrap();
        assert!(schema.contains("Search v2"));
        assert!(schema.contains("Ping v2"));
        assert!(!schema.contains(" v1 "), "only the shipped version is pinned:\n{schema}");
        assert!(check(&units, Some(&schema)).is_empty());
    }

    #[test]
    fn layout_change_is_drift_and_bless_refuses_it() {
        let units = units_of(MINI);
        let schema = bless(&units, None).unwrap();
        let mutated = MINI.replace("put_u32(&mut p, v);", "put_u64(&mut p, v);");
        let mutated_units = units_of(&mutated);
        let f = check(&mutated_units, Some(&schema));
        assert!(f.iter().any(|f| f.rule == RULE_DRIFT), "{f:?}");
        let refused = bless(&mutated_units, Some(&schema));
        assert!(refused.is_err());
        assert!(refused.unwrap_err().iter().any(|f| f.msg.contains("immutable")));
    }

    #[test]
    fn appending_a_version_blesses_cleanly() {
        let units = units_of(MINI);
        let schema = bless(&units, None).unwrap();
        let v3 = MINI
            .replace("PROTO_VERSION: u32 = 2", "PROTO_VERSION: u32 = 3")
            .replace(
                "if v2 { put_u64(&mut p, req.trace); }",
                "if v2 { put_u64(&mut p, req.trace); }\n                    \
                 if v3 { put_u32(&mut p, req.extra); }",
            )
            .replace("let v2 = version >= 2;", "let v2 = version >= 2;\n let v3 = version >= 3;")
            .replace(
                "let trace = if v2 { get_u64(data)? } else { 0 };",
                "let trace = if v2 { get_u64(data)? } else { 0 };\n \
                 let extra = if v3 { get_u32(data)? } else { 0 };",
            );
        let v3_units = units_of(&v3);
        let schema3 = bless(&v3_units, Some(&schema)).unwrap();
        assert!(schema3.contains("Search v3"));
        assert!(schema3.contains("Search v2"), "pinned history kept:\n{schema3}");
        assert!(check(&v3_units, Some(&schema3)).is_empty());
        // The v2 row stays enforced from the gates: un-gating the v3 field
        // rewrites what a v2 peer would read.
        let ungated = v3.replace("if v3 { put_u32(&mut p, req.extra); }", "put_u32(&mut p, req.extra);");
        let f = check(&units_of(&ungated), Some(&schema3));
        assert!(f.iter().any(|f| f.rule == RULE_DRIFT && f.msg.contains("Search v2")), "{f:?}");
    }

    #[test]
    fn unpinned_rows_are_drift_until_blessed() {
        let units = units_of(MINI);
        let schema = bless(&units, None).unwrap();
        let trimmed: String =
            schema.lines().filter(|l| !l.contains("Ping")).collect::<Vec<_>>().join("\n");
        let f = check(&units, Some(&trimmed));
        assert!(f.iter().any(|f| f.rule == RULE_DRIFT && f.msg.contains("not pinned")), "{f:?}");
    }
}
