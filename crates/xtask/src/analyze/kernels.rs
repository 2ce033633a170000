//! Striped/scalar kernel signature-parity check.
//!
//! The striped extension kernels in `align/src/striped.rs` are twins of
//! the scalar oracles by *convention*: `extend_two_hit_striped` answers
//! for `extend_two_hit`, `xdrop_half_striped` for `xdrop_half`, and so
//! on. The conformance battery pins their outputs, but nothing in the
//! type system stops the surfaces themselves from drifting — a new
//! parameter added to a scalar kernel (a band limit, a new penalty)
//! without the striped twin learning it, a twin whose return type
//! quietly diverges, or a `_striped` entry point whose oracle was
//! renamed away. Each of those leaves the differential suites testing a
//! pair that no longer computes the same function.
//!
//! The `kernel-parity` rule enforces, for every public non-test
//! `<name>_striped` function in the `align` crate:
//!
//! * a public scalar twin `<name>` exists in the same crate;
//! * the twins' return types are token-identical;
//! * parameters sharing a name have token-identical types;
//! * parameters on one side only come from the known substitution set —
//!   the striped side may add `profile` (the per-query score profile
//!   that *replaces* the matrix + query pair), the scalar side may keep
//!   `matrix`, `query`, and the tracer trio (`tracer`, `query_base`,
//!   `subject_base`) the untraced striped kernels drop. Anything else
//!   is drift in one surface without the other and fails CI.
//!
//! Like every pass here the check is syntactic — token-level types, no
//! resolution — which is exactly enough: the twin convention is a
//! naming-and-shape contract, and shape is what the lexer sees.

use super::FileUnit;
use crate::parser::FnInfo;
use crate::rules::Finding;

pub(crate) const RULE: &str = "kernel-parity";

/// Striped-only parameter names: the profile replaces the scalar
/// (matrix, query) pair.
const STRIPED_ONLY: [&str; 1] = ["profile"];

/// Scalar-only parameter names: the profile's replacees plus the memory
/// tracer the striped kernels intentionally drop.
const SCALAR_ONLY: [&str; 5] = ["matrix", "query", "tracer", "query_base", "subject_base"];

/// Whether this unit contributes kernel functions: the `align` crate
/// sources, or a `kernel_parity*` fixture.
fn in_kernel_scope(u: &FileUnit) -> bool {
    u.krate == "align"
        || (u.rel.contains("fixtures/")
            && u.rel.rsplit('/').next().is_some_and(|f| f.starts_with("kernel_parity")))
}

/// Run the pass over the workspace units.
pub(crate) fn check(units: &[FileUnit]) -> Vec<Finding> {
    // Collect the candidate surface: every public non-test fn in scope.
    let mut fns: Vec<(usize, &FnInfo)> = Vec::new();
    for (file, u) in units.iter().enumerate() {
        if !in_kernel_scope(u) {
            continue;
        }
        for info in &u.fns {
            if info.is_pub && !info.is_test {
                fns.push((file, info));
            }
        }
    }
    let mut findings = Vec::new();
    for &(file, striped) in &fns {
        let Some(base) = striped.name.strip_suffix("_striped") else { continue };
        let u = &units[file];
        if u.is_allowed(RULE, striped.line) {
            continue;
        }
        let Some(&(_, scalar)) = fns.iter().find(|(_, f)| f.name == base) else {
            findings.push(Finding::new(
                RULE,
                &u.rel,
                striped.line,
                format!(
                    "striped kernel `{}` has no public scalar twin `{base}` — every \
                     `_striped` entry point must shadow a scalar oracle",
                    striped.name
                ),
            ));
            continue;
        };
        findings.extend(compare(u, striped, scalar));
    }
    findings
}

/// Shape-compare one twin pair, reporting every divergence.
fn compare(u: &FileUnit, striped: &FnInfo, scalar: &FnInfo) -> Vec<Finding> {
    let mut findings = Vec::new();
    if striped.ret != scalar.ret {
        findings.push(Finding::new(
            RULE,
            &u.rel,
            striped.line,
            format!(
                "`{}` returns `{}` but its scalar twin `{}` returns `{}` — twin \
                 kernels must agree on the result type",
                striped.name, striped.ret, scalar.name, scalar.ret
            ),
        ));
    }
    for sp in &striped.params {
        match scalar.params.iter().find(|p| p.name == sp.name) {
            Some(cp) if cp.ty != sp.ty => findings.push(Finding::new(
                RULE,
                &u.rel,
                striped.line,
                format!(
                    "parameter `{}` is `{}` in `{}` but `{}` in `{}` — shared \
                     parameters must keep identical types",
                    sp.name, sp.ty, striped.name, cp.ty, scalar.name
                ),
            )),
            Some(_) => {}
            None if STRIPED_ONLY.contains(&sp.name.as_str()) => {}
            None => findings.push(Finding::new(
                RULE,
                &u.rel,
                striped.line,
                format!(
                    "`{}` takes `{}` which `{}` does not — the surfaces drifted \
                     apart (allowed striped-only parameters: {})",
                    striped.name,
                    sp.name,
                    scalar.name,
                    STRIPED_ONLY.join(", ")
                ),
            )),
        }
    }
    for cp in &scalar.params {
        if striped.params.iter().any(|p| p.name == cp.name)
            || SCALAR_ONLY.contains(&cp.name.as_str())
        {
            continue;
        }
        findings.push(Finding::new(
            RULE,
            &u.rel,
            striped.line,
            format!(
                "`{}` takes `{}` which `{}` does not — update the striped twin or \
                 the kernels no longer compute the same function (allowed \
                 scalar-only parameters: {})",
                scalar.name,
                cp.name,
                striped.name,
                SCALAR_ONLY.join(", ")
            ),
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::build_units;

    const TWINS: &str = r#"
        pub fn xdrop_half(matrix: &Matrix, q: &[u8], s: &[u8], open: i32) -> Ext {
            walk(matrix, q, s, open)
        }
        pub fn xdrop_half_striped(matrix: &Matrix, q: &[u8], s: &[u8], open: i32) -> Ext {
            walk(matrix, q, s, open)
        }
        pub fn extend_two_hit(matrix: &Matrix, query: &[u8], s: &[u8], tracer: &mut T) -> Out {
            walk(matrix, query, s)
        }
        pub fn extend_two_hit_striped(profile: &ScoreProfile, s: &[u8]) -> Out {
            walk(profile, s)
        }
    "#;

    fn check_src(src: &str) -> Vec<Finding> {
        let units =
            build_units(&[("crates/align/src/striped.rs".to_string(), src.to_string())]);
        check(&units)
    }

    #[test]
    fn matching_twins_are_clean() {
        assert!(check_src(TWINS).is_empty(), "{:?}", check_src(TWINS));
    }

    #[test]
    fn missing_scalar_twin_is_convicted() {
        let src = TWINS.replace("pub fn xdrop_half(", "pub fn xdrop_half_v2(");
        let f = check_src(&src);
        assert!(f.iter().any(|f| f.msg.contains("no public scalar twin")), "{f:?}");
    }

    #[test]
    fn return_type_drift_is_convicted() {
        let src = TWINS.replace("open: i32) -> Ext {\n            walk(matrix, q, s, open)\n        }\n        pub fn xdrop_half_striped", "open: i32) -> Ext2 {\n            walk(matrix, q, s, open)\n        }\n        pub fn xdrop_half_striped");
        let f = check_src(&src);
        assert!(f.iter().any(|f| f.msg.contains("result type")), "{f:?}");
    }

    #[test]
    fn shared_parameter_type_drift_is_convicted() {
        let src = TWINS.replace(
            "pub fn xdrop_half_striped(matrix: &Matrix, q: &[u8], s: &[u8], open: i32)",
            "pub fn xdrop_half_striped(matrix: &Matrix, q: &[u8], s: &[u8], open: i16)",
        );
        let f = check_src(&src);
        assert!(f.iter().any(|f| f.msg.contains("identical types")), "{f:?}");
    }

    #[test]
    fn scalar_growing_a_parameter_is_convicted() {
        let src = TWINS.replace(
            "pub fn xdrop_half(matrix: &Matrix, q: &[u8], s: &[u8], open: i32)",
            "pub fn xdrop_half(matrix: &Matrix, q: &[u8], s: &[u8], open: i32, band: usize)",
        );
        let f = check_src(&src);
        assert!(f.iter().any(|f| f.msg.contains("update the striped twin")), "{f:?}");
    }

    #[test]
    fn known_substitutions_do_not_trip() {
        // `profile` on the striped side and matrix/query/tracer on the
        // scalar side are the blessed asymmetry (second pair in TWINS).
        assert!(check_src(TWINS).is_empty());
    }

    #[test]
    fn inline_allow_suppresses() {
        let src = TWINS.replace(
            "pub fn xdrop_half_striped(matrix: &Matrix, q: &[u8], s: &[u8], open: i32) -> Ext {",
            "// lint: allow(kernel-parity): migration window\n        \
             pub fn xdrop_half_striped(matrix: &Matrix, q: &[u8], s: &[u8], open: i16) -> Ext {",
        );
        assert!(check_src(&src).is_empty(), "{:?}", check_src(&src));
    }

    #[test]
    fn non_align_crates_are_out_of_scope() {
        let units = build_units(&[(
            "crates/engine/src/kernels/mod.rs".to_string(),
            "pub fn lonely_striped(x: i32) -> i32 { x }".to_string(),
        )]);
        assert!(check(&units).is_empty());
    }
}
