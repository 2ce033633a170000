//! Golden-file pins shared by the workspace's format tests.
//!
//! A golden file holds the committed bytes of one fixed value in one
//! persisted or exported format: a wire frame, a block store, the metrics
//! exposition. Its name carries the format's version constant, so a
//! change in layout bumps that constant, which names new files. Setting
//! the suite's bless variable writes a missing file once; an existing
//! file is never rewritten, because bytes already shipped carry it.

use std::path::Path;

/// Compare `bytes` with the committed golden file at `path`. With the
/// environment variable `bless_var` set, a missing file is written; a
/// differing one is an error that names `version_const`, the constant a
/// layout change must bump.
pub fn check_or_bless(
    path: &Path,
    bytes: &[u8],
    bless_var: &str,
    version_const: &str,
) -> Result<(), String> {
    let bless = std::env::var_os(bless_var).is_some();
    check(path, bytes, bless, bless_var, version_const)
}

/// [`check_or_bless`] with the bless switch passed in rather than read
/// from the environment.
pub fn check(
    path: &Path,
    bytes: &[u8],
    bless: bool,
    bless_var: &str,
    version_const: &str,
) -> Result<(), String> {
    match std::fs::read(path) {
        Ok(committed) if committed == bytes => Ok(()),
        Ok(_) => Err(format!(
            "{}: layout changed: bump {version_const}",
            path.display()
        )),
        Err(e) if bless && e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
        }
        Err(e) => Err(format!(
            "{}: {e} (write it with {bless_var}=1)",
            path.display()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bless_refuses_to_rewrite_a_differing_fixture() {
        let dir = std::env::temp_dir().join(format!("golden-bless-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let shipped = dir.join("frame.bin");
        std::fs::write(&shipped, [1u8, 2, 3]).unwrap();
        let err = check(&shipped, &[1, 2, 4], true, "X_BLESS", "X_VERSION").unwrap_err();
        assert!(err.contains("bump X_VERSION"), "{err}");
        assert_eq!(
            std::fs::read(&shipped).unwrap(),
            [1, 2, 3],
            "a bless rewrote a shipped fixture"
        );

        let fresh = dir.join("new.bin");
        let err = check(&fresh, &[9], false, "X_BLESS", "X_VERSION").unwrap_err();
        assert!(
            err.contains("X_BLESS=1"),
            "a missing fixture fails without bless: {err}"
        );
        check(&fresh, &[9], true, "X_BLESS", "X_VERSION").unwrap();
        check(&fresh, &[9], false, "X_BLESS", "X_VERSION").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
