//! Golden byte fixtures for the block store.
//!
//! `tests/fixtures/store_v5*.bin` are what the serializer writes. Any
//! serializer change that alters bytes — field order, widths, the order
//! of a record's runs, CRC coverage, bound layout — fails here even if it round-trips
//! symmetrically, because stores already written by shipped builds would
//! no longer parse the same way. Regenerate deliberately with
//! `STORE_BLESS=1` after an intentional `STORE_VERSION` bump (the `xtask
//! analyze` store ratchet enforces the bump side).

use bioseq::{Sequence, SequenceDb};
use dbindex::{read_directory, read_store, write_store, BlockBound, DbIndex, IndexConfig};

fn fixtures_dir() -> std::path::PathBuf {
    if let Some(dir) = option_env!("CARGO_MANIFEST_DIR") {
        return std::path::Path::new(dir).join("tests/fixtures");
    }
    for candidate in ["crates/dbindex/tests", "tests"] {
        if std::path::Path::new(candidate).is_dir() {
            return std::path::Path::new(candidate).join("fixtures");
        }
    }
    panic!("fixtures directory not found; run from the repo or crate root")
}

/// Fixed, hand-written database — no RNG, so the bytes cannot drift with
/// generator tweaks. Small block budget forces multiple blocks and at
/// least one fragmented sequence (whose block must be `whole_only:
/// false` in its bound).
fn golden_index() -> DbIndex {
    let db: SequenceDb = [
        "MARNDWWWCQEGHILKMFPSTWYVA",
        "WWWHILKMFPSTARNDCQEG",
        "ARNDARNDARNDARNDARNDARND",
        "MKVLWAALLVTFLAGCQAKVEQAVE",
        "GGGGGGGGGG",
        "MA",
    ]
    .iter()
    .enumerate()
    .map(|(i, s)| Sequence::from_str_checked(format!("golden{i}"), s).unwrap())
    .collect();
    let config = IndexConfig { block_bytes: 96, offset_bits: 15, frag_overlap: 8 };
    DbIndex::build(&db, &config)
}

/// A second fixed database whose long repeat-heavy sequence must split:
/// at `offset_bits: 8` the offset field caps fragments at 255 residues,
/// so the 420-residue sequence fragments — the case the conservative
/// (`whole_only: false`) side of the bound format needs.
fn golden_fragmented_index() -> DbIndex {
    let long: String = "MARNDCQEGHILKMFPSTWYV".chars().cycle().take(420).collect();
    let db: SequenceDb = [long.as_str(), "WWWHILKMFPSTARNDCQEG", "MKVLWAALLVTFLAG"]
        .iter()
        .enumerate()
        .map(|(i, s)| Sequence::from_str_checked(format!("frag{i}"), s).unwrap())
        .collect();
    let config = IndexConfig { block_bytes: 96, offset_bits: 8, frag_overlap: 8 };
    DbIndex::build(&db, &config)
}

fn golden_stores() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("store_v5.bin", write_store(&golden_index())),
        ("store_v5_frag.bin", write_store(&golden_fragmented_index())),
        (
            "store_v5_empty.bin",
            write_store(&DbIndex::build(&SequenceDb::new(), &IndexConfig::default())),
        ),
    ]
}

#[test]
fn golden_fixtures_pin_the_store_bytes() {
    let dir = fixtures_dir();
    let bless = std::env::var_os("STORE_BLESS").is_some();
    if bless {
        std::fs::create_dir_all(&dir).unwrap();
    }
    for (name, bytes) in golden_stores() {
        let path = dir.join(name);
        if bless {
            std::fs::write(&path, &bytes).unwrap();
            eprintln!("blessed {} ({} bytes)", path.display(), bytes.len());
            continue;
        }
        let committed = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (regenerate with STORE_BLESS=1)", path.display()));
        assert_eq!(
            committed,
            bytes,
            "{name}: serializer output diverged from the committed fixture — the \
             layout changed; bump STORE_VERSION, re-bless the xtask store ratchet, \
             and regenerate with STORE_BLESS=1"
        );
    }
    assert!(!bless, "STORE_BLESS run regenerated fixtures; unset it and re-run to verify");
}

#[test]
fn committed_fixture_parses_and_its_bounds_are_sound() {
    // Guards the read side independently: the committed bytes must decode
    // to exactly the index they were written from, so a paired
    // writer+reader change cannot slip past the byte comparison — and
    // every directory row must carry a bound equal to one recomputed
    // from the decoded block (the soundness anchor block pruning rests
    // on).
    let mut saw_fragmented = false;
    let mut saw_whole = false;
    for (name, want) in [
        ("store_v5.bin", golden_index()),
        ("store_v5_frag.bin", golden_fragmented_index()),
    ] {
        let path = fixtures_dir().join(name);
        let bytes = std::fs::read(&path).unwrap_or_else(|e| {
            panic!("{}: {e} (regenerate with STORE_BLESS=1)", path.display())
        });
        let index = read_store(&bytes).unwrap();
        assert_eq!(index, want, "{name}");

        let dir = read_directory(&mut std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(dir.blocks.len(), index.blocks().len(), "{name}");
        for (i, (meta, block)) in dir.blocks.iter().zip(index.blocks()).enumerate() {
            assert_eq!(
                meta.bound,
                BlockBound::from_block(block),
                "{name} block {i}: recomputed bound"
            );
            saw_fragmented |= !meta.bound.whole_only;
            saw_whole |= meta.bound.whole_only;
        }
    }
    assert!(
        saw_fragmented && saw_whole,
        "fixtures must cover both whole_only (skippable) and fragmented \
         (never-skippable) blocks or half the bound format goes untested"
    );
}
