//! Golden byte fixtures for the block store: the one pin on its layout.
//!
//! `tests/fixtures/store_v{STORE_VERSION}*.bin` are what the serializer
//! writes. Any serializer change that alters bytes — field order, widths,
//! the order of a record's runs, CRC coverage, bound layout — fails here
//! even if it round-trips symmetrically, because stores already written by
//! shipped builds would no longer parse the same way. A layout change
//! bumps `STORE_VERSION`, which names new files, and `STORE_BLESS=1`
//! writes them once; a bless never rewrites an existing file.

use bioseq::{Sequence, SequenceDb};
use dbindex::{
    read_directory, read_store, write_store, BlockBound, DbIndex, IndexConfig, STORE_VERSION,
};
use faultfn::golden::{check, check_or_bless};

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

/// `store_v{STORE_VERSION}{suffix}.bin`: the fixture names follow the version.
fn fixture_path(suffix: &str) -> std::path::PathBuf {
    fixtures_dir().join(format!("store_v{STORE_VERSION}{suffix}.bin"))
}

fn golden_stores() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("", write_store(&golden_index())),
        ("_frag", write_store(&golden_fragmented_index())),
        ("_empty", write_store(&DbIndex::build(&SequenceDb::new(), &IndexConfig::default()))),
    ]
}

#[test]
fn golden_fixtures_pin_the_store_bytes() {
    for (suffix, bytes) in golden_stores() {
        let path = fixture_path(suffix);
        if let Err(e) = check_or_bless(&path, &bytes, "STORE_BLESS", "STORE_VERSION") {
            panic!("{e}");
        }
    }
}

#[test]
fn bless_refuses_to_rewrite_a_differing_fixture() {
    let dir = std::env::temp_dir().join(format!("store-bless-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let shipped = dir.join("store.bin");
    std::fs::write(&shipped, [1u8, 2, 3]).unwrap();
    let err = check(&shipped, &[1, 2, 4], true, "STORE_BLESS", "STORE_VERSION").unwrap_err();
    assert!(err.contains("bump STORE_VERSION"), "{err}");
    assert_eq!(
        std::fs::read(&shipped).unwrap(),
        [1, 2, 3],
        "a bless rewrote a shipped fixture"
    );

    let fresh = dir.join("new.bin");
    assert!(
        check(&fresh, &[9], false, "STORE_BLESS", "STORE_VERSION").is_err(),
        "a missing fixture fails without bless"
    );
    check(&fresh, &[9], true, "STORE_BLESS", "STORE_VERSION").unwrap();
    check(&fresh, &[9], false, "STORE_BLESS", "STORE_VERSION").unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
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
    for (suffix, want) in [("", golden_index()), ("_frag", golden_fragmented_index())] {
        let path = fixture_path(suffix);
        let name = path.display();
        let bytes = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{name}: {e} (write it with STORE_BLESS=1)"));
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
