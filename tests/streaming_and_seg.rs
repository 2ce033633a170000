//! Integration tests for out-of-core (block store) search and SEG filtering.

use datagen::{sample_queries, synthesize_db, DbSpec};
use mublastp::prelude::*;
use std::sync::OnceLock;

fn neighbors() -> &'static NeighborTable {
    static T: OnceLock<NeighborTable> = OnceLock::new();
    T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
}

#[test]
fn streamed_search_equals_in_memory_search() {
    let db = synthesize_db(&DbSpec::uniprot_sprot(), 120_000, 31);
    let queries = sample_queries(&db, 128, 3, 2);
    let cfg = IndexConfig { block_bytes: 16 << 10, ..IndexConfig::default() };
    let index = DbIndex::build(&db, &cfg);
    assert!(index.blocks().len() > 3, "want multiple blocks");

    let mut search_cfg = SearchConfig::new(EngineKind::MuBlastp);
    search_cfg.params.evalue_cutoff = 1e6;

    // Round-trip through the store format and search block by block behind
    // a cache that holds a quarter of it — the out-of-memory-index path
    // that ships. SEG on, so query masking is pinned out of core too.
    let bytes = dbindex::write_store(&index);
    let cache = std::sync::Arc::new(blockstore::BlockCache::new(bytes.len() as u64 / 4));
    let store = blockstore::SequenceStore::open(
        std::io::Cursor::new(bytes),
        cache,
        faultfn::Faults::none(),
    )
    .unwrap();
    for seg_filter in [false, true] {
        search_cfg.params.seg_filter = seg_filter;
        let reference = search_batch(&db, Some(&index), neighbors(), &queries, &search_cfg);
        let streamed = search_batch_blocks(
            &db,
            &store,
            neighbors(),
            &queries,
            &search_cfg,
            None,
            &obsv::TraceSession::disabled(),
        )
        .unwrap();
        results_identical(&reference, &streamed.results).unwrap();
    }
}

#[test]
fn seg_masking_kills_low_complexity_hits() {
    // A database sequence whose only similarity to the query is a
    // low-complexity glutamate run: with SEG on, the match disappears;
    // a diverse control region keeps matching.
    let diverse = "WCHWMYFKRIDEWCHW";
    let low = "E".repeat(40);
    let db: SequenceDb = vec![
        Sequence::from_str_checked("lowc", &format!("MKVL{low}ARND")).unwrap(),
        Sequence::from_str_checked("good", &format!("GGG{diverse}GG")).unwrap(),
    ]
    .into_iter()
    .collect();
    let queries =
        vec![Sequence::from_str_checked("q", &format!("{diverse}AAA{low}")).unwrap()];
    let index = DbIndex::build(&db, &IndexConfig::default());

    let mut base = SearchConfig::new(EngineKind::MuBlastp);
    base.params.evalue_cutoff = 1e9;
    let unmasked = search_batch(&db, Some(&index), neighbors(), &queries, &base);
    let mut seg = base.clone();
    seg.params.seg_filter = true;
    let masked = search_batch(&db, Some(&index), neighbors(), &queries, &seg);

    let subjects = |r: &QueryResult| {
        let mut s: Vec<u32> = r.alignments.iter().map(|a| a.subject).collect();
        s.dedup();
        s
    };
    assert!(
        subjects(&unmasked[0]).contains(&0),
        "without SEG the E-run matches: {:?}",
        unmasked[0].alignments
    );
    assert!(
        !subjects(&masked[0]).contains(&0),
        "with SEG the E-run must not match: {:?}",
        masked[0].alignments
    );
    assert!(
        subjects(&masked[0]).contains(&1),
        "the diverse region must still match under SEG"
    );
}

#[test]
fn seg_keeps_engines_identical() {
    let db = synthesize_db(&DbSpec::env_nr(), 80_000, 55);
    let queries = sample_queries(&db, 128, 2, 3);
    let index = DbIndex::build(&db, &IndexConfig::default());
    let run = |kind| {
        let mut c = SearchConfig::new(kind);
        c.params.evalue_cutoff = 1e6;
        c.params.seg_filter = true;
        search_batch(&db, Some(&index), neighbors(), &queries, &c)
    };
    let a = run(EngineKind::QueryIndexed);
    let b = run(EngineKind::DbInterleaved);
    let c = run(EngineKind::MuBlastp);
    results_identical(&a, &b).unwrap();
    results_identical(&b, &c).unwrap();
}
