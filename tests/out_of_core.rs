//! Out-of-core differential battery (ISSUE 7 acceptance): searching a
//! seeded database through the block store with a cache budget of at
//! most ¼ of the serialized index size must produce output byte-identical
//! to the resident unsharded engine, with peak decoded-block residency
//! bounded by the budget — both asserted via the cache counters. The
//! streaming shard backend must likewise merge to the resident reference
//! through the engine's generic backend driver.

use std::sync::Arc;

use bioseq::{Sequence, SequenceDb};
use blockstore::{BlockCache, SequenceStore, StreamingShards};
use dbindex::{DbIndex, IndexConfig};
use engine::{
    results_identical, search_batch, search_batch_backend_traced, search_batch_blocks, EngineKind,
    SearchConfig,
};
use scoring::{NeighborTable, SearchParams, BLOSUM62};
use std::sync::OnceLock;

fn neighbors() -> &'static NeighborTable {
    static T: OnceLock<NeighborTable> = OnceLock::new();
    T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
}

/// A deterministic ~5k-residue database with planted repeats: big enough
/// to spread across ~20 index blocks at `block_bytes = 256`, so the
/// ¼-of-serialized cache budget genuinely cannot hold the decoded index.
fn seeded_db() -> SequenceDb {
    let motifs = ["WCHWMYFWCHW", "MKVLAARNDCE", "HILKMFPSTWY", "CQEGHILKMFA"];
    let fillers = ["AGVLSTNQ", "DERKHWYF", "PGASTCVL"];
    (0..80)
        .map(|i| {
            let m = motifs[i % motifs.len()];
            let f = fillers[i % fillers.len()];
            let pad_a: String = f.chars().cycle().take(10 + (i * 7) % 23).collect();
            let pad_b: String = f.chars().rev().cycle().take(8 + (i * 5) % 19).collect();
            Sequence::from_str_checked(format!("s{i}"), &format!("{pad_a}{m}{pad_b}{m}"))
                .unwrap()
        })
        .collect()
}

fn index_config() -> IndexConfig {
    IndexConfig { block_bytes: 256, offset_bits: 15, frag_overlap: 8 }
}

fn search_config() -> SearchConfig {
    let mut params = SearchParams::blastp_defaults();
    params.evalue_cutoff = 1e9;
    SearchConfig::new(EngineKind::MuBlastp).with_params(params)
}

fn queries(db: &SequenceDb) -> Vec<Sequence> {
    (0..3)
        .map(|i| Sequence::from_encoded(format!("q{i}"), db.get(i * 17).residues().to_vec()))
        .collect()
}

/// The headline acceptance test: quarter-budget out-of-core search is
/// bit-identical to the resident engine and never holds more decoded
/// bytes than the budget.
#[test]
fn quarter_budget_out_of_core_search_matches_resident_engine() {
    let db = seeded_db();
    let queries = queries(&db);
    let cfg = search_config();
    let index = DbIndex::build(&db, &index_config());
    assert!(index.blocks().len() >= 8, "want many blocks, got {}", index.blocks().len());
    let reference = search_batch(&db, Some(&index), neighbors(), &queries, &cfg);
    assert!(reference.iter().any(|r| !r.alignments.is_empty()), "want non-trivial hits");

    let serialized = dbindex::write_store(&index);
    let budget = (serialized.len() / 4) as u64;
    let max_block = index.blocks().iter().map(|b| b.memory_bytes() as u64).max().unwrap();
    assert!(
        max_block <= budget,
        "fixture sizing: one decoded block ({max_block} B) must fit the \
         quarter budget ({budget} B) or residency cannot be bounded"
    );

    let cache = Arc::new(BlockCache::new(budget));
    let store = SequenceStore::open(
        std::io::Cursor::new(serialized),
        Arc::clone(&cache),
        faultfn::Faults::none(),
    )
    .unwrap();
    // Two passes: the second exercises reuse under eviction pressure.
    for pass in 0..2 {
        let session = obsv::TraceSession::disabled();
        let out =
            search_batch_blocks(&db, &store, neighbors(), &queries, &cfg, None, &session).unwrap();
        results_identical(&reference, &out.results).unwrap_or_else(|e| panic!("pass {pass}: {e}"));
    }
    let snap = cache.counters().snapshot();
    assert!(
        snap.peak_resident_bytes <= budget,
        "peak residency {} exceeds budget {budget}",
        snap.peak_resident_bytes
    );
    assert!(snap.evictions > 0, "quarter budget must evict");
    assert!(snap.misses >= index.blocks().len() as u64, "cold pass fetches every block");
    assert!(snap.decoded_postings > 0);
}

/// Streaming shards behind the generic backend driver merge to the
/// resident unsharded reference bit-for-bit, sharing one cache across
/// all shard stores, at every cache budget: the whole decoded index, ¼ of
/// the serialized index, and one byte below the largest decoded block,
/// where that block is the oversized insert `BlockCache` documents.
#[test]
fn streaming_shards_match_resident_engine() {
    let db = seeded_db();
    let queries = queries(&db);
    let cfg = search_config().with_threads(3);
    let index = DbIndex::build(&db, &index_config());
    let reference = search_batch(&db, Some(&index), neighbors(), &queries, &search_config());
    let serialized_len = dbindex::write_store(&index).len() as u64;

    let dir = std::env::temp_dir().join(format!("mublastp_ooc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let build = |budget: u64| {
        let cache = Arc::new(BlockCache::new(budget));
        StreamingShards::build_in_dir(&db, &index_config(), 3, &dir, cache, &faultfn::Faults::none())
            .unwrap()
    };
    let decoded: Vec<u64> = build(u64::MAX)
        .shards()
        .iter()
        .flat_map(|s| s.store.directory().blocks.iter().map(|b| b.decoded_bytes))
        .collect();
    let largest = *decoded.iter().max().unwrap();
    let budgets = [
        ("full", decoded.iter().sum::<u64>()),
        ("quarter", serialized_len / 4),
        ("below the largest block", largest - 1),
    ];

    for (label, budget) in budgets {
        let shards = build(budget);
        let out = search_batch_backend_traced(
            &shards,
            neighbors(),
            &queries,
            &cfg,
            &obsv::TraceSession::disabled(),
        );
        assert!(out.failed.is_empty(), "{label}: no faults → no degradation: {:?}", out.failed);
        assert_eq!(out.covered_residues, out.total_residues);
        assert_eq!(out.total_residues, db.total_residues());
        results_identical(&reference, &out.results)
            .unwrap_or_else(|e| panic!("{label}: streamed shards must match resident: {e}"));
        let snap = shards.cache().counters().snapshot();
        assert!(snap.fetched_blocks > 0, "{label}: shards actually streamed from disk");
        if budget >= largest {
            assert!(
                snap.peak_resident_bytes <= budget,
                "{label}: peak residency {} exceeds budget {budget}",
                snap.peak_resident_bytes
            );
        } else {
            assert!(
                snap.peak_resident_bytes > budget,
                "{label}: the oversized block is cached and its overshoot recorded"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
