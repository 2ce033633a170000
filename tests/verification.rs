//! Paper Sec. V-E: every optimisation leaves the outputs bit-identical.
//!
//! The three engines, every hit-reorder sort, pre- vs post-filtering,
//! every block size, every thread count and the distributed execution all
//! must report exactly the same alignments on realistic synthetic data.

use datagen::{sample_mixed_queries, sample_queries, synthesize_db, DbSpec};
use dbindex::{ShardPlan, ShardedIndex};
use engine::search_batch_sharded;
use mublastp::prelude::*;
use std::sync::OnceLock;

fn neighbors() -> &'static NeighborTable {
    static T: OnceLock<NeighborTable> = OnceLock::new();
    T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
}

fn world() -> &'static (SequenceDb, Vec<Sequence>) {
    static W: OnceLock<(SequenceDb, Vec<Sequence>)> = OnceLock::new();
    W.get_or_init(|| {
        let db = synthesize_db(&DbSpec::uniprot_sprot(), 150_000, 77);
        let mut queries = sample_queries(&db, 128, 3, 5);
        queries.extend(sample_mixed_queries(&db, 2, 6));
        (db, queries)
    })
}

fn base_config(kind: EngineKind) -> SearchConfig {
    let mut c = SearchConfig::new(kind);
    // The tiny search space would otherwise push everything past E = 10.
    c.params.evalue_cutoff = 1e6;
    c
}

#[test]
fn three_engines_identical() {
    let (db, queries) = world();
    let index = DbIndex::build(db, &IndexConfig::default());
    let run = |kind| search_batch(db, Some(&index), neighbors(), queries, &base_config(kind));
    let ncbi = run(EngineKind::QueryIndexed);
    let ncbi_db = run(EngineKind::DbInterleaved);
    let mu = run(EngineKind::MuBlastp);
    assert!(
        ncbi.iter().map(|r| r.alignments.len()).sum::<usize>() > 0,
        "test world produced no alignments at all"
    );
    results_identical(&ncbi, &ncbi_db).unwrap();
    results_identical(&ncbi_db, &mu).unwrap();
    // Database-indexed engines agree on every stage counter as well.
    for (a, b) in ncbi_db.iter().zip(&mu) {
        assert_eq!(a.counts, b.counts);
    }
}

#[test]
fn every_sort_algorithm_identical() {
    let (db, queries) = world();
    let index = DbIndex::build(db, &IndexConfig::default());
    let baseline = {
        let mut c = base_config(EngineKind::MuBlastp);
        c.sort = SortAlgo::Std;
        search_batch(db, Some(&index), neighbors(), queries, &c)
    };
    for sort in [SortAlgo::LsdRadix, SortAlgo::MsdRadix, SortAlgo::Merge, SortAlgo::Binning] {
        let mut c = base_config(EngineKind::MuBlastp);
        c.sort = sort;
        let got = search_batch(db, Some(&index), neighbors(), queries, &c);
        results_identical(&baseline, &got).unwrap_or_else(|e| panic!("{sort:?}: {e}"));
    }
}

#[test]
fn prefilter_and_postfilter_identical() {
    let (db, queries) = world();
    let index = DbIndex::build(db, &IndexConfig::default());
    let mut pre = base_config(EngineKind::MuBlastp);
    pre.prefilter = true;
    let mut post = base_config(EngineKind::MuBlastp);
    post.prefilter = false;
    let a = search_batch(db, Some(&index), neighbors(), queries, &pre);
    let b = search_batch(db, Some(&index), neighbors(), queries, &post);
    results_identical(&a, &b).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.counts.pairs, y.counts.pairs);
        assert_eq!(x.counts.extensions, y.counts.extensions);
    }
}

#[test]
fn block_size_does_not_change_results() {
    let (db, queries) = world();
    let reference = {
        let index = DbIndex::build(db, &IndexConfig::default());
        search_batch(db, Some(&index), neighbors(), queries, &base_config(EngineKind::MuBlastp))
    };
    for block_bytes in [16 << 10, 64 << 10, 1 << 20] {
        let cfg = IndexConfig { block_bytes, ..IndexConfig::default() };
        let index = DbIndex::build(db, &cfg);
        let got = search_batch(
            db,
            Some(&index),
            neighbors(),
            queries,
            &base_config(EngineKind::MuBlastp),
        );
        results_identical(&reference, &got)
            .unwrap_or_else(|e| panic!("block size {block_bytes}: {e}"));
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let (db, queries) = world();
    let index = DbIndex::build(db, &IndexConfig::default());
    let reference =
        search_batch(db, Some(&index), neighbors(), queries, &base_config(EngineKind::MuBlastp));
    for threads in [2usize, 5, 8] {
        for kind in [EngineKind::QueryIndexed, EngineKind::MuBlastp] {
            let c = base_config(kind).with_threads(threads);
            let got = search_batch(db, Some(&index), neighbors(), queries, &c);
            results_identical(&reference, &got)
                .unwrap_or_else(|e| panic!("{kind:?} × {threads} threads: {e}"));
        }
    }
}

#[test]
fn serialized_index_gives_identical_results() {
    let (db, queries) = world();
    let index = DbIndex::build(db, &IndexConfig::default());
    let bytes = dbindex::write_store(&index);
    let reloaded = dbindex::read_store(&bytes).unwrap();
    let a = search_batch(db, Some(&index), neighbors(), queries, &base_config(EngineKind::MuBlastp));
    let b = search_batch(
        db,
        Some(&reloaded),
        neighbors(),
        queries,
        &base_config(EngineKind::MuBlastp),
    );
    results_identical(&a, &b).unwrap();
}

#[test]
fn appended_index_gives_identical_search_results() {
    let (db0, queries) = world();
    // Split the world: index the first 80 %, then append the rest.
    let cut = db0.len() * 4 / 5;
    let partial: SequenceDb =
        db0.sequences()[..cut].iter().cloned().collect();
    let mut index = DbIndex::build(&partial, &IndexConfig::default());
    index.append(db0, cut as u32..db0.len() as u32);
    let appended =
        search_batch(db0, Some(&index), neighbors(), queries, &base_config(EngineKind::MuBlastp));
    let fresh_index = DbIndex::build(db0, &IndexConfig::default());
    let fresh = search_batch(
        db0,
        Some(&fresh_index),
        neighbors(),
        queries,
        &base_config(EngineKind::MuBlastp),
    );
    results_identical(&fresh, &appended).unwrap();
}

/// The paper's inter-node algorithm (Sec. IV-D2/3) as `mublastp
/// distributed` runs it: the length-sorted database dealt round-robin to
/// one shard per rank, searched by the sharded driver.
#[test]
fn distributed_equals_single_node() {
    let (db, queries) = world();
    let sorted = db.sorted_by_length();
    let index = DbIndex::build(&sorted, &IndexConfig::default());
    let reference = search_batch(
        &sorted,
        Some(&index),
        neighbors(),
        queries,
        &base_config(EngineKind::MuBlastp),
    );
    let lens: Vec<usize> = sorted.sequences().iter().map(|s| s.len()).collect();
    for ranks in [2usize, 5] {
        let plan = ShardPlan::round_robin(&lens, ranks);
        let sharded = ShardedIndex::build_with_plan(&sorted, &IndexConfig::default(), &plan);
        let config = base_config(EngineKind::MuBlastp).with_threads(ranks);
        let merged = search_batch_sharded(&sharded, neighbors(), queries, &config);
        results_identical(&reference, &merged).unwrap_or_else(|e| panic!("{ranks} ranks: {e}"));
    }
}
