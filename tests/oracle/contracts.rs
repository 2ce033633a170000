//! One contract per test, each on a shared world: what a search must
//! report, not only that two variants agree.

use std::collections::HashSet;

use bioseq::{Sequence, SequenceDb};
use dbindex::{DbIndex, IndexConfig, ShardedIndex};
use engine::kernels::{db_interleaved, mublastp, null_ctx};
use engine::scratch::Scratch;
use engine::{
    merge_shard_alignments, search_batch, search_batch_sharded_traced, EngineKind, QueryResult,
    SearchConfig, StageCounts, FAULT_SHARD,
};
use faultfn::{mix64, FaultPlan, Schedule};
use memsim::NullTracer;
use obsv::TraceSession;
use scoring::{NeighborTable, SearchParams, BLOSUM62};

use crate::matrix::bits_identical;
use crate::worlds::{
    self, core_query, neighbors, small_db, topk_seed, World, LONG_QUERY_LENS, MOTIF,
};

/// `world`'s reference configuration for `kind`.
fn config(world: &World, kind: EngineKind) -> SearchConfig {
    SearchConfig::new(kind).with_params(world.params.clone())
}

/// The edge-case configuration: everything above E = 1e9 is reported.
fn permissive(kind: EngineKind) -> SearchConfig {
    let mut c = SearchConfig::new(kind);
    c.params.evalue_cutoff = 1e9;
    c
}

fn subjects(r: &QueryResult) -> Vec<u32> {
    let mut s: Vec<u32> = r.alignments.iter().map(|a| a.subject).collect();
    s.dedup();
    s
}

#[test]
fn seg_masking_kills_low_complexity_hits() {
    let world = worlds::seg_lowc();
    let case = &world.cases[0];
    let search = |cfg: &SearchConfig| {
        search_batch(&case.db, Some(&case.index), neighbors(), &case.queries, cfg)
    };
    let unmasked = search(&config(world, EngineKind::MuBlastp));
    let mut seg = config(world, EngineKind::MuBlastp);
    seg.params.seg_filter = true;
    let masked = search(&seg);
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

/// The second-to-last subject is the query itself, so its
/// Smith–Waterman score is the full self-score; when that passes the
/// trigger the query must find its own copy.
#[test]
fn planted_core_is_found() {
    let world = worlds::battery3();
    world.each_case(|_, case| {
        let mut cfg = config(world, EngineKind::MuBlastp);
        cfg.params.gap_trigger = 25; // the planted core can be short
        let results = search_batch(
            &case.db,
            Some(&case.index),
            neighbors(),
            &case.queries,
            &cfg,
        );
        let query = case.queries[0].residues();
        let self_score: i32 = query.iter().map(|&c| BLOSUM62.score(c, c)).sum();
        if self_score >= 50 {
            let target = (case.db.len() - 2) as u32;
            assert!(
                results[0].alignments.iter().any(|a| a.subject == target),
                "query failed to find its own copy (self score {self_score}): {:?}",
                results[0].alignments
            );
        }
    });
}

#[test]
fn index_serialization_roundtrip() {
    worlds::battery4().each_case(|_, case| {
        let index = DbIndex::build(&case.db, &worlds::small_blocks());
        let back = dbindex::read_store(&dbindex::write_store(&index)).unwrap();
        assert_eq!(index, back);
    });
}

/// Index the first 80 % of the world, append the rest: the search
/// results equal a fresh index's.
#[test]
fn appended_index_gives_identical_search_results() {
    let world = worlds::verif_sprot();
    let case = &world.cases[0];
    let cut = case.db.len() * 4 / 5;
    let partial: SequenceDb = case.db.sequences()[..cut].iter().cloned().collect();
    let mut index = DbIndex::build(&partial, &IndexConfig::default());
    index.append(&case.db, cut as u32..case.db.len() as u32);
    let cfg = config(world, EngineKind::MuBlastp);
    let appended = search_batch(&case.db, Some(&index), neighbors(), &case.queries, &cfg);
    let fresh = search_batch(
        &case.db,
        Some(&case.index),
        neighbors(),
        &case.queries,
        &cfg,
    );
    engine::results_identical(&fresh, &appended).unwrap();
}

/// A shard killed mid-sweep leaves a degraded but exact top-k: the
/// failure is typed, the coverage arithmetic exact, and the surviving
/// rows bit-equal to a fault-free top-k of the survivors — the dead
/// shard never influenced them through the watermark.
#[test]
fn degraded_topk_is_exact_over_surviving_shards() {
    let (seed, world) = (topk_seed(), worlds::topk());
    let case = &world.cases[0];
    for (round, shards) in [3usize, 5].into_iter().enumerate() {
        let sharded = ShardedIndex::build(&case.db, &world.index_config, shards);
        let victim = (mix64(seed, 0xD0 + round as u64) % shards as u64) as usize;
        for k in [Some(1u32), Some(10), Some(case.db.len() as u32), None] {
            let mut cfg = config(world, EngineKind::MuBlastp).with_threads(2);
            cfg.top_k = k;
            cfg.faults = FaultPlan::new(mix64(seed, 0x200 + round as u64))
                .with(FAULT_SHARD, Schedule::Nth(victim as u64))
                .build();
            let out = search_batch_sharded_traced(
                &sharded,
                neighbors(),
                &case.queries,
                &cfg,
                &TraceSession::disabled(),
            );
            let label = format!("shards={shards} victim={victim} k={k:?}");
            assert_eq!(out.failed.len(), 1, "{label}: exactly one shard fails");
            assert_eq!(out.failed[0].shard, victim, "{label}");
            assert_eq!(out.total_residues, sharded.global_residues(), "{label}");
            assert_eq!(
                out.covered_residues,
                out.total_residues - sharded.shards()[victim].db.total_residues(),
                "{label}: coverage arithmetic"
            );
            let dead: HashSet<_> = sharded.shards()[victim].ids.iter().copied().collect();
            for qr in &out.results {
                assert!(
                    qr.alignments.iter().all(|a| !dead.contains(&a.subject)),
                    "{label}: row from dead shard"
                );
            }
            let reference = survivor_topk_reference(world, &sharded, &case.queries, k, victim);
            bits_identical(&label, &reference, &out.results);
        }
    }
}

/// Each surviving shard searched exhaustively alone under global
/// statistics, merged with the effective cap `min(max_reported, K)`.
fn survivor_topk_reference(
    world: &World,
    sharded: &ShardedIndex,
    queries: &[Sequence],
    k: Option<u32>,
    dead: usize,
) -> Vec<QueryResult> {
    let cap = k.map_or(world.params.max_reported, |k| {
        world.params.max_reported.min(k as usize)
    });
    let mut merged: Vec<QueryResult> = (0..queries.len())
        .map(|query_index| QueryResult {
            query_index,
            alignments: Vec::new(),
            counts: Default::default(),
        })
        .collect();
    let mut inner = config(world, EngineKind::MuBlastp);
    inner.effective_db = Some((sharded.global_residues(), sharded.global_seqs()));
    inner.params.max_reported = cap;
    for (_, shard) in sharded
        .shards()
        .iter()
        .enumerate()
        .filter(|&(s, _)| s != dead)
    {
        for mut qr in search_batch(&shard.db, Some(&shard.index), neighbors(), queries, &inner) {
            for a in &mut qr.alignments {
                a.subject = shard.ids[a.subject as usize];
            }
            merged[qr.query_index].alignments.append(&mut qr.alignments);
        }
    }
    for qr in &mut merged {
        merge_shard_alignments(&mut qr.alignments, cap);
        qr.counts.reported = qr.alignments.len() as u64;
    }
    merged
}

#[test]
fn max_reported_truncates_subjects() {
    let db: SequenceDb = (0..6)
        .map(|i| {
            let text = format!("{}{MOTIF}{}", "AG".repeat(i + 1), "VL".repeat(i + 1));
            Sequence::from_str_checked(format!("s{i}"), &text).unwrap()
        })
        .collect();
    let index = DbIndex::build(&db, &IndexConfig::default());
    let queries = vec![Sequence::from_str_checked("q", MOTIF).unwrap()];
    let mut c = permissive(EngineKind::MuBlastp);
    c.params.max_reported = 2;
    let out = search_batch(&db, Some(&index), neighbors(), &queries, &c);
    let subjects = subjects(&out[0]);
    assert!(subjects.len() <= 2, "{subjects:?}");
    assert!(!out[0].alignments.is_empty());
}

#[test]
fn empty_database_with_index() {
    let db = SequenceDb::new();
    let index = DbIndex::build(&db, &IndexConfig::default());
    for kind in [
        EngineKind::QueryIndexed,
        EngineKind::DbInterleaved,
        EngineKind::MuBlastp,
    ] {
        let out = search_batch(
            &db,
            Some(&index),
            neighbors(),
            &core_query(),
            &permissive(kind),
        );
        assert!(out[0].alignments.is_empty(), "{kind:?}");
    }
}

#[test]
fn tabular_report_roundtrip_fields() {
    let (db, queries) = (small_db(), core_query());
    let index = DbIndex::build(&db, &IndexConfig::default());
    let out = search_batch(
        &db,
        Some(&index),
        neighbors(),
        &queries,
        &permissive(EngineKind::MuBlastp),
    );
    let rows = engine::tabular_rows(&queries[0], &out[0], &db);
    assert!(!rows.is_empty());
    for r in &rows {
        assert!(r.qend >= r.qstart && r.send >= r.sstart);
        assert!(r.pident >= 0.0 && r.pident <= 100.0);
        assert_eq!(r.to_line().split('\t').count(), 12);
    }
}

/// `*` scores −4 against everything, so a word of it and two X has no
/// neighbors at T = 11.
#[test]
fn stop_codon_word_never_seeds() {
    let enc = |c: u8| bioseq::alphabet::encode_residue(c).unwrap();
    let w = bioseq::alphabet::pack_word(enc(b'*'), enc(b'X'), enc(b'X'));
    assert!(
        neighbors().neighbors(w).is_empty(),
        "{:?}",
        neighbors().neighbors(w)
    );
}

/// Seeds (sorted: muBLASTP emits in subject order, the interleaved
/// kernel in detection order) and counts of one kernel over every block.
fn kernel_seeds(
    query: &[u8],
    index: &DbIndex,
    neighbors: &NeighborTable,
    scratch: &mut Scratch,
    mu: bool,
) -> (Vec<engine::results::Seed>, StageCounts) {
    let params = SearchParams::blastp_defaults();
    let mut counts = StageCounts::default();
    let mut tracer = NullTracer;
    let mut ctx = null_ctx(&mut tracer);
    scratch.seeds.clear();
    for block in index.blocks() {
        if mu {
            mublastp::search_block(
                query,
                block,
                neighbors,
                &params,
                scratch,
                &mut counts,
                &mut ctx,
                &mut obsv::NoObs,
                mublastp::ReorderAlgo::LsdRadix,
                true,
            );
        } else {
            db_interleaved::search_block(
                query,
                block,
                neighbors,
                &params,
                scratch,
                &mut counts,
                &mut ctx,
                &mut obsv::NoObs,
            );
        }
    }
    let mut seeds = std::mem::take(&mut scratch.seeds);
    seeds.sort_by_key(|s| (s.subject, s.frag_offset, s.aln));
    (seeds, counts)
}

/// muBLASTP's pre-filter scan keeps 2-byte last-hit cells while a
/// query's epoch span `query_len + 1` fits a `u16` and 4-byte cells
/// beyond: on both sides of the switch it must produce exactly the seeds
/// and `StageCounts` of the interleaved kernel, which pairs every hit
/// through `PairFinder`'s 4-byte cells.
#[test]
fn both_widths_match_the_interleaved_kernel_across_the_switch() {
    let case = &worlds::long_queries().cases[0];
    for (query, query_len) in case.queries.iter().zip(LONG_QUERY_LENS) {
        let narrow = query_len <= 65_534;
        let query = query.residues();
        let mut scratch = Scratch::new();
        let (mu_seeds, mu_counts) =
            kernel_seeds(query, &case.index, neighbors(), &mut scratch, true);
        assert_eq!(
            (
                scratch.narrow_cells_bytes() > 0,
                scratch.finder.memory_bytes() > 0
            ),
            (narrow, !narrow),
            "qlen {query_len}: the scan must use {} cells",
            if narrow { "2-byte" } else { "4-byte" }
        );
        let (il_seeds, il_counts) =
            kernel_seeds(query, &case.index, neighbors(), &mut Scratch::new(), false);
        assert_eq!(mu_counts, il_counts, "qlen {query_len}: stage counts");
        assert_eq!(mu_seeds, il_seeds, "qlen {query_len}: seeds");
        assert!(mu_counts.pairs > 0 && mu_counts.pairs < mu_counts.hits);
        // The planted motif pairs at the query's last words.
        let planted = mu_seeds
            .iter()
            .filter(|s| s.aln.q_end as usize == query_len)
            .count();
        assert_eq!(
            planted, 2,
            "qlen {query_len}: one seed per planted subject at the query end"
        );
    }
}
