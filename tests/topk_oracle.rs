//! Top-k differential oracle battery (the pruning acceptance suite).
//!
//! The contract under test: a `top_k = K` search is **bit-identical** to
//! the exhaustive engine run with `max_reported = min(max_reported, K)`
//! — E-value and bit-score compared through `to_bits`, alignment order
//! compared exactly — while provably skipping index blocks whose score
//! bound cannot reach the running k-th-best threshold. The matrix:
//!
//! * K ∈ {1, 10, 50, num_seqs, > num_seqs} over seeded databases
//!   (override the seed with `TOPK_SEED=<u64>`; CI runs a fixed matrix),
//!   plus K = none: pruning off is the same executor, so the sweep also
//!   pins sharded == streaming == single for the *exhaustive* search;
//! * four backends — all `engine::search_batch_blocks` over a different
//!   block source: serial resident, multi-threaded resident, sharded
//!   resident (shared cross-shard watermark), and streaming out-of-core
//!   (block store + LRU cache) at several cache budgets;
//! * every cell runs with tracing off and on: results bit-identical, the
//!   trace empty when off and carrying the engine's stage spans when on;
//! * pruning must be *observable* (blocks skipped > 0 somewhere in every
//!   sweep) and *accounted* (scanned + skipped = total blocks);
//! * both extension kernels answer identically: the pruned path under
//!   `KernelKind::Striped` and under `KernelKind::Scalar` are bit-equal
//!   to the scalar-kernel oracle across the K sweep;
//! * under injected shard loss the degraded top-k answer is exact over
//!   the covered fraction: bit-equal to a fault-free top-k merge of the
//!   surviving shards, with exact coverage arithmetic.

use std::sync::Arc;
use std::sync::OnceLock;

use bioseq::{Sequence, SequenceDb};
use blockstore::{BlockCache, SequenceStore, StreamingShards};
use dbindex::{DbIndex, IndexConfig, ShardedIndex};
use engine::{
    merge_shard_alignments, search_batch, search_batch_backend_traced, search_batch_blocks,
    search_batch_sharded_traced, BlockSource, EngineKind, QueryResult, SearchConfig, SearchOutcome,
    ShardedOutput, FAULT_SHARD,
};
use faultfn::{mix64, FaultPlan, Faults, Schedule};
use obsv::{ObsvConfig, Stage, Trace, TraceSession};
use scoring::{KernelKind, NeighborTable, SearchParams, BLOSUM62};

const NUM_SEQS: usize = 60;

fn topk_seed() -> u64 {
    match std::env::var("TOPK_SEED") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("TOPK_SEED must be a u64, got '{v}'")),
        Err(_) => 0x70BEE5,
    }
}

fn neighbors() -> &'static NeighborTable {
    static T: OnceLock<NeighborTable> = OnceLock::new();
    T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
}

/// Seeded database with deliberately *uneven* block strength: most
/// sequences are weak filler, a few carry strong planted motifs. Uneven
/// strength is what gives block bounds their discriminating power — a
/// uniform database would force every block to be scanned.
fn seeded_db(seed: u64) -> SequenceDb {
    let motifs = ["WCHWMYFWCHWRYW", "MKVLAARNDCEQHK", "HILKMFPSTWYWCH", "CQEGHILKMFADNE"];
    let fillers = ["AGVLSTNQ", "DERKHWYF", "PGASTCVL", "NQHKMILV"];
    (0..NUM_SEQS)
        .map(|i| {
            let r = mix64(seed, i as u64);
            let f = fillers[(r % fillers.len() as u64) as usize];
            let pad_a: String = f.chars().cycle().take(12 + (r >> 8) as usize % 29).collect();
            let text = if i % 5 == 0 {
                // A strong sequence: two motif copies embedded in filler.
                let m = motifs[(r >> 4) as usize % motifs.len()];
                format!("{pad_a}{m}{f}{m}")
            } else {
                // Weak filler: low-scoring everywhere.
                let pad_b: String = f.chars().rev().cycle().take(10 + (r >> 16) as usize % 17).collect();
                format!("{pad_a}{pad_b}")
            };
            match Sequence::from_str_checked(format!("s{i}"), &text) {
                Ok(s) => s,
                Err(b) => panic!("bad residue {b} in generated sequence"),
            }
        })
        .collect()
}

/// Queries are copies of strong database sequences (hits guaranteed and
/// sharply peaked) plus one weak filler copy (exercises the no-strong-hit
/// path where the threshold stays loose).
fn queries_from(db: &SequenceDb, seed: u64) -> Vec<Sequence> {
    let mut qs: Vec<Sequence> = (0..3)
        .map(|i| {
            let pick = ((mix64(seed ^ 0x9, i) % 12) * 5) as bioseq::SequenceId;
            Sequence::from_encoded(format!("q{i}"), db.get(pick).residues().to_vec())
        })
        .collect();
    qs.push(Sequence::from_encoded(
        "q_weak".to_string(),
        db.get(1).residues().to_vec(),
    ));
    qs
}

/// Small blocks → many blocks → room to prune.
fn index_config() -> IndexConfig {
    IndexConfig { block_bytes: 256, offset_bits: 15, frag_overlap: 8 }
}

/// Base config: permissive cutoff, roomy report cap (so K is what binds).
fn base_config() -> SearchConfig {
    let mut params = SearchParams::blastp_defaults();
    params.evalue_cutoff = 1e9;
    params.max_reported = 500;
    SearchConfig::new(EngineKind::MuBlastp).with_params(params)
}

/// The K sweep the acceptance matrix pins; `None` is pruning off.
fn k_values() -> [Option<u32>; 6] {
    [
        Some(1),
        Some(10),
        Some(50),
        Some(NUM_SEQS as u32),
        Some(NUM_SEQS as u32 + 7),
        None,
    ]
}

/// `base_config` asking for the best `k` (`None` = exhaustive).
fn config_for(k: Option<u32>) -> SearchConfig {
    let mut cfg = base_config();
    cfg.top_k = k;
    cfg
}

/// The reporting cap a `top_k = k` search must behave as.
fn cap_for(k: Option<u32>) -> usize {
    let cap = base_config().params.max_reported;
    k.map_or(cap, |k| cap.min(k as usize))
}

/// The exhaustive oracle: same engine, `top_k` off, the reporting cap
/// clamped exactly the way the pruned path normalises it.
fn oracle(
    db: &SequenceDb,
    index: &DbIndex,
    queries: &[Sequence],
    k: Option<u32>,
) -> Vec<QueryResult> {
    let mut cfg = base_config();
    cfg.params.max_reported = cap_for(k);
    search_batch(db, Some(index), neighbors(), queries, &cfg)
}

/// The one executor over `source`, no cross-shard watermark.
fn search_blocks<S: BlockSource>(
    db: &SequenceDb,
    source: &S,
    queries: &[Sequence],
    cfg: &SearchConfig,
    session: &TraceSession,
) -> Result<SearchOutcome, S::Error> {
    search_batch_blocks(db, source, neighbors(), queries, cfg, None, session)
}

fn of_outcome(o: &SearchOutcome) -> (&[QueryResult], &Trace) {
    (&o.results, &o.trace)
}

fn of_sharded(o: &ShardedOutput) -> (&[QueryResult], &Trace) {
    (&o.results, &o.trace)
}

/// The session axis: run `search` untraced and traced. Results must be
/// bit-identical; the untraced trace is empty; the traced one carries the
/// engine's stage spans with batch query indices and block ids local to
/// their source (`max_blocks` = the largest source's block count).
/// Returns the traced run.
fn with_and_without_tracing<T>(
    label: &str,
    n_queries: usize,
    max_blocks: usize,
    view: fn(&T) -> (&[QueryResult], &Trace),
    search: impl Fn(&TraceSession) -> T,
) -> T {
    let off = search(&TraceSession::disabled());
    let on = search(&TraceSession::new(ObsvConfig::on()));
    let ((plain, no_trace), (traced, trace)) = (view(&off), view(&on));
    assert_bits_equal(&format!("{label}: traced vs untraced"), plain, traced);
    assert!(
        no_trace.is_empty(),
        "{label}: a disabled session recorded spans"
    );
    for stage in [Stage::Seed, Stage::Ungapped, Stage::Finish] {
        assert!(
            trace.spans.iter().any(|s| s.stage == stage),
            "{label}: traced run has no {stage:?} span"
        );
    }
    for span in trace.spans.iter().filter(|s| s.stage != Stage::Shard) {
        assert!((span.query as usize) < n_queries, "{label}: {span:?}");
        assert!(
            span.block == obsv::NO_BLOCK || (span.block as usize) < max_blocks,
            "{label}: {span:?}"
        );
    }
    on
}

/// Every block is accounted for exactly once under pruning; with pruning
/// off the counters stay zero.
fn assert_block_accounting(label: &str, k: Option<u32>, topk: &engine::TopKStats, blocks: u64) {
    let want = if k.is_some() { blocks } else { 0 };
    assert_eq!(
        topk.blocks_scanned + topk.blocks_skipped,
        want,
        "{label}: block accounting"
    );
    if k.is_none() {
        assert_eq!(
            topk.blocks_skipped, 0,
            "{label}: exhaustive search skipped a block"
        );
    }
}

/// Bit-level equality: alignment structs, then E-value and bit-score
/// through `to_bits` (stricter than `==` — the headline claim is
/// *bit*-identity, not approximate agreement).
fn assert_bits_equal(label: &str, want: &[QueryResult], got: &[QueryResult]) {
    assert_eq!(want.len(), got.len(), "{label}: result count");
    for (x, y) in want.iter().zip(got) {
        assert_eq!(x.query_index, y.query_index, "{label}: query order");
        assert_eq!(
            x.alignments.len(),
            y.alignments.len(),
            "{label}: query {}: alignment count",
            x.query_index
        );
        for (i, (p, q)) in x.alignments.iter().zip(&y.alignments).enumerate() {
            assert_eq!(p, q, "{label}: query {} alignment {i}", x.query_index);
            assert_eq!(
                p.evalue.to_bits(),
                q.evalue.to_bits(),
                "{label}: query {} alignment {i}: E-value bits",
                x.query_index
            );
            assert_eq!(
                p.bit_score.to_bits(),
                q.bit_score.to_bits(),
                "{label}: query {} alignment {i}: bit-score bits",
                x.query_index
            );
        }
    }
}

/// Backends 1+2: the resident pruned path, serial and multi-threaded,
/// across the full K sweep on two derived seeds. Thread count must be
/// invisible in the bytes, and the sweep as a whole must skip blocks.
#[test]
fn resident_topk_matches_oracle_serial_and_parallel() {
    let seed = topk_seed();
    println!("TOPK_SEED={seed}");
    let mut total_skipped = 0u64;
    for round in 0..2u64 {
        let db = seeded_db(mix64(seed, round));
        let queries = queries_from(&db, mix64(seed, round));
        let index = DbIndex::build(&db, &index_config());
        assert!(index.blocks().len() >= 8, "want many blocks, got {}", index.blocks().len());
        for k in k_values() {
            let want = oracle(&db, &index, &queries, k);
            assert!(
                want.iter().any(|r| !r.alignments.is_empty()),
                "oracle found nothing — fixture is broken"
            );
            for threads in [1usize, 4] {
                let cfg = config_for(k).with_threads(threads);
                let label = format!("round={round} k={k:?} threads={threads}");
                let out = with_and_without_tracing(
                    &label,
                    queries.len(),
                    index.blocks().len(),
                    of_outcome,
                    |session| {
                        let Ok(out) = search_blocks(&db, &index, &queries, &cfg, session);
                        out
                    },
                );
                assert_bits_equal(&label, &want, &out.results);
                assert_block_accounting(&label, k, &out.topk, index.blocks().len() as u64);
                total_skipped += out.topk.blocks_skipped;
            }
        }
    }
    assert!(total_skipped > 0, "the sweep never skipped a block — pruning is inert");
}

/// Kernel axis of the matrix: the striped extension kernels must be
/// invisible in the bytes. For every K, the pruned resident path under
/// `KernelKind::Striped` is bit-equal (`to_bits` on E-value and
/// bit-score) to the scalar-kernel exhaustive oracle — and so is the
/// scalar-kernel pruned run, pinning both kernels to one answer.
#[test]
fn topk_is_kernel_invariant_bit_for_bit() {
    let seed = topk_seed();
    println!("TOPK_SEED={seed}");
    let db = seeded_db(seed);
    let queries = queries_from(&db, seed);
    let index = DbIndex::build(&db, &index_config());
    for k in k_values() {
        let mut scal = base_config();
        scal.params.kernel = KernelKind::Scalar;
        scal.params.max_reported = cap_for(k);
        let want = search_batch(&db, Some(&index), neighbors(), &queries, &scal);
        for kernel in [KernelKind::Scalar, KernelKind::Striped] {
            let mut cfg = config_for(k);
            cfg.params.kernel = kernel;
            let Ok(out) = search_blocks(&db, &index, &queries, &cfg, &TraceSession::disabled());
            assert_bits_equal(
                &format!("k={k:?} kernel={}", kernel.name()),
                &want,
                &out.results,
            );
        }
    }
}

/// Backend 3: sharded resident with the cross-shard watermark. Output
/// bit-equal to the (unsharded) oracle; counters sum over shards.
#[test]
fn sharded_topk_matches_oracle_with_shared_watermark() {
    let seed = topk_seed();
    println!("TOPK_SEED={seed}");
    let db = seeded_db(seed);
    let queries = queries_from(&db, seed);
    let index = DbIndex::build(&db, &index_config());
    for shards in [2usize, 3, 5] {
        let sharded = ShardedIndex::build(&db, &index_config(), shards);
        let shard_blocks: Vec<usize> = sharded
            .shards()
            .iter()
            .map(|s| s.index.blocks().len())
            .collect();
        let max_blocks = shard_blocks.iter().copied().max().unwrap();
        for k in k_values() {
            let want = oracle(&db, &index, &queries, k);
            let cfg = config_for(k).with_threads(2);
            let label = format!("shards={shards} k={k:?}");
            let out = with_and_without_tracing(
                &label,
                queries.len(),
                max_blocks,
                of_sharded,
                |session| {
                    search_batch_sharded_traced(&sharded, neighbors(), &queries, &cfg, session)
                },
            );
            assert!(out.failed.is_empty(), "{label}: fault-free run degraded");
            assert_eq!(out.covered_residues, out.total_residues, "{label}");
            assert_bits_equal(&label, &want, &out.results);
            // Shard counters sum to the shard block total.
            assert_block_accounting(
                &label,
                k,
                &out.topk,
                shard_blocks.iter().sum::<usize>() as u64,
            );
            let shard_spans = out
                .trace
                .spans
                .iter()
                .filter(|s| s.stage == Stage::Shard)
                .count();
            assert_eq!(shard_spans, shards, "{label}: one Shard span per shard");
        }
    }
}

/// Backend 4a: the out-of-core path over a single block store, at full,
/// half, and quarter cache budgets. Identical bytes at every budget, and
/// a skipped block is never even fetched from the store — the cache's
/// fetch counter equals the scanned count on a cold cache (and the block
/// count with pruning off: every block streams through exactly once).
#[test]
fn streaming_store_topk_matches_oracle_at_several_budgets() {
    let seed = topk_seed();
    println!("TOPK_SEED={seed}");
    let db = seeded_db(seed);
    let queries = queries_from(&db, seed);
    let index = DbIndex::build(&db, &index_config());
    let serialized = dbindex::write_store(&index);
    let max_block = index.blocks().iter().map(|b| b.memory_bytes() as u64).max().unwrap();
    for divisor in [1u64, 2, 4] {
        let budget = (serialized.len() as u64 / divisor).max(max_block);
        for k in k_values() {
            let want = oracle(&db, &index, &queries, k);
            let cfg = config_for(k);
            let label = format!("budget=1/{divisor} k={k:?}");
            // A cold cache per run, so the fetch counter is this run's.
            let fetched = std::cell::Cell::new(0);
            let out = with_and_without_tracing(
                &label,
                queries.len(),
                index.blocks().len(),
                of_outcome,
                |session| {
                    let cache = Arc::new(BlockCache::new(budget));
                    let store = SequenceStore::open(
                        std::io::Cursor::new(serialized.clone()),
                        Arc::clone(&cache),
                        Faults::none(),
                    )
                    .unwrap();
                    let out = search_blocks(&db, &store, &queries, &cfg, session).unwrap();
                    let snap = cache.counters().snapshot();
                    assert!(
                        snap.peak_resident_bytes <= budget,
                        "{label}: budget breached"
                    );
                    fetched.set(snap.fetched_blocks);
                    out
                },
            );
            assert_bits_equal(&label, &want, &out.results);
            let n_blocks = index.blocks().len() as u64;
            assert_block_accounting(&label, k, &out.topk, n_blocks);
            assert_eq!(
                fetched.get(),
                if k.is_some() {
                    out.topk.blocks_scanned
                } else {
                    n_blocks
                },
                "{label}: a skipped block must never be fetched"
            );
        }
    }
}

/// Backend 4b: streaming *sharded* stores behind the generic backend
/// driver, quarter budget shared across shards.
#[test]
fn streaming_shards_topk_matches_oracle() {
    let seed = topk_seed();
    println!("TOPK_SEED={seed}");
    let db = seeded_db(seed);
    let queries = queries_from(&db, seed);
    let index = DbIndex::build(&db, &index_config());
    let serialized_len = dbindex::write_store(&index).len();
    let dir = std::env::temp_dir().join(format!("mublastp_topk_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = Arc::new(BlockCache::new((serialized_len / 2) as u64));
    let shards = StreamingShards::build_in_dir(
        &db,
        &index_config(),
        3,
        &dir,
        Arc::clone(&cache),
        &Faults::none(),
    )
    .unwrap();
    let shard_blocks: Vec<usize> = shards
        .shards()
        .iter()
        .map(|s| s.store.num_blocks())
        .collect();
    let max_blocks = shard_blocks.iter().copied().max().unwrap();
    for k in k_values() {
        let want = oracle(&db, &index, &queries, k);
        let cfg = config_for(k).with_threads(2);
        let label = format!("streaming-shards k={k:?}");
        let out = with_and_without_tracing(
            &label,
            queries.len(),
            max_blocks,
            of_sharded,
            |session| search_batch_backend_traced(&shards, neighbors(), &queries, &cfg, session),
        );
        assert!(out.failed.is_empty(), "{label}: fault-free run degraded");
        assert_bits_equal(&label, &want, &out.results);
        // Counters flow through the backend seam.
        assert_block_accounting(
            &label,
            k,
            &out.topk,
            shard_blocks.iter().sum::<usize>() as u64,
        );
        let shard_spans = out
            .trace
            .spans
            .iter()
            .filter(|s| s.stage == Stage::Shard)
            .count();
        assert_eq!(
            shard_spans,
            shard_blocks.len(),
            "{label}: one Shard span per shard"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Fault-free top-k reference restricted to the surviving shards: each
/// survivor searched exhaustively alone under global statistics, merged
/// with the effective cap `min(max_reported, K)` — the bytes a degraded
/// pruned run must reproduce exactly.
fn survivor_topk_reference(
    sharded: &ShardedIndex,
    queries: &[Sequence],
    k: Option<u32>,
    dead: &[usize],
) -> Vec<QueryResult> {
    let global = (sharded.global_residues(), sharded.global_seqs());
    let cap = cap_for(k);
    let mut merged: Vec<QueryResult> = (0..queries.len())
        .map(|query_index| QueryResult {
            query_index,
            alignments: Vec::new(),
            counts: Default::default(),
        })
        .collect();
    for (s, shard) in sharded.shards().iter().enumerate() {
        if dead.contains(&s) {
            continue;
        }
        let mut inner = base_config();
        inner.threads = 1;
        inner.effective_db = Some(global);
        inner.params.max_reported = cap;
        let mut rs = search_batch(&shard.db, Some(&shard.index), neighbors(), queries, &inner);
        for qr in &mut rs {
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

/// Chaos cell: a shard killed mid-sweep leaves a *degraded but exact*
/// top-k — the failure is typed, coverage arithmetic is exact, and the
/// surviving rows are bit-equal to a fault-free top-k of the survivors.
/// The dead shard must not have influenced them through the watermark
/// (the driver publishes thresholds only after a shard task succeeds).
#[test]
fn degraded_topk_is_exact_over_surviving_shards() {
    let seed = topk_seed();
    println!("TOPK_SEED={seed}");
    let db = seeded_db(seed);
    let queries = queries_from(&db, seed);
    for (round, shards) in [3usize, 5].into_iter().enumerate() {
        let sharded = ShardedIndex::build(&db, &index_config(), shards);
        let victim = (mix64(seed, 0xD0 + round as u64) % shards as u64) as usize;
        for k in [Some(1u32), Some(10), Some(NUM_SEQS as u32), None] {
            let mut cfg = config_for(k).with_threads(2);
            cfg.faults = FaultPlan::new(mix64(seed, 0x200 + round as u64))
                .with(FAULT_SHARD, Schedule::Nth(victim as u64))
                .build();
            let out = search_batch_sharded_traced(
                &sharded,
                neighbors(),
                &queries,
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
            let dead_ids: std::collections::HashSet<_> =
                sharded.shards()[victim].ids.iter().copied().collect();
            for qr in &out.results {
                for a in &qr.alignments {
                    assert!(!dead_ids.contains(&a.subject), "{label}: row from dead shard");
                }
            }
            let reference = survivor_topk_reference(&sharded, &queries, k, &[victim]);
            assert_bits_equal(&label, &reference, &out.results);
        }
    }
}
