//! The `Variant` and `Check` tables: how a cell searches its world, and
//! what it asserts about the output.
//!
//! Every cell checks, per case of its world:
//!
//! * **byte identity** with the world's reference variant ([`MU`] with
//!   the cell's SEG setting): `results_identical`, plus E-value and bit
//!   score through `to_bits`;
//! * the world's own **expectation**, on the reference and on the cell;
//! * **stage counters** equal to the reference's for the other
//!   database-indexed resident runs (pairs and extensions only with the
//!   pre-filter off);
//! * source contracts: shard plans and coverage, and for cache-backed
//!   sources residency within the budget (or the documented overshoot of
//!   an oversized block), no fetch of a skipped block, eviction below
//!   the decoded size, and a second pass over the warm cache.
//!
//! The reference cell itself ([`MU`]) also checks that every reported
//! alignment is **sound**: its score replayed from its ops, bounded by
//! `align::smith_waterman` on its own rectangle and on the whole pair,
//! and the output in canonical order.
//!
//! A [`TopK::Sweep`] cell instead runs K ∈ {1, 10, 50, n, n + 7, none}
//! and checks each K against the **exhaustive oracle** with
//! `max_reported = min(max_reported, K)`, the **block accounting**
//! (scanned + skipped = total; nothing skipped without K; skips > 0
//! somewhere in the sweep) and that **tracing** on and off give the same
//! bytes, with the expected spans when on.

use std::cmp::Ordering;
use std::io::Cursor;
use std::sync::atomic::{self, AtomicUsize};
use std::sync::Arc;

use blockstore::{BlockCache, CounterSnapshot, SequenceStore, StreamingShards};
use dbindex::{DbIndex, IndexConfig, ShardPlan, ShardedIndex};
use engine::{
    compare_alignments, results_identical, search_batch, search_batch_backend_traced,
    search_batch_blocks, search_batch_sharded, search_batch_sharded_traced, EngineKind,
    QueryResult, SearchConfig, SearchOutcome, ShardedOutput, SortAlgo, TopKStats,
};
use faultfn::Faults;
use obsv::{ObsvConfig, Stage, Trace, TraceSession};
use scoring::{KernelKind, Matrix};

use crate::worlds::{neighbors, Case, World};

/// One way of searching a world: engine × source × top-k × SEG ×
/// threads × kernel, plus muBLASTP's hit sort and pre-filter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Variant {
    pub(crate) engine: EngineKind,
    pub(crate) source: Source,
    pub(crate) top_k: TopK,
    pub(crate) seg: bool,
    pub(crate) threads: usize,
    pub(crate) kernel: KernelKind,
    pub(crate) sort: SortAlgo,
    pub(crate) prefilter: bool,
}

/// Where the blocks come from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Source {
    /// The world's resident index.
    Resident,
    /// The resident index rebuilt with this `block_bytes`.
    Blocks(usize),
    /// The resident index after `write_store` and `read_store`.
    Reloaded,
    /// `ShardedIndex::build` into K shards ([`PER_SEQUENCE`]: one per
    /// sequence).
    Shards(usize),
    /// One shard per rank over `ShardPlan::round_robin` of the lengths,
    /// as `mublastp distributed` deals them.
    RoundRobin(usize),
    /// One `SequenceStore` behind a cache of this budget.
    Store(Budget),
    /// K `StreamingShards` on disk sharing one cache of this budget.
    Streaming(usize, Budget),
}

/// A block cache's byte budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Budget {
    /// 1/d of the whole index's serialized size.
    Fraction(u64),
    /// Every decoded block of every store.
    AllDecoded,
    /// One byte below the largest decoded block, which is then the
    /// oversized insert `BlockCache` documents.
    BelowLargestBlock,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum TopK {
    /// Exhaustive, through the plain entry points, untraced.
    Off,
    /// The K sweep, through the traced entry points.
    Sweep,
}

pub(crate) const PER_SEQUENCE: usize = usize::MAX;

/// The reference variant: resident muBLASTP as `SearchConfig::new` sets
/// it up (kernel `Auto`, LSD radix, pre-filter on), one thread.
pub(crate) const MU: Variant = Variant {
    engine: EngineKind::MuBlastp,
    source: Source::Resident,
    top_k: TopK::Off,
    seg: false,
    threads: 1,
    kernel: KernelKind::Auto,
    sort: SortAlgo::LsdRadix,
    prefilter: true,
};
pub(crate) const QI: Variant = Variant {
    engine: EngineKind::QueryIndexed,
    ..MU
};
pub(crate) const DBI: Variant = Variant {
    engine: EngineKind::DbInterleaved,
    ..MU
};

impl Variant {
    pub(crate) const fn on(self, source: Source) -> Variant {
        Variant { source, ..self }
    }
    pub(crate) const fn threads(self, threads: usize) -> Variant {
        Variant { threads, ..self }
    }
    pub(crate) const fn kernel(self, kernel: KernelKind) -> Variant {
        Variant { kernel, ..self }
    }
    pub(crate) const fn sort(self, sort: SortAlgo) -> Variant {
        Variant { sort, ..self }
    }
    pub(crate) const fn postfilter(self) -> Variant {
        Variant {
            prefilter: false,
            ..self
        }
    }
    pub(crate) const fn seg(self) -> Variant {
        Variant { seg: true, ..self }
    }
    pub(crate) const fn sweep(self) -> Variant {
        Variant {
            top_k: TopK::Sweep,
            ..self
        }
    }

    fn config(&self, world: &World, top_k: Option<u32>) -> SearchConfig {
        let mut c = SearchConfig::new(self.engine)
            .with_params(world.params.clone())
            .with_threads(self.threads);
        c.params.kernel = self.kernel;
        c.params.seg_filter = self.seg;
        c.sort = self.sort;
        c.prefilter = self.prefilter;
        c.top_k = top_k;
        c
    }
}

/// Run cell `v` on every case of `world`.
pub(crate) fn cell(world: &World, v: Variant) {
    world.each_case(|i, case| match v.top_k {
        TopK::Off => exhaustive(world, i, case, &v),
        TopK::Sweep => sweep(world, i, case, &v),
    });
}

/// The reference variant's output for case `i`, reporting as many
/// subjects as a `top_k = k` search must; computed once per binary.
fn reference(world: &World, i: usize, seg: bool, k: Option<u32>) -> Vec<QueryResult> {
    let slot = Arc::clone(
        world
            .references
            .lock()
            .unwrap()
            .entry((i, seg, k))
            .or_default(),
    );
    slot.get_or_init(|| {
        let mut cfg = Variant { seg, ..MU }.config(world, None);
        let cap = cfg.params.max_reported;
        cfg.params.max_reported = k.map_or(cap, |k| cap.min(k as usize));
        run(world, &world.cases[i], MU.source, &cfg, None).results
    })
    .clone()
}

fn exhaustive(world: &World, i: usize, case: &Case, v: &Variant) {
    let label = format!("{v:?}");
    let want = reference(world, i, v.seg, None);
    (world.expect)(&want);
    if *v == MU {
        sound(world, case, &want);
        return;
    }
    let got = run(world, case, v.source, &v.config(world, None), None).results;
    (world.expect)(&got);
    bits_identical(&label, &want, &got);
    if matches!(v.source, Source::Resident | Source::Reloaded)
        && v.engine != EngineKind::QueryIndexed
    {
        for (w, g) in want.iter().zip(&got) {
            let (w, g) = (&w.counts, &g.counts);
            assert_eq!(
                (w.pairs, w.extensions),
                (g.pairs, g.extensions),
                "{label}: pairs, extensions"
            );
            if v.prefilter {
                assert_eq!(w, g, "{label}: stage counters");
            }
        }
    }
}

fn sweep(world: &World, i: usize, case: &Case, v: &Variant) {
    let n = case.db.len() as u32;
    let mut skipped = 0;
    for k in [Some(1), Some(10), Some(50), Some(n), Some(n + 7), None] {
        let label = format!("{v:?} k={k:?}");
        let want = reference(world, i, v.seg, k);
        (world.expect)(&want);
        let cfg = v.config(world, k);
        let off = run(world, case, v.source, &cfg, Some(&TraceSession::disabled()));
        let on = run(
            world,
            case,
            v.source,
            &cfg,
            Some(&TraceSession::new(ObsvConfig::on())),
        );
        bits_identical(
            &format!("{label}: traced vs untraced"),
            &off.results,
            &on.results,
        );
        traced(&label, &off.trace, &on, case.queries.len());
        bits_identical(&label, &want, &on.results);
        let want_blocks = if k.is_some() { on.blocks } else { 0 };
        let stats = on.topk;
        assert_eq!(
            stats.blocks_scanned + stats.blocks_skipped,
            want_blocks,
            "{label}: block accounting"
        );
        if k.is_none() {
            assert_eq!(
                stats.blocks_skipped, 0,
                "{label}: exhaustive search skipped a block"
            );
        }
        skipped += stats.blocks_skipped;
    }
    assert!(
        skipped > 0,
        "{v:?}: the sweep never skipped a block — pruning is inert"
    );
}

/// An untraced run records nothing; a traced one carries the engine's
/// stage spans with batch query indices and source-local block ids, and
/// one `Shard` span per shard.
fn traced(label: &str, untraced: &Trace, on: &Run, n_queries: usize) {
    assert!(
        untraced.is_empty(),
        "{label}: a disabled session recorded spans"
    );
    let spans = &on.trace.spans;
    for stage in [Stage::Seed, Stage::Ungapped, Stage::Finish] {
        assert!(
            spans.iter().any(|s| s.stage == stage),
            "{label}: traced run has no {stage:?} span"
        );
    }
    for span in spans.iter().filter(|s| s.stage != Stage::Shard) {
        assert!((span.query as usize) < n_queries, "{label}: {span:?}");
        assert!(
            span.block == obsv::NO_BLOCK || (span.block as usize) < on.max_blocks,
            "{label}: {span:?}"
        );
    }
    let shard_spans = spans.iter().filter(|s| s.stage == Stage::Shard).count();
    assert_eq!(shard_spans, on.shards, "{label}: one Shard span per shard");
}

/// `results_identical`, then E-value and bit score through `to_bits`:
/// the claim is bit-identity, not approximate agreement.
pub(crate) fn bits_identical(label: &str, want: &[QueryResult], got: &[QueryResult]) {
    results_identical(want, got).unwrap_or_else(|e| panic!("{label}: {e}"));
    for (x, y) in want.iter().zip(got) {
        for (i, (p, q)) in x.alignments.iter().zip(&y.alignments).enumerate() {
            assert_eq!(
                (p.evalue.to_bits(), p.bit_score.to_bits()),
                (q.evalue.to_bits(), q.bit_score.to_bits()),
                "{label}: query {} alignment {i}: E-value / bit-score bits",
                x.query_index
            );
        }
    }
}

/// Every reported alignment replays to its score and survives the
/// exact Smith–Waterman reference — the heuristic may stop early but
/// never overclaims — and each query's list is in canonical order.
fn sound(world: &World, case: &Case, results: &[QueryResult]) {
    let (matrix, open, extend) = (
        &world.params.matrix,
        world.params.gap_open,
        world.params.gap_extend,
    );
    for (result, query) in results.iter().zip(&case.queries) {
        let q = query.residues();
        for a in &result.alignments {
            assert!(a.aln.validate(), "inconsistent traceback {a:?}");
            let s = case.db.get(a.subject).residues();
            assert!(a.aln.q_end as usize <= q.len() && a.aln.s_end as usize <= s.len());
            let replayed = replay_score(matrix, q, s, &a.aln, open, extend);
            assert_eq!(
                replayed, a.aln.score,
                "ops over the reported coordinates disagree: {a:?}"
            );
            let rect = align::smith_waterman(
                matrix,
                &q[a.aln.q_start as usize..a.aln.q_end as usize],
                &s[a.aln.s_start as usize..a.aln.s_end as usize],
                open,
                extend,
            );
            assert!(
                a.aln.score <= rect.score,
                "{a:?} beats Smith–Waterman {} on its own rectangle",
                rect.score
            );
            let full = align::smith_waterman(matrix, q, s, open, extend);
            assert!(
                rect.score <= full.score,
                "rectangle beats the whole pair: {a:?}"
            );
            assert!(a.evalue >= 0.0 && a.bit_score.is_finite());
        }
        assert!(result
            .alignments
            .windows(2)
            .all(|w| compare_alignments(&w[0], &w[1]) != Ordering::Greater));
    }
}

/// An alignment's score from its coordinates and traceback ops: the
/// matrix over substitution columns, `open + L·extend` per maximal gap
/// run. Ops that drift off the coordinates panic.
fn replay_score(
    matrix: &Matrix,
    q: &[u8],
    s: &[u8],
    a: &align::GappedAlignment,
    open: i32,
    extend: i32,
) -> i32 {
    let (mut qi, mut si) = (a.q_start as usize, a.s_start as usize);
    let mut score = 0;
    let mut ops = a.ops.iter().peekable();
    while let Some(&op) = ops.next() {
        if op == align::AlignOp::Sub {
            score += matrix.score(q[qi], s[si]);
            (qi, si) = (qi + 1, si + 1);
            continue;
        }
        let mut len = 1;
        while ops.next_if_eq(&&op).is_some() {
            len += 1;
        }
        match op {
            align::AlignOp::Ins => qi += len,
            _ => si += len,
        }
        score -= open + extend * len as i32;
    }
    assert_eq!(
        (qi, si),
        (a.q_end as usize, a.s_end as usize),
        "ops drift off the coordinates"
    );
    score
}

/// One search's output, with what the checks need to know about its
/// source.
struct Run {
    results: Vec<QueryResult>,
    trace: Trace,
    topk: TopKStats,
    /// Blocks the search could visit, summed over shards.
    blocks: u64,
    /// The largest source's block count (span block ids are local).
    max_blocks: usize,
    /// Number of shards, 0 unsharded.
    shards: usize,
}

impl Run {
    fn plain(results: Vec<QueryResult>) -> Run {
        Run {
            results,
            trace: Trace::default(),
            topk: TopKStats::default(),
            blocks: 0,
            max_blocks: 0,
            shards: 0,
        }
    }

    fn outcome(out: SearchOutcome, blocks: usize) -> Run {
        let (trace, topk) = (out.trace, out.topk);
        Run {
            trace,
            topk,
            blocks: blocks as u64,
            max_blocks: blocks,
            ..Run::plain(out.results)
        }
    }

    fn sharded(out: ShardedOutput, shard_blocks: &[usize], residues: usize) -> Run {
        assert!(
            out.failed.is_empty(),
            "no faults, no degradation: {:?}",
            out.failed
        );
        assert_eq!(
            (out.covered_residues, out.total_residues),
            (residues, residues),
            "coverage"
        );
        let (trace, topk) = (out.trace, out.topk);
        Run {
            trace,
            topk,
            blocks: shard_blocks.iter().sum::<usize>() as u64,
            max_blocks: shard_blocks.iter().copied().max().unwrap_or(0),
            shards: shard_blocks.len(),
            ..Run::plain(out.results)
        }
    }
}

/// Search `case` through `source` under `cfg`: the plain entry points
/// without a session, the traced ones with.
fn run(
    world: &World,
    case: &Case,
    source: Source,
    cfg: &SearchConfig,
    session: Option<&TraceSession>,
) -> Run {
    let (db, queries) = (&case.db, &case.queries[..]);
    let resident = |index: &DbIndex| match session {
        None => Run::plain(search_batch(db, Some(index), neighbors(), queries, cfg)),
        Some(session) => {
            let Ok(out) = search_batch_blocks(db, index, neighbors(), queries, cfg, None, session);
            Run::outcome(out, index.blocks().len())
        }
    };
    let sharded = |sharded: ShardedIndex| {
        let blocks: Vec<usize> = sharded
            .shards()
            .iter()
            .map(|s| s.index.blocks().len())
            .collect();
        match session {
            None => Run::plain(search_batch_sharded(&sharded, neighbors(), queries, cfg)),
            Some(session) => {
                let out = search_batch_sharded_traced(&sharded, neighbors(), queries, cfg, session);
                Run::sharded(out, &blocks, db.total_residues())
            }
        }
    };
    match source {
        Source::Resident => resident(&case.index),
        Source::Blocks(block_bytes) => resident(&DbIndex::build(
            db,
            &IndexConfig {
                block_bytes,
                ..world.index_config
            },
        )),
        Source::Reloaded => {
            resident(&dbindex::read_store(&dbindex::write_store(&case.index)).unwrap())
        }
        Source::Shards(k) => {
            let k = if k == PER_SEQUENCE { db.len() } else { k };
            let index = ShardedIndex::build(db, &world.index_config, k);
            assert_eq!(index.num_shards(), k);
            let sizes: Vec<usize> = index.shards().iter().map(|s| s.db.len()).collect();
            if k >= db.len() {
                assert!(
                    sizes.iter().all(|&n| n <= 1),
                    "one sequence per shard: {sizes:?}"
                );
            }
            if k > db.len() {
                assert!(
                    sizes.contains(&0),
                    "the plan should leave empty shards: {sizes:?}"
                );
            }
            sharded(index)
        }
        Source::RoundRobin(ranks) => {
            let lens: Vec<usize> = db.sequences().iter().map(|s| s.len()).collect();
            let plan = ShardPlan::round_robin(&lens, ranks);
            sharded(ShardedIndex::build_with_plan(
                db,
                &world.index_config,
                &plan,
            ))
        }
        Source::Store(budget) => store(case, budget, cfg, session),
        Source::Streaming(k, budget) => streaming(world, case, k, budget, cfg, session),
    }
}

impl Budget {
    fn bytes(self, serialized: usize, decoded: &[u64]) -> u64 {
        match self {
            Budget::Fraction(d) => serialized as u64 / d,
            Budget::AllDecoded => decoded.iter().sum(),
            Budget::BelowLargestBlock => largest(decoded) - 1,
        }
    }
}

fn largest(decoded: &[u64]) -> u64 {
    decoded.iter().copied().max().unwrap_or(0)
}

/// Peak residency stays within the budget, unless one block is larger
/// than the whole budget: that block is cached anyway and its overshoot
/// recorded.
fn residency(budget: u64, decoded: &[u64], snap: &CounterSnapshot) {
    if budget >= largest(decoded) {
        assert!(
            snap.peak_resident_bytes <= budget,
            "peak residency {} exceeds budget {budget}",
            snap.peak_resident_bytes
        );
    } else {
        assert!(
            snap.peak_resident_bytes > budget,
            "the oversized block is cached and its overshoot recorded"
        );
    }
}

/// The out-of-core path over one store, on a cold cache, searched twice.
fn store(case: &Case, budget: Budget, cfg: &SearchConfig, session: Option<&TraceSession>) -> Run {
    let serialized = dbindex::write_store(&case.index);
    let decoded: Vec<u64> = case
        .index
        .blocks()
        .iter()
        .map(|b| b.memory_bytes() as u64)
        .collect();
    let budget = budget.bytes(serialized.len(), &decoded);
    assert!(
        largest(&decoded) <= budget,
        "fixture sizing: one decoded block must fit the budget ({budget} B) or residency cannot be bounded"
    );
    let cache = Arc::new(BlockCache::new(budget));
    let store =
        SequenceStore::open(Cursor::new(serialized), Arc::clone(&cache), Faults::none()).unwrap();
    let search = |session: &TraceSession| {
        search_batch_blocks(
            &case.db,
            &store,
            neighbors(),
            &case.queries,
            cfg,
            None,
            session,
        )
        .unwrap()
    };
    let first = search(session.unwrap_or(&TraceSession::disabled()));
    let snap = cache.counters().snapshot();
    let want = if cfg.top_k.is_some() {
        first.topk.blocks_scanned
    } else {
        decoded.len() as u64
    };
    assert_eq!(
        snap.fetched_blocks, want,
        "a cold pass fetches every block it scans and no skipped one"
    );
    assert!(snap.decoded_postings > 0);
    residency(budget, &decoded, &snap);
    if cfg.top_k.is_none() {
        // Every block streamed through: below the decoded size the cache
        // must have evicted, and a second pass reuses what it kept.
        if budget < decoded.iter().sum() {
            assert!(
                snap.evictions > 0,
                "a budget below the decoded index must evict"
            );
        }
        bits_identical(
            "second pass",
            &first.results,
            &search(&TraceSession::disabled()).results,
        );
        residency(budget, &decoded, &cache.counters().snapshot());
    }
    Run::outcome(first, decoded.len())
}

/// Streaming shards in a fresh directory through the generic backend
/// driver.
fn streaming(
    world: &World,
    case: &Case,
    k: usize,
    budget: Budget,
    cfg: &SearchConfig,
    session: Option<&TraceSession>,
) -> Run {
    static DIRS: AtomicUsize = AtomicUsize::new(0);
    let n = DIRS.fetch_add(1, atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mublastp_oracle_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The same plan in memory: a store charges a block's `memory_bytes`.
    let decoded: Vec<u64> = ShardedIndex::build(&case.db, &world.index_config, k)
        .shards()
        .iter()
        .flat_map(|s| s.index.blocks().iter().map(|b| b.memory_bytes() as u64))
        .collect();
    let budget = budget.bytes(dbindex::write_store(&case.index).len(), &decoded);
    let cache = Arc::new(BlockCache::new(budget));
    let shards = StreamingShards::build_in_dir(
        &case.db,
        &world.index_config,
        k,
        &dir,
        cache,
        &Faults::none(),
    )
    .unwrap();
    let blocks: Vec<usize> = shards
        .shards()
        .iter()
        .map(|s| s.store.num_blocks())
        .collect();
    let out = search_batch_backend_traced(
        &shards,
        neighbors(),
        &case.queries,
        cfg,
        session.unwrap_or(&TraceSession::disabled()),
    );
    let snap = shards.cache().counters().snapshot();
    assert!(
        snap.fetched_blocks > 0,
        "shards actually streamed from disk"
    );
    residency(budget, &decoded, &snap);
    std::fs::remove_dir_all(&dir).ok();
    Run::sharded(out, &blocks, case.db.total_residues())
}
