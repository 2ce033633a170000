//! Batch drivers: the paper's Algorithm 3 execution structure.
//!
//! For the database-indexed engines, the outer loop walks index blocks
//! *serially* (so one block plus per-thread state is the entire working
//! set) and an OpenMP-style dynamic parallel-for distributes the queries
//! of the batch inside each block. The query-indexed engine parallelises
//! straight over queries. The finishing stages run as a second dynamic
//! parallel-for over queries (Alg. 3 lines 7–9).

use crate::finish::{Finisher, SubjectCandidates};
use crate::kernels::{db_interleaved, mublastp, null_ctx, query_indexed};
use crate::results::{QueryResult, Seed, StageCounts};
use crate::scratch::Scratch;
use crate::topk::{QueryPruner, TopKSet, TopKShared, TopKStats};
use bioseq::{Sequence, SequenceDb};
use dbindex::{BlockBound, DbIndex, IndexBlock};
use memsim::NullTracer;
use obsv::{Recorder, Stage, StageObs, Trace, TraceSession, NO_BLOCK};
use parallel::parallel_map_dynamic_with_state;
use qindex::QueryIndex;
use scoring::{NeighborTable, SearchParams};
use std::borrow::{Borrow, Cow};
use std::convert::Infallible;

pub use crate::kernels::mublastp::ReorderAlgo as SortAlgo;

/// Which of the three engines to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Query-indexed baseline ("NCBI").
    QueryIndexed,
    /// Database-indexed with interleaved stages ("NCBI-db").
    DbInterleaved,
    /// Decoupled + pre-filtered + reordered ("muBLASTP").
    MuBlastp,
}

/// Batch search configuration.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Which engine runs the batch.
    pub kind: EngineKind,
    /// Scoring, seeding and extension parameters.
    pub params: SearchParams,
    /// Worker threads for both the block loop's inner parallel-for and the
    /// finish pass.
    pub threads: usize,
    /// Hit-reorder sort (muBLASTP only).
    pub sort: SortAlgo,
    /// Pre-filter hits before sorting (muBLASTP only; `false` = Alg. 1
    /// post-filter mode, kept for the ablation benchmark).
    pub prefilter: bool,
    /// Override of the `(total residues, sequence count)` used for
    /// E-value statistics. Distributed searches set this to the *global*
    /// database size so per-partition results merge consistently
    /// (Sec. IV-D2); `None` uses the local database.
    pub effective_db: Option<(usize, usize)>,
    /// Absolute wall-clock point past which remaining work should be
    /// cancelled. Honored at task granularity by the sharded driver
    /// (a shard whose task starts after the deadline is dropped and
    /// reported in [`crate::ShardedOutput::failed`]); the single-index
    /// engines run to completion — their caller rejects expired requests
    /// before dispatch. `None` (the default) never cancels.
    pub deadline: Option<std::time::Instant>,
    /// Fault-injection plan threaded to per-shard tasks (site
    /// [`crate::sharded::FAULT_SHARD`]). [`faultfn::Faults::none`] — the
    /// default — injects nothing at the cost of one branch per shard.
    pub faults: faultfn::Faults,
    /// Report only the best `K` subjects per query and let the
    /// database-indexed engines *prune*: blocks whose stored score bound
    /// provably cannot beat the current k-th-best E-value are skipped
    /// before seeding (out-of-core: before they are even fetched). Output
    /// is bit-identical to an exhaustive search with
    /// `params.max_reported = min(max_reported, K)` — the invariant the
    /// oracle matrix's top-k cells (`tests/oracle/`) pin. `None` (the
    /// default) searches exhaustively.
    pub top_k: Option<u32>,
}

impl SearchConfig {
    /// A configuration for `kind` with BLASTP defaults: single-threaded,
    /// LSD radix hit sorting, prefilter on.
    pub fn new(kind: EngineKind) -> SearchConfig {
        SearchConfig {
            kind,
            params: SearchParams::blastp_defaults(),
            threads: 1,
            sort: SortAlgo::LsdRadix,
            prefilter: true,
            effective_db: None,
            deadline: None,
            faults: faultfn::Faults::none(),
            top_k: None,
        }
    }

    /// Builder: request top-k pruned reporting (see [`SearchConfig::top_k`]).
    pub fn with_top_k(mut self, k: u32) -> SearchConfig {
        self.top_k = Some(k);
        self
    }

    /// The reported-subject cap in force: `max_reported`, lowered to `K`
    /// under top-k (the effective k the watermark tracks).
    pub(crate) fn reported_cap(&self) -> usize {
        let cap = self.params.max_reported;
        self.top_k.map_or(cap, |k| cap.min(k as usize))
    }

    /// Builder: set the worker-thread count for the dynamic scheduler.
    pub fn with_threads(mut self, threads: usize) -> SearchConfig {
        self.threads = threads;
        self
    }

    /// Builder: replace the scoring/search parameters.
    pub fn with_params(mut self, params: SearchParams) -> SearchConfig {
        self.params = params;
        self
    }
}

/// Where the block loop gets its index blocks: a resident [`DbIndex`], a
/// disk store behind a cache, or anything else that can list its blocks
/// and produce one on demand. The one interface [`search_batch_blocks`]
/// searches through, so "out-of-core" and "sharded" are choices of source,
/// not copies of the executor.
///
/// The executor decides the visit order from what a source can say
/// *without* fetching: [`bound`](BlockSource::bound) under top-k,
/// [`resident`](BlockSource::resident) for an exhaustive scan.
pub trait BlockSource {
    /// Why a fetch can fail ([`Infallible`] for resident blocks).
    type Error;

    /// Number of blocks; valid block ids are `0..num_blocks()`.
    fn num_blocks(&self) -> usize;

    /// Block `i`'s score bound, available *without* fetching the block
    /// (the pruner's skip-before-fetch). Only consulted when
    /// `config.top_k` is set.
    fn bound(&self, i: usize) -> BlockBound;

    /// Whether fetching block `i` right now would be cheaper than fetching
    /// it later — it sits in a cache it may be evicted from. An exhaustive
    /// scan visits such blocks first. Advisory: the answer may be stale by
    /// the time the block is fetched, and asking must not itself keep the
    /// block cached. A source whose blocks all cost the same — every fully
    /// resident one — keeps the default `false` and is scanned in
    /// ascending order.
    fn resident(&self, _i: usize) -> bool {
        false
    }

    /// Materialise block `i`.
    fn fetch(&self, i: usize) -> Result<impl Borrow<IndexBlock>, Self::Error>;
}

impl BlockSource for [IndexBlock] {
    type Error = Infallible;

    fn num_blocks(&self) -> usize {
        self.len()
    }

    fn bound(&self, i: usize) -> BlockBound {
        BlockBound::from_block(&self[i])
    }

    fn fetch(&self, i: usize) -> Result<impl Borrow<IndexBlock>, Infallible> {
        Ok(&self[i])
    }
}

impl BlockSource for DbIndex {
    type Error = Infallible;

    fn num_blocks(&self) -> usize {
        self.blocks().len()
    }

    fn bound(&self, i: usize) -> BlockBound {
        self.blocks().bound(i)
    }

    fn fetch(&self, i: usize) -> Result<impl Borrow<IndexBlock>, Infallible> {
        self.blocks().fetch(i)
    }
}

/// What one batch search produced.
#[derive(Debug, Default)]
pub struct SearchOutcome {
    /// Per-query results in batch order. With `config.top_k = Some(K)`
    /// they are bit-identical to an exhaustive search run with
    /// `params.max_reported = min(max_reported, K)`.
    pub results: Vec<QueryResult>,
    /// Stage spans (empty under a disabled session). Span `query` fields
    /// are batch indices, `block` fields are ids local to the source, and
    /// `trace_id` is 0 — callers coalescing several requests re-attribute
    /// with [`Trace::assign_trace_ids`].
    pub trace: Trace,
    /// Block pruning counters; all zero for an exhaustive search.
    pub topk: TopKStats,
    /// Per-query k-th-best preliminary E-value this search established
    /// (`+∞` when fewer than `K` subjects were admitted); empty for an
    /// exhaustive search. A sharded driver publishes these to the shared
    /// watermark after the shard's task succeeds.
    pub kth_evalues: Vec<f64>,
}

/// Search a query batch against a resident database.
///
/// `index` is required for the database-indexed engines and ignored by the
/// query-indexed one. `neighbors` must have been built with
/// `config.params.word_threshold`.
///
/// # Panics
/// Panics if a database-indexed engine is requested without an index.
pub fn search_batch(
    db: &SequenceDb,
    index: Option<&DbIndex>,
    neighbors: &NeighborTable,
    queries: &[Sequence],
    config: &SearchConfig,
) -> Vec<QueryResult> {
    search_batch_traced(db, index, neighbors, queries, config, &TraceSession::disabled()).0
}

/// [`search_batch`] plus the wall-clock stage spans of
/// [`SearchOutcome::trace`].
///
/// # Panics
/// Panics if a database-indexed engine is requested without an index.
pub fn search_batch_traced(
    db: &SequenceDb,
    index: Option<&DbIndex>,
    neighbors: &NeighborTable,
    queries: &[Sequence],
    config: &SearchConfig,
    session: &TraceSession,
) -> (Vec<QueryResult>, Trace) {
    let blocks: &[IndexBlock] = match index {
        Some(index) => index.blocks(),
        None if matches!(config.kind, EngineKind::QueryIndexed) => &[],
        #[expect(
            clippy::panic,
            reason = "contract panic — every serving caller (serve::SearchSession) builds the index with the engine; a None here is a harness bug, not a data fault"
        )]
        None => panic!(
            "database-indexed engines need a DbIndex (got None for {:?})",
            config.kind
        ),
    };
    let Ok(out) = search_batch_blocks(db, blocks, neighbors, queries, config, None, session);
    (out.results, out.trace)
}

/// The batch executor — the paper's Alg. 3, and the only copy of it: a
/// serial loop over the blocks of `source` with a dynamic parallel-for
/// over the queries inside each block, then the finish pass over queries.
/// Resident, out-of-core and per-shard searches differ only in `source`.
/// The query-indexed engine has no blocks: it makes one parallel pass over
/// the whole of `db` and never touches `source`.
///
/// Each worker keeps one [`Scratch`] and one [`obsv::Recorder`] for the
/// whole call. Every pipeline stage of every `(query, block)` records one
/// span into its worker's recorder (no locks in the kernels; the ring
/// capacity bounds a worker's spans per call), merged into
/// [`SearchOutcome::trace`] after the block loop. With a disabled
/// `session` that costs a few never-taken branches per stage.
///
/// **Exhaustive** (`config.top_k = None`): every block is fetched exactly
/// once — first the blocks the source reports
/// [`resident`](BlockSource::resident), then the rest, ascending within
/// each group; no bound is read and no pruning state is built. A cyclic
/// ascending scan through an LRU cache smaller than the index evicts each
/// block just before its next use and never hits; starting with what the
/// previous batch left behind makes the cache serve its share of the
/// fetches. The order cannot show in the output: seeds from different
/// blocks only meet in the finish pass, which sorts them (the top-k visit
/// order below relies on the same fact), and a source that never reports
/// `resident` — every fully resident index — is scanned in ascending order.
///
/// **Top-k** (`config.top_k = Some(K)`, database-indexed engines): the
/// reporting cap becomes `min(max_reported, K)` and blocks are pruned.
/// Blocks that can never be pruned go first, then bounded ones best-first
/// so the threshold drops early. Each scanned whole-subject block's seeds
/// are extended on the spot — it holds every seed of its subjects, so this
/// *is* the finish stage's candidate pipeline
/// (`Finisher::candidates`), run early — and the subjects' preliminary
/// E-values feed a per-query `TopKSet`; the finish pass takes those
/// candidates as they are and extends only the seeds of fragment blocks
/// (a `Gapped` span per `(query, block)` times the early part).
/// A block is skipped, *without being fetched*, only when for **every**
/// query its best-case E-value is strictly worse than
/// `min(evalue_cutoff, local k-th, shared k-th)`; what the finish pass
/// ranks is what an exhaustive search would rank minus subjects that
/// provably miss the cap, so bit-identity with the capped exhaustive
/// search holds by construction (`DESIGN.md` §3.7). `shared`
/// carries cross-shard thresholds that tighten pruning further; this
/// function only reads it — its caller publishes
/// [`SearchOutcome::kth_evalues`], on success.
///
/// A failed fetch aborts the search with the source's error; no partial
/// result escapes.
pub fn search_batch_blocks<S: BlockSource + ?Sized>(
    db: &SequenceDb,
    source: &S,
    neighbors: &NeighborTable,
    queries: &[Sequence],
    config: &SearchConfig,
    shared: Option<&TopKShared>,
    session: &TraceSession,
) -> Result<SearchOutcome, S::Error> {
    let config = capped(config);
    let queries = seg_masked(queries, &config.params);
    // Finish = rank, then trace back what ranking kept, per query.
    let out = search_blocks_with(
        db,
        source,
        neighbors,
        &queries,
        &config,
        shared,
        session,
        |finisher, ranked| finisher.trace_back_all(db, &ranked),
    )?;
    let results = out
        .per_query
        .into_iter()
        .enumerate()
        .map(|(query_index, (alignments, mut counts))| {
            counts.reported = alignments.len() as u64;
            QueryResult {
                query_index,
                alignments,
                counts,
            }
        })
        .collect();
    Ok(SearchOutcome {
        results,
        trace: out.trace,
        topk: out.topk,
        kth_evalues: out.kth_evalues,
    })
}

/// `config` with the top-k reporting cap folded into
/// `params.max_reported`, the form [`search_blocks_with`] takes.
pub(crate) fn capped(config: &SearchConfig) -> Cow<'_, SearchConfig> {
    if config.top_k.is_none() {
        return Cow::Borrowed(config);
    }
    let mut c = config.clone();
    c.params.max_reported = config.reported_cap();
    Cow::Owned(c)
}

/// SEG query masking (`blastp -seg yes`): low-complexity query regions
/// hard-masked to X before any stage, for every engine alike. The
/// queries themselves when the filter is off.
pub(crate) fn seg_masked<'q>(
    queries: &'q [Sequence],
    params: &SearchParams,
) -> Cow<'q, [Sequence]> {
    if !params.seg_filter {
        return Cow::Borrowed(queries);
    }
    queries
        .iter()
        .map(|q| {
            Sequence::from_encoded(
                q.id.clone(),
                bioseq::seg_mask(q.residues(), &bioseq::SegParams::default()),
            )
        })
        .collect()
}

/// What [`search_blocks_with`] produced.
pub(crate) struct BlocksOutcome<T> {
    /// Per query, in batch order: what `finish` made of the query's ranked
    /// subjects, and its stage counters (`reported` still zero).
    pub(crate) per_query: Vec<(T, StageCounts)>,
    /// As [`SearchOutcome::trace`].
    pub(crate) trace: Trace,
    /// As [`SearchOutcome::topk`].
    pub(crate) topk: TopKStats,
    /// As [`SearchOutcome::kth_evalues`].
    pub(crate) kth_evalues: Vec<f64>,
}

/// What the block loop leaves for one query's finish.
#[derive(Default)]
struct Pending {
    /// Seeds still to be extended.
    seeds: Vec<Seed>,
    /// Subjects the top-k admission already extended; none of `seeds` is
    /// theirs.
    extended: Vec<SubjectCandidates>,
    counts: StageCounts,
}

/// [`search_batch_blocks`] with the second half of the finish left to the
/// caller: the block loop, then per query the rank half
/// ([`Finisher::rank`]) and `finish` on the subjects it kept, inside one
/// `Finish` span. The sharded driver passes the identity and traces back
/// after merging its shards' lists. `config` must be [`capped`] and
/// `queries` [`seg_masked`].
#[allow(
    clippy::too_many_arguments,
    reason = "the one block executor every search entry point shares; each argument is a caller choice"
)]
pub(crate) fn search_blocks_with<S, T, F>(
    db: &SequenceDb,
    source: &S,
    neighbors: &NeighborTable,
    queries: &[Sequence],
    config: &SearchConfig,
    shared: Option<&TopKShared>,
    session: &TraceSession,
    finish: F,
) -> Result<BlocksOutcome<T>, S::Error>
where
    S: BlockSource + ?Sized,
    T: Send,
    F: Fn(&Finisher<'_>, Vec<SubjectCandidates>) -> T + Sync,
{
    let mut trace = Trace::new();
    let mut topk = TopKStats::default();
    if queries.is_empty() {
        let (per_query, kth_evalues) = (Vec::new(), Vec::new());
        return Ok(BlocksOutcome { per_query, trace, topk, kth_evalues });
    }
    let (db_residues, db_seqs) = config
        .effective_db
        .unwrap_or((db.total_residues(), db.len()));
    let finishers: Vec<Finisher<'_>> = queries
        .iter()
        .map(|q| Finisher::new(q.residues(), &config.params, db_residues, db_seqs))
        .collect();
    let cutoff = config.params.evalue_cutoff;
    let by_blocks = !matches!(config.kind, EngineKind::QueryIndexed);
    let n_blocks = if by_blocks { source.num_blocks() } else { 0 };
    let mut pruning = (by_blocks && config.top_k.is_some()).then(|| Pruning {
        bounds: (0..n_blocks).map(|i| source.bound(i)).collect(),
        pruners: queries
            .iter()
            .map(|q| QueryPruner::new(q.residues(), &config.params.matrix))
            .collect(),
        sets: (0..queries.len())
            .map(|_| TopKSet::new(config.params.max_reported))
            .collect(),
    });
    let mut order: Vec<usize> = (0..n_blocks).collect();
    if let Some(p) = &pruning {
        // Visit order: blocks that can never be pruned first (they are
        // scanned whatever the watermark says and, having no admission
        // pass, never move it — their place decides nothing), then bounded
        // blocks in descending best-possible-score order so strong
        // subjects are admitted early and the threshold drops fast. Purely
        // a heuristic: the output is order-independent because a skip
        // decision is only ever taken when provably harmless. `resident`
        // is deliberately not part of the key: visiting cached blocks
        // first raised the cache hit rate from 0 to 0.30 but scanned
        // blocks bound order skips (EXPERIMENTS.md "PR 22").
        let best_bound = |i: usize| {
            p.pruners
                .iter()
                .map(|q| q.bound_raw(&p.bounds[i]))
                .max()
                .unwrap_or(0)
        };
        order.sort_by_cached_key(|&i| {
            (
                p.prunable_bound(i).is_some(),
                std::cmp::Reverse(best_bound(i)),
                i,
            )
        });
    } else {
        // Stable partition: resident blocks first, ascending within both
        // groups (see the function docs). Each block is asked once.
        order.sort_by_cached_key(|&i| !source.resident(i));
    }
    // One pass = one parallel-for over the queries, against one block or
    // (query-indexed, no blocks) against the whole database.
    let passes: Vec<Option<usize>> = if by_blocks {
        order.into_iter().map(Some).collect()
    } else {
        vec![None]
    };
    let mut all: Vec<Pending> = (0..queries.len()).map(|_| Pending::default()).collect();
    // One (scratch, span recorder) per worker, owned here for the whole
    // batch and lent to every pass's parallel-for: last-hit arrays and hit
    // buffers are allocated and page-faulted once, not once per block.
    let mut workers: Vec<(Scratch, Recorder)> = worker_recorders(session, config.threads)
        .take(queries.len())
        .map(|rec| (Scratch::new(), rec))
        .collect();
    for block_id in passes {
        // Per-query skip decision, for whole-subject blocks under pruning.
        // Strict `>`: a subject *tying* the k-th E-value can still
        // displace it on the subject-id tie-break.
        let prunable: Option<Vec<bool>> = pruning.as_ref().and_then(|p| {
            let bound = p.prunable_bound(block_id?)?;
            Some(
                (0..queries.len())
                    .map(|qi| {
                        let best_ev = finishers[qi].evalue(p.pruners[qi].bound_raw(bound));
                        let threshold = cutoff
                            .min(p.sets[qi].kth())
                            .min(shared.map_or(f64::INFINITY, |s| s.load(qi)));
                        best_ev > threshold
                    })
                    .collect(),
            )
        });
        if pruning.is_some() {
            if prunable
                .as_ref()
                .is_some_and(|q| q.iter().all(|&skip| skip))
            {
                topk.blocks_skipped += 1;
                continue;
            }
            topk.blocks_scanned += 1;
        }
        let fetched = match block_id {
            Some(i) => Some(source.fetch(i)?),
            None => None,
        };
        let block: Option<&IndexBlock> = fetched.as_ref().map(Borrow::borrow);
        let span_block = block_id.map_or(NO_BLOCK, |i| i as u32);
        let per_query = parallel_map_dynamic_with_state(
            &mut workers,
            queries.len(),
            1,
            |(scratch, rec), qi| {
                let mut found = Pending::default();
                if prunable.as_ref().is_some_and(|p| p[qi]) {
                    // This block cannot affect query qi's top-k; skip its
                    // seeding entirely.
                    return found;
                }
                let query = queries[qi].residues();
                scratch.seeds.clear();
                let mut nt = NullTracer;
                let mut ctx = null_ctx(&mut nt);
                rec.set_ctx(0, qi as u32, span_block);
                match block {
                    None => query_indexed::search_db(
                        query,
                        &QueryIndex::build(query, neighbors),
                        db,
                        &config.params,
                        scratch,
                        &mut found.counts,
                        &mut ctx,
                        rec,
                        &[],
                    ),
                    Some(block) if config.kind == EngineKind::DbInterleaved => {
                        db_interleaved::search_block(
                            query,
                            block,
                            neighbors,
                            &config.params,
                            scratch,
                            &mut found.counts,
                            &mut ctx,
                            rec,
                        )
                    }
                    Some(block) => mublastp::search_block(
                        query,
                        block,
                        neighbors,
                        &config.params,
                        scratch,
                        &mut found.counts,
                        &mut ctx,
                        rec,
                        config.sort,
                        config.prefilter,
                    ),
                }
                let seeds = std::mem::take(&mut scratch.seeds);
                // Admission runs only for whole-subject blocks: there, a
                // subject's entire seed set comes from this one block, so
                // its candidates are final — the admission score equals
                // the score the finish stage ranks the subject by (no
                // slack in the watermark), and the finish pass reuses
                // them rather than extend the subject again.
                if prunable.is_some() && !seeds.is_empty() {
                    let span = rec.start();
                    (found.extended, found.counts.gapped) = finishers[qi].candidates(db, seeds);
                    rec.record(Stage::Gapped, span);
                } else {
                    found.seeds = seeds;
                }
                found
            },
        );
        for (qi, found) in per_query.into_iter().enumerate() {
            if let Some(p) = &mut pruning {
                for (_, cands) in &found.extended {
                    let ev = finishers[qi].evalue(cands[0].score);
                    // Only subjects the cutoff would report may tighten
                    // the threshold.
                    if ev <= cutoff {
                        p.sets[qi].admit(ev);
                    }
                }
            }
            all[qi].seeds.extend(found.seeds);
            all[qi].extended.extend(found.extended);
            all[qi].counts.add(&found.counts);
        }
    }
    for (_, rec) in workers {
        trace.absorb(rec);
    }
    let per_query = finish_all(db, &finishers, all, config, session, &mut trace, finish);
    trace.normalize();
    let kth_evalues = pruning.map_or_else(Vec::new, |p| p.sets.iter().map(TopKSet::kth).collect());
    Ok(BlocksOutcome {
        per_query,
        trace,
        topk,
        kth_evalues,
    })
}

/// Top-k state of one [`search_batch_blocks`] call; exists only while
/// pruning.
struct Pruning {
    bounds: Vec<BlockBound>,
    pruners: Vec<QueryPruner>,
    sets: Vec<TopKSet>,
}

impl Pruning {
    /// Block `i`'s bound if the block may be pruned at all: only
    /// whole-subject blocks qualify (a fragment's subject also has seeds
    /// in other blocks, so no single block bounds its score).
    fn prunable_bound(&self, i: usize) -> Option<&BlockBound> {
        let bound = &self.bounds[i];
        bound.whole_only.then_some(bound)
    }
}

/// One span recorder per worker of a `threads`-wide parallel-for, stamped
/// with its worker index.
pub(crate) fn worker_recorders(
    session: &TraceSession,
    threads: usize,
) -> impl Iterator<Item = Recorder> + '_ {
    (0..threads).map(|w| {
        let mut rec = session.recorder();
        rec.set_worker(w as u32);
        rec
    })
}

/// Second parallel pass: per query, the rank half and then `finish` on
/// what it kept. Records one `Finish` span per query (with the `Gapped`
/// sub-span inside it) and absorbs the worker recorders into `trace`.
fn finish_all<T: Send>(
    db: &SequenceDb,
    finishers: &[Finisher<'_>],
    per_query: Vec<Pending>,
    config: &SearchConfig,
    session: &TraceSession,
    trace: &mut Trace,
    finish: impl Fn(&Finisher<'_>, Vec<SubjectCandidates>) -> T + Sync,
) -> Vec<(T, StageCounts)> {
    // Move each query's pending work into a slot the workers can take from.
    let slots: Vec<obsv::Lock<Pending>> = per_query.into_iter().map(obsv::Lock::new).collect();
    let mut recorders: Vec<Recorder> = worker_recorders(session, config.threads).collect();
    let results = parallel_map_dynamic_with_state(
        &mut recorders,
        finishers.len(),
        1,
        |rec, qi| {
            // Each slot is taken exactly once.
            let Pending {
                seeds,
                extended,
                mut counts,
            } = std::mem::take(&mut *slots[qi].lock());
            rec.set_ctx(0, qi as u32, NO_BLOCK);
            let span = rec.start();
            let (ranked, gapped) = finishers[qi].rank(db, seeds, extended, rec);
            let finished = finish(&finishers[qi], ranked);
            rec.record(Stage::Finish, span);
            counts.gapped += gapped;
            (finished, counts)
        },
    );
    for rec in recorders {
        trace.absorb(rec);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbindex::IndexConfig;
    use scoring::BLOSUM62;
    use std::sync::OnceLock;

    fn neighbors() -> &'static NeighborTable {
        static T: OnceLock<NeighborTable> = OnceLock::new();
        T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
    }

    fn small_world() -> (SequenceDb, DbIndex, Vec<Sequence>) {
        let db = datagen_like_db();
        let index = DbIndex::build(
            &db,
            &IndexConfig {
                block_bytes: 2048,
                offset_bits: 15,
                frag_overlap: 16,
            },
        );
        let queries: Vec<Sequence> = (0..4)
            .map(|i| {
                let s = db.get(i * 3);
                Sequence::from_encoded(format!("q{i}"), s.residues().to_vec())
            })
            .collect();
        (db, index, queries)
    }

    /// A deterministic toy database with planted repeats (no RNG deps).
    fn datagen_like_db() -> SequenceDb {
        let motifs = ["WCHWMYFWCHW", "MKVLAARND", "HILKMFPSTW", "CQEGHILKMF"];
        (0..24)
            .map(|i| {
                let m = motifs[i % motifs.len()];
                let pad_a = "AG".repeat(3 + i % 5);
                let pad_b = "VL".repeat(2 + i % 7);
                Sequence::from_str_checked(format!("s{i}"), &format!("{pad_a}{m}{pad_b}{m}"))
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn all_three_engines_report_identical_results() {
        let (db, index, queries) = small_world();
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e9; // tiny world → keep everything
        let run = |kind| {
            let config = SearchConfig::new(kind).with_params(params.clone());
            search_batch(&db, Some(&index), neighbors(), &queries, &config)
        };
        let a = run(EngineKind::QueryIndexed);
        let b = run(EngineKind::DbInterleaved);
        let c = run(EngineKind::MuBlastp);
        assert!(
            !a.iter().all(|r| r.alignments.is_empty()),
            "want non-trivial results"
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.alignments, y.alignments, "NCBI vs NCBI-db");
        }
        for (x, y) in b.iter().zip(&c) {
            assert_eq!(x.alignments, y.alignments, "NCBI-db vs muBLASTP");
        }
        // Database-indexed engines also agree on every stage counter.
        for (x, y) in b.iter().zip(&c) {
            assert_eq!(x.counts, y.counts);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (db, index, queries) = small_world();
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e9;
        let run = |threads| {
            let config = SearchConfig::new(EngineKind::MuBlastp)
                .with_params(params.clone())
                .with_threads(threads);
            search_batch(&db, Some(&index), neighbors(), &queries, &config)
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four);
    }

    #[test]
    fn one_scratch_per_worker_serves_every_block() {
        let (db, _, queries) = small_world();
        let index = DbIndex::build(
            &db,
            &IndexConfig {
                block_bytes: 128,
                offset_bits: 15,
                frag_overlap: 16,
            },
        );
        assert!(index.blocks().len() >= 3, "need several passes");
        let built = || crate::scratch::CONSTRUCTED.with(|n| n.get());
        // 9: more threads than queries.
        for threads in [2, 1, 9] {
            let before = built();
            let config = SearchConfig::new(EngineKind::MuBlastp).with_threads(threads);
            search_batch(&db, Some(&index), neighbors(), &queries, &config);
            assert_eq!(
                built() - before,
                threads.min(queries.len()),
                "{threads} threads"
            );
        }
    }

    /// A resident index that claims an arbitrary set of blocks is cached
    /// and logs the order blocks are fetched in.
    struct ClaimsResident<'a> {
        index: &'a DbIndex,
        resident: &'a dyn Fn(usize) -> bool,
        fetched: obsv::Lock<Vec<usize>>,
    }

    impl BlockSource for ClaimsResident<'_> {
        type Error = Infallible;

        fn num_blocks(&self) -> usize {
            self.index.num_blocks()
        }

        fn bound(&self, i: usize) -> BlockBound {
            self.index.bound(i)
        }

        fn resident(&self, i: usize) -> bool {
            (self.resident)(i)
        }

        fn fetch(&self, i: usize) -> Result<impl Borrow<IndexBlock>, Infallible> {
            self.fetched.lock().push(i);
            self.index.fetch(i)
        }
    }

    /// The exhaustive scan is a stable partition on `resident`: a source
    /// that answers the same for every block — all resident indexes, via
    /// the default — is scanned in ascending order, a mixed one resident
    /// blocks first; the results never notice.
    #[test]
    fn exhaustive_scan_visits_resident_blocks_first_else_ascending() {
        let (db, _, queries) = small_world();
        let index = DbIndex::build(
            &db,
            &IndexConfig {
                block_bytes: 128,
                offset_bits: 15,
                frag_overlap: 16,
            },
        );
        let n = index.num_blocks();
        assert!(n >= 6, "need several blocks, got {n}");
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e9;
        let config = SearchConfig::new(EngineKind::MuBlastp)
            .with_params(params)
            .with_threads(2);
        let reference = search_batch(&db, Some(&index), neighbors(), &queries, &config);
        let ascending: Vec<usize> = (0..n).collect();
        let mixed: Vec<usize> = (0..n)
            .filter(|i| i % 3 == 2)
            .chain((0..n).filter(|i| i % 3 != 2))
            .collect();
        type Case<'a> = (&'a dyn Fn(usize) -> bool, &'a Vec<usize>);
        let cases: [Case<'_>; 3] = [
            (&|_| false, &ascending),
            (&|_| true, &ascending),
            (&|i| i % 3 == 2, &mixed),
        ];
        for (resident, want) in cases {
            let source = ClaimsResident {
                index: &index,
                resident,
                fetched: obsv::Lock::new(Vec::new()),
            };
            let session = TraceSession::disabled();
            let Ok(out) =
                search_batch_blocks(&db, &source, neighbors(), &queries, &config, None, &session);
            assert_eq!(&*source.fetched.lock(), want);
            assert_eq!(out.results, reference);
        }
    }

    #[test]
    fn queries_find_their_own_source_sequence() {
        let (db, index, queries) = small_world();
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e9;
        let config = SearchConfig::new(EngineKind::MuBlastp).with_params(params);
        let results = search_batch(&db, Some(&index), neighbors(), &queries, &config);
        for (i, r) in results.iter().enumerate() {
            let expected_subject = (i * 3) as u32;
            assert!(
                r.alignments.iter().any(|a| a.subject == expected_subject),
                "query {i} should at least find its source sequence: {:?}",
                r.alignments
            );
        }
    }

    #[test]
    #[should_panic(expected = "need a DbIndex")]
    fn db_engine_without_index_panics() {
        let (db, _, queries) = small_world();
        let config = SearchConfig::new(EngineKind::MuBlastp);
        search_batch(&db, None, neighbors(), &queries, &config);
    }

    #[test]
    fn empty_batch() {
        let (db, index, _) = small_world();
        let config = SearchConfig::new(EngineKind::MuBlastp);
        let out = search_batch(&db, Some(&index), neighbors(), &[], &config);
        assert!(out.is_empty());
    }

    #[test]
    fn tracing_on_changes_no_results_and_covers_every_stage() {
        let (db, index, queries) = small_world();
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e9;
        for kind in [
            EngineKind::QueryIndexed,
            EngineKind::DbInterleaved,
            EngineKind::MuBlastp,
        ] {
            let config = SearchConfig::new(kind).with_params(params.clone()).with_threads(3);
            let off = search_batch(&db, Some(&index), neighbors(), &queries, &config);
            let session = obsv::TraceSession::new(obsv::ObsvConfig::on());
            let (on, trace) =
                search_batch_traced(&db, Some(&index), neighbors(), &queries, &config, &session);
            assert_eq!(off, on, "tracing must not perturb results ({kind:?})");
            assert_eq!(trace.dropped, 0);
            let stages: Vec<Stage> = trace.stage_totals().iter().map(|t| t.stage).collect();
            assert!(stages.contains(&Stage::Seed), "{kind:?}: {stages:?}");
            assert!(stages.contains(&Stage::Finish), "{kind:?}: {stages:?}");
            assert!(stages.contains(&Stage::Gapped), "{kind:?}: {stages:?}");
            if kind == EngineKind::MuBlastp {
                assert!(stages.contains(&Stage::Reorder), "{stages:?}");
                assert!(stages.contains(&Stage::Ungapped), "{stages:?}");
                // One Seed span per (query, block).
                let seed_count = trace
                    .spans
                    .iter()
                    .filter(|s| s.stage == Stage::Seed)
                    .count();
                assert_eq!(seed_count, queries.len() * index.blocks().len());
            }
        }
    }

    /// Pruned top-k output is bit-identical to the exhaustive oracle
    /// truncated at k subjects, for both database-indexed engines (the
    /// full sweep is the oracle matrix's top-k cells in `tests/oracle/`;
    /// this is the smoke version that keeps the invariant close to the
    /// implementation).
    #[test]
    fn topk_matches_exhaustive_truncation() {
        let (db, index, queries) = small_world();
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e9;
        for kind in [EngineKind::DbInterleaved, EngineKind::MuBlastp] {
            for k in [1u32, 2, 10, 100] {
                let mut oracle_cfg = SearchConfig::new(kind).with_params(params.clone());
                oracle_cfg.params.max_reported = oracle_cfg.params.max_reported.min(k as usize);
                let oracle = search_batch(&db, Some(&index), neighbors(), &queries, &oracle_cfg);
                let cfg = SearchConfig::new(kind).with_params(params.clone()).with_top_k(k);
                let pruned = search_batch(&db, Some(&index), neighbors(), &queries, &cfg);
                for (a, b) in oracle.iter().zip(&pruned) {
                    assert_eq!(a.alignments, b.alignments, "{kind:?} k={k}");
                }
            }
        }
    }

    /// With many small blocks and k=1, the bound check must actually
    /// skip blocks — pruning is observable, not just correct.
    #[test]
    fn topk_skips_blocks_on_fragmented_indexes() {
        let db = datagen_like_db();
        let index = DbIndex::build(
            &db,
            &IndexConfig { block_bytes: 128, offset_bits: 15, frag_overlap: 16 },
        );
        let queries: Vec<Sequence> = vec![Sequence::from_encoded(
            "q0",
            db.get(0).residues().to_vec(),
        )];
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e9;
        let cfg = SearchConfig::new(EngineKind::MuBlastp)
            .with_params(params.clone())
            .with_top_k(1);
        let session = TraceSession::new(obsv::ObsvConfig::on());
        let Ok(out) = search_batch_blocks(&db, &index, neighbors(), &queries, &cfg, None, &session);
        assert!(index.blocks().len() > 3, "want a multi-block index");
        assert_eq!(
            out.topk.blocks_scanned + out.topk.blocks_skipped,
            index.blocks().len() as u64
        );
        assert!(
            out.topk.blocks_skipped > 0,
            "k=1 over {} blocks should skip some: {:?}",
            index.blocks().len(),
            out.topk
        );
        // A pruned search is traced like any other: one Seed span per
        // scanned block (one query), none for a skipped one.
        let seeded: Vec<u32> = out
            .trace
            .spans
            .iter()
            .filter(|s| s.stage == Stage::Seed)
            .map(|s| s.block)
            .collect();
        assert_eq!(seeded.len() as u64, out.topk.blocks_scanned);
        assert!(seeded.iter().all(|&b| (b as usize) < index.blocks().len()));
        assert!(out.trace.spans.iter().any(|s| s.stage == Stage::Finish));
        // And still match the oracle.
        let mut oracle_cfg = SearchConfig::new(EngineKind::MuBlastp).with_params(params);
        oracle_cfg.params.max_reported = 1;
        let oracle = search_batch(&db, Some(&index), neighbors(), &queries, &oracle_cfg);
        for (a, b) in oracle.iter().zip(&out.results) {
            assert_eq!(a.alignments, b.alignments);
        }
    }

    /// Under top-k every candidate subject is gapped-extended exactly
    /// once: the admission pass's candidates are what the finish pass
    /// ranks, on one index and across shards, while subjects split over
    /// fragment blocks — which no single block can admit — are still
    /// extended by the finish pass.
    #[test]
    fn topk_extends_each_candidate_subject_once() {
        // Short subjects (whole) plus three long ones that `offset_bits`
        // splits into fragments.
        let mut seqs: Vec<Sequence> = datagen_like_db().iter().map(|(_, s)| s.clone()).collect();
        for (i, unit) in [
            "WCHWMYFWCHWAGAGVL",
            "MKVLAARNDHILKMFPSTW",
            "CQEGHILKMFVLVLWCHW",
        ]
        .iter()
        .enumerate()
        {
            seqs.push(Sequence::from_str_checked(format!("long{i}"), &unit.repeat(9)).unwrap());
        }
        let db: SequenceDb = seqs.into_iter().collect();
        let index_config = IndexConfig {
            block_bytes: 256,
            offset_bits: 6,
            frag_overlap: 16,
        };
        let index = DbIndex::build(&db, &index_config);
        let whole: Vec<bool> = (0..index.num_blocks())
            .map(|i| index.bound(i).whole_only)
            .collect();
        assert!(whole.contains(&true) && whole.contains(&false), "{whole:?}");
        let queries: Vec<Sequence> = [0, 7, 24, 26]
            .iter()
            .map(|&i| Sequence::from_encoded(format!("q{i}"), db.get(i).residues().to_vec()))
            .collect();
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e9;
        let extended = || crate::finish::EXTENDED.with(|n| n.get());
        let gapped = |results: &[QueryResult]| results.iter().map(|r| r.counts.gapped).sum::<u64>();
        // One thread: every extension runs on this thread, where the
        // counter is.
        let base = SearchConfig::new(EngineKind::MuBlastp).with_params(params);
        for k in [1u32, 3, 100] {
            let mut oracle_cfg = base.clone();
            oracle_cfg.params.max_reported = k as usize;
            let before = extended();
            let oracle = search_batch(&db, Some(&index), neighbors(), &queries, &oracle_cfg);
            let exhaustive = extended() - before;
            assert_eq!(exhaustive, gapped(&oracle));
            assert!(exhaustive > 0);

            let cfg = base.clone().with_top_k(k);
            let session = TraceSession::new(obsv::ObsvConfig::on());
            let before = extended();
            let Ok(out) =
                search_batch_blocks(&db, &index, neighbors(), &queries, &cfg, None, &session);
            let pruned = extended() - before;
            assert_eq!(pruned, gapped(&out.results), "k={k}");
            crate::results_identical(&oracle, &out.results).unwrap();
            // Admission extends inside the block loop, and only where a
            // block holds whole subjects; the rest is the finish pass's.
            let gapped_spans = |in_block: bool| {
                out.trace
                    .spans
                    .iter()
                    .filter(move |s| s.stage == Stage::Gapped && (s.block != NO_BLOCK) == in_block)
            };
            assert!(gapped_spans(true).all(|s| whole[s.block as usize]), "k={k}");
            assert!(gapped_spans(true).count() > 0, "k={k}");
            assert!(gapped_spans(false).count() > 0, "k={k}");

            let sharded = dbindex::ShardedIndex::build(&db, &index_config, 3);
            let before = extended();
            let merged = crate::search_batch_sharded(&sharded, neighbors(), &queries, &cfg);
            let across_shards = extended() - before;
            assert_eq!(across_shards, gapped(&merged), "k={k}");
            crate::results_identical(&oracle, &merged).unwrap();

            if k == 100 {
                // Nothing can be skipped, so the pruned searches extend
                // exactly what the exhaustive one does.
                assert_eq!(out.topk.blocks_skipped, 0);
                assert_eq!(pruned, exhaustive);
                assert_eq!(across_shards, exhaustive);
            }
        }
    }

    #[test]
    fn disabled_session_records_nothing() {
        let (db, index, queries) = small_world();
        let config = SearchConfig::new(EngineKind::MuBlastp);
        let (_, trace) = search_batch_traced(
            &db,
            Some(&index),
            neighbors(),
            &queries,
            &config,
            &obsv::TraceSession::disabled(),
        );
        assert!(trace.is_empty());
        assert_eq!(trace.dropped, 0);
    }
}
