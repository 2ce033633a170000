//! Sharded search: K independent per-shard engines, one statistics-correct
//! merge (paper Sec. V).
//!
//! The paper scales past one index by partitioning the database, searching
//! the partitions independently, and merging with E-values computed
//! against the *whole* database. This driver is the in-process version of
//! that design:
//!
//! * shards fan out over the same dynamic scheduler the block loop uses
//!   (one task per shard, largest shard dispatched first so the straggler
//!   tail shrinks — LPT);
//! * each shard task runs the per-shard pipeline *up to the ranking of its
//!   subjects* single-threaded with its own scratch (parallelism comes
//!   from shards; pick `K ≥ threads`), with
//!   [`SearchConfig::effective_db`] pinned to the **global** database size
//!   so per-shard E-values are already in global units;
//! * the merge ranks the shards' candidate subjects by the finish stage's
//!   own key — best *preliminary* gapped score, then subject id, in global
//!   ids — and truncates at the *subject* level;
//! * only the subjects that survive the merge are traced back, each
//!   against its owning shard's sequences, one task per subject on the
//!   same dynamic scheduler (so a one-query batch still uses every
//!   thread), and ordered with the canonical total order — so the output
//!   is byte-identical to an unsharded search of the same database, which
//!   the oracle matrix's shard cells (`tests/oracle/`) lock in for K up to
//!   one-sequence-per-shard.
//!
//! Why identity holds: a subject's sequences never span shards, so its
//! candidates — and the key it is ranked by — are the same whichever
//! index found its seeds; shard-local ids ascend with global ids, so each
//! shard's top `max_reported` subjects under that key are a superset of
//! the global top subjects that live there; the merge applies the *same*
//! key to the union, which therefore keeps exactly the subjects an
//! unsharded finish keeps; and the traceback of a kept subject reads
//! nothing but the query, the subject and its candidates. (Cutting the
//! merged list on *traceback* scores, as [`merge_shard_alignments`] does
//! for callers that only have finished alignments, is not the same rule:
//! a subject whose final score overtakes a neighbour's would be kept where
//! the unsharded search drops it.)

use crate::driver::{capped, search_blocks_with, seg_masked, BlockSource, SearchConfig};
use crate::finish::{rank_key, Finisher, GappedCandidate};
use crate::results::{compare_alignments, Alignment, QueryResult, StageCounts};
use crate::topk::{TopKShared, TopKStats};
use bioseq::{Sequence, SequenceDb, SequenceId};
use dbindex::{DbIndex, ShardedIndex};
use obsv::{Stage, StageObs, Trace, TraceSession, NO_BLOCK, NO_QUERY};
use parallel::parallel_map_dynamic_with_state;
use scoring::NeighborTable;
use std::time::{Duration, Instant};

/// Fault-injection site consulted once per shard task, keyed by shard id
/// ([`faultfn::Faults::fire_at`], so which shard fails is independent of
/// scheduler interleaving). A firing shard contributes no alignments and
/// is reported in [`ShardedOutput::failed`].
pub const FAULT_SHARD: &str = "engine.shard";

/// Why a shard contributed nothing to the merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardFailCause {
    /// The shard's task failed (injected via [`FAULT_SHARD`]; in a real
    /// deployment: a crashed worker, a poisoned partition).
    Injected,
    /// [`SearchConfig::deadline`] had already passed when the shard task
    /// started, so the search was cancelled before doing the work.
    DeadlineExceeded,
    /// The shard's storage backend failed — an out-of-core shard hit an
    /// I/O error, a truncated record, or a CRC mismatch while fetching
    /// blocks. Resident shards never report this.
    Storage,
}

impl ShardFailCause {
    /// The stable label value this cause exports under — the `cause`
    /// label of `engine.shard.failures_by_cause` and the event log's
    /// `cause` field. Must stay in sync with `obsv::metrics::CAUSES`
    /// (pinned by a test in `serve`).
    pub fn name(self) -> &'static str {
        match self {
            ShardFailCause::Injected => "injected",
            ShardFailCause::DeadlineExceeded => "deadline",
            ShardFailCause::Storage => "storage",
        }
    }
}

/// A source of independently searchable database partitions: the storage
/// abstraction behind [`search_batch_backend_traced`]. The resident
/// [`ShardedIndex`] and the out-of-core streaming store implement this,
/// so one driver owns dispatch order, deadlines, fault injection, span
/// recording, the per-shard search and the statistics-correct merge for
/// both.
///
/// Contract: shards partition one global database whose sequences never
/// span shards.
pub trait ShardBackend: Sync {
    /// Where a shard's index blocks come from.
    type Source: BlockSource + ?Sized;

    /// Number of partitions.
    fn num_shards(&self) -> usize;

    /// `(total residues, sequence count)` of the whole database — the
    /// search space E-value statistics must use.
    fn global_db(&self) -> (usize, usize);

    /// Shard `s`: its sub-database, the global id of each local sequence
    /// (`ids[local] == global`), and its block source.
    fn shard(&self, s: usize) -> (&SequenceDb, &[SequenceId], &Self::Source);

    /// Residues in shard `s` (drives LPT dispatch and coverage
    /// accounting under degradation).
    fn shard_residues(&self, s: usize) -> usize {
        self.shard(s).0.total_residues()
    }
}

impl ShardBackend for ShardedIndex {
    type Source = DbIndex;

    fn num_shards(&self) -> usize {
        ShardedIndex::num_shards(self)
    }

    fn global_db(&self) -> (usize, usize) {
        (self.global_residues(), self.global_seqs())
    }

    fn shard(&self, s: usize) -> (&SequenceDb, &[SequenceId], &DbIndex) {
        let shard = &self.shards()[s];
        (&shard.db, &shard.ids, &shard.index)
    }
}

/// Record of one shard dropped from a sharded search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardFailure {
    /// Shard id (index into [`ShardedIndex::shards`]).
    pub shard: usize,
    /// Why the shard dropped out.
    pub cause: ShardFailCause,
}

/// Wall-clock accounting for one shard of a sharded batch search.
#[derive(Clone, Copy, Debug)]
pub struct ShardTiming {
    /// Shard id (index into [`ShardedIndex::shards`]).
    pub shard: usize,
    /// Time the shard task waited for a scheduler worker (queue depth made
    /// visible as wait: with `K > threads` later shards queue behind
    /// earlier ones).
    pub queued: Duration,
    /// Time the shard's search ran.
    pub search: Duration,
}

/// Results of a traced sharded search.
#[derive(Debug)]
pub struct ShardedOutput {
    /// Merged per-query results. Byte-identical to an unsharded search
    /// when `failed` is empty; with failures, byte-identical to merging
    /// only the surviving shards (the degradation contract the chaos
    /// suite pins).
    pub results: Vec<QueryResult>,
    /// Merged spans: one `Shard` span per shard plus the per-shard engine
    /// spans (whose `block` fields are *shard-local* block ids). Failed
    /// shards still record their `Shard` span, so degradation is visible
    /// in traces.
    pub trace: Trace,
    /// Per-shard wall-clock timings, indexed by shard id.
    pub timings: Vec<ShardTiming>,
    /// Shards that contributed nothing, sorted by shard id. Empty in the
    /// fault-free case.
    pub failed: Vec<ShardFailure>,
    /// Residues actually searched: the global total minus failed shards'
    /// residues. Equals `total_residues` when `failed` is empty.
    pub covered_residues: usize,
    /// Residues in the whole sharded database.
    pub total_residues: usize,
    /// Top-k pruning counters summed over surviving shards. All zero for
    /// exhaustive searches.
    pub topk: TopKStats,
}

/// Search a query batch against a sharded database index.
///
/// `config.threads` is the number of concurrent shard tasks; each shard
/// searches single-threaded. E-value statistics use the sharded index's
/// global database size unless `config.effective_db` overrides it.
pub fn search_batch_sharded(
    sharded: &ShardedIndex,
    neighbors: &NeighborTable,
    queries: &[Sequence],
    config: &SearchConfig,
) -> Vec<QueryResult> {
    search_batch_sharded_traced(sharded, neighbors, queries, config, &TraceSession::disabled())
        .results
}

/// [`search_batch_sharded`] plus per-shard spans and timings. Each shard
/// task records one [`Stage::Shard`] span whose `block` field carries the
/// shard id; the per-shard engine spans ride along with shard-local block
/// ids.
pub fn search_batch_sharded_traced(
    sharded: &ShardedIndex,
    neighbors: &NeighborTable,
    queries: &[Sequence],
    config: &SearchConfig,
    session: &TraceSession,
) -> ShardedOutput {
    search_batch_backend_traced(sharded, neighbors, queries, config, session)
}

/// Sharded search over any [`ShardBackend`] — the generic driver behind
/// [`search_batch_sharded_traced`]. The driver owns everything that must
/// not differ between backends: LPT dispatch, deadline cancellation,
/// fault injection, `Shard` span recording, the per-shard block loop and
/// ranking, degradation accounting, the statistics-correct merge and the
/// traceback of what it keeps. Backends only say where a shard's blocks
/// come from, which is why a disk-streaming shard produces bit-identical
/// output to the resident one; a block source that fails degrades its
/// shard with [`ShardFailCause::Storage`].
pub fn search_batch_backend_traced<B: ShardBackend + ?Sized>(
    backend: &B,
    neighbors: &NeighborTable,
    queries: &[Sequence],
    config: &SearchConfig,
    session: &TraceSession,
) -> ShardedOutput {
    let k = backend.num_shards();
    let global = config.effective_db.unwrap_or_else(|| backend.global_db());
    // What every shard task and the traceback pass search with.
    let mut inner = capped(config).into_owned();
    inner.threads = 1;
    inner.effective_db = Some(global);
    let queries = seg_masked(queries, &inner.params);
    // Cross-shard pruning thresholds, one watermark per query (idle in an
    // exhaustive search). A shard's k-th-best E-values are published only
    // after its task succeeds, so a failed shard never influences the
    // survivors' pruning decisions (the degraded-mode contract the chaos
    // suite pins).
    let shared = TopKShared::new(queries.len());
    // LPT dispatch: largest shard first.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&s| std::cmp::Reverse(backend.shard_residues(s)));
    let epoch = Instant::now();
    let mut recorders: Vec<_> =
        crate::driver::worker_recorders(session, config.threads.max(1)).collect();
    let per_shard = parallel_map_dynamic_with_state(
        &mut recorders,
        k,
        1,
        |rec, slot| {
            let s = order[slot];
            let started = Instant::now();
            // Early cancellation: a shard task that starts past the
            // deadline is dropped without searching, so an expired
            // request stops burning workers mid-fanout.
            let outcome = if config.deadline.is_some_and(|d| started >= d) {
                Err(ShardFailCause::DeadlineExceeded)
            } else if config.faults.fire_at(FAULT_SHARD, s as u64) {
                Err(ShardFailCause::Injected)
            } else {
                let (db, _, source) = backend.shard(s);
                // The shard ranks its subjects; what is traced back is
                // decided by the merge.
                search_blocks_with(
                    db,
                    source,
                    neighbors,
                    &queries,
                    &inner,
                    Some(&shared),
                    session,
                    |_, ranked| ranked,
                )
                .map_err(|_| ShardFailCause::Storage)
                .inspect(|out| {
                    for (qi, &ev) in out.kth_evalues.iter().enumerate() {
                        shared.publish(qi, ev);
                    }
                })
            };
            let done = Instant::now();
            rec.set_ctx(0, NO_QUERY, s as u32);
            rec.record_between(Stage::Shard, started, done);
            let timing = ShardTiming { shard: s, queued: started - epoch, search: done - started };
            (s, outcome, timing)
        },
    );

    let mut trace = Trace::new();
    let mut counts = vec![StageCounts::default(); queries.len()];
    let mut candidates: Vec<Vec<ShardCandidate>> = vec![Vec::new(); queries.len()];
    let mut timings: Vec<ShardTiming> =
        vec![ShardTiming { shard: 0, queued: Duration::ZERO, search: Duration::ZERO }; k];
    let total_residues = backend.global_db().0;
    let mut covered_residues = total_residues;
    let mut failed: Vec<ShardFailure> = Vec::new();
    let mut topk = TopKStats::default();
    for (s, outcome, timing) in per_shard {
        timings[s] = timing;
        match outcome {
            Ok(out) => {
                trace.merge(out.trace);
                topk.add(&out.topk);
                let ids = backend.shard(s).1;
                for (qi, (ranked, shard_counts)) in out.per_query.into_iter().enumerate() {
                    counts[qi].add(&shard_counts);
                    candidates[qi].extend(ranked.into_iter().map(|(local, cands)| {
                        ShardCandidate {
                            subject: ids[local as usize],
                            shard: s,
                            local,
                            cands,
                        }
                    }));
                }
            }
            Err(cause) => {
                failed.push(ShardFailure { shard: s, cause });
                covered_residues -= backend.shard_residues(s);
            }
        }
    }
    failed.sort_by_key(|f| f.shard);
    // The merge itself is unchanged under degradation: every surviving
    // candidate's E-value was already checked against the *global* search
    // space inside its shard, so dropping a shard removes subjects but
    // never re-scores the rest — which is why surviving-shard output
    // stays bit-equal to the fault-free run.
    let kept: Vec<(usize, ShardCandidate)> = candidates
        .into_iter()
        .enumerate()
        .flat_map(|(qi, list)| {
            merge_shard_candidates(list, inner.params.max_reported)
                .into_iter()
                .map(move |c| (qi, c))
        })
        .collect();
    // Trace back the survivors, one task per (query, subject).
    let finishers: Vec<Finisher<'_>> = queries
        .iter()
        .map(|q| Finisher::new(q.residues(), &inner.params, global.0, global.1))
        .collect();
    let traced = parallel_map_dynamic_with_state(&mut recorders, kept.len(), 1, |rec, t| {
        let (qi, c) = &kept[t];
        rec.set_ctx(0, *qi as u32, NO_BLOCK);
        let span = rec.start();
        let mut alignments = finishers[*qi].trace_back(backend.shard(c.shard).0, c.local, &c.cands);
        // Report in global subject ids.
        for a in &mut alignments {
            a.subject = c.subject;
        }
        rec.record(Stage::Finish, span);
        alignments
    });
    for rec in recorders {
        trace.absorb(rec);
    }
    let mut merged: Vec<QueryResult> = counts
        .into_iter()
        .enumerate()
        .map(|(query_index, counts)| QueryResult {
            query_index,
            alignments: Vec::new(),
            counts,
        })
        .collect();
    for ((qi, _), alignments) in kept.iter().zip(traced) {
        merged[*qi].alignments.extend(alignments);
    }
    for qr in &mut merged {
        qr.alignments.sort_by(compare_alignments);
        qr.counts.reported = qr.alignments.len() as u64;
    }
    trace.normalize();
    ShardedOutput { results: merged, trace, timings, failed, covered_residues, total_residues, topk }
}

/// A subject one shard's ranking kept for one query.
#[derive(Clone, Debug)]
struct ShardCandidate {
    /// Global subject id.
    subject: SequenceId,
    /// Owning shard, and the subject's id there.
    shard: usize,
    local: SequenceId,
    /// Its preliminary alignments, strongest first.
    cands: Vec<GappedCandidate>,
}

/// Merge one query's per-shard ranked subjects into the subjects an
/// unsharded search would keep: the finish stage's ranking
/// ([`rank_key`], over global ids) applied to the union, truncated to
/// `max_reported` subjects. Input order is irrelevant — the key is total
/// over distinct subjects.
fn merge_shard_candidates(
    mut list: Vec<ShardCandidate>,
    max_reported: usize,
) -> Vec<ShardCandidate> {
    list.sort_by_key(|c| rank_key(&c.cands, c.subject));
    list.truncate(max_reported);
    list
}

/// Merge the concatenated *finished* alignments of independent database
/// partitions into one ranked list — for callers that no longer have the
/// partitions' candidates: the benchmark's `engine.shard_merge` row and
/// tests that merge per-shard searches by hand.
///
/// Subjects are ranked by `(best reported score, subject id)` and
/// truncated to `max_reported` *subjects* (not alignments — a kept subject
/// reports all its alignments, as `finish_query` does), then the survivors
/// are ordered by [`compare_alignments`]. Input order is irrelevant: the
/// canonical sort is a total order over distinct alignments, so any shard
/// or rank interleaving merges to the same bytes. The finish stage ranks
/// by the *preliminary* score, so where the cut falls between two subjects
/// whose preliminary and reported scores order differently this keeps the
/// other one; [`search_batch_backend_traced`] merges candidates instead
/// and has no such case.
pub fn merge_shard_alignments(alignments: &mut Vec<Alignment>, max_reported: usize) {
    alignments.sort_by(compare_alignments);
    // After the canonical sort, subjects first occur in exactly the
    // finish stage's subject-rank order (best score first, ties toward
    // the lower subject id), so keeping the first `max_reported` distinct
    // subjects reproduces its subject-level truncation.
    let mut kept: Vec<SequenceId> = Vec::new();
    alignments.retain(|a| {
        if kept.contains(&a.subject) {
            true
        } else if kept.len() < max_reported {
            kept.push(a.subject);
            true
        } else {
            false
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{search_batch, EngineKind};
    use crate::results::compare_alignments;
    use bioseq::SequenceDb;
    use dbindex::{IndexConfig, ShardPlan};
    use scoring::{SearchParams, BLOSUM62};
    use std::sync::OnceLock;

    fn neighbors() -> &'static NeighborTable {
        static T: OnceLock<NeighborTable> = OnceLock::new();
        T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
    }

    fn toy_db() -> SequenceDb {
        let motifs = ["WCHWMYFWCHW", "MKVLAARND", "HILKMFPSTW", "CQEGHILKMF"];
        (0..30)
            .map(|i| {
                let m = motifs[i % motifs.len()];
                let pad_a = "AG".repeat(3 + i % 5);
                let pad_b = "VL".repeat(2 + i % 7);
                Sequence::from_str_checked(format!("s{i}"), &format!("{pad_a}{m}{pad_b}{m}"))
                    .unwrap()
            })
            .collect()
    }

    fn index_config() -> IndexConfig {
        IndexConfig { block_bytes: 1024, offset_bits: 15, frag_overlap: 8 }
    }

    fn config() -> SearchConfig {
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e9;
        SearchConfig::new(EngineKind::MuBlastp).with_params(params)
    }

    fn queries(db: &SequenceDb) -> Vec<Sequence> {
        (0..5)
            .map(|i| Sequence::from_encoded(format!("q{i}"), db.get(i * 5).residues().to_vec()))
            .collect()
    }

    /// Satellite: the effective search space under sharding is the global
    /// database length — sharded output matches the unsharded engine
    /// bit-for-bit, E-values included.
    #[test]
    fn merged_statistics_use_global_search_space() {
        let db = toy_db();
        let queries = queries(&db);
        let cfg = config();
        let index = dbindex::DbIndex::build(&db, &index_config());
        let reference = search_batch(&db, Some(&index), neighbors(), &queries, &cfg);
        let sharded = ShardedIndex::build(&db, &index_config(), 3);
        let out = search_batch_sharded(&sharded, neighbors(), &queries, &cfg.clone().with_threads(3));
        assert!(reference.iter().any(|r| !r.alignments.is_empty()));
        for (a, b) in reference.iter().zip(&out) {
            assert_eq!(a.alignments, b.alignments, "query {}", a.query_index);
        }
    }

    /// An injected shard failure degrades the merge to the survivors:
    /// the failure is reported with its cause, coverage drops by exactly
    /// the lost shard's residues, and the surviving rows are bit-equal
    /// to a manual merge of the surviving shards — no re-scoring.
    #[test]
    fn injected_shard_failure_degrades_to_surviving_shards() {
        let db = toy_db();
        let queries = queries(&db);
        let mut cfg = config().with_threads(3);
        cfg.faults = faultfn::FaultPlan::new(11)
            .with(FAULT_SHARD, faultfn::Schedule::Nth(1))
            .build();
        let sharded = ShardedIndex::build(&db, &index_config(), 3);
        let out = search_batch_sharded_traced(
            &sharded,
            neighbors(),
            &queries,
            &cfg,
            &obsv::TraceSession::disabled(),
        );
        assert_eq!(
            out.failed,
            vec![ShardFailure { shard: 1, cause: ShardFailCause::Injected }]
        );
        let lost = sharded.shards()[1].db.total_residues();
        assert_eq!(out.covered_residues, out.total_residues - lost);
        // Reference: merge the surviving shards by hand, scoring each
        // against the global statistics exactly as the driver does.
        let mut expected: Vec<Vec<Alignment>> = vec![Vec::new(); queries.len()];
        for (s, shard) in sharded.shards().iter().enumerate() {
            if s == 1 {
                continue;
            }
            let mut inner = config();
            inner.effective_db =
                Some((sharded.global_residues(), sharded.global_seqs()));
            let local =
                search_batch(&shard.db, Some(&shard.index), neighbors(), &queries, &inner);
            for (qi, qr) in local.into_iter().enumerate() {
                expected[qi].extend(qr.alignments.into_iter().map(|mut a| {
                    a.subject = shard.ids[a.subject as usize];
                    a
                }));
            }
        }
        for (qi, alignments) in expected.iter_mut().enumerate() {
            merge_shard_alignments(alignments, cfg.params.max_reported);
            assert_eq!(
                &out.results[qi].alignments, alignments,
                "query {qi}: survivors must not be re-scored"
            );
        }
    }

    /// A block source whose second fetch fails — a shard that dies
    /// *after* it has scanned (and admitted subjects from) a block.
    struct DiesMidSearch {
        index: dbindex::DbIndex,
        fetches: std::sync::atomic::AtomicUsize,
    }

    impl BlockSource for DiesMidSearch {
        type Error = ();

        fn num_blocks(&self) -> usize {
            self.index.num_blocks()
        }

        fn bound(&self, i: usize) -> dbindex::BlockBound {
            self.index.bound(i)
        }

        fn fetch(&self, i: usize) -> Result<impl std::borrow::Borrow<dbindex::IndexBlock>, ()> {
            match self
                .fetches
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            {
                1 => Err(()),
                _ => Ok(&self.index.blocks()[i]),
            }
        }
    }

    /// Shard 0: strong subjects behind [`DiesMidSearch`]; shard 1: short
    /// weak ones, fully prunable against shard 0's k-th E-value.
    struct StrongDyingShardAndWeakShard {
        dbs: [SequenceDb; 2],
        ids: [Vec<SequenceId>; 2],
        sources: [DiesMidSearch; 2],
    }

    impl ShardBackend for StrongDyingShardAndWeakShard {
        type Source = DiesMidSearch;

        fn num_shards(&self) -> usize {
            2
        }

        fn global_db(&self) -> (usize, usize) {
            (
                self.dbs.iter().map(SequenceDb::total_residues).sum(),
                self.dbs.iter().map(SequenceDb::len).sum(),
            )
        }

        fn shard(&self, s: usize) -> (&SequenceDb, &[SequenceId], &DiesMidSearch) {
            (&self.dbs[s], &self.ids[s], &self.sources[s])
        }
    }

    /// Convicts publish-before-success: a shard that admitted strong
    /// subjects and *then* failed (a block fetch error) must not have
    /// tightened the watermark the surviving shard prunes against — the
    /// survivor's rows are bit-equal to searching it alone, and any
    /// source error degrades the shard with the `Storage` cause.
    #[test]
    fn shard_failing_mid_search_never_tightens_the_survivors_watermark() {
        let strong: SequenceDb = toy_db();
        let query = Sequence::from_encoded("q", strong.get(0).residues().to_vec());
        // Each weak subject is a 12-residue window of the query: it hits,
        // but its block's best case is far below the query's self-hit.
        let weak: SequenceDb = (0..4)
            .map(|i| Sequence::from_encoded(format!("w{i}"), query.residues()[i..i + 12].to_vec()))
            .collect();
        let small_blocks = IndexConfig {
            block_bytes: 256,
            offset_bits: 15,
            frag_overlap: 8,
        };
        let source = |db: &SequenceDb, fetches| DiesMidSearch {
            index: dbindex::DbIndex::build(db, &small_blocks),
            fetches: std::sync::atomic::AtomicUsize::new(fetches),
        };
        let n_strong = strong.len() as SequenceId;
        let backend = StrongDyingShardAndWeakShard {
            // The weak shard's counter starts past the failing fetch.
            sources: [source(&strong, 0), source(&weak, 2)],
            ids: [(0..n_strong).collect(), (n_strong..n_strong + 4).collect()],
            dbs: [strong, weak],
        };
        assert!(
            backend.sources[0].num_blocks() >= 2,
            "the strong shard must reach a 2nd fetch"
        );
        // One worker: the strong (larger) shard runs, and dies, first.
        let cfg = config().with_threads(1).with_top_k(1);
        let session = TraceSession::disabled();
        let out = search_batch_backend_traced(
            &backend,
            neighbors(),
            std::slice::from_ref(&query),
            &cfg,
            &session,
        );
        assert_eq!(
            out.failed,
            vec![ShardFailure {
                shard: 0,
                cause: ShardFailCause::Storage
            }]
        );
        let mut alone = config();
        alone.effective_db = Some(backend.global_db());
        alone.params.max_reported = 1;
        let (weak_db, weak_ids, weak_source) = backend.shard(1);
        let mut want = search_batch(
            weak_db,
            Some(&weak_source.index),
            neighbors(),
            &[query],
            &alone,
        );
        for a in &mut want[0].alignments {
            a.subject = weak_ids[a.subject as usize];
        }
        assert!(
            !want[0].alignments.is_empty(),
            "the weak shard must have a row to lose"
        );
        assert_eq!(out.results[0].alignments, want[0].alignments);
    }

    /// A deadline already in the past cancels every shard before it
    /// searches: all failures carry the `DeadlineExceeded` cause and no
    /// residue was covered.
    #[test]
    fn past_deadline_cancels_every_shard() {
        let db = toy_db();
        let queries = queries(&db);
        let mut cfg = config().with_threads(2);
        cfg.deadline = Some(Instant::now() - Duration::from_secs(1));
        let sharded = ShardedIndex::build(&db, &index_config(), 3);
        let out = search_batch_sharded(&sharded, neighbors(), &queries, &cfg);
        assert!(out.iter().all(|qr| qr.alignments.is_empty()));
        let traced = search_batch_sharded_traced(
            &sharded,
            neighbors(),
            &queries,
            &cfg,
            &obsv::TraceSession::disabled(),
        );
        assert_eq!(traced.failed.len(), 3);
        assert!(traced
            .failed
            .iter()
            .all(|f| f.cause == ShardFailCause::DeadlineExceeded));
        assert_eq!(traced.covered_residues, 0);
    }

    /// Failed shards still record their `Shard` span — an operator can
    /// see the cancelled task in the trace, not just its absence.
    #[test]
    fn failed_shards_keep_their_trace_span() {
        let db = toy_db();
        let queries = queries(&db);
        let mut cfg = config().with_threads(2);
        cfg.faults = faultfn::FaultPlan::new(3)
            .with(FAULT_SHARD, faultfn::Schedule::Always)
            .build();
        let sharded = ShardedIndex::build(&db, &index_config(), 3);
        let session = obsv::TraceSession::new(obsv::ObsvConfig::on());
        let out =
            search_batch_sharded_traced(&sharded, neighbors(), &queries, &cfg, &session);
        assert_eq!(out.failed.len(), 3);
        let shard_spans = out
            .trace
            .spans
            .iter()
            .filter(|s| s.stage == Stage::Shard)
            .count();
        assert_eq!(shard_spans, 3, "every failed shard still has its span");
    }

    /// Satellite (convicted mutation): computing E-values from *per-shard*
    /// database lengths — the bug the global `effective_db` override
    /// exists to prevent — produces different E-values, so the equality
    /// test above really does guard the statistics.
    #[test]
    fn per_shard_statistics_would_diverge() {
        let db = toy_db();
        let queries = queries(&db);
        let cfg = config();
        let index = dbindex::DbIndex::build(&db, &index_config());
        let reference = search_batch(&db, Some(&index), neighbors(), &queries, &cfg);
        let sharded = ShardedIndex::build(&db, &index_config(), 3);
        // Mutant merge: each shard computes statistics from its own size.
        let mut mutant: Vec<Vec<Alignment>> = vec![Vec::new(); queries.len()];
        for shard in sharded.shards() {
            let local = search_batch(&shard.db, Some(&shard.index), neighbors(), &queries, &cfg);
            for (qi, qr) in local.into_iter().enumerate() {
                mutant[qi].extend(qr.alignments.into_iter().map(|mut a| {
                    a.subject = shard.ids[a.subject as usize];
                    a
                }));
            }
        }
        let mut diverged = false;
        for (qi, alignments) in mutant.iter_mut().enumerate() {
            merge_shard_alignments(alignments, cfg.params.max_reported);
            for (a, b) in reference[qi].alignments.iter().zip(alignments.iter()) {
                // Shard databases are smaller than the whole, so the
                // mutant's effective search space — and E-value — shifts.
                // (The direction can flip on tiny databases: the Karlin
                // length adjustment shrinks with the space, which inflates
                // the m' factor — so only divergence is asserted.)
                if a.subject == b.subject && (a.evalue - b.evalue).abs() > 1e-12 * a.evalue {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "per-shard statistics must be observably wrong");
    }

    /// The merge truncates at the subject level, exactly like the finish
    /// stage: a kept subject reports all its alignments, and the cut
    /// falls on subjects ranked past `max_reported`.
    #[test]
    fn merge_truncates_subjects_not_alignments() {
        let mk = |subject: SequenceId, score: i32, q_start: u32| Alignment {
            subject,
            aln: align::GappedAlignment {
                score,
                q_start,
                q_end: q_start + 10,
                s_start: 0,
                s_end: 10,
                ops: Vec::new(),
            },
            bit_score: score as f64,
            evalue: 1.0 / score as f64,
        };
        // Subject 7: best 100 plus a weak 20. Subject 3: best 90.
        // Subject 5: best 50 — ranked third, must be cut at max=2 even
        // though its score beats subject 7's weak alignment.
        let mut alignments = vec![mk(5, 50, 0), mk(7, 20, 4), mk(3, 90, 0), mk(7, 100, 0)];
        merge_shard_alignments(&mut alignments, 2);
        let got: Vec<(SequenceId, i32)> =
            alignments.iter().map(|a| (a.subject, a.aln.score)).collect();
        assert_eq!(got, vec![(7, 100), (3, 90), (7, 20)]);
    }

    /// The candidate merge cuts where an unsharded finish cuts: on the
    /// *preliminary* score, ties toward the lower global id. Subject 4
    /// (preliminary 100, reported 100) and subject 9 (preliminary 99,
    /// reported 103) live in different shards; with a cap of one the
    /// unsharded search reports 4, and so must the merge — where cutting
    /// the finished alignments on reported scores keeps 9.
    #[test]
    fn candidate_merge_ranks_by_preliminary_score_like_the_unsharded_finish() {
        let cand = |score: i32| GappedCandidate {
            q_start: 0,
            q_end: 10,
            s_start: 0,
            s_end: 10,
            score,
            seed_q: 5,
            seed_s: 5,
        };
        let of = |subject: SequenceId, shard: usize, scores: &[i32]| ShardCandidate {
            subject,
            shard,
            local: subject / 2,
            cands: scores.iter().map(|&s| cand(s)).collect(),
        };
        let kept = |list: Vec<ShardCandidate>, cap: usize| -> Vec<(SequenceId, usize)> {
            merge_shard_candidates(list, cap)
                .iter()
                .map(|c| (c.subject, c.shard))
                .collect()
        };
        let (a, b) = (of(4, 0, &[100, 30]), of(9, 1, &[99]));
        assert_eq!(kept(vec![a.clone(), b.clone()], 1), vec![(4, 0)]);
        assert_eq!(
            kept(vec![b.clone(), a.clone()], 1),
            vec![(4, 0)],
            "arrival order is irrelevant"
        );
        // The same two subjects as finished alignments, cut on reported
        // scores: the other one survives.
        let reported = |subject: SequenceId, score: i32| Alignment {
            subject,
            aln: align::GappedAlignment {
                score,
                q_start: 0,
                q_end: 10,
                s_start: 0,
                s_end: 10,
                ops: Vec::new(),
            },
            bit_score: score as f64,
            evalue: 1.0 / score as f64,
        };
        let mut finished = vec![reported(4, 100), reported(9, 103)];
        merge_shard_alignments(&mut finished, 1);
        assert_eq!(finished[0].subject, 9);
        // Ties on the preliminary score break toward the lower *global*
        // id, whichever shard holds it; the cut falls on subjects.
        let tied = vec![of(7, 0, &[50]), of(3, 2, &[50, 50]), of(5, 1, &[80])];
        assert_eq!(kept(tied.clone(), 2), vec![(5, 1), (3, 2)]);
        assert_eq!(kept(tied, 10), vec![(5, 1), (3, 2), (7, 0)]);
        assert!(kept(vec![a, b], 0).is_empty());
    }

    /// Pin: the canonical order is a total order over distinct
    /// alignments, so any input permutation merges identically — the
    /// property that makes results independent of shard/thread arrival
    /// order. Also convicts the old 4-field key: these records tie on
    /// `(score, subject, q_start, s_start)` and only the end coordinates
    /// separate them.
    #[test]
    fn merge_order_ignores_arrival_order() {
        let mk = |q_end: u32, s_end: u32| Alignment {
            subject: 1,
            aln: align::GappedAlignment {
                score: 42,
                q_start: 0,
                q_end,
                s_start: 0,
                s_end,
                ops: Vec::new(),
            },
            bit_score: 10.0,
            evalue: 0.5,
        };
        let a = mk(10, 12);
        let b = mk(10, 14);
        let c = mk(11, 12);
        assert_eq!(compare_alignments(&a, &b), std::cmp::Ordering::Less);
        assert_eq!(compare_alignments(&b, &c), std::cmp::Ordering::Less);
        let mut fwd = vec![a.clone(), b.clone(), c.clone()];
        let mut rev = vec![c, b, a];
        merge_shard_alignments(&mut fwd, 10);
        merge_shard_alignments(&mut rev, 10);
        assert_eq!(fwd, rev);
    }

    /// Degenerate plans search fine: empty shards contribute nothing and
    /// a one-sequence-per-shard plan still merges to the reference.
    #[test]
    fn empty_and_singleton_shards() {
        let db = toy_db();
        let queries = queries(&db);
        let cfg = config();
        let index = dbindex::DbIndex::build(&db, &index_config());
        let reference = search_batch(&db, Some(&index), neighbors(), &queries, &cfg);
        for k in [db.len(), db.len() + 5] {
            let plan = ShardPlan::balance_db(&db, k);
            let sharded = ShardedIndex::build_with_plan(&db, &index_config(), &plan);
            let out =
                search_batch_sharded(&sharded, neighbors(), &queries, &cfg.clone().with_threads(4));
            for (a, b) in reference.iter().zip(&out) {
                assert_eq!(a.alignments, b.alignments, "k={k} query {}", a.query_index);
            }
        }
    }

    /// Traced sharded search, exhaustive and top-k: results unperturbed,
    /// one Shard span per shard (empty shards included), timings indexed
    /// by shard id, and the per-shard engine spans ride along with batch
    /// query indices and shard-local block ids.
    #[test]
    fn traced_shard_spans_and_timings() {
        let db = toy_db();
        let queries = queries(&db);
        let sharded = ShardedIndex::build(&db, &index_config(), 4);
        let max_blocks = sharded
            .shards()
            .iter()
            .map(|s| s.index.blocks().len())
            .max();
        for top_k in [None, Some(2)] {
            let mut cfg = config().with_threads(2);
            cfg.top_k = top_k;
            let plain = search_batch_sharded(&sharded, neighbors(), &queries, &cfg);
            let session = TraceSession::new(obsv::ObsvConfig::on());
            let out = search_batch_sharded_traced(&sharded, neighbors(), &queries, &cfg, &session);
            // Two pruned runs over concurrent shards skip different blocks
            // (the shared watermark rises in thread-timing order), so their
            // `StageCounts` differ while the reported rows cannot; only the
            // exhaustive round is comparable field for field.
            match top_k {
                None => assert_eq!(plain, out.results),
                Some(_) => crate::results_identical(&plain, &out.results)
                    .unwrap_or_else(|e| panic!("top_k={top_k:?}: {e}")),
            }
            let shard_spans: Vec<u32> = out
                .trace
                .spans
                .iter()
                .filter(|s| s.stage == Stage::Shard)
                .map(|s| s.block)
                .collect();
            assert_eq!(shard_spans, vec![0, 1, 2, 3]);
            for stage in [Stage::Seed, Stage::Ungapped, Stage::Finish] {
                assert!(
                    out.trace.spans.iter().any(|s| s.stage == stage),
                    "top_k={top_k:?}: no {stage:?} span"
                );
            }
            for span in out.trace.spans.iter().filter(|s| s.stage != Stage::Shard) {
                assert!((span.query as usize) < queries.len(), "{span:?}");
                assert!(
                    span.block == obsv::NO_BLOCK || Some(span.block as usize) < max_blocks,
                    "{span:?}"
                );
            }
            assert_eq!(out.timings.len(), 4);
            for (s, t) in out.timings.iter().enumerate() {
                assert_eq!(t.shard, s);
            }
        }
    }
}
