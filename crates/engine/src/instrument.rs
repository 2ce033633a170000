//! Cache-behaviour instrumentation (paper Figs. 2 and 8).
//!
//! These harnesses run the hot stages (hit detection + ungapped extension)
//! of an engine with a [`memsim`] hierarchy attached, replacing the
//! hardware performance counters of the paper's testbed (substitution #3
//! in DESIGN.md). Single-core runs drive a [`memsim::Hierarchy`] directly;
//! multicore runs capture one access trace per simulated core and replay
//! them round-robin into a [`memsim::SharedHierarchy`], so the shared-LLC
//! contention between threads' last-hit arrays — the effect behind the
//! paper's block-size sweet spot — appears deterministically.

use crate::kernels::{db_interleaved, mublastp, query_indexed, Regions, TraceCtx};
use crate::results::StageCounts;
use crate::scratch::Scratch;
use crate::{EngineKind, SortAlgo};
use bioseq::{Sequence, SequenceDb};
use dbindex::DbIndex;
use memsim::{
    replay_round_robin, AddressSpace, CollectingTracer, CycleModel, Hierarchy, HierarchyConfig,
    HierarchyStats, SharedHierarchy,
};
use qindex::QueryIndex;
use scoring::{NeighborTable, SearchParams};

/// Result of an instrumented run.
#[derive(Clone, Copy, Debug)]
pub struct TraceReport {
    /// Simulated cache and TLB counters of the whole run.
    pub stats: HierarchyStats,
    /// Per-stage work counts (hits, pairs, extensions).
    pub counts: StageCounts,
    /// Memory-stall share of total simulated cycles (Fig. 2(c) proxy).
    pub stalled_fraction: f64,
}

/// Most `(sequence, diagonal)` cells any block of `index` needs for a
/// query of `query_len` residues.
fn db_cells(index: &DbIndex, query_len: usize) -> usize {
    index
        .blocks()
        .iter()
        .map(|b| b.total_residues() + b.n_seqs() * (query_len + 1))
        .max()
        .unwrap_or(0)
}

/// Bytes per last-hit cell `kind` uses for a query of `query_len`
/// residues: the width muBLASTP's pre-filter derives from the query
/// length, 4 bytes for the engines that pair through `PairFinder`.
fn last_hit_cell_bytes(kind: EngineKind, query_len: usize) -> usize {
    match kind {
        EngineKind::MuBlastp => mublastp::last_hit_cell_bytes(query_len),
        _ => 4,
    }
}

/// Lay out the simulated regions for a database-indexed run.
fn db_regions(space: &mut AddressSpace, index: &DbIndex, kind: EngineKind, query_len: usize) -> Regions {
    let max_res = index.blocks().iter().map(|b| b.total_residues()).max().unwrap_or(0);
    let max_entries = index.blocks().iter().map(|b| b.total_positions()).max().unwrap_or(0);
    let max_cells = db_cells(index, query_len);
    Regions {
        query: space.alloc(query_len),
        subject: space.alloc(max_res),
        postings: space.alloc(max_entries * 4),
        lasthit: space.alloc(max_cells * last_hit_cell_bytes(kind, query_len)),
        coverage: space.alloc(max_cells * 4),
        hitbuf: space.alloc(1 << 26),
        neighbors: space.alloc(1 << 20),
        qindex: 0,
    }
}

/// Instrument the hot stages of one engine for one query (single core,
/// Fig. 2). Database-indexed engines need `index`; the query-indexed
/// engine ignores it.
pub fn trace_engine(
    kind: EngineKind,
    db: &SequenceDb,
    index: Option<&DbIndex>,
    neighbors: &NeighborTable,
    query: &Sequence,
    params: &SearchParams,
    hconfig: HierarchyConfig,
) -> TraceReport {
    let mut hierarchy = Hierarchy::new(hconfig);
    let mut counts = StageCounts::default();
    let mut scratch = Scratch::new();
    let mut space = AddressSpace::new();
    match kind {
        EngineKind::QueryIndexed => {
            let qidx = QueryIndex::build(query.residues(), neighbors);
            // Subjects are contiguous in a real database volume.
            let mut subject_starts = Vec::with_capacity(db.len());
            let mut acc = 0u64;
            for (_, s) in db.iter() {
                subject_starts.push(acc);
                acc += s.len() as u64;
            }
            let max_cells =
                db.iter().map(|(_, s)| s.len()).max().unwrap_or(0) + query.len() + 1;
            let regions = Regions {
                query: space.alloc(query.len()),
                subject: space.alloc(acc as usize),
                qindex: space.alloc(qidx.memory_bytes()),
                lasthit: space.alloc(max_cells * 4),
                coverage: space.alloc(max_cells * 4),
                ..Default::default()
            };
            let mut ctx = TraceCtx::new(&mut hierarchy, regions);
            query_indexed::search_db(
                query.residues(),
                &qidx,
                db,
                params,
                &mut scratch,
                &mut counts,
                &mut ctx,
                &mut obsv::NoObs,
                &subject_starts,
            );
        }
        EngineKind::DbInterleaved | EngineKind::MuBlastp => {
            #[expect(
                clippy::expect_used,
                reason = "instrumentation is bench/CLI-side; its callers construct the index alongside the engine kind"
            )]
            let index = index.expect("database-indexed tracing needs an index");
            let regions = db_regions(&mut space, index, kind, query.len());
            let mut ctx = TraceCtx::new(&mut hierarchy, regions);
            for block in index.blocks() {
                scratch.seeds.clear();
                match kind {
                    EngineKind::DbInterleaved => db_interleaved::search_block(
                        query.residues(),
                        block,
                        neighbors,
                        params,
                        &mut scratch,
                        &mut counts,
                        &mut ctx,
                        &mut obsv::NoObs,
                    ),
                    _ => mublastp::search_block(
                        query.residues(),
                        block,
                        neighbors,
                        params,
                        &mut scratch,
                        &mut counts,
                        &mut ctx,
                        &mut obsv::NoObs,
                        SortAlgo::LsdRadix,
                        true,
                    ),
                }
            }
        }
    }
    let stats = hierarchy.stats();
    TraceReport { stats, counts, stalled_fraction: CycleModel::default().stalled_fraction(&stats) }
}

/// Instrument a multicore run (Figs. 2 and 8): `threads` simulated cores
/// share one LLC; queries are dealt round-robin to cores; each core's
/// trace is captured and the traces are replayed in `quantum`-access time
/// slices. This is the context the paper's profiles were taken in — the
/// aggregate of all threads' last-hit arrays is what pressures the LLC.
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per traced engine input, as in trace_engine"
)]
pub fn trace_engine_multicore(
    kind: EngineKind,
    db: &SequenceDb,
    index: Option<&DbIndex>,
    neighbors: &NeighborTable,
    queries: &[Sequence],
    params: &SearchParams,
    hconfig: HierarchyConfig,
    threads: usize,
    quantum: usize,
) -> TraceReport {
    assert!(threads > 0);
    let mut shared = SharedHierarchy::new(hconfig, threads);
    let mut counts = StageCounts::default();
    let max_qlen = queries.iter().map(|q| q.len()).max().unwrap_or(0);

    // Shared regions (the database / index) plus per-core private regions
    // (query, last-hit, coverage, hit buffer, query index).
    let mut space = AddressSpace::new();
    let mut subject_starts: Vec<u64> = Vec::new();
    let shared_regions = match kind {
        EngineKind::QueryIndexed => {
            let mut acc = 0u64;
            for (_, s) in db.iter() {
                subject_starts.push(acc);
                acc += s.len() as u64;
            }
            Regions {
                subject: space.alloc(acc as usize),
                ..Default::default()
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "same caller precondition as trace_engine — database-indexed kinds are always invoked with their index"
        )]
        _ => db_regions(&mut space, index.expect("database-indexed tracing needs an index"), kind, max_qlen),
    };
    // Per-core last-hit and coverage bytes; a batch's widest query sizes
    // the last-hit array.
    let (lasthit_bytes, coverage_bytes) = match (kind, index) {
        (EngineKind::QueryIndexed, _) | (_, None) => {
            let bytes = (db.iter().map(|(_, s)| s.len()).max().unwrap_or(0) + max_qlen + 1) * 4;
            (bytes, bytes)
        }
        (_, Some(index)) => {
            let cells = db_cells(index, max_qlen);
            (cells * last_hit_cell_bytes(kind, max_qlen), cells * 4)
        }
    };
    let core_regions: Vec<Regions> = (0..threads)
        .map(|_| {
            let mut r = shared_regions;
            r.query = space.alloc(max_qlen);
            r.lasthit = space.alloc(lasthit_bytes);
            r.coverage = space.alloc(coverage_bytes);
            r.hitbuf = space.alloc(1 << 26);
            if matches!(kind, EngineKind::QueryIndexed) {
                r.qindex = space.alloc(1 << 21);
            }
            r
        })
        .collect();

    enum Work<'w> {
        Block(&'w dbindex::IndexBlock),
        SubjectRange(std::ops::Range<u32>),
    }
    let run_core = |core: usize, work: &Work<'_>, counts: &mut StageCounts| -> Vec<(u64, u32)> {
        let mut collector = CollectingTracer::default();
        let mut scratch = Scratch::new();
        for (qi, query) in queries.iter().enumerate() {
            if qi % threads != core {
                continue;
            }
            scratch.seeds.clear();
            let mut ctx = TraceCtx::new(&mut collector, core_regions[core]);
            match (kind, work) {
                (EngineKind::QueryIndexed, Work::SubjectRange(range)) => {
                    let qidx = QueryIndex::build(query.residues(), neighbors);
                    query_indexed::search_db_range(
                        query.residues(),
                        &qidx,
                        db,
                        range.clone(),
                        params,
                        &mut scratch,
                        counts,
                        &mut ctx,
                        &mut obsv::NoObs,
                        &subject_starts,
                    );
                }
                (EngineKind::DbInterleaved, Work::Block(block)) => {
                    db_interleaved::search_block(
                        query.residues(),
                        block,
                        neighbors,
                        params,
                        &mut scratch,
                        counts,
                        &mut ctx,
                        &mut obsv::NoObs,
                    )
                }
                (EngineKind::MuBlastp, Work::Block(block)) => mublastp::search_block(
                    query.residues(),
                    block,
                    neighbors,
                    params,
                    &mut scratch,
                    counts,
                    &mut ctx,
                    &mut obsv::NoObs,
                    SortAlgo::LsdRadix,
                    true,
                ),
                #[expect(
                    clippy::unreachable,
                    reason = "the caller below builds SubjectRange work for QueryIndexed and Block work for the other kinds"
                )]
                _ => unreachable!("work kind mismatch"),
            }
        }
        collector.trace
    };

    match kind {
        EngineKind::QueryIndexed => {
            // Trace the database in ~1 M-residue slices so per-core trace
            // buffers stay bounded; the shared hierarchy persists across
            // slices, so the replay is equivalent to one long run.
            let mut start = 0u32;
            while (start as usize) < db.len() {
                let mut end = start;
                let mut residues = 0usize;
                while (end as usize) < db.len() && residues < 1_000_000 {
                    residues += db.get(end).len();
                    end += 1;
                }
                let work = Work::SubjectRange(start..end);
                let traces: Vec<Vec<(u64, u32)>> =
                    (0..threads).map(|c| run_core(c, &work, &mut counts)).collect();
                replay_round_robin(&mut shared, &traces, quantum);
                start = end;
            }
        }
        #[expect(
            clippy::unwrap_used,
            reason = "database-indexed kinds always carry their index (checked by every instrumentation caller)"
        )]
        _ => {
            for block in index.unwrap().blocks() {
                let work = Work::Block(block);
                let traces: Vec<Vec<(u64, u32)>> =
                    (0..threads).map(|c| run_core(c, &work, &mut counts)).collect();
                replay_round_robin(&mut shared, &traces, quantum);
            }
        }
    }
    let stats = shared.stats();
    TraceReport { stats, counts, stalled_fraction: CycleModel::default().stalled_fraction(&stats) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbindex::IndexConfig;
    use memsim::CacheConfig;
    use scoring::BLOSUM62;
    use std::sync::OnceLock;

    fn neighbors() -> &'static NeighborTable {
        static T: OnceLock<NeighborTable> = OnceLock::new();
        T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
    }

    fn toy_world() -> (SequenceDb, DbIndex, Vec<Sequence>) {
        let motifs = ["WCHWMYFWCHW", "MKVLAARND", "HILKMFPSTW"];
        let db: SequenceDb = (0..30)
            .map(|i| {
                let m = motifs[i % motifs.len()];
                Sequence::from_str_checked(
                    format!("s{i}"),
                    &format!("{}{m}{}{m}", "AG".repeat(2 + i % 4), "VL".repeat(1 + i % 3)),
                )
                .unwrap()
            })
            .collect();
        let index = DbIndex::build(
            &db,
            &IndexConfig { block_bytes: 1024, offset_bits: 15, frag_overlap: 8 },
        );
        let queries: Vec<Sequence> = (0..4)
            .map(|i| Sequence::from_encoded(format!("q{i}"), db.get(i).residues().to_vec()))
            .collect();
        (db, index, queries)
    }

    /// A small hierarchy so the toy workload actually exercises misses.
    fn small_hierarchy() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig { capacity: 1 << 10, ways: 2, line: 64 },
            l2: CacheConfig { capacity: 4 << 10, ways: 4, line: 64 },
            l3: CacheConfig { capacity: 32 << 10, ways: 4, line: 64 },
            dtlb: CacheConfig { capacity: 8 * 4096, ways: 2, line: 4096 },
            stlb: CacheConfig { capacity: 64 * 4096, ways: 4, line: 4096 },
            prefetch: true,
        }
    }

    #[test]
    fn all_engines_produce_traffic_and_counts() {
        let (db, index, queries) = toy_world();
        for kind in
            [EngineKind::QueryIndexed, EngineKind::DbInterleaved, EngineKind::MuBlastp]
        {
            let r = trace_engine(
                kind,
                &db,
                Some(&index),
                neighbors(),
                &queries[0],
                &SearchParams::blastp_defaults(),
                small_hierarchy(),
            );
            assert!(r.stats.l1.accesses > 0, "{kind:?} produced no accesses");
            assert!(r.counts.hits > 0, "{kind:?} found no hits");
            assert!(r.stalled_fraction > 0.0 && r.stalled_fraction < 1.0);
        }
    }

    #[test]
    fn engines_agree_on_work_counts_under_tracing() {
        let (db, index, queries) = toy_world();
        let params = SearchParams::blastp_defaults();
        let a = trace_engine(
            EngineKind::DbInterleaved,
            &db,
            Some(&index),
            neighbors(),
            &queries[0],
            &params,
            small_hierarchy(),
        );
        let b = trace_engine(
            EngineKind::MuBlastp,
            &db,
            Some(&index),
            neighbors(),
            &queries[0],
            &params,
            small_hierarchy(),
        );
        assert_eq!(a.counts.hits, b.counts.hits);
        assert_eq!(a.counts.pairs, b.counts.pairs);
        assert_eq!(a.counts.extensions, b.counts.extensions);
        assert_eq!(a.counts.seeds, b.counts.seeds);
    }

    #[test]
    fn multicore_trace_runs_and_aggregates() {
        let (db, index, queries) = toy_world();
        let r = trace_engine_multicore(
            EngineKind::MuBlastp,
            &db,
            Some(&index),
            neighbors(),
            &queries,
            &SearchParams::blastp_defaults(),
            small_hierarchy(),
            2,
            32,
        );
        assert!(r.stats.l1.accesses > 0);
        assert!(r.counts.hits > 0);

        // The query-indexed engine works in the multicore tracer too.
        let q = trace_engine_multicore(
            EngineKind::QueryIndexed,
            &db,
            None,
            neighbors(),
            &queries,
            &SearchParams::blastp_defaults(),
            small_hierarchy(),
            2,
            32,
        );
        assert!(q.stats.l1.accesses > 0);
        assert!(q.counts.hits > 0);
    }
}
