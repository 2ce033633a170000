//! The muBLASTP kernel: decoupled, pre-filtered, reordered (paper Sec. IV).
//!
//! Three phases per (block, query):
//!
//! 1. **Hit detection + pre-filtering** (Alg. 2): the query is scanned top
//!    to bottom exactly like the interleaved engine, but instead of
//!    extending on the spot, qualifying hit *pairs* go into a temporal
//!    buffer. The per-diagonal last-hit array is the only random-access
//!    structure touched, and crucially no subject sequence is read — so
//!    the pass streams. Its cells are 2 bytes whenever the query's epoch
//!    span `query_len + 1` fits a `u16` and 4 bytes beyond
//!    (`last_hit_cell_bytes`), one generic scan for both. Fewer than 5 %
//!    of hits survive (Fig. 6), which is what makes phase 2 cheap.
//! 2. **Hit reordering** (Sec. IV-B): a stable LSD radix sort on the
//!    packed `(sequence, diagonal)` key. Stability preserves the
//!    query-offset order within each diagonal, which the two-hit coverage
//!    logic depends on.
//! 3. **Ungapped extension** in sorted order (Alg. 1 lines 15–25): the
//!    extension walks subjects in ascending order, reusing each subject
//!    sequence while it is hot in cache — the irregularity is gone.
//!
//! The alternative **post-filter** mode (Alg. 1: buffer *all* hits, sort,
//! then form pairs) is kept for the ablation benchmark that measures what
//! pre-filtering saves.

use crate::hit::{HitPair, KeySpec};
use crate::kernels::{Regions, TraceCtx};
use crate::results::{Seed, StageCounts};
use crate::scratch::Scratch;
use crate::twohit::{forms_pair, observe_slot, CellWord, EpochCells, ExtensionGate};
use bioseq::alphabet::{Word, WordIter, WORD_LEN};
use dbindex::IndexBlock;
use memsim::Tracer;
use obsv::{Stage, StageObs};
use scoring::{NeighborTable, SearchParams};

/// Which sort implements the hit-reordering phase (the paper's Sec. IV-B
/// comparison; LSD radix is its choice).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReorderAlgo {
    /// Least-significant-digit radix sort (the paper's choice).
    LsdRadix,
    /// Most-significant-digit radix sort.
    MsdRadix,
    /// Stable merge sort.
    Merge,
    /// Two-level binning (the authors' earlier scheme, related work).
    Binning,
    /// `slice::sort_by_key` (std stable sort) as a sanity baseline.
    Std,
}

/// Search one query against one block, decoupled muBLASTP style.
///
/// `obs` records one wall-clock span per phase (`Seed`, `Reorder`,
/// `Ungapped`, plus `TwoHit` in post-filter mode); production callers
/// pass [`obsv::NoObs`], which compiles away like `NullTracer` does.
#[allow(
    clippy::too_many_arguments,
    reason = "kernel inputs, per-thread scratch, tracer and observer are independent"
)]
pub fn search_block<T: Tracer, O: StageObs>(
    query: &[u8],
    block: &IndexBlock,
    neighbors: &NeighborTable,
    params: &SearchParams,
    scratch: &mut Scratch,
    counts: &mut StageCounts,
    ctx: &mut TraceCtx<'_, T>,
    obs: &mut O,
    reorder: ReorderAlgo,
    prefilter: bool,
) {
    if query.len() < WORD_LEN || block.n_seqs() == 0 {
        return;
    }
    let qlen = query.len() as u32;
    let spec = KeySpec::new(query.len(), block.max_seq_len() as usize, block.n_seqs());
    let total_cells = scratch.compute_diag_bases(block.seqs().iter().map(|s| s.len), qlen);

    // ---- Phase 1: hit detection (+ pre-filter) ------------------------
    // In pre-filter mode the two-hit check is fused into this scan
    // (Alg. 2), so its time is charged to the Seed span.
    let span = obs.start();
    scratch.pairs.clear();
    if prefilter {
        let Scratch {
            finder,
            narrow_cells,
            pairs,
            diag_bases,
            ..
        } = scratch;
        let window = params.two_hit_window;
        let scan = if EpochCells::<u16>::fits(qlen) {
            narrow_cells.reset(total_cells, qlen);
            prefilter_scan(
                query,
                block,
                neighbors,
                diag_bases,
                narrow_cells.epoch(),
                window,
                pairs,
                &spec,
                ctx,
            )
        } else {
            finder.last_q.reset(total_cells, qlen);
            prefilter_scan(
                query,
                block,
                neighbors,
                diag_bases,
                finder.last_q.epoch(),
                window,
                pairs,
                &spec,
                ctx,
            )
        };
        counts.hits += scan.hits;
        counts.pairs += scan.kept as u64;
        pairs.truncate(scan.kept);
    } else {
        // Post-filter mode: buffer every hit (dist filled later).
        for (q_off, qword) in WordIter::new(query) {
            ctx.tracer.touch(ctx.regions.query + q_off as u64, 1);
            ctx.tracer
                .touch(ctx.regions.neighbors + qword as u64 * 4, 4);
            for &nb in neighbors.neighbors(qword) {
                let post_start = block.posting_start(nb) as u64;
                for (k, &entry) in block.postings(nb).iter().enumerate() {
                    ctx.tracer
                        .touch(ctx.regions.postings + (post_start + k as u64) * 4, 4);
                    counts.hits += 1;
                    let (ls, s_off) = block.unpack(entry);
                    ctx.tracer
                        .touch(ctx.regions.hitbuf + scratch.pairs.len() as u64 * 12, 12);
                    scratch.pairs.push(HitPair {
                        key: spec.key(ls, spec.diag(q_off, s_off)),
                        q_off,
                        dist: 0,
                    });
                }
            }
        }
    }

    obs.record(Stage::Seed, span);

    // ---- Phase 2: hit reordering --------------------------------------
    // (The sort's own memory traffic is streaming over a buffer that the
    // pre-filter kept small; we charge its reads/writes to the hit buffer.)
    let span = obs.start();
    sort_pairs(&mut scratch.pairs, reorder);
    if ctx.regions.hitbuf != 0 {
        // Touch the buffer once per element (a simple, documented charge
        // model for the sort's streaming bandwidth).
        for (i, _) in scratch.pairs.iter().enumerate() {
            ctx.tracer.touch(ctx.regions.hitbuf + i as u64 * 12, 12);
        }
    }
    obs.record(Stage::Reorder, span);

    // ---- Phase 3: ungapped extension in sorted order -------------------
    let mut gate = ExtensionGate::new();
    let pairs = std::mem::take(&mut scratch.pairs);
    if prefilter {
        let span = obs.start();
        extend_pairs(
            query,
            block,
            params,
            &pairs,
            &mut scratch.seeds,
            counts,
            ctx,
            &spec,
            &mut gate,
        );
        obs.record(Stage::Ungapped, span);
    } else {
        // Post-filter (Alg. 1 lines 5–14): form pairs on the sorted stream.
        let span = obs.start();
        let mut reached_key = u32::MAX;
        let mut reached_pos = i64::MIN;
        let mut filtered: Vec<HitPair> = Vec::with_capacity(pairs.len() / 8 + 8);
        for hit in &pairs {
            if hit.key == reached_key {
                // Overlapping hits are ignored entirely (NCBI semantics) —
                // identical to `observe_slot` in pre-filter mode.
                if crate::twohit::overlaps_last(reached_pos, hit.q_off) {
                    continue;
                }
                if forms_pair(reached_pos, hit.q_off, params.two_hit_window) {
                    counts.pairs += 1;
                    filtered.push(HitPair {
                        key: hit.key,
                        q_off: hit.q_off,
                        dist: (hit.q_off as i64 - reached_pos) as u32,
                    });
                }
            }
            reached_key = hit.key;
            reached_pos = hit.q_off as i64;
        }
        obs.record(Stage::TwoHit, span);
        let span = obs.start();
        extend_pairs(
            query,
            block,
            params,
            &filtered,
            &mut scratch.seeds,
            counts,
            ctx,
            &spec,
            &mut gate,
        );
        obs.record(Stage::Ungapped, span);
    }
    scratch.pairs = pairs; // return capacity to the scratch buffer
}

/// Bytes per last-hit cell of the pre-filter scan for a query of
/// `query_len` residues: 2 while the epoch span `query_len + 1` fits a
/// `u16`, else 4. Derived, never set.
pub(crate) fn last_hit_cell_bytes(query_len: usize) -> usize {
    match u32::try_from(query_len) {
        Ok(qlen) if EpochCells::<u16>::fits(qlen) => 2,
        _ => 4,
    }
}

/// What phase 1 found in pre-filter mode: hits seen, and pairs kept in
/// `pairs[..kept]`.
#[derive(Clone, Copy, Default)]
struct Scan {
    hits: u64,
    kept: usize,
}

/// Phase 1 in pre-filter mode (Alg. 2) on `C`-wide last-hit cells of the
/// epoch `(cells, base)`: one [`scan_position`] per query word.
#[allow(
    clippy::too_many_arguments,
    reason = "the hot scan takes its per-thread state unbundled"
)]
fn prefilter_scan<C: CellWord, T: Tracer>(
    query: &[u8],
    block: &IndexBlock,
    neighbors: &NeighborTable,
    diag_bases: &[u32],
    (cells, base): (&mut [C], u32),
    window: u32,
    pairs: &mut Vec<HitPair>,
    spec: &KeySpec,
    ctx: &mut TraceCtx<'_, T>,
) -> Scan {
    let mut scan = Scan::default();
    for (q_off, qword) in WordIter::new(query) {
        ctx.tracer.touch(ctx.regions.query + q_off as u64, 1);
        ctx.tracer
            .touch(ctx.regions.neighbors + qword as u64 * 4, 4);
        scan = scan_position(
            q_off,
            neighbors.neighbors(qword),
            block,
            diag_bases,
            cells,
            base,
            window,
            pairs,
            scan,
            spec,
            ctx.tracer,
            ctx.regions,
        );
    }
    scan
}

/// The pre-filter scan of one query position: every posting list of the
/// word's neighbours `words`, each hit run through [`observe_slot`].
///
/// Each array is its own argument — posting entries (behind `block`),
/// `diag_bases`, the last-hit `cells`, the hit buffer `pairs` and the
/// tracer — and the function is never inlined, so the compiler may keep
/// their pointers and lengths in registers across the per-hit stores
/// instead of re-reading them from a shared `Scratch`. Every hit is
/// stored at `pairs[kept]` and `kept` advances only for a pair, so the
/// loop has no branch on the (unpredictable) last-hit state; pre-sizing
/// per posting list keeps that store in bounds with the buffer grown to
/// the pairs kept plus one list of slack, never to the hit count.
#[inline(never)]
#[allow(
    clippy::too_many_arguments,
    reason = "the hot scan takes its per-thread state unbundled"
)]
fn scan_position<C: CellWord, T: Tracer>(
    q_off: u32,
    words: &[Word],
    block: &IndexBlock,
    diag_bases: &[u32],
    cells: &mut [C],
    base: u32,
    window: u32,
    pairs: &mut Vec<HitPair>,
    mut scan: Scan,
    spec: &KeySpec,
    tracer: &mut T,
    regions: Regions,
) -> Scan {
    let cell_bytes = std::mem::size_of::<C>() as u64;
    for &nb in words {
        let postings = block.postings(nb);
        scan.hits += postings.len() as u64;
        let end = scan.kept + postings.len();
        if pairs.len() < end {
            pairs.resize(end, HitPair::default());
        }
        let out = &mut pairs[..end];
        let post_start = block.posting_start(nb) as u64;
        for (k, &entry) in postings.iter().enumerate() {
            tracer.touch(regions.postings + (post_start + k as u64) * 4, 4);
            let (ls, s_off) = block.unpack(entry);
            let diag = spec.diag(q_off, s_off);
            let cell = diag_bases[ls as usize] as usize + diag as usize;
            tracer.touch(
                regions.lasthit + cell as u64 * cell_bytes,
                cell_bytes as u32,
            );
            let dist = observe_slot(&mut cells[cell], base, q_off, window);
            tracer.touch(regions.hitbuf + scan.kept as u64 * 12, 12);
            out[scan.kept] = HitPair {
                key: spec.key(ls, diag),
                q_off,
                dist: dist.unwrap_or(0),
            };
            scan.kept += dist.is_some() as usize;
        }
    }
    scan
}

/// Phase 3 worker: extend `pairs` (already in key order).
#[allow(
    clippy::too_many_arguments,
    reason = "kernel inputs, per-thread scratch, tracer and observer are independent"
)]
fn extend_pairs<T: Tracer>(
    query: &[u8],
    block: &IndexBlock,
    params: &SearchParams,
    pairs: &[HitPair],
    seeds: &mut Vec<Seed>,
    counts: &mut StageCounts,
    ctx: &mut TraceCtx<'_, T>,
    spec: &KeySpec,
    gate: &mut ExtensionGate,
) {
    for pair in pairs {
        if !gate.admits(pair.key, pair.q_off) {
            continue;
        }
        counts.extensions += 1;
        let (ls, _diag) = spec.unpack(pair.key);
        let s_off = spec.s_off(pair.key, pair.q_off);
        let seq = block.seq(ls);
        let subject = block.seq_residues(ls);
        let sbase = ctx.regions.subject + seq.start as u64;
        let first_q_end = pair.q_off - pair.dist + WORD_LEN as u32;
        let out = align::extend_two_hit(
            &params.matrix,
            query,
            subject,
            Some(first_q_end),
            pair.q_off,
            s_off,
            params.ungapped_xdrop,
            ctx.tracer,
            ctx.regions.query,
            sbase,
        );
        if let Some(aln) = out.alignment {
            gate.record_extension(aln.q_end);
            if aln.score >= params.gap_trigger {
                counts.seeds += 1;
                seeds.push(Seed {
                    subject: seq.global_id,
                    frag_offset: seq.frag_offset,
                    aln,
                });
            }
        }
    }
}

/// Dispatch the reorder phase to the configured sort.
pub fn sort_pairs(pairs: &mut Vec<HitPair>, algo: ReorderAlgo) {
    match algo {
        ReorderAlgo::LsdRadix => sorting::lsd_radix_sort_by_key(pairs, |p| p.key),
        ReorderAlgo::MsdRadix => sorting::msd_radix_sort_by_key(pairs, |p| p.key),
        ReorderAlgo::Merge => sorting::merge_sort_by_key(pairs, |p| p.key),
        ReorderAlgo::Binning => {
            if pairs.is_empty() {
                return;
            }
            // Bin spaces derived from the actual key range (the is_empty
            // guard above means a maximum always exists).
            let max_key = pairs.iter().map(|p| p.key).max().unwrap_or(0);
            // Minor = low 16 bits (diagonal side), major = high bits: the
            // two-level structure of the related-work scheme.
            let minor_space = 1usize << 16;
            let major_space = (max_key >> 16) as usize + 1;
            let taken = std::mem::take(pairs);
            *pairs = sorting::two_level_binning_sort(
                taken,
                |p| (p.key & 0xFFFF) as usize,
                minor_space,
                |p| (p.key >> 16) as usize,
                major_space,
            );
        }
        ReorderAlgo::Std => pairs.sort_by_key(|p| p.key),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::null_ctx;
    use bioseq::{Sequence, SequenceDb};
    use dbindex::{DbIndex, IndexConfig};
    use memsim::NullTracer;
    use scoring::BLOSUM62;
    use std::sync::OnceLock;

    fn neighbors() -> &'static NeighborTable {
        static T: OnceLock<NeighborTable> = OnceLock::new();
        T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
    }

    fn run_with(
        query_str: &str,
        subjects: &[&str],
        reorder: ReorderAlgo,
        prefilter: bool,
    ) -> (Vec<Seed>, StageCounts) {
        let query = Sequence::from_str_checked("q", query_str).unwrap();
        let db: SequenceDb = subjects
            .iter()
            .enumerate()
            .map(|(i, s)| Sequence::from_str_checked(format!("s{i}"), s).unwrap())
            .collect();
        let idx = DbIndex::build(&db, &IndexConfig::default());
        let params = SearchParams::blastp_defaults();
        let mut scratch = Scratch::new();
        let mut counts = StageCounts::default();
        let mut nt = NullTracer;
        let mut ctx = null_ctx(&mut nt);
        for block in idx.blocks() {
            search_block(
                query.residues(),
                block,
                neighbors(),
                &params,
                &mut scratch,
                &mut counts,
                &mut ctx,
                &mut obsv::NoObs,
                reorder,
                prefilter,
            );
        }
        (scratch.seeds, counts)
    }

    #[test]
    fn finds_the_planted_alignment() {
        let core = "WCHWMYFWCHW";
        let q = format!("{core}AAAA");
        let s = format!("GGG{core}GG");
        let (seeds, counts) = run_with(&q, &[&s], ReorderAlgo::LsdRadix, true);
        assert!(counts.pairs > 0 && counts.pairs < counts.hits);
        assert_eq!(seeds.len(), 1, "{seeds:?}");
        assert_eq!(seeds[0].aln.score, 96);
    }

    #[test]
    fn all_reorder_algorithms_agree() {
        let core = "WCHWMYFWCHW";
        let q = format!("AA{core}AA");
        let subjects = [
            format!("GG{core}"),
            format!("{core}GG"),
            format!("G{core}G{core}"),
        ];
        let refs: Vec<&str> = subjects.iter().map(|s| s.as_str()).collect();
        let baseline = run_with(&q, &refs, ReorderAlgo::Std, true);
        for algo in [
            ReorderAlgo::LsdRadix,
            ReorderAlgo::MsdRadix,
            ReorderAlgo::Merge,
            ReorderAlgo::Binning,
        ] {
            let got = run_with(&q, &refs, algo, true);
            assert_eq!(got.0, baseline.0, "seeds differ for {algo:?}");
            assert_eq!(got.1, baseline.1, "counts differ for {algo:?}");
        }
    }

    #[test]
    fn prefilter_and_postfilter_produce_identical_output() {
        let core = "WCHWMYFWCHW";
        let q = format!("AA{core}WCH");
        let subjects = [format!("GG{core}G{core}"), core.to_string()];
        let refs: Vec<&str> = subjects.iter().map(|s| s.as_str()).collect();
        let pre = run_with(&q, &refs, ReorderAlgo::LsdRadix, true);
        let post = run_with(&q, &refs, ReorderAlgo::LsdRadix, false);
        assert_eq!(pre.0, post.0, "seed sets must match");
        // Same pairs and extensions; only buffering differs.
        assert_eq!(pre.1.pairs, post.1.pairs);
        assert_eq!(pre.1.extensions, post.1.extensions);
        assert_eq!(pre.1.hits, post.1.hits);
    }

    #[test]
    fn interleaved_and_decoupled_agree() {
        // The decisive property (paper Sec. V-E): restructuring must not
        // change any output.
        let core = "WCHWMYFWCHW";
        let q = format!("{core}AA");
        let subjects = [
            format!("GG{core}"),
            format!("{core}GG"),
            "MKVLA".to_string(),
        ];
        let refs: Vec<&str> = subjects.iter().map(|s| s.as_str()).collect();
        let (mu_seeds, mu_counts) = run_with(&q, &refs, ReorderAlgo::LsdRadix, true);

        // Re-run with the interleaved kernel.
        let query = Sequence::from_str_checked("q", &q).unwrap();
        let db: SequenceDb = refs
            .iter()
            .enumerate()
            .map(|(i, s)| Sequence::from_str_checked(format!("s{i}"), s).unwrap())
            .collect();
        let idx = DbIndex::build(&db, &IndexConfig::default());
        let params = SearchParams::blastp_defaults();
        let mut scratch = Scratch::new();
        let mut counts = StageCounts::default();
        let mut nt = NullTracer;
        let mut ctx = null_ctx(&mut nt);
        for block in idx.blocks() {
            crate::kernels::db_interleaved::search_block(
                query.residues(),
                block,
                neighbors(),
                &params,
                &mut scratch,
                &mut counts,
                &mut ctx,
                &mut obsv::NoObs,
            );
        }
        // Seed *sets* must match (muBLASTP emits in sorted subject order,
        // the interleaved engine in detection order).
        let mut a = mu_seeds.clone();
        let mut b = scratch.seeds.clone();
        a.sort_by_key(|s| (s.subject, s.frag_offset, s.aln));
        b.sort_by_key(|s| (s.subject, s.frag_offset, s.aln));
        assert_eq!(a, b);
        assert_eq!(mu_counts.hits, counts.hits);
        assert_eq!(mu_counts.pairs, counts.pairs);
        assert_eq!(mu_counts.extensions, counts.extensions);
    }
}
