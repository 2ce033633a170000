//! The query-indexed ("NCBI") kernel.
//!
//! Classic BLASTP: the query is compiled into a lookup table once, then
//! subject sequences stream through one at a time (paper Sec. II-A). The
//! first three stages interleave — a hit immediately checks the two-hit
//! rule and may immediately extend. Because only *one* subject is live at
//! a time, the last-hit array is small and the working set fits the cache:
//! this is why the irregularity that kills NCBI-db does not hurt here
//! (Sec. II-B), and why this engine is the accuracy baseline.

use crate::kernels::TraceCtx;
use crate::results::{Seed, StageCounts};
use crate::scratch::Scratch;
use bioseq::alphabet::{WordIter, WORD_LEN};
use bioseq::SequenceDb;
use memsim::Tracer;
use obsv::{Stage, StageObs};
use qindex::QueryIndex;
use scoring::SearchParams;

/// Search one query (via its query index) against every subject of `db`,
/// appending seeds to `scratch.seeds` and updating `counts`.
///
/// `subject_starts`, parallel to the database, gives each subject's offset
/// inside the simulated subject region (empty when not tracing). The
/// stages are fused per subject (that is the design), so `obs` records a
/// single `Seed` span covering the whole scan.
#[allow(
    clippy::too_many_arguments,
    reason = "kernel inputs, per-thread scratch, tracer and observer are independent"
)]
pub(crate) fn search_db<T: Tracer, O: StageObs>(
    query: &[u8],
    qidx: &QueryIndex,
    db: &SequenceDb,
    params: &SearchParams,
    scratch: &mut Scratch,
    counts: &mut StageCounts,
    ctx: &mut TraceCtx<'_, T>,
    obs: &mut O,
    subject_starts: &[u64],
) {
    search_db_range(
        query,
        qidx,
        db,
        0..db.len() as u32,
        params,
        scratch,
        counts,
        ctx,
        obs,
        subject_starts,
    )
}

/// [`search_db`] restricted to subjects `range` — the chunked multicore
/// tracer replays the database in slices to bound trace memory.
#[allow(
    clippy::too_many_arguments,
    reason = "kernel inputs, per-thread scratch, tracer and observer are independent"
)]
pub(crate) fn search_db_range<T: Tracer, O: StageObs>(
    query: &[u8],
    qidx: &QueryIndex,
    db: &SequenceDb,
    range: std::ops::Range<u32>,
    params: &SearchParams,
    scratch: &mut Scratch,
    counts: &mut StageCounts,
    ctx: &mut TraceCtx<'_, T>,
    obs: &mut O,
    subject_starts: &[u64],
) {
    let span = obs.start();
    let qlen = query.len();
    for sid in range {
        let subject_seq = db.get(sid);
        let subject = subject_seq.residues();
        if subject.len() < WORD_LEN || qlen < WORD_LEN {
            continue;
        }
        let sbase = ctx.regions.subject + subject_starts.get(sid as usize).copied().unwrap_or(0);
        // One diagonal space for this subject only — the query-indexed
        // engine's small working set.
        let cells = qlen + subject.len() + 1;
        scratch.finder.reset(cells, qlen as u32, params.two_hit_window);
        scratch.coverage.reset(cells, qlen as u32);
        for (s_off, word) in WordIter::new(subject) {
            ctx.tracer.touch(sbase + s_off as u64, 1);
            // Presence-vector probe: 1 bit, counted as its byte.
            ctx.tracer.touch(ctx.regions.qindex + word as u64 / 8, 1);
            if !qidx.is_present(word) {
                continue;
            }
            // Backbone cell + positions.
            ctx.tracer.touch(ctx.regions.qindex + 2048 + word as u64 * 16, 16);
            for &q_off in qidx.lookup(word) {
                counts.hits += 1;
                let cell = (s_off as usize + qlen) - q_off as usize;
                ctx.tracer.touch(ctx.regions.lasthit + cell as u64 * 4, 4);
                let Some(dist) = scratch.finder.observe(cell, q_off) else {
                    continue;
                };
                counts.pairs += 1;
                ctx.tracer.touch(ctx.regions.coverage + cell as u64 * 4, 4);
                if !scratch.coverage.admits(cell, q_off) {
                    continue;
                }
                counts.extensions += 1;
                let first_q_end = q_off - dist + WORD_LEN as u32;
                let out = align::extend_two_hit(
                    &params.matrix,
                    query,
                    subject,
                    Some(first_q_end),
                    q_off,
                    s_off,
                    params.ungapped_xdrop,
                    ctx.tracer,
                    ctx.regions.query,
                    sbase,
                );
                if let Some(aln) = out.alignment {
                    scratch.coverage.record(cell, aln.q_end);
                    if aln.score >= params.gap_trigger {
                        counts.seeds += 1;
                        scratch.seeds.push(Seed { subject: sid, frag_offset: 0, aln });
                    }
                }
            }
        }
    }
    obs.record(Stage::Seed, span);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::null_ctx;
    use bioseq::Sequence;
    use memsim::NullTracer;
    use scoring::{NeighborTable, BLOSUM62};
    use std::sync::OnceLock;

    fn neighbors() -> &'static NeighborTable {
        static T: OnceLock<NeighborTable> = OnceLock::new();
        T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
    }

    fn run(query_str: &str, subjects: &[&str], params: &SearchParams) -> (Vec<Seed>, StageCounts) {
        let query = Sequence::from_str_checked("q", query_str).unwrap();
        let db: SequenceDb = subjects
            .iter()
            .enumerate()
            .map(|(i, s)| Sequence::from_str_checked(format!("s{i}"), s).unwrap())
            .collect();
        let qidx = QueryIndex::build(query.residues(), neighbors());
        let mut scratch = Scratch::new();
        let mut counts = StageCounts::default();
        let mut nt = NullTracer;
        let mut ctx = null_ctx(&mut nt);
        search_db(
            query.residues(),
            &qidx,
            &db,
            params,
            &mut scratch,
            &mut counts,
            &mut ctx,
            &mut obsv::NoObs,
            &[],
        );
        (scratch.seeds, counts)
    }

    #[test]
    fn finds_strong_self_alignment() {
        // Two exact word hits 7 apart on the same diagonal trigger a
        // two-hit extension covering the shared region. The default gap
        // trigger (raw ≈ 41) filters out stray weak extensions.
        let core = "WCHWMYFWCHW"; // self-score 96
        let q = format!("{core}AAAA");
        let s = format!("GGG{core}GG");
        let params = SearchParams::blastp_defaults();
        let (seeds, counts) = run(&q, &[&s], &params);
        assert!(counts.hits > 0);
        assert!(counts.pairs > 0, "two-hit pair expected");
        assert_eq!(seeds.len(), 1, "one seed expected, got {seeds:?}");
        let a = seeds[0].aln;
        assert_eq!((a.q_start, a.q_end), (0, core.len() as u32));
        assert_eq!((a.s_start, a.s_end), (3, 3 + core.len() as u32));
        assert_eq!(a.score, 96);
    }

    #[test]
    fn no_hits_without_similarity() {
        let (seeds, counts) =
            run("PPPPPPPPPPPP", &["GGGGGGGGGGGG"], &SearchParams::blastp_defaults());
        assert_eq!(counts.hits, 0);
        assert!(seeds.is_empty());
    }

    #[test]
    fn single_hit_never_extends() {
        // Exactly one word hit (AAA vs AAA, score 12): flanking words all
        // stay below the threshold, so the two-hit rule must suppress any
        // extension.
        let (seeds, counts) =
            run("PPPAAAGGGG", &["VVVAAAKKKK"], &SearchParams::blastp_defaults());
        assert_eq!(counts.hits, 1, "{counts:?}");
        assert_eq!(counts.extensions, 0);
        assert!(seeds.is_empty());
    }

    #[test]
    fn multiple_subjects_get_independent_state() {
        let core = "WCHWMYFWCHW";
        let q = format!("{core}AAAA");
        let s1 = format!("GG{core}");
        let s2 = format!("{core}GGGGG");
        let params = SearchParams::blastp_defaults();
        let (seeds, _) = run(&q, &[&s1, &s2], &params);
        assert_eq!(seeds.len(), 2, "{seeds:?}");
        assert_eq!(seeds[0].subject, 0);
        assert_eq!(seeds[1].subject, 1);
    }

    #[test]
    fn coverage_suppresses_contained_pairs() {
        // Aligning a sequence of distinct residues to itself: the main
        // diagonal produces a chain of consecutive word pairs, but the
        // first extension covers the whole sequence, so far fewer
        // extensions run than pairs form.
        let core = "WCHMYFDEKRIVEAQN";
        let params = SearchParams::blastp_defaults();
        let (seeds, counts) = run(core, &[core], &params);
        assert!(counts.pairs > counts.extensions, "{counts:?}");
        // The full-length self alignment is among the seeds.
        let full = seeds
            .iter()
            .find(|s| s.aln.q_start == 0 && s.aln.q_end == core.len() as u32);
        assert!(full.is_some(), "{seeds:?}");
    }
}
