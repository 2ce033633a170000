//! The database-indexed **interleaved** kernel ("NCBI-db").
//!
//! The classic BLAST heuristics re-pointed at a database index without any
//! restructuring (paper Sec. III + Fig. 2): scanning the query top to
//! bottom, every word's posting list sprays hits across *all* subject
//! sequences of the block. Because extension still triggers immediately,
//! execution jumps between subject sequences and between rows of the big
//! per-(sequence, diagonal) last-hit array at the whim of the posting
//! lists — the random memory access whose LLC/TLB cost the paper
//! quantifies and then eliminates. This engine exists as the baseline that
//! makes muBLASTP's restructuring measurable; its *output* is identical.

use crate::kernels::TraceCtx;
use crate::results::{Seed, StageCounts};
use crate::scratch::Scratch;
use bioseq::alphabet::{WordIter, WORD_LEN};
use dbindex::IndexBlock;
use memsim::Tracer;
use obsv::{Stage, StageObs};
use scoring::{NeighborTable, SearchParams};

/// Search one query against one index block, interleaved style.
///
/// Because the stages are fused by design (that interleaving *is* the
/// baseline the paper measures against), `obs` sees a single `Seed`
/// span covering the whole scan — there is no separable reorder or
/// extension phase to time.
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
) {
    if query.len() < WORD_LEN || block.n_seqs() == 0 {
        return;
    }
    let span = obs.start();
    let qlen = query.len() as u32;
    let total_cells =
        scratch.compute_diag_bases(block.seqs().iter().map(|s| s.len), qlen);
    scratch.finder.reset(total_cells, qlen, params.two_hit_window);
    scratch.coverage.reset(total_cells, qlen);

    for (q_off, qword) in WordIter::new(query) {
        ctx.tracer.touch(ctx.regions.query + q_off as u64, 1);
        ctx.tracer.touch(ctx.regions.neighbors + qword as u64 * 4, 4);
        for &nb in neighbors.neighbors(qword) {
            let post_start = block.posting_start(nb) as u64;
            for (k, &entry) in block.postings(nb).iter().enumerate() {
                ctx.tracer.touch(ctx.regions.postings + (post_start + k as u64) * 4, 4);
                counts.hits += 1;
                let (ls, s_off) = block.unpack(entry);
                let cell = scratch.diag_bases[ls as usize] as usize
                    + (s_off + qlen - q_off) as usize;
                // The irregular access: last-hit state of a random subject.
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
                // The extension immediately touches a random subject
                // sequence — the second irregular access stream.
                let seq = block.seq(ls);
                let subject = block.seq_residues(ls);
                let sbase = ctx.regions.subject + seq.start as u64;
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
                        scratch.seeds.push(Seed {
                            subject: seq.global_id,
                            frag_offset: seq.frag_offset,
                            aln,
                        });
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
    use bioseq::{Sequence, SequenceDb};
    use dbindex::{DbIndex, IndexConfig};
    use memsim::NullTracer;
    use scoring::BLOSUM62;
    use std::sync::OnceLock;

    fn neighbors() -> &'static NeighborTable {
        static T: OnceLock<NeighborTable> = OnceLock::new();
        T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
    }

    fn run(query_str: &str, subjects: &[&str]) -> (Vec<Seed>, StageCounts) {
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
            );
        }
        (scratch.seeds, counts)
    }

    #[test]
    fn finds_the_same_alignment_as_query_indexed() {
        let core = "WCHWMYFWCHW";
        let q = format!("{core}AAAA");
        let s = format!("GGG{core}GG");
        let (seeds, counts) = run(&q, &[&s]);
        assert!(counts.pairs > 0);
        assert_eq!(seeds.len(), 1, "{seeds:?}");
        let a = seeds[0].aln;
        assert_eq!((a.q_start, a.q_end), (0, core.len() as u32));
        assert_eq!(a.score, 96);
    }

    #[test]
    fn hits_across_multiple_subjects_in_one_scan() {
        let core = "WCHWMYFWCHW";
        let q = format!("{core}AA");
        let s1 = format!("GG{core}");
        let s2 = format!("{core}GG");
        let (seeds, _) = run(&q, &[&s1, &s2]);
        assert_eq!(seeds.len(), 2);
        let mut subject_ids: Vec<u32> = seeds.iter().map(|s| s.subject).collect();
        subject_ids.sort_unstable();
        assert_eq!(subject_ids, vec![0, 1]);
    }

    #[test]
    fn empty_block_and_short_query() {
        let (seeds, counts) = run("MA", &["WCHWMYFWCHW"]);
        assert_eq!(counts.hits, 0);
        assert!(seeds.is_empty());
    }
}
