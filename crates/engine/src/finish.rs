//! Finishing stages shared by all engines: fragment assembly, gapped
//! extension, E-values, ranking, traceback.
//!
//! The paper treats stages 3–4 as non-bottleneck (Sec. II-A) and reuses
//! prior optimisations; what matters for reproduction is that **every
//! engine funnels through this identical code**, so the Sec. V-E
//! verification (same outputs everywhere) holds by construction for the
//! finishing stages and only the seed sets need engine-level care.

use crate::results::{Alignment, Seed};
use align::assembly::assemble_ungapped;
use align::{
    gapped_extend_score, gapped_extend_score_striped, gapped_extend_traceback,
    gapped_extend_traceback_striped,
};
use bioseq::{SequenceDb, SequenceId};
use obsv::{Stage, StageObs};
use scoring::SearchParams;

/// Run gapped extension, ranking and traceback for one query's seeds.
///
/// Returns the reported alignments (best first) and the number of gapped
/// extensions performed (a [`crate::results::StageCounts`] input). `obs`
/// records one `Gapped` span covering assembly plus score-only gapped
/// extension (the driver wraps the whole call in a `Finish` span, so
/// ranking and traceback show up as `Finish` self-time).
pub fn finish_query<O: StageObs>(
    query: &[u8],
    db: &SequenceDb,
    seeds: Vec<Seed>,
    params: &SearchParams,
    db_residues: usize,
    db_seqs: usize,
    obs: &mut O,
) -> (Vec<Alignment>, u64) {
    if query.is_empty() || seeds.is_empty() {
        return (Vec::new(), 0);
    }
    let span = obs.start();
    let (mut per_subject, gapped_count) = subject_candidates(query, db, seeds, params);
    obs.record(Stage::Gapped, span);

    // Rank subjects by best gapped score; apply the E-value cutoff.
    let qlen = query.len();
    let stats = &params.gapped_stats;
    per_subject.retain(|(_, cands)| {
        let best = cands[0].score;
        stats.evalue_effective(best, qlen, db_residues, db_seqs) <= params.evalue_cutoff
    });
    per_subject
        .sort_by_key(|(subject, cands)| (std::cmp::Reverse(cands[0].score), *subject));
    per_subject.truncate(params.max_reported);

    // Traceback (stage 4) for every reported alignment.
    let mut out: Vec<Alignment> = Vec::new();
    for (subject, cands) in per_subject {
        let subject_res = db.get(subject).residues();
        for c in cands {
            let ev = stats.evalue_effective(c.score, qlen, db_residues, db_seqs);
            if ev > params.evalue_cutoff {
                continue;
            }
            // Traceback restarts from the original ungapped seed with the
            // larger final x-drop, as NCBI's stage 4 does. Kernel choice
            // cannot change the result (tests/kernel_conformance.rs).
            let tb = if params.kernel.use_striped() {
                gapped_extend_traceback_striped
            } else {
                gapped_extend_traceback
            };
            let g = tb(
                &params.matrix,
                query,
                subject_res,
                c.seed_q.min(qlen as u32 - 1),
                c.seed_s.min(subject_res.len() as u32 - 1),
                params.gap_open,
                params.gap_extend,
                params.final_xdrop,
            );
            let final_ev = stats.evalue_effective(g.score, qlen, db_residues, db_seqs);
            out.push(Alignment {
                subject,
                bit_score: stats.bit_score(g.score),
                evalue: final_ev,
                aln: g,
            });
        }
    }
    // Best first, fully deterministic (total order — see compare_alignments).
    out.sort_by(crate::results::compare_alignments);
    (out, gapped_count)
}

/// Assembly + gapped extension + per-subject candidate ranking for one
/// query's seeds — the shared front half of [`finish_query`], split out so
/// the top-k pruner's admission pass (`driver::search_batch_blocks`)
/// scores a whole-subject block with *exactly* the pipeline the finish
/// stage will rank it by. Returns `(per-subject candidates, gapped
/// extension count)`; each subject's candidates are sorted strongest
/// first, so `cands[0].score` is the score the finish stage ranks the
/// subject by.
pub(crate) fn subject_candidates(
    query: &[u8],
    db: &SequenceDb,
    mut seeds: Vec<Seed>,
    params: &SearchParams,
) -> (Vec<(SequenceId, Vec<GappedCandidate>)>, u64) {
    let mut gapped_count = 0u64;
    let gx = if params.kernel.use_striped() {
        gapped_extend_score_striped
    } else {
        gapped_extend_score
    };
    // Group seeds by subject (deterministically).
    seeds.sort_by_key(|s| (s.subject, s.frag_offset, s.aln));
    let mut per_subject: Vec<(SequenceId, Vec<GappedCandidate>)> = Vec::new();
    let mut i = 0usize;
    while i < seeds.len() {
        let subject = seeds[i].subject;
        let mut group: Vec<(usize, align::UngappedAlignment)> = Vec::new();
        while i < seeds.len() && seeds[i].subject == subject {
            group.push((seeds[i].frag_offset as usize, seeds[i].aln));
            i += 1;
        }
        // Assembly (Sec. IV-A): shift fragment coordinates to the whole
        // subject and merge boundary-crossing duplicates.
        let assembled = assemble_ungapped(group);
        let subject_res = db.get(subject).residues();

        // Gapped extension seeded from each surviving ungapped region.
        let mut cands: Vec<GappedCandidate> = Vec::new();
        for ua in assembled {
            if ua.score < params.gap_trigger {
                continue;
            }
            let (seed_q, seed_s) = ua.seed();
            gapped_count += 1;
            let g = gx(
                &params.matrix,
                query,
                subject_res,
                seed_q,
                seed_s,
                params.gap_open,
                params.gap_extend,
                params.gapped_xdrop,
            );
            cands.push(GappedCandidate {
                q_start: g.q_start,
                q_end: g.q_end,
                s_start: g.s_start,
                s_end: g.s_end,
                score: g.score,
                seed_q,
                seed_s,
            });
        }
        // Dedup identical ranges (multiple seeds often converge on the
        // same gapped alignment), keeping the best score.
        cands.sort_by(|a, b| {
            (a.q_start, a.q_end, a.s_start, a.s_end, b.score, a.seed_q, a.seed_s)
                .cmp(&(b.q_start, b.q_end, b.s_start, b.s_end, a.score, b.seed_q, b.seed_s))
        });
        cands.dedup_by(|next, prev| {
            (next.q_start, next.q_end, next.s_start, next.s_end)
                == (prev.q_start, prev.q_end, prev.s_start, prev.s_end)
        });
        // Strongest first within the subject.
        cands.sort_by_key(|c| (std::cmp::Reverse(c.score), c.q_start, c.s_start));
        if !cands.is_empty() {
            per_subject.push((subject, cands));
        }
    }
    (per_subject, gapped_count)
}

/// A preliminary (score-only) gapped alignment.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GappedCandidate {
    q_start: u32,
    q_end: u32,
    s_start: u32,
    s_end: u32,
    pub(crate) score: i32,
    /// Original ungapped seed, reused by the traceback stage.
    seed_q: u32,
    seed_s: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::UngappedAlignment;
    use bioseq::Sequence;

    fn db_from(strs: &[&str]) -> SequenceDb {
        strs.iter()
            .enumerate()
            .map(|(i, s)| Sequence::from_str_checked(format!("s{i}"), s).unwrap())
            .collect()
    }

    fn ua(q: u32, s: u32, len: u32, score: i32) -> UngappedAlignment {
        UngappedAlignment { q_start: q, q_end: q + len, s_start: s, s_end: s + len, score }
    }

    #[test]
    fn empty_seeds_empty_result() {
        let db = db_from(&["MARND"]);
        let q = Sequence::from_str_checked("q", "MARND").unwrap();
        let (out, g) = finish_query(
            q.residues(),
            &db,
            vec![],
            &SearchParams::blastp_defaults(),
            5,
            1,
            &mut obsv::NoObs,
        );
        assert!(out.is_empty());
        assert_eq!(g, 0);
    }

    #[test]
    fn reports_strong_alignment_with_traceback() {
        let core = "WCHWMYFWCHWMYFW";
        let db = db_from(&[&format!("GGG{core}GG"), "MKVLA"]);
        let q = Sequence::from_str_checked("q", core).unwrap();
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e6; // tiny search space → huge E-values
        let seeds = vec![Seed {
            subject: 0,
            frag_offset: 0,
            aln: ua(0, 3, core.len() as u32, 120),
        }];
        let total = db.total_residues();
        let (out, gapped) = finish_query(q.residues(), &db, seeds, &params, total, db.len(), &mut obsv::NoObs);
        assert_eq!(gapped, 1);
        assert_eq!(out.len(), 1);
        let a = &out[0];
        assert_eq!(a.subject, 0);
        assert!(a.aln.validate());
        assert_eq!((a.aln.q_start, a.aln.q_end), (0, core.len() as u32));
        assert!(a.bit_score > 0.0);
    }

    #[test]
    fn duplicate_seeds_collapse_to_one_alignment() {
        let core = "WCHWMYFWCHWMYFW";
        let db = db_from(&[core]);
        let q = Sequence::from_str_checked("q", core).unwrap();
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e6;
        // Two overlapping seeds on the same diagonal (as two fragments of
        // an assembly would produce) and one duplicate.
        let seeds = vec![
            Seed { subject: 0, frag_offset: 0, aln: ua(0, 0, 15, 120) },
            Seed { subject: 0, frag_offset: 0, aln: ua(0, 0, 15, 120) },
            Seed { subject: 0, frag_offset: 0, aln: ua(2, 2, 10, 80) },
        ];
        let total = db.total_residues();
        let (out, _) = finish_query(q.residues(), &db, seeds, &params, total, db.len(), &mut obsv::NoObs);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn fragment_offsets_map_back_to_subject_coordinates() {
        // A seed found in a fragment starting at offset 100 of the subject.
        let core = "WCHWMYFWCHWMYFW";
        let subject = format!("{}{}", "A".repeat(100), core);
        let db = db_from(&[&subject]);
        let q = Sequence::from_str_checked("q", core).unwrap();
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e6;
        let seeds =
            vec![Seed { subject: 0, frag_offset: 100, aln: ua(0, 0, 15, 120) }];
        let total = db.total_residues();
        let (out, _) = finish_query(q.residues(), &db, seeds, &params, total, db.len(), &mut obsv::NoObs);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].aln.s_start, 100);
        assert_eq!(out[0].aln.s_end, 115);
    }

    #[test]
    fn subjects_ranked_by_score() {
        let strong = "WCHWMYFWCHWMYFW";
        let weak = "WCHWMYF";
        let db = db_from(&[&format!("{weak}GGGGGGGG"), strong]);
        let q = Sequence::from_str_checked("q", strong).unwrap();
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e9;
        params.gap_trigger = 10;
        let seeds = vec![
            Seed { subject: 0, frag_offset: 0, aln: ua(0, 0, 7, 60) },
            Seed { subject: 1, frag_offset: 0, aln: ua(0, 0, 15, 120) },
        ];
        let total = db.total_residues();
        let (out, _) = finish_query(q.residues(), &db, seeds, &params, total, db.len(), &mut obsv::NoObs);
        assert!(out.len() >= 2);
        assert_eq!(out[0].subject, 1, "stronger subject first: {out:?}");
        assert!(out[0].aln.score > out[1].aln.score);
    }

    #[test]
    fn evalue_cutoff_filters() {
        let db = db_from(&["WCHWMYF"]);
        let q = Sequence::from_str_checked("q", "WCHWMYF").unwrap();
        let mut params = SearchParams::blastp_defaults();
        params.gap_trigger = 10;
        params.evalue_cutoff = 1e-30; // nothing this small exists here
        let seeds = vec![Seed { subject: 0, frag_offset: 0, aln: ua(0, 0, 7, 60) }];
        let (out, _) = finish_query(q.residues(), &db, seeds, &params, 7, 1, &mut obsv::NoObs);
        assert!(out.is_empty());
    }
}
