//! Finishing stages shared by all engines: fragment assembly, gapped
//! extension, E-values, ranking, traceback.
//!
//! The paper treats stages 3–4 as non-bottleneck (Sec. II-A) and reuses
//! prior optimisations; what matters for reproduction is that **every
//! engine funnels through this identical code**, so the Sec. V-E
//! verification (same outputs everywhere) holds by construction for the
//! finishing stages and only the seed sets need engine-level care.

use crate::results::{compare_alignments, Alignment, Seed};
use align::assembly::assemble_ungapped;
use align::GappedExtender;
use bioseq::{SequenceDb, SequenceId};
use obsv::{Stage, StageObs};
use scoring::SearchParams;

/// Run gapped extension, ranking and traceback for one query's seeds:
/// the rank half, then the traceback of every subject it kept.
///
/// Returns the reported alignments (best first) and the number of gapped
/// extensions performed (a [`crate::results::StageCounts`] input). `obs`
/// records one `Gapped` span covering assembly plus score-only gapped
/// extension (the driver wraps the whole call in a `Finish` span, so
/// ranking and traceback show up as `Finish` self-time).
#[cfg(test)]
pub(crate) fn finish_query<O: StageObs>(
    query: &[u8],
    db: &SequenceDb,
    seeds: Vec<Seed>,
    params: &SearchParams,
    db_residues: usize,
    db_seqs: usize,
    obs: &mut O,
) -> (Vec<Alignment>, u64) {
    let finisher = Finisher::new(query, params, db_residues, db_seqs);
    let (ranked, gapped_count) = finisher.rank(db, seeds, Vec::new(), obs);
    (finisher.trace_back_all(db, &ranked), gapped_count)
}

/// One subject's preliminary alignments, strongest first (never empty):
/// `cands[0].score` is the score the subject is ranked by.
pub(crate) type SubjectCandidates = (SequenceId, Vec<GappedCandidate>);

/// A preliminary (score-only) gapped alignment.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GappedCandidate {
    pub(crate) q_start: u32,
    pub(crate) q_end: u32,
    pub(crate) s_start: u32,
    pub(crate) s_end: u32,
    pub(crate) score: i32,
    /// Original ungapped seed, reused by the traceback stage.
    pub(crate) seed_q: u32,
    pub(crate) seed_s: u32,
}

#[cfg(test)]
thread_local! {
    /// Score-only gapped extensions run on this thread.
    pub(crate) static EXTENDED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The finishing stages of one query, in the two halves the drivers
/// schedule apart: **rank** ([`Finisher::candidates`] then
/// [`Finisher::rank`]: assembly, score-only gapped extension, dedup,
/// E-value cutoff, subject ranking, the reporting cap) and **trace back**
/// ([`Finisher::trace_back`], for the subjects ranking kept). Built once
/// per query and search, so the query is reversed once for all its
/// extensions.
pub(crate) struct Finisher<'a> {
    extender: GappedExtender<'a>,
    query_len: usize,
    params: &'a SearchParams,
    db_residues: usize,
    db_seqs: usize,
}

impl<'a> Finisher<'a> {
    pub(crate) fn new(
        query: &'a [u8],
        params: &'a SearchParams,
        db_residues: usize,
        db_seqs: usize,
    ) -> Finisher<'a> {
        Finisher {
            // Kernel choice cannot change a result (tests/kernel_conformance.rs).
            extender: GappedExtender::new(
                &params.matrix,
                query,
                params.gap_open,
                params.gap_extend,
                params.kernel.use_striped(),
            ),
            query_len: query.len(),
            params,
            db_residues,
            db_seqs,
        }
    }

    /// E-value of raw gapped score `score` for this query over the
    /// effective search space.
    pub(crate) fn evalue(&self, score: i32) -> f64 {
        self.params.gapped_stats.evalue_effective(
            score,
            self.query_len,
            self.db_residues,
            self.db_seqs,
        )
    }

    /// Assembly + gapped extension + per-subject candidate ranking of
    /// `seeds`, which must hold *every* seed of each subject they name.
    /// Returns `(per-subject candidates, gapped extension count)`. The
    /// top-k pruner's admission pass (`driver::search_batch_blocks`) calls
    /// this on a whole-subject block's seeds and hands the candidates to
    /// [`Finisher::rank`], so a subject is admitted by *exactly* the score
    /// it is ranked by and is extended once.
    pub(crate) fn candidates(
        &self,
        db: &SequenceDb,
        mut seeds: Vec<Seed>,
    ) -> (Vec<SubjectCandidates>, u64) {
        let params = self.params;
        let mut gapped_count = 0u64;
        // Group seeds by subject (deterministically).
        seeds.sort_by_key(|s| (s.subject, s.frag_offset, s.aln));
        let mut per_subject: Vec<SubjectCandidates> = Vec::new();
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
                #[cfg(test)]
                EXTENDED.with(|n| n.set(n.get() + 1));
                let g = self
                    .extender
                    .score(subject_res, seed_q, seed_s, params.gapped_xdrop);
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
                (
                    a.q_start, a.q_end, a.s_start, a.s_end, b.score, a.seed_q, a.seed_s,
                )
                    .cmp(&(
                        b.q_start, b.q_end, b.s_start, b.s_end, a.score, b.seed_q, b.seed_s,
                    ))
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

    /// The rank half: extend `seeds` into candidates, add the subjects
    /// already `extended` (whose seeds are not among `seeds`), apply the
    /// E-value cutoff, and keep the best `max_reported` subjects, best
    /// first by [`rank_key`]. Returns them with the number of gapped
    /// extensions *this call* performed. `obs` records one `Gapped` span
    /// around the extensions, if there are seeds to extend.
    pub(crate) fn rank<O: StageObs>(
        &self,
        db: &SequenceDb,
        seeds: Vec<Seed>,
        extended: Vec<SubjectCandidates>,
        obs: &mut O,
    ) -> (Vec<SubjectCandidates>, u64) {
        let (mut per_subject, mut gapped_count) = (extended, 0);
        if !seeds.is_empty() {
            let span = obs.start();
            let (from_seeds, n) = self.candidates(db, seeds);
            obs.record(Stage::Gapped, span);
            per_subject.extend(from_seeds);
            gapped_count = n;
        }
        per_subject.retain(|(_, cands)| self.evalue(cands[0].score) <= self.params.evalue_cutoff);
        per_subject.sort_by_key(|(subject, cands)| rank_key(cands, *subject));
        per_subject.truncate(self.params.max_reported);
        (per_subject, gapped_count)
    }

    /// The trace-back half (stage 4) for one kept subject: every candidate
    /// the cutoff would report, realigned with its operation list.
    pub(crate) fn trace_back(
        &self,
        db: &SequenceDb,
        subject: SequenceId,
        cands: &[GappedCandidate],
    ) -> Vec<Alignment> {
        let stats = &self.params.gapped_stats;
        let subject_res = db.get(subject).residues();
        let mut out = Vec::new();
        for c in cands {
            if self.evalue(c.score) > self.params.evalue_cutoff {
                continue;
            }
            // Traceback restarts from the original ungapped seed with the
            // larger final x-drop, as NCBI's stage 4 does.
            let g = self.extender.traceback(
                subject_res,
                c.seed_q.min(self.query_len as u32 - 1),
                c.seed_s.min(subject_res.len() as u32 - 1),
                self.params.final_xdrop,
            );
            out.push(Alignment {
                subject,
                bit_score: stats.bit_score(g.score),
                evalue: self.evalue(g.score),
                aln: g,
            });
        }
        out
    }

    /// [`Finisher::trace_back`] of every subject of `ranked`, in reporting
    /// order: best first, fully deterministic (a total order — see
    /// [`compare_alignments`]).
    pub(crate) fn trace_back_all(
        &self,
        db: &SequenceDb,
        ranked: &[SubjectCandidates],
    ) -> Vec<Alignment> {
        let mut out: Vec<Alignment> = Vec::new();
        for (subject, cands) in ranked {
            out.extend(self.trace_back(db, *subject, cands));
        }
        out.sort_by(compare_alignments);
        out
    }
}

/// The one key subjects are ranked — and shard lists merged — by: best
/// *preliminary* score first, ties toward the lower subject id. `subject`
/// must be an id in the space the ranking is over (global ids when
/// merging shards).
pub(crate) fn rank_key(
    cands: &[GappedCandidate],
    subject: SequenceId,
) -> (std::cmp::Reverse<i32>, SequenceId) {
    (std::cmp::Reverse(cands[0].score), subject)
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

    /// The rank half takes already-extended subjects as they are: ranking
    /// the candidates of some subjects plus the seeds of the others equals
    /// ranking all the seeds, and each subject is extended once.
    #[test]
    fn rank_reuses_extended_subjects_instead_of_their_seeds() {
        let strong = "WCHWMYFWCHWMYFW";
        let db = db_from(&["WCHWMYFGGGGGGGG", strong, &format!("AAA{strong}")]);
        let q = Sequence::from_str_checked("q", strong).unwrap();
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e9;
        params.gap_trigger = 10;
        let seeds = vec![
            Seed {
                subject: 0,
                frag_offset: 0,
                aln: ua(0, 0, 7, 60),
            },
            Seed {
                subject: 1,
                frag_offset: 0,
                aln: ua(0, 0, 15, 120),
            },
            Seed {
                subject: 2,
                frag_offset: 0,
                aln: ua(0, 3, 15, 120),
            },
        ];
        let finisher = Finisher::new(q.residues(), &params, db.total_residues(), db.len());
        let (all, all_gapped) = finisher.rank(&db, seeds.clone(), Vec::new(), &mut obsv::NoObs);
        let (early, early_gapped) = finisher.candidates(&db, vec![seeds[0], seeds[2]]);
        let (mixed, late_gapped) = finisher.rank(&db, vec![seeds[1]], early, &mut obsv::NoObs);
        assert_eq!((all_gapped, early_gapped, late_gapped), (3, 2, 1));
        let subjects = |r: &[SubjectCandidates]| r.iter().map(|(s, _)| *s).collect::<Vec<_>>();
        assert_eq!(subjects(&all), vec![1, 2, 0]);
        assert_eq!(subjects(&mixed), subjects(&all));
        assert_eq!(
            finisher.trace_back_all(&db, &mixed),
            finisher.trace_back_all(&db, &all)
        );
        // finish_query is the two halves composed.
        let total = db.total_residues();
        let (composed, gapped) = finish_query(
            q.residues(),
            &db,
            seeds,
            &params,
            total,
            db.len(),
            &mut obsv::NoObs,
        );
        assert_eq!(composed, finisher.trace_back_all(&db, &all));
        assert_eq!(gapped, 3);
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
