//! Two-hit ungapped x-drop extension (pipeline stage 2).
//!
//! When hit detection finds a second hit on the same diagonal within the
//! two-hit window of the previous one, the pair is extended into a gapless
//! alignment (paper Fig. 1(b)):
//!
//! 1. score the second hit's word;
//! 2. extend **left** from the word, tracking the running maximum and
//!    stopping when the score falls `xdrop` below it;
//! 3. the extension is only kept if the left extension *connects* with the
//!    first hit (NCBI's two-hit rule) — otherwise the second hit merely
//!    replaces the last hit on the diagonal;
//! 4. if connected, extend **right** the same way.
//!
//! The kernel is generic over [`memsim::Tracer`] so the cache experiments
//! (Figs. 2 and 8) can replay its exact access pattern — the random jumps
//! across subject sequences that this paper eliminates happen *around* this
//! kernel, so tracing its query/subject reads is what exposes them.
//! Production engines instantiate it with [`memsim::NullTracer`], which
//! erases all tracing at compile time.

use crate::types::UngappedAlignment;
use bioseq::alphabet::WORD_LEN;
use memsim::Tracer;
use scoring::Matrix;

/// Outcome of a two-hit extension attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwoHitOutcome {
    /// The ungapped alignment, if the left extension connected to the
    /// first hit.
    pub alignment: Option<UngappedAlignment>,
    /// Query offset to record as the diagonal's new "last hit" position:
    /// the end of the extension when one was made, otherwise the second
    /// hit's offset (paper Alg. 1, lines 22–24).
    pub last_hit_update: u32,
}

/// Perform a two-hit ungapped extension.
///
/// * `first_q_end` — query offset just past the first hit's word
///   (`q1 + W`); pass `None` for one-hit seeding (then the extension is
///   unconditional).
/// * `(q2, s2)` — word start of the second (triggering) hit.
/// * `xdrop` — raw-score drop-off terminating each direction.
/// * `query_base` / `subject_base` — simulated base addresses for tracing;
///   irrelevant under [`memsim::NullTracer`].
///
/// # Panics
/// Debug-asserts that the word at `(q2, s2)` lies inside both sequences.
#[allow(
    clippy::too_many_arguments,
    reason = "sequences, both hit positions, scoring and x-drop are independent kernel inputs"
)]
pub fn extend_two_hit<T: Tracer>(
    matrix: &Matrix,
    query: &[u8],
    subject: &[u8],
    first_q_end: Option<u32>,
    q2: u32,
    s2: u32,
    xdrop: i32,
    tracer: &mut T,
    query_base: u64,
    subject_base: u64,
) -> TwoHitOutcome {
    let (q2u, s2u) = (q2 as usize, s2 as usize);
    debug_assert!(q2u + WORD_LEN <= query.len());
    debug_assert!(s2u + WORD_LEN <= subject.len());

    // Score the triggering word itself.
    let mut score: i32 = 0;
    for i in 0..WORD_LEN {
        tracer.touch(query_base + (q2u + i) as u64, 1);
        tracer.touch(subject_base + (s2u + i) as u64, 1);
        score += matrix.score(query[q2u + i], subject[s2u + i]);
    }

    // Left extension.
    let mut best = score;
    let mut running = score;
    let mut best_left = 0u32; // residues extended left of q2
    let mut i = 1usize;
    while i <= q2u && i <= s2u {
        tracer.touch(query_base + (q2u - i) as u64, 1);
        tracer.touch(subject_base + (s2u - i) as u64, 1);
        running += matrix.score(query[q2u - i], subject[s2u - i]);
        if running > best {
            best = running;
            best_left = i as u32;
        } else if best - running > xdrop {
            break;
        }
        i += 1;
    }

    // Two-hit rule: the left extension must connect with the first hit.
    let connected = match first_q_end {
        None => true,
        Some(fe) => q2 - best_left <= fe,
    };
    if !connected {
        return TwoHitOutcome { alignment: None, last_hit_update: q2 };
    }

    // Right extension, continuing from the best left score.
    let mut running = best;
    let mut best_right = 0u32;
    let mut i = 0usize;
    while q2u + WORD_LEN + i < query.len() && s2u + WORD_LEN + i < subject.len() {
        tracer.touch(query_base + (q2u + WORD_LEN + i) as u64, 1);
        tracer.touch(subject_base + (s2u + WORD_LEN + i) as u64, 1);
        running += matrix.score(query[q2u + WORD_LEN + i], subject[s2u + WORD_LEN + i]);
        if running > best {
            best = running;
            best_right = (i + 1) as u32;
        } else if best - running > xdrop {
            break;
        }
        i += 1;
    }

    let alignment = UngappedAlignment {
        q_start: q2 - best_left,
        q_end: q2 + WORD_LEN as u32 + best_right,
        s_start: s2 - best_left,
        s_end: s2 + WORD_LEN as u32 + best_right,
        score: best,
    };
    TwoHitOutcome { alignment: Some(alignment), last_hit_update: alignment.q_end }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::alphabet::encode_str;
    use memsim::{CountingTracer, NullTracer};
    use scoring::BLOSUM62;

    fn enc(s: &str) -> Vec<u8> {
        encode_str(s).unwrap()
    }

    /// Identical sequences: extension must cover the whole sequence and
    /// score the self-similarity.
    #[test]
    fn identical_sequences_extend_fully() {
        let q = enc("MARNDCQEGHILK");
        let s = q.clone();
        let out = extend_two_hit(
            &BLOSUM62, &q, &s, Some(3), 8, 8, 16, &mut NullTracer, 0, 0,
        );
        let a = out.alignment.unwrap();
        assert_eq!((a.q_start, a.q_end), (0, 13));
        assert_eq!((a.s_start, a.s_end), (0, 13));
        let self_score: i32 = q.iter().map(|&c| BLOSUM62.score(c, c)).sum();
        assert_eq!(a.score, self_score);
        assert_eq!(out.last_hit_update, 13);
    }

    /// A mismatch wall on the right stops the right extension.
    #[test]
    fn xdrop_terminates_extension() {
        // Query and subject share a strong core then diverge into W-vs-P
        // (score -4) territory: the extension must stop at the core.
        let q = enc("WWWWWWPPPPPPPP");
        let s = enc("WWWWWWGGGGGGGG");
        let out = extend_two_hit(
            &BLOSUM62, &q, &s, Some(3), 3, 3, 16, &mut NullTracer, 0, 0,
        );
        let a = out.alignment.unwrap();
        assert_eq!(a.q_start, 0);
        assert_eq!(a.q_end, 6, "extension should stop after the W core");
        assert_eq!(a.score, 6 * 11);
    }

    /// Left extension that cannot connect to the first hit yields no
    /// alignment and resets the last-hit marker to the second hit.
    #[test]
    fn disconnected_two_hit_rejected() {
        // Strong word at offset 0 and at offset 10, separated by a deeply
        // negative region, with a tiny x-drop so the left extension dies.
        let q = enc("WWWPPPPPPPWWW");
        let s = enc("WWWGGGGGGGWWW");
        let out = extend_two_hit(
            &BLOSUM62, &q, &s, Some(3), 10, 10, 5, &mut NullTracer, 0, 0,
        );
        assert!(out.alignment.is_none());
        assert_eq!(out.last_hit_update, 10);
    }

    /// One-hit seeding (`first_q_end = None`) always extends.
    #[test]
    fn one_hit_mode_extends_unconditionally() {
        let q = enc("WWWPPPPPPPWWW");
        let s = enc("WWWGGGGGGGWWW");
        let out =
            extend_two_hit(&BLOSUM62, &q, &s, None, 10, 10, 5, &mut NullTracer, 0, 0);
        assert!(out.alignment.is_some());
    }

    /// Extension at the very start of both sequences (no left room).
    #[test]
    fn extension_at_sequence_boundary() {
        let q = enc("WWW");
        let s = enc("WWW");
        let out =
            extend_two_hit(&BLOSUM62, &q, &s, None, 0, 0, 16, &mut NullTracer, 0, 0);
        let a = out.alignment.unwrap();
        assert_eq!((a.q_start, a.q_end, a.score), (0, 3, 33));
    }

    /// Off-diagonal word positions extend on their own diagonal.
    #[test]
    fn off_diagonal_extension_coordinates() {
        let q = enc("AAWWWAA");
        let s = enc("GGGAAWWWAAGGG");
        // Word WWW at q=2, s=5 (diagonal +3).
        let out =
            extend_two_hit(&BLOSUM62, &q, &s, None, 2, 5, 16, &mut NullTracer, 0, 0);
        let a = out.alignment.unwrap();
        assert_eq!(a.diagonal(), 3);
        assert_eq!((a.q_start, a.q_end), (0, 7));
        assert_eq!((a.s_start, a.s_end), (3, 10));
    }

    /// The instrumented kernel touches exactly the residues it scores.
    #[test]
    fn tracer_sees_every_residue_access() {
        let q = enc("MARNDCQEGHILK");
        let s = q.clone();
        let mut tracer = CountingTracer::default();
        let out =
            extend_two_hit(&BLOSUM62, &q, &s, Some(3), 8, 8, 16, &mut tracer, 0, 4096);
        assert!(out.alignment.is_some());
        // Word (3) + left (8) + right (2) residues, ×2 sequences.
        assert_eq!(tracer.accesses, 2 * (3 + 8 + 2));
    }

    /// Score returned equals a naive rescoring of the reported range.
    #[test]
    fn score_matches_reported_range() {
        let q = enc("MKVLAARNDWWWQQEGH");
        let s = enc("MKVLSARNDWWWQQAGH");
        let out = extend_two_hit(
            &BLOSUM62, &q, &s, Some(5), 9, 9, 16, &mut NullTracer, 0, 0,
        );
        let a = out.alignment.unwrap();
        let naive: i32 = (a.q_start..a.q_end)
            .zip(a.s_start..a.s_end)
            .map(|(i, j)| BLOSUM62.score(q[i as usize], s[j as usize]))
            .sum();
        assert_eq!(a.score, naive);
    }
}
