//! Long-sequence splitting and extension re-assembly (paper Sec. IV-A).
//!
//! Protein databases contain rare, very long sequences (~40 k residues).
//! Rather than index them directly — which would blow up the last-hit
//! arrays and diagonal spaces — the paper follows Orion: split the long
//! sequence into fragments with **overlapped boundaries**, search each
//! fragment as an ordinary subject, and stitch extensions that cross a
//! boundary back together in an assembly pass.

use crate::types::UngappedAlignment;

/// A fragment of a long sequence: `offset` is the fragment's start within
/// the original sequence; `range` indexes the original residues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fragment {
    pub offset: usize,
    pub len: usize,
}

/// Split a sequence of length `len` into fragments of at most `max_len`
/// residues with `overlap` residues shared between consecutive fragments.
///
/// Sequences with `len <= max_len` yield a single fragment. The stride is
/// `max_len − overlap`, so every residue (and every window of length
/// `≤ overlap + 1`) appears in at least one fragment.
///
/// # Panics
/// Panics if `overlap >= max_len` or `max_len == 0`.
pub fn split_long(len: usize, max_len: usize, overlap: usize) -> Vec<Fragment> {
    assert!(max_len > 0, "max_len must be positive");
    assert!(overlap < max_len, "overlap must be smaller than max_len");
    if len <= max_len {
        return vec![Fragment { offset: 0, len }];
    }
    let stride = max_len - overlap;
    let mut out = Vec::new();
    let mut offset = 0usize;
    loop {
        let remaining = len - offset;
        if remaining <= max_len {
            out.push(Fragment { offset, len: remaining });
            break;
        }
        out.push(Fragment { offset, len: max_len });
        offset += stride;
    }
    out
}

/// Merge per-fragment ungapped extensions back into original-sequence
/// coordinates, coalescing duplicates and overlapping alignments on the
/// same diagonal (an extension crossing a fragment boundary is found by
/// both fragments; the assembly keeps the higher-scoring span).
///
/// `alignments` carries `(fragment_offset, alignment_in_fragment_coords)`.
pub fn assemble_ungapped(
    mut alignments: Vec<(usize, UngappedAlignment)>,
) -> Vec<UngappedAlignment> {
    // Shift into original coordinates.
    let mut shifted: Vec<UngappedAlignment> = alignments
        .drain(..)
        .map(|(off, mut a)| {
            a.s_start += off as u32;
            a.s_end += off as u32;
            a
        })
        .collect();
    // Group by diagonal, then sweep by start offset keeping the best of
    // overlapping spans.
    shifted.sort_by_key(|a| (a.diagonal(), a.s_start, std::cmp::Reverse(a.score)));
    let mut out: Vec<UngappedAlignment> = Vec::with_capacity(shifted.len());
    for a in shifted {
        match out.last_mut() {
            Some(prev) if prev.diagonal() == a.diagonal() && a.s_start < prev.s_end => {
                // Overlap on the same diagonal: keep the better one.
                if a.score > prev.score {
                    *prev = a;
                }
            }
            _ => out.push(a),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_sequence_single_fragment() {
        let f = split_long(100, 1000, 50);
        assert_eq!(f, vec![Fragment { offset: 0, len: 100 }]);
    }

    #[test]
    fn exact_boundary_single_fragment() {
        let f = split_long(1000, 1000, 50);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn fragments_cover_everything_with_overlap() {
        let (len, max, ov) = (40_000, 2_000, 100);
        let frags = split_long(len, max, ov);
        assert!(frags.len() > 1);
        // Coverage and overlap invariants.
        assert_eq!(frags[0].offset, 0);
        let last = frags.last().unwrap();
        assert_eq!(last.offset + last.len, len);
        for w in frags.windows(2) {
            assert_eq!(w[1].offset, w[0].offset + (max - ov));
            assert!(
                w[1].offset < w[0].offset + w[0].len,
                "consecutive fragments must overlap"
            );
        }
        for f in &frags {
            assert!(f.len <= max);
        }
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlap_must_be_smaller_than_max() {
        split_long(10, 5, 5);
    }

    fn ua(q: u32, s: u32, len: u32, score: i32) -> UngappedAlignment {
        UngappedAlignment { q_start: q, q_end: q + len, s_start: s, s_end: s + len, score }
    }

    #[test]
    fn assembly_shifts_coordinates() {
        let out = assemble_ungapped(vec![(1000, ua(5, 10, 8, 30))]);
        assert_eq!(out, vec![ua(5, 1010, 8, 30)]);
    }

    #[test]
    fn assembly_deduplicates_boundary_crossing_extensions() {
        // The same physical alignment found from two overlapping fragments:
        // fragment A at offset 0 sees it at s = 90; fragment B at offset 50
        // sees it at s = 40. Identical span after shifting → keep one.
        let a = (0usize, ua(3, 90, 12, 40));
        let b = (50usize, ua(3, 40, 12, 40));
        let out = assemble_ungapped(vec![a, b]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], ua(3, 90, 12, 40));
    }

    #[test]
    fn assembly_keeps_best_of_overlapping_spans() {
        // Fragment boundary truncated one copy: the longer, higher-scoring
        // span must win.
        let truncated = (0usize, ua(3, 95, 5, 18)); // cut at fragment end
        let full = (50usize, ua(3, 45, 12, 40)); // = s 95..107 after shift
        let out = assemble_ungapped(vec![truncated, full]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].score, 40);
        assert_eq!(out[0].s_end - out[0].s_start, 12);
    }

    #[test]
    fn assembly_keeps_distinct_diagonals_and_spans() {
        let a = (0usize, ua(3, 10, 5, 20)); // diagonal 7
        let b = (0usize, ua(3, 40, 5, 25)); // diagonal 37, disjoint span
        let c = (0usize, ua(8, 15, 5, 22)); // same diagonal as a, disjoint
        let out = assemble_ungapped(vec![a, b, c]);
        assert_eq!(out.len(), 3);
    }
}
