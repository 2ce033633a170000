//! Per-sequence score profiles (DESIGN.md §3.8).
//!
//! A [`ScoreProfile`] is the substitution matrix re-laid-out around one
//! fixed sequence: one contiguous row of `i8` scores per residue code,
//! `ALPHABET_SIZE` rows in a single flat allocation. An extension loop
//! that walks the fixed sequence against some other sequence then reads
//! its scores *sequentially* from one row (`row(other_residue)`) instead
//! of gathering `matrix[a][b]` cell by cell — the same
//! irregularity-elimination move the paper applies to hit detection,
//! here applied to the extension stages.
//!
//! [`ScoreProfile::for_query`] builds `row(c)[i] == matrix.score(seq[i], c)`:
//! the fixed sequence supplies the *first* matrix index, so the profile
//! does not assume [`Matrix`] is symmetric. It is built once per query and
//! reused across every subject the query extends against.
//!
//! Rows store `i8` (the matrix's own cell width), which is what lets the
//! striped kernels pack eight scores into a u64 without widening first.

use crate::matrix::Matrix;
use bioseq::alphabet::ALPHABET_SIZE;

/// A substitution matrix specialised to one sequence: one score row per
/// residue code, contiguous over the sequence's positions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScoreProfile {
    /// `ALPHABET_SIZE` rows of `len` scores, flattened row-major.
    rows: Vec<i8>,
    /// Length of the profiled sequence (row stride).
    len: usize,
}

impl ScoreProfile {
    /// Profile with the fixed sequence as the matrix's first index:
    /// `row(c)[i] == matrix.score(seq[i], c)`.
    pub fn for_query(matrix: &Matrix, seq: &[u8]) -> ScoreProfile {
        let mut rows = vec![0i8; ALPHABET_SIZE * seq.len()];
        for (c, row) in rows.chunks_exact_mut(seq.len().max(1)).enumerate() {
            // lint: c < ALPHABET_SIZE by construction of chunks_exact_mut.
            for (slot, &q) in row.iter_mut().zip(seq) {
                *slot = matrix.row(q)[c];
            }
        }
        ScoreProfile { rows, len: seq.len() }
    }

    /// Length of the profiled sequence.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the profiled sequence was empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The score row for residue code `c`: `len` sequential scores of the
    /// profiled sequence against `c`.
    ///
    /// # Panics
    /// Panics if `c >= ALPHABET_SIZE` (same contract as [`Matrix::score`]).
    #[inline]
    pub(crate) fn row(&self, c: u8) -> &[i8] {
        &self.rows[c as usize * self.len..(c as usize + 1) * self.len]
    }

    /// One profiled score, as the matrix would report it.
    #[inline]
    pub fn score(&self, c: u8, pos: usize) -> i32 {
        i32::from(self.row(c)[pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::BLOSUM62;

    fn all_codes() -> Vec<u8> {
        (0..ALPHABET_SIZE as u8).collect()
    }

    #[test]
    fn query_profile_matches_matrix_cell_for_cell() {
        let seq = all_codes();
        let p = ScoreProfile::for_query(&BLOSUM62, &seq);
        assert_eq!(p.len(), seq.len());
        for c in 0..ALPHABET_SIZE as u8 {
            for (i, &q) in seq.iter().enumerate() {
                assert_eq!(p.score(c, i), BLOSUM62.score(q, c), "q={q} c={c}");
            }
        }
    }

    #[test]
    fn empty_sequence_profiles_are_well_formed() {
        let p = ScoreProfile::for_query(&BLOSUM62, &[]);
        assert!(p.is_empty());
        for c in 0..ALPHABET_SIZE as u8 {
            assert!(p.row(c).is_empty());
        }
    }

    #[test]
    fn rows_are_contiguous_and_sequential() {
        let seq = vec![0u8, 5, 11, 3, 7];
        let p = ScoreProfile::for_query(&BLOSUM62, &seq);
        let row = p.row(2);
        assert_eq!(row.len(), seq.len());
        for (i, &q) in seq.iter().enumerate() {
            assert_eq!(i32::from(row[i]), BLOSUM62.score(q, 2));
        }
    }
}
