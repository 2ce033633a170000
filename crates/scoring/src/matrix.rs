//! Substitution matrices over the 24-letter protein alphabet.
//!
//! Matrices are stored as flat `24 × 24` arrays of `i8` indexed by the
//! residue codes defined in `bioseq::alphabet` (NCBI order
//! `ARNDCQEGHILKMFPSTWYVBZX*`). BLOSUM62 — the BLASTP default and the matrix
//! used throughout the muBLASTP paper — is built in.

use bioseq::alphabet::ALPHABET_SIZE;
use std::fmt;

/// A square substitution matrix over the 24-letter alphabet.
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    /// Human-readable name, e.g. `"BLOSUM62"`.
    pub name: &'static str,
    scores: [[i8; ALPHABET_SIZE]; ALPHABET_SIZE],
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({})", self.name)
    }
}

impl Matrix {
    /// Score of substituting residue code `a` for residue code `b`.
    ///
    /// # Panics
    /// Panics if either code is `>= 24` (debug builds assert; release builds
    /// panic via slice indexing).
    #[inline(always)]
    pub fn score(&self, a: u8, b: u8) -> i32 {
        self.scores[a as usize][b as usize] as i32
    }

    /// Row of scores for residue code `a` — handy for inner loops that keep
    /// the row pointer in a register.
    #[inline(always)]
    pub fn row(&self, a: u8) -> &[i8; ALPHABET_SIZE] {
        &self.scores[a as usize]
    }

    /// Per-row maximum scores: `row_max()[a]` is the best score any residue
    /// can achieve against `a`.
    pub(crate) fn row_max(&self) -> [i32; ALPHABET_SIZE] {
        let mut out = [i32::MIN; ALPHABET_SIZE];
        for (a, row) in self.scores.iter().enumerate() {
            out[a] = row.iter().fold(i32::MIN, |m, &s| m.max(s as i32));
        }
        out
    }
}

/// BLOSUM62 in NCBI residue order `ARNDCQEGHILKMFPSTWYVBZX*` — the default
/// matrix for BLASTP and the one used in all of the paper's experiments.
pub const BLOSUM62: Matrix = Matrix {
    name: "BLOSUM62",
    scores: [
        // A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V   B   Z   X   *
        [4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0, -2, -1, 0, -4], // A
        [-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3, -1, 0, -1, -4], // R
        [-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3, 3, 0, -1, -4],      // N
        [-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3, 4, 1, -1, -4], // D
        [0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -3, -3, -2, -4], // C
        [-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2, 0, 3, -1, -4],     // Q
        [-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2, 1, 4, -1, -4],    // E
        [0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3, -1, -2, -1, -4], // G
        [-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3, 0, 0, -1, -4],  // H
        [-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3, -3, -3, -1, -4], // I
        [-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1, -4, -3, -1, -4], // L
        [-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2, 0, 1, -1, -4],  // K
        [-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1, -3, -1, -1, -4], // M
        [-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1, -3, -3, -1, -4], // F
        [-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2, -2, -1, -2, -4], // P
        [1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2, 0, 0, 0, -4],      // S
        [0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0, -1, -1, 0, -4], // T
        [-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3, -4, -3, -2, -4], // W
        [-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1, -3, -2, -1, -4], // Y
        [0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4, -3, -2, -1, -4], // V
        [-2, -1, 3, 4, -3, 0, 1, -1, 0, -3, -4, 0, -3, -3, -2, 0, -1, -4, -3, -3, 4, 1, -1, -4],   // B
        [-1, 0, 0, 1, -3, 3, 4, -2, 0, -3, -3, 1, -1, -3, -1, 0, -1, -3, -2, -2, 1, 4, -1, -4],    // Z
        [0, -1, -1, -1, -2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -2, 0, 0, -2, -1, -1, -1, -1, -1, -4], // X
        [-4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, 1], // *
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::alphabet::{encode_residue, encode_str};

    fn code(c: char) -> u8 {
        encode_residue(c as u8).unwrap()
    }

    #[test]
    fn blosum62_is_symmetric() {
        for a in 0..ALPHABET_SIZE as u8 {
            for b in 0..a {
                assert_eq!(BLOSUM62.score(a, b), BLOSUM62.score(b, a), "codes {a}, {b}");
            }
        }
    }

    #[test]
    fn blosum62_known_entries() {
        // Spot-check the canonical values.
        assert_eq!(BLOSUM62.score(code('W'), code('W')), 11);
        assert_eq!(BLOSUM62.score(code('A'), code('A')), 4);
        assert_eq!(BLOSUM62.score(code('C'), code('C')), 9);
        assert_eq!(BLOSUM62.score(code('A'), code('R')), -1);
        assert_eq!(BLOSUM62.score(code('W'), code('C')), -2);
        assert_eq!(BLOSUM62.score(code('L'), code('I')), 2);
        assert_eq!(BLOSUM62.score(code('*'), code('*')), 1);
        assert_eq!(BLOSUM62.score(code('X'), code('X')), -1);
        assert_eq!(BLOSUM62.score(code('B'), code('D')), 4);
        assert_eq!(BLOSUM62.score(code('Z'), code('E')), 4);
    }

    #[test]
    fn blosum62_extremes() {
        let all = || BLOSUM62.scores.iter().flatten().copied();
        assert_eq!(all().max(), Some(11));
        assert_eq!(all().min(), Some(-4));
    }

    #[test]
    fn blosum62_diagonal_positive_for_real_residues() {
        for s in encode_str("ARNDCQEGHILKMFPSTWYV").unwrap() {
            assert!(BLOSUM62.score(s, s) >= 4, "self score for code {s}");
        }
    }

    #[test]
    fn row_max_consistent_with_score() {
        let rm = BLOSUM62.row_max();
        for a in 0..ALPHABET_SIZE as u8 {
            let best = (0..ALPHABET_SIZE as u8).map(|b| BLOSUM62.score(a, b)).max().unwrap();
            assert_eq!(rm[a as usize], best);
        }
    }
}
