//! Neighboring-word generation.
//!
//! For BLASTP, a *hit* between a query word `q` and a subject word `w` is
//! declared whenever the positional substitution score
//! `Σ_i matrix(q_i, w_i)` reaches the word threshold `T` (default 11 with
//! BLOSUM62). The set of all `w` reaching the threshold for a given `q` are
//! `q`'s **neighboring words** — note a word is its own neighbor only if its
//! self-score reaches `T`, exactly as in NCBI-BLAST.
//!
//! The muBLASTP paper stores the database index *without* neighbor
//! duplication and instead keeps a separate word → neighbors lookup table
//! (its Fig. 3(b)); this module builds that table. The same table also
//! drives the query-index build (where positions are duplicated into every
//! neighbor cell, NCBI style).
//!
//! The enumeration is branch-and-bound: for each word we walk the three
//! positions depth-first and prune any prefix whose score plus the best
//! achievable remainder cannot reach `T`. This replaces the naive
//! `13 824²` score evaluations with a few hundred visits per word.

use crate::matrix::Matrix;
use bioseq::alphabet::{pack_word, unpack_word, Word, ALPHABET_SIZE, WORD_LEN, WORD_SPACE};

/// Compressed-sparse-row table of neighboring words for every word id.
#[derive(Clone, Debug)]
pub struct NeighborTable {
    /// `offsets[w] .. offsets[w + 1]` indexes `neighbors` for word `w`.
    offsets: Vec<u32>,
    /// Flat neighbor lists, each sorted ascending by word id.
    neighbors: Vec<Word>,
}

impl NeighborTable {
    /// Build the neighbor table for `matrix` at word threshold `threshold`.
    ///
    /// Complexity is O(`WORD_SPACE` × visited-nodes); with BLOSUM62 and
    /// T = 11 this takes a few tens of milliseconds in release builds.
    pub fn build(matrix: &Matrix, threshold: i32) -> NeighborTable {
        let row_max = matrix.row_max();
        let mut offsets = Vec::with_capacity(WORD_SPACE + 1);
        let mut neighbors: Vec<Word> = Vec::new();
        offsets.push(0);

        let mut stack_buf: Vec<Word> = Vec::with_capacity(256);
        for w in 0..WORD_SPACE as Word {
            let target = unpack_word(w);
            stack_buf.clear();
            enumerate(matrix, &row_max, &target, threshold, &mut stack_buf);
            // DFS over ascending residue codes at each position yields
            // neighbors already sorted by packed id.
            neighbors.extend_from_slice(&stack_buf);
            offsets.push(neighbors.len() as u32);
        }
        NeighborTable { offsets, neighbors }
    }

    /// Neighbors of word `w` (sorted ascending). May be empty (for
    /// low-complexity words whose best match cannot reach `T`).
    #[inline]
    pub fn neighbors(&self, w: Word) -> &[Word] {
        let lo = self.offsets[w as usize] as usize;
        let hi = self.offsets[w as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }
}

/// Depth-first enumeration of all words scoring `>= threshold` against
/// `target`, with best-remaining pruning.
fn enumerate(
    matrix: &Matrix,
    row_max: &[i32; ALPHABET_SIZE],
    target: &[u8; WORD_LEN],
    threshold: i32,
    out: &mut Vec<Word>,
) {
    // Best achievable score for the suffix starting at position i.
    let mut suffix_best = [0i32; WORD_LEN + 1];
    for i in (0..WORD_LEN).rev() {
        suffix_best[i] = suffix_best[i + 1] + row_max[target[i] as usize];
    }

    let row0 = matrix.row(target[0]);
    let row1 = matrix.row(target[1]);
    let row2 = matrix.row(target[2]);
    for r0 in 0..ALPHABET_SIZE as u8 {
        let s0 = row0[r0 as usize] as i32;
        if s0 + suffix_best[1] < threshold {
            continue;
        }
        for r1 in 0..ALPHABET_SIZE as u8 {
            let s1 = s0 + row1[r1 as usize] as i32;
            if s1 + suffix_best[2] < threshold {
                continue;
            }
            for r2 in 0..ALPHABET_SIZE as u8 {
                if s1 + row2[r2 as usize] as i32 >= threshold {
                    out.push(pack_word(r0, r1, r2));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::BLOSUM62;
    use bioseq::alphabet::encode_str;

    /// Positional word score `Σ_i matrix(a_i, b_i)`.
    fn word_score(matrix: &Matrix, a: Word, b: Word) -> i32 {
        let ua = unpack_word(a);
        let ub = unpack_word(b);
        (0..WORD_LEN).map(|i| matrix.score(ua[i], ub[i])).sum()
    }

    fn word(s: &str) -> Word {
        let codes = encode_str(s).unwrap();
        pack_word(codes[0], codes[1], codes[2])
    }

    #[test]
    fn word_score_examples() {
        // WWW self-score = 33; AAA = 12; XXX = -3.
        assert_eq!(word_score(&BLOSUM62, word("WWW"), word("WWW")), 33);
        assert_eq!(word_score(&BLOSUM62, word("AAA"), word("AAA")), 12);
        assert_eq!(word_score(&BLOSUM62, word("XXX"), word("XXX")), -3);
        assert_eq!(word_score(&BLOSUM62, word("ARN"), word("RNA")), -1 - 2);
    }

    #[test]
    fn table_matches_naive_for_sampled_words() {
        let t = NeighborTable::build(&BLOSUM62, 11);
        // Verify against brute force for a deterministic sample of words.
        for w in (0..WORD_SPACE as Word).step_by(997) {
            let naive: Vec<Word> = (0..WORD_SPACE as Word)
                .filter(|&v| word_score(&BLOSUM62, w, v) >= 11)
                .collect();
            assert_eq!(t.neighbors(w), naive.as_slice(), "word {w}");
        }
    }

    #[test]
    fn self_neighbor_iff_self_score_reaches_threshold() {
        let t = NeighborTable::build(&BLOSUM62, 11);
        let aaa = word("AAA"); // self-score 12 >= 11 → contained
        assert!(t.neighbors(aaa).contains(&aaa));
        let sss = word("SSS"); // self-score 12 → contained
        assert!(t.neighbors(sss).contains(&sss));
        let xxx = word("XXX"); // self-score -3 → not contained
        assert!(!t.neighbors(xxx).contains(&xxx));
    }

    #[test]
    fn symmetric_relation() {
        let t = NeighborTable::build(&BLOSUM62, 11);
        // BLOSUM62 is symmetric, so the neighbor relation must be too.
        for w in (0..WORD_SPACE as Word).step_by(1501) {
            for &v in t.neighbors(w) {
                assert!(t.neighbors(v).contains(&w), "asymmetry {w} vs {v}");
            }
        }
    }

    #[test]
    fn neighbor_lists_sorted() {
        let t = NeighborTable::build(&BLOSUM62, 11);
        for w in (0..WORD_SPACE as Word).step_by(313) {
            let n = t.neighbors(w);
            assert!(n.windows(2).all(|p| p[0] < p[1]));
        }
    }

    #[test]
    fn higher_threshold_shrinks_table() {
        let t11 = NeighborTable::build(&BLOSUM62, 11);
        let t13 = NeighborTable::build(&BLOSUM62, 13);
        let total_pairs = |t: &NeighborTable| -> usize {
            (0..WORD_SPACE as Word).map(|w| t.neighbors(w).len()).sum()
        };
        assert!(total_pairs(&t13) < total_pairs(&t11));
        // More than one neighbor per word on average.
        assert!(total_pairs(&t11) > WORD_SPACE);
    }

    #[test]
    fn www_has_rich_neighborhood() {
        // W scores 11 against itself; WWW reaches T=11 with many
        // combinations of high-scoring third letters.
        let t = NeighborTable::build(&BLOSUM62, 11);
        let n = t.neighbors(word("WWW"));
        assert!(n.contains(&word("WWW")));
        assert!(n.contains(&word("WWF"))); // 11+11+1 = 23
        assert!(n.len() > 50);
    }
}
