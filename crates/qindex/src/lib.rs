//! The query index — the lookup table behind classic (NCBI-style) BLASTP.
//!
//! Query-indexed BLAST builds, per query, a table from every possible word
//! to the query positions that word hits (paper Sec. II-A): position `p` of
//! query word `q` is stored in the cell of **every neighbor** `w` of `q`
//! (including `q` itself when its self-score reaches the threshold), so hit
//! detection is a single lookup per subject word.
//!
//! Two NCBI lookup-table optimisations described in the paper's related
//! work (Sec. VI) are implemented:
//!
//! * **presence vector** (`pv` array) — one bit per cell, so the scan can
//!   skip empty cells without touching the table;
//! * **thick backbone** — cells with at most `INLINE_POSITIONS` hits
//!   store them inline in the backbone; only heavier cells spill to an
//!   overflow array. Query indexes are dominated by empty and thin cells,
//!   which is exactly why these tricks work for the query index and *not*
//!   for the database index (every cell of a database index holds
//!   thousands of positions — the paper's argument for a different design).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_methods
)]

use bioseq::alphabet::{Word, WordIter, WORD_SPACE};
use scoring::NeighborTable;

/// Positions stored inline in a backbone cell (NCBI uses 3).
pub(crate) const INLINE_POSITIONS: usize = 3;

/// One backbone cell: either up to [`INLINE_POSITIONS`] inline positions
/// or a span of the overflow array.
#[derive(Clone, Copy, Debug)]
struct Cell {
    /// Number of positions in this cell.
    count: u32,
    /// Inline storage (`count <= INLINE_POSITIONS`), otherwise
    /// `inline_[0]` is the offset into the overflow array.
    inline_: [u32; INLINE_POSITIONS],
}

/// Query index: presence vector + thick backbone + overflow array.
pub struct QueryIndex {
    pv: Vec<u64>,
    cells: Vec<Cell>,
    overflow: Vec<u32>,
}

impl QueryIndex {
    /// Build the index for an encoded query under the given neighbor table.
    ///
    /// ```
    /// use bioseq::alphabet::{encode_str, pack_word};
    /// use qindex::QueryIndex;
    /// use scoring::{NeighborTable, BLOSUM62};
    ///
    /// let neighbors = NeighborTable::build(&BLOSUM62, 11);
    /// let query = encode_str("MKVLWCH").unwrap();
    /// let index = QueryIndex::build(&query, &neighbors);
    /// // The word WCH occurs at query offset 4 (and is its own neighbor).
    /// let wch = pack_word(query[4], query[5], query[6]);
    /// assert!(index.is_present(wch));
    /// assert!(index.lookup(wch).contains(&4));
    /// ```
    pub fn build(query: &[u8], neighbors: &NeighborTable) -> QueryIndex {
        // Pass 1: per-cell counts.
        let mut counts = vec![0u32; WORD_SPACE];
        for (_pos, word) in WordIter::new(query) {
            for &v in neighbors.neighbors(word) {
                counts[v as usize] += 1;
            }
        }
        // Pass 2: lay out cells; heavy cells get overflow spans.
        let mut cells = vec![Cell { count: 0, inline_: [0; INLINE_POSITIONS] }; WORD_SPACE];
        let mut overflow_len = 0u32;
        for (w, &c) in counts.iter().enumerate() {
            cells[w].count = 0; // reused as a write cursor in pass 3
            if c as usize > INLINE_POSITIONS {
                cells[w].inline_[0] = overflow_len;
                overflow_len += c;
            }
        }
        let mut overflow = vec![0u32; overflow_len as usize];
        // Pass 3: fill positions in scan order (ascending query offset —
        // the order hit detection relies on).
        for (pos, word) in WordIter::new(query) {
            for &v in neighbors.neighbors(word) {
                let total = counts[v as usize] as usize;
                let cell = &mut cells[v as usize];
                let k = cell.count as usize;
                if total > INLINE_POSITIONS {
                    overflow[cell.inline_[0] as usize + k] = pos;
                } else {
                    cell.inline_[k] = pos;
                }
                cell.count += 1;
            }
        }
        // Presence vector.
        let mut pv = vec![0u64; WORD_SPACE.div_ceil(64)];
        for (w, &c) in counts.iter().enumerate() {
            if c > 0 {
                pv[w / 64] |= 1 << (w % 64);
            }
        }
        QueryIndex { pv, cells, overflow }
    }

    /// Presence-vector test: does cell `w` hold any positions?
    #[inline]
    pub fn is_present(&self, w: Word) -> bool {
        (self.pv[w as usize / 64] >> (w as usize % 64)) & 1 == 1
    }

    /// Query positions hitting word `w`, ascending.
    #[inline]
    pub fn lookup(&self, w: Word) -> &[u32] {
        let cell = &self.cells[w as usize];
        let n = cell.count as usize;
        if n <= INLINE_POSITIONS {
            &cell.inline_[..n]
        } else {
            let off = cell.inline_[0] as usize;
            &self.overflow[off..off + n]
        }
    }

    /// Total stored positions (with neighbor duplication — this is the
    /// redundancy the paper's database index avoids).
    pub fn total_positions(&self) -> usize {
        self.cells.iter().map(|c| c.count as usize).sum()
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.pv.len() * 8
            + self.cells.len() * std::mem::size_of::<Cell>()
            + self.overflow.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::alphabet::{encode_str, pack_word};
    use scoring::{NeighborTable, BLOSUM62};
    use std::sync::OnceLock;

    fn table() -> &'static NeighborTable {
        static T: OnceLock<NeighborTable> = OnceLock::new();
        T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
    }

    fn word(s: &str) -> Word {
        let c = encode_str(s).unwrap();
        pack_word(c[0], c[1], c[2])
    }

    #[test]
    fn lookup_matches_naive_neighbor_scan() {
        let q = encode_str("MKVLWWWARNDCQEGWWW").unwrap();
        let idx = QueryIndex::build(&q, table());
        // Naive: for every word w, positions p where score(q_word(p), w) >= T.
        for w in [word("WWW"), word("ARN"), word("AAA"), word("MKV"), word("PPP")] {
            let naive: Vec<u32> = WordIter::new(&q)
                .filter(|&(_, qw)| table().neighbors(qw).contains(&w))
                .map(|(p, _)| p)
                .collect();
            assert_eq!(idx.lookup(w), naive.as_slice(), "word {w}");
            assert_eq!(idx.is_present(w), !naive.is_empty());
        }
    }

    #[test]
    fn www_cell_holds_both_occurrences() {
        let q = encode_str("MKVLWWWARNDCQEGWWW").unwrap();
        let idx = QueryIndex::build(&q, table());
        let hits = idx.lookup(word("WWW"));
        assert!(hits.contains(&4) && hits.contains(&15), "{hits:?}");
    }

    #[test]
    fn positions_ascending_in_overflow_cells() {
        // Force > INLINE_POSITIONS hits for one word.
        let q = encode_str("WWWAWWWAWWWAWWWAWWW").unwrap();
        let idx = QueryIndex::build(&q, table());
        let hits = idx.lookup(word("WWW"));
        assert!(hits.len() > INLINE_POSITIONS);
        assert!(hits.windows(2).all(|w| w[0] < w[1]));
    }

    /// Number of words the presence vector marks.
    fn populated_cells(idx: &QueryIndex) -> usize {
        (0..WORD_SPACE as Word)
            .filter(|&w| idx.is_present(w))
            .count()
    }

    #[test]
    fn empty_query_empty_index() {
        let idx = QueryIndex::build(&[], table());
        assert_eq!(populated_cells(&idx), 0);
        assert_eq!(idx.total_positions(), 0);
        assert!(!idx.is_present(word("AAA")));
        assert!(idx.lookup(word("AAA")).is_empty());
    }

    #[test]
    fn pv_consistent_with_cells() {
        let q = encode_str("MARNDCQEGHILKMFPSTWYV").unwrap();
        let idx = QueryIndex::build(&q, table());
        for w in 0..WORD_SPACE as Word {
            assert_eq!(idx.is_present(w), !idx.lookup(w).is_empty(), "word {w}");
        }
    }

    #[test]
    fn query_index_has_mostly_empty_cells() {
        // The paper's Sec. VI premise: query indexes are sparse.
        let q = encode_str("MARNDCQEGHILKMFPSTWYV").unwrap();
        let idx = QueryIndex::build(&q, table());
        assert!(populated_cells(&idx) < WORD_SPACE / 4);
        assert!(idx.total_positions() >= q.len() - 2); // every word lands somewhere
    }
}
