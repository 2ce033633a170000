//! Per-thread reusable search state.
//!
//! The paper's intra-node design (Sec. IV-D1) gives every thread its own
//! last-hit arrays and hit buffers so the parallel query loop runs without
//! contention or synchronisation; this module is that state.
//! `driver::search_batch_blocks` owns one [`Scratch`] per worker for the
//! whole batch and lends it to every block's parallel-for, so the arrays
//! are allocated (and page-faulted) once per batch and recycled across all
//! its `(block, query)` pairs. Epoch-offset cells
//! (`twohit::EpochCells`) make the per-pair reset O(1) instead of
//! O(cells). muBLASTP's last-hit cells are 2 bytes whenever the query's
//! epoch span `query_len + 1` fits a `u16` — every query short of 65 534
//! residues — and the 4-byte cells of `PairFinder` beyond that, so a
//! worker's array is half the size it would be at one width.

use crate::hit::HitPair;
use crate::results::Seed;
use crate::twohit::{EpochCells, PairFinder};

/// Per-`(sequence, diagonal)` extension-coverage array for the interleaved
/// engines (the second half of the paper's "last hit array is twice the
/// number of positions"), 4 bytes per cell. muBLASTP does not need it:
/// after sorting, a scalar `crate::twohit::ExtensionGate` suffices — one
/// of the ways the decoupled pipeline shrinks its working set.
pub struct CoverageArray {
    ext_reached: EpochCells<u32>,
}

impl Default for CoverageArray {
    fn default() -> Self {
        Self::new()
    }
}

impl CoverageArray {
    /// An empty coverage array; capacity grows on first `reset`.
    pub(crate) fn new() -> CoverageArray {
        CoverageArray {
            ext_reached: EpochCells::new(),
        }
    }

    /// Prepare for a new (block, query) search over `cells` slots and
    /// extension ends `<= query_len`; O(1) unless the capacity grows.
    pub(crate) fn reset(&mut self, cells: usize, query_len: u32) {
        self.ext_reached.reset(cells, query_len);
    }

    /// Is a pair at `(cell, q_off)` admissible (not covered by a previous
    /// extension on this diagonal)?
    #[inline]
    pub(crate) fn admits(&self, cell: usize, q_off: u32) -> bool {
        self.ext_reached
            .get(cell)
            .is_none_or(|reached| reached <= q_off)
    }

    /// Record an extension on `cell` ending at `q_end`.
    #[inline]
    pub(crate) fn record(&mut self, cell: usize, q_end: u32) {
        let reached = self.ext_reached.get(cell).map_or(q_end, |r| r.max(q_end));
        self.ext_reached.set(cell, reached);
    }
}

/// All per-thread state for one worker.
pub struct Scratch {
    /// Last-hit pair finder on 4-byte cells: detection in the interleaved
    /// engines, and muBLASTP's pre-filter for queries too long for the
    /// 2-byte cells.
    pub finder: PairFinder,
    /// muBLASTP's 2-byte last-hit cells, used whenever the query's epoch
    /// span fits them.
    pub(crate) narrow_cells: EpochCells<u16>,
    /// Extension coverage for the interleaved engines.
    pub coverage: CoverageArray,
    /// Hit-pair buffer (muBLASTP's temporal buffer, Sec. IV-A).
    pub pairs: Vec<HitPair>,
    /// Per-sequence diagonal-array base offsets for the current block:
    /// `diag_bases[i]` is the first cell of fragment `i`.
    pub diag_bases: Vec<u32>,
    /// Seeds produced for the current (block, query).
    pub seeds: Vec<Seed>,
}

impl Default for Scratch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
thread_local! {
    /// `Scratch::new` calls made on this thread (the driver builds its
    /// workers' scratch on the calling thread).
    pub(crate) static CONSTRUCTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Scratch {
    /// Fresh per-worker scratch state (last-hit cells, coverage, hit and
    /// seed buffers); nothing is allocated until the first search.
    pub fn new() -> Scratch {
        #[cfg(test)]
        CONSTRUCTED.with(|n| n.set(n.get() + 1));
        Scratch {
            finder: PairFinder::new(40),
            narrow_cells: EpochCells::new(),
            coverage: CoverageArray::new(),
            pairs: Vec::new(),
            diag_bases: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// Bytes held by muBLASTP's 2-byte last-hit cells: zero until a query
    /// short enough for them has been searched.
    pub fn narrow_cells_bytes(&self) -> usize {
        self.narrow_cells.memory_bytes()
    }

    /// Compute the per-fragment diagonal bases for a block and query
    /// length; returns the total cell count. Fragment `i` owns cells
    /// `diag_bases[i] .. diag_bases[i] + len_i + query_len + 1`.
    pub(crate) fn compute_diag_bases(&mut self, frag_lens: impl Iterator<Item = u32>, query_len: u32) -> usize {
        self.diag_bases.clear();
        let mut acc = 0u32;
        for len in frag_lens {
            self.diag_bases.push(acc);
            acc += len + query_len + 1;
        }
        acc as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_admits_then_blocks() {
        let mut c = CoverageArray::new();
        c.reset(4, 100);
        assert!(c.admits(2, 10));
        c.record(2, 50);
        assert!(!c.admits(2, 49));
        assert!(c.admits(2, 50));
        assert!(c.admits(3, 0), "other cells unaffected");
    }

    #[test]
    fn coverage_reset_is_clean() {
        let mut c = CoverageArray::new();
        c.reset(2, 100);
        c.record(0, 100);
        c.reset(2, 100);
        assert!(c.admits(0, 0));
    }

    #[test]
    fn coverage_record_keeps_max() {
        let mut c = CoverageArray::new();
        c.reset(1, 100);
        c.record(0, 50);
        c.record(0, 30);
        assert!(!c.admits(0, 49), "coverage must not shrink");
    }

    #[test]
    fn diag_bases_prefix_sums() {
        let mut s = Scratch::new();
        let total = s.compute_diag_bases([10u32, 20, 5].into_iter(), 100);
        assert_eq!(s.diag_bases, vec![0, 111, 232]);
        assert_eq!(total, 111 + 121 + 106);
    }

    #[test]
    fn diag_bases_empty_block() {
        let mut s = Scratch::new();
        assert_eq!(s.compute_diag_bases(std::iter::empty(), 100), 0);
        assert!(s.diag_bases.is_empty());
    }
}
