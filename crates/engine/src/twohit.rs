//! The canonical two-hit diagonal discipline.
//!
//! All three engines must apply *identical* rules for when a pair of hits
//! on a diagonal triggers an ungapped extension — that is what makes their
//! outputs bit-identical (paper Sec. V-E). The rules, per
//! `(subject sequence, diagonal)`:
//!
//! 1. every hit updates the diagonal's last-hit position (Alg. 2 line 11);
//! 2. a hit whose distance to the previous hit is in `(0, window]` forms a
//!    **candidate pair** (Alg. 1 line 9 / Alg. 2 line 8);
//! 3. at extension time, a candidate pair already covered by a previous
//!    extension on the same diagonal is skipped (Alg. 1 line 16);
//! 4. the extension runs with the two-hit connection rule (the left
//!    x-drop walk must reach the first hit) and, on success, records the
//!    extension end as the coverage horizon (Alg. 1 lines 22/24).
//!
//! Steps 1–2 live in [`PairFinder`]; steps 3–4 in [`ExtensionGate`].
//! The interleaved engines run both per hit; muBLASTP runs [`PairFinder`]
//! during detection (the pre-filter) and [`ExtensionGate`] after sorting.

/// Stateless pair-formation rule (step 2): the two hits must not overlap
/// (NCBI ignores a hit closer than the word length to the previous one —
/// without this rule the overlapping-word correlation floods the pipeline
/// with degenerate pairs) and must lie within the two-hit window.
#[inline]
pub fn forms_pair(last_q: i64, q_off: u32, window: u32) -> bool {
    // `last_q` may be an i64::MIN "no previous hit" sentinel; saturate.
    let dist = (q_off as i64).saturating_sub(last_q);
    dist >= bioseq::alphabet::WORD_LEN as i64 && dist <= window as i64
}

/// Whether a hit *overlaps* the previous hit on its diagonal (distance
/// below the word length). Overlapping hits are ignored entirely: they
/// neither pair nor replace the last hit (NCBI semantics).
#[inline]
pub fn overlaps_last(last_q: i64, q_off: u32) -> bool {
    let dist = (q_off as i64).saturating_sub(last_q);
    dist > 0 && dist < bioseq::alphabet::WORD_LEN as i64
}

/// One-word epoch-offset cells: the storage behind [`PairFinder`] and
/// [`crate::scratch::CoverageArray`].
///
/// A cell holds `base + v + 1` for a value `v` stored since the last
/// [`EpochCells::reset`] and something `<= base` otherwise, so "was this
/// cell written for the current (block, query)?" and the value itself
/// come from one load of one word. A reset advances `base` past every
/// value the ending epoch could have stored (NCBI's `diag_offset` trick)
/// — O(1) unless the capacity grows or `base` would wrap, which costs one
/// hard clear.
pub(crate) struct EpochCells {
    cells: Vec<u32>,
    base: u32,
    /// Values stored in the current epoch are `< span`.
    span: u32,
}

impl EpochCells {
    pub(crate) fn new() -> EpochCells {
        EpochCells {
            cells: Vec::new(),
            base: 0,
            span: 0,
        }
    }

    /// Forget every stored value and prepare `cells` slots for values
    /// `<= max_value`.
    pub(crate) fn reset(&mut self, cells: usize, max_value: u32) {
        let span = max_value.saturating_add(1);
        let next = self
            .base
            .checked_add(self.span)
            .filter(|b| b.checked_add(span).is_some());
        if self.cells.len() < cells {
            self.cells = vec![0; cells];
            self.base = 0;
        } else if let Some(base) = next {
            self.base = base;
        } else {
            self.cells.fill(0);
            self.base = 0;
        }
        self.span = span;
    }

    /// The value stored in `cell` since the last reset, if any.
    #[inline]
    pub(crate) fn get(&self, cell: usize) -> Option<u32> {
        let raw = self.cells[cell];
        (raw > self.base).then(|| raw - self.base - 1)
    }

    /// Store `value` (within the `max_value` of the last reset) in `cell`.
    #[inline]
    pub(crate) fn set(&mut self, cell: usize, value: u32) {
        debug_assert!(value < self.span);
        self.cells[cell] = self.base + value + 1;
    }

    /// Bytes of backing storage.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<u32>()
    }
}

/// Per-diagonal pair finder with O(1) reset.
///
/// The backing array holds one 4-byte slot per `(sequence, diagonal)`
/// cell — this is the "last hit array" whose size the paper's block-size
/// model (Sec. V-B) balances against the LLC, and the only random-access
/// structure of hit detection: one cache line touched per hit.
pub struct PairFinder {
    last_q: EpochCells,
    window: u32,
}

impl PairFinder {
    /// Create a finder with no capacity; call [`PairFinder::reset`] before
    /// use.
    pub fn new(window: u32) -> PairFinder {
        PairFinder {
            last_q: EpochCells::new(),
            window,
        }
    }

    /// Prepare for a new (block, query) search over `cells` diagonal slots
    /// and query offsets `< query_len`.
    pub fn reset(&mut self, cells: usize, query_len: u32, window: u32) {
        self.window = window;
        self.last_q.reset(cells, query_len);
    }

    /// Observe a hit at `(cell, q_off)`. Returns `Some(distance)` when the
    /// hit forms a candidate pair with the previous hit of this cell.
    ///
    /// Hits that *overlap* the previous hit (distance below the word
    /// length) are ignored entirely — they neither pair nor replace the
    /// last hit; all other hits become the cell's new last hit.
    ///
    /// Written select-style — one load, one unconditional store, no
    /// branch on the cell's contents — because whether a random diagonal
    /// was seen before is exactly what a branch predictor cannot learn.
    /// The decisions are those of [`overlaps_last`] and [`forms_pair`].
    #[inline]
    pub fn observe(&mut self, cell: usize, q_off: u32) -> Option<u32> {
        const W: u32 = bioseq::alphabet::WORD_LEN as u32;
        let base = self.last_q.base;
        debug_assert!(q_off < self.last_q.span);
        let slot = &mut self.last_q.cells[cell];
        let (old, new) = (*slot, base + q_off + 1);
        let seen = old > base;
        // `q_off - last` when seen; a backward step wraps to a huge value
        // that neither overlaps nor pairs.
        let dist = new.wrapping_sub(old);
        let overlaps = seen & (dist.wrapping_sub(1) < W - 1);
        *slot = if overlaps { old } else { new };
        (seen & (dist >= W) & (dist <= self.window)).then_some(dist)
    }

    /// Bytes of backing storage (for the block-size experiments).
    pub fn memory_bytes(&self) -> usize {
        self.last_q.memory_bytes()
    }
}

/// Coverage gate for the extension stage (steps 3–4), streaming over hit
/// pairs grouped by key.
#[derive(Clone, Copy, Debug)]
pub struct ExtensionGate {
    cur_key: Option<u32>,
    ext_reached: i64,
}

impl Default for ExtensionGate {
    fn default() -> Self {
        Self::new()
    }
}

impl ExtensionGate {
    /// A gate with no coverage recorded yet.
    pub fn new() -> ExtensionGate {
        ExtensionGate { cur_key: None, ext_reached: -1 }
    }

    /// Should the pair `(key, q_off)` be extended, or is it covered by a
    /// previous extension on the same diagonal?
    #[inline]
    pub fn admits(&mut self, key: u32, q_off: u32) -> bool {
        if self.cur_key != Some(key) {
            self.cur_key = Some(key);
            self.ext_reached = -1;
        }
        self.ext_reached <= q_off as i64
    }

    /// Record a successful extension ending at query offset `q_end`.
    #[inline]
    pub fn record_extension(&mut self, q_end: u32) {
        self.ext_reached = self.ext_reached.max(q_end as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_forms_within_window_only() {
        assert!(!forms_pair(i64::MIN, 5, 40)); // no previous hit
        assert!(forms_pair(5, 10, 40));
        assert!(forms_pair(5, 45, 40)); // distance exactly the window
        assert!(!forms_pair(5, 46, 40));
        assert!(!forms_pair(10, 10, 40)); // zero distance
        // Overlapping hits (distance < W = 3) never pair.
        assert!(!forms_pair(5, 6, 40));
        assert!(!forms_pair(5, 7, 40));
        assert!(forms_pair(5, 8, 40)); // first non-overlapping distance
        assert!(overlaps_last(5, 6));
        assert!(overlaps_last(5, 7));
        assert!(!overlaps_last(5, 8));
        assert!(!overlaps_last(5, 5));
    }

    #[test]
    fn finder_tracks_per_cell_state() {
        let mut f = PairFinder::new(40);
        f.reset(4, 200, 40);
        assert_eq!(f.observe(0, 5), None); // first hit on diag 0
        assert_eq!(f.observe(1, 6), None); // first hit on diag 1
        assert_eq!(f.observe(0, 15), Some(10));
        assert_eq!(f.observe(0, 100), None); // beyond window
        assert_eq!(f.observe(0, 110), Some(10)); // measured from the last hit
        assert_eq!(f.observe(1, 7), None, "overlapping hit is ignored");
        assert_eq!(f.observe(1, 9), Some(3), "distance measured from 6, not 7");
    }

    #[test]
    fn reset_discards_state_in_constant_time() {
        let mut f = PairFinder::new(40);
        f.reset(2, 200, 40);
        f.observe(0, 5);
        f.reset(2, 200, 40);
        assert_eq!(f.observe(0, 6), None, "state must not leak across resets");
    }

    #[test]
    fn reset_can_grow() {
        let mut f = PairFinder::new(40);
        f.reset(2, 200, 40);
        f.observe(1, 3);
        f.reset(10, 200, 40);
        assert_eq!(f.observe(9, 1), None);
        assert_eq!(f.observe(1, 4), None, "old cell state must be gone");
    }

    #[test]
    fn gate_skips_covered_pairs() {
        let mut g = ExtensionGate::new();
        assert!(g.admits(7, 10));
        g.record_extension(50);
        assert!(!g.admits(7, 30), "q_off 30 < coverage 50");
        assert!(g.admits(7, 50), "coverage is exclusive at the end");
        assert!(g.admits(8, 30), "new diagonal resets coverage");
        // Coverage is forgotten when the key changes: hit pairs must arrive
        // grouped by key (which sorting / per-diagonal traversal guarantees).
        assert!(g.admits(7, 30));
    }
}
