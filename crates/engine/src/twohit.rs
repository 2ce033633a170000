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
//! Steps 1–2 are one select-style rule on an `EpochCells` slot, which
//! [`PairFinder`] applies per hit; steps 3–4 live in [`ExtensionGate`].
//! The interleaved engines run both per hit; muBLASTP applies the same
//! rule during detection (the pre-filter scan of
//! [`crate::kernels::mublastp`], on cells as narrow as the query allows)
//! and [`ExtensionGate`] after sorting.

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

/// The width of one [`EpochCells`] slot: `u16` or `u32`. Values are
/// decided on widened to `u32`, so both widths run the same rule.
pub(crate) trait CellWord: Copy + Default + Send + 'static {
    /// The largest value a slot holds, widened.
    const MAX: u32;
    /// The slot's value widened to `u32`.
    fn widen(self) -> u32;
    /// A value `<= Self::MAX` at the slot's width.
    fn narrow(value: u32) -> Self;
}

impl CellWord for u32 {
    const MAX: u32 = u32::MAX;
    #[inline(always)]
    fn widen(self) -> u32 {
        self
    }
    #[inline(always)]
    fn narrow(value: u32) -> u32 {
        value
    }
}

impl CellWord for u16 {
    const MAX: u32 = u16::MAX as u32;
    #[inline(always)]
    fn widen(self) -> u32 {
        u32::from(self)
    }
    #[inline(always)]
    fn narrow(value: u32) -> u16 {
        debug_assert!(value <= <u16 as CellWord>::MAX);
        // Every stored value is at most
        // `base + span`, which `EpochCells::reset` keeps <= u16::MAX.
        value as u16
    }
}

/// Epoch-offset cells, one `C`-wide slot per cell: the storage behind
/// [`PairFinder`], muBLASTP's pre-filter scan and
/// [`crate::scratch::CoverageArray`].
///
/// A slot holds `base + v + 1` for a value `v` stored since the last
/// [`EpochCells::reset`] and something `<= base` otherwise, so "was this
/// cell written for the current (block, query)?" and the value itself
/// come from one load of one slot. A reset advances `base` past every
/// value the ending epoch could have stored (NCBI's `diag_offset` trick)
/// — O(1) unless the capacity grows or `base + span` would pass
/// `C::MAX`, which costs one hard clear. At 2 bytes and a 256-residue
/// query that is every ⌊65 535 / 257⌋ = 255 resets.
pub(crate) struct EpochCells<C> {
    cells: Vec<C>,
    base: u32,
    /// Values stored in the current epoch are `< span`;
    /// `base + span <= C::MAX` always holds.
    span: u32,
}

impl<C: CellWord> EpochCells<C> {
    /// Cells with no capacity; call [`EpochCells::reset`] before use.
    pub(crate) fn new() -> EpochCells<C> {
        EpochCells {
            cells: Vec::new(),
            base: 0,
            span: 0,
        }
    }

    /// Whether an epoch storing values `<= max_value` fits this width:
    /// its span `max_value + 1` (saturating) must be at most `C::MAX`.
    /// Always true at 4 bytes.
    #[inline]
    pub(crate) fn fits(max_value: u32) -> bool {
        max_value.saturating_add(1) <= C::MAX
    }

    /// Forget every stored value and prepare `cells` slots for values
    /// `<= max_value`.
    ///
    /// # Panics
    /// Panics unless [`EpochCells::fits`]`(max_value)`.
    pub(crate) fn reset(&mut self, cells: usize, max_value: u32) {
        assert!(
            Self::fits(max_value),
            "epoch of values <= {max_value} exceeds the cell width"
        );
        let span = max_value.saturating_add(1);
        // `base + self.span <= C::MAX <= u32::MAX`: no overflow.
        let next = self.base + self.span;
        if self.cells.len() < cells {
            self.cells = vec![C::default(); cells];
            self.base = 0;
        } else if next.checked_add(span).is_some_and(|end| end <= C::MAX) {
            self.base = next;
        } else {
            self.cells.fill(C::default());
            self.base = 0;
        }
        self.span = span;
    }

    /// The value stored in `cell` since the last reset, if any.
    #[inline]
    pub(crate) fn get(&self, cell: usize) -> Option<u32> {
        let raw = self.cells[cell].widen();
        (raw > self.base).then(|| raw - self.base - 1)
    }

    /// Store `value` (within the `max_value` of the last reset) in `cell`.
    #[inline]
    pub(crate) fn set(&mut self, cell: usize, value: u32) {
        debug_assert!(value < self.span);
        self.cells[cell] = C::narrow(self.base + value + 1);
    }

    /// Steps 1–2 for a hit at `(cell, q_off)`, `q_off` within the
    /// `max_value` of the last reset. Returns `Some(distance)` when the hit
    /// forms a candidate pair with the cell's previous hit.
    ///
    /// Hits that *overlap* the previous hit (distance below the word
    /// length) are ignored entirely — they neither pair nor replace the
    /// last hit; all other hits become the cell's new last hit.
    ///
    /// Written select-style — one load, one unconditional store, no branch
    /// on the cell's contents — because whether a random diagonal was seen
    /// before is exactly what a branch predictor cannot learn. The
    /// decisions are those of [`overlaps_last`] and [`forms_pair`], taken
    /// on values widened to `u32`, so every width decides alike.
    #[inline]
    pub(crate) fn observe(&mut self, cell: usize, q_off: u32, window: u32) -> Option<u32> {
        debug_assert!(q_off < self.span);
        observe_slot(&mut self.cells[cell], self.base, q_off, window)
    }

    /// The slots and the current epoch's base, for a scan that applies
    /// `observe_slot` itself.
    #[inline]
    pub(crate) fn epoch(&mut self) -> (&mut [C], u32) {
        (&mut self.cells, self.base)
    }

    /// Bytes of backing storage.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<C>()
    }
}

/// [`EpochCells::observe`]'s rule on one slot of an epoch starting at
/// `base` — written once, for every width and every caller.
#[inline(always)]
pub(crate) fn observe_slot<C: CellWord>(
    slot: &mut C,
    base: u32,
    q_off: u32,
    window: u32,
) -> Option<u32> {
    const W: u32 = bioseq::alphabet::WORD_LEN as u32;
    let (old, new) = (slot.widen(), base + q_off + 1);
    let seen = old > base;
    // `q_off - last` when seen; a backward step wraps to a huge value
    // that neither overlaps nor pairs.
    let dist = new.wrapping_sub(old);
    let overlaps = seen & (dist.wrapping_sub(1) < W - 1);
    *slot = C::narrow(if overlaps { old } else { new });
    (seen & (dist >= W) & (dist <= window)).then_some(dist)
}

/// Per-diagonal pair finder with O(1) reset, for the engines that pair
/// hits one at a time (interleaved and query-indexed).
///
/// The backing array holds one 4-byte slot per `(sequence, diagonal)`
/// cell — the "last hit array" whose size the paper's block-size model
/// (Sec. V-B) balances against the LLC, and the only random-access
/// structure of hit detection: one cache line touched per hit. muBLASTP's
/// pre-filter scan applies the same rule (`EpochCells::observe`) to its
/// own cells, at 2 bytes when the query allows.
pub struct PairFinder {
    pub(crate) last_q: EpochCells<u32>,
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
    /// hit forms a candidate pair with the previous hit of this cell; the
    /// rule is `EpochCells::observe`'s.
    #[inline]
    pub fn observe(&mut self, cell: usize, q_off: u32) -> Option<u32> {
        self.last_q.observe(cell, q_off, self.window)
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
    use faultfn::mix64;

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

    // The last-hit cells at both widths against a two-array reference
    // model. `EpochCells<C>` keeps `base + q_off + 1` in a single `u16` or
    // `u32` per diagonal cell, and `observe` decides "seen", "overlaps" and
    // "pairs" on values widened to `u32` without a branch on the cell's
    // contents — the one rule `PairFinder::observe` and muBLASTP's
    // pre-filter scan both apply. The model is the obvious alternative — an
    // epoch stamp array next to a value array, decided by `forms_pair` /
    // `overlaps_last` — and both widths are driven with identical
    // `(cell, q_off)` streams in scan order. Every `observe` must return the
    // same `Option<dist>`, across resets that shrink and grow the cell
    // count, query lengths from 3 to beyond 2¹⁶ (2-byte cells up to the last
    // length whose epoch span `query_len + 1` fits a `u16`), distances at
    // every edge of the overlap and window rules, and enough resets to carry
    // `base` past each width's maximum (the hard-clear path): every
    // ⌊65 535 / (qlen + 1)⌋ resets at 2 bytes, after huge queries at 4.
    //
    // `TWOHIT_SEED=<u64>` reruns the battery on fresh streams.

    fn seed() -> u64 {
        match std::env::var("TWOHIT_SEED") {
            Ok(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("TWOHIT_SEED must be a u64, got '{v}'")),
            Err(_) => 0x2417,
        }
    }

    /// Epoch stamp + last offset in two parallel arrays.
    struct TwoArrayModel {
        epoch: u32,
        stamps: Vec<u32>,
        last_q: Vec<u32>,
        window: u32,
    }

    impl TwoArrayModel {
        fn new() -> TwoArrayModel {
            TwoArrayModel {
                epoch: 0,
                stamps: Vec::new(),
                last_q: Vec::new(),
                window: 0,
            }
        }

        fn reset(&mut self, cells: usize, window: u32) {
            self.window = window;
            if self.stamps.len() < cells {
                self.stamps = vec![0; cells];
                self.last_q = vec![0; cells];
                self.epoch = 0;
            }
            self.epoch += 1;
        }

        fn observe(&mut self, cell: usize, q_off: u32) -> Option<u32> {
            let seen = self.stamps[cell] == self.epoch;
            let last = self.last_q[cell] as i64;
            if seen && overlaps_last(last, q_off) {
                return None;
            }
            self.stamps[cell] = self.epoch;
            self.last_q[cell] = q_off;
            (seen && forms_pair(last, q_off, self.window)).then(|| q_off - last as u32)
        }
    }

    /// `(q_off, cell)` hits of one (block, query) in scan order: `q_off`
    /// never decreases, and per cell it strictly increases by steps drawn
    /// from the edges of the pairing rules.
    fn scan_stream(
        seed: u64,
        round: u64,
        cells: usize,
        query_len: u32,
        window: u32,
    ) -> Vec<(u32, usize)> {
        let last_word = query_len - 3; // largest valid word start
        let mut hits = Vec::new();
        for walk in 0..cells.min(48) as u64 {
            let r = |i: u64| mix64(seed ^ (round << 20) ^ (walk << 8), i);
            let cell = (r(0) % cells as u64) as usize;
            // Start some walks near the top so the largest offsets are stored.
            let mut q = if r(1) % 3 == 0 {
                last_word.saturating_sub((r(2) % 200) as u32)
            } else {
                (r(2) % (last_word as u64 + 1)) as u32
            };
            for step in 0..64u64 {
                hits.push((q, cell));
                let jump = match r(3 + step) % 8 {
                    0 => 1,
                    1 => 2,
                    2 => 3,
                    3 => window - 1,
                    4 => window,
                    5 => window + 1,
                    6 => 1 + (r(100 + step) % 6) as u32,
                    _ => 1 + (r(100 + step) % (query_len as u64 / 8 + 1)) as u32,
                };
                match q.checked_add(jump) {
                    Some(next) if next <= last_word => q = next,
                    _ => break,
                }
            }
        }
        // Two walks may share a cell: keep one hit per (q_off, cell), as a
        // posting scan produces.
        hits.sort_unstable();
        hits.dedup();
        hits
    }

    /// Run the `(cells, query_len)` resets of `rounds` that fit `C` through
    /// `EpochCells<C>` and the model; returns how many rounds ran.
    fn run_width<C: CellWord>(seed: u64, rounds: &[(usize, u32)]) -> usize {
        let width = std::mem::size_of::<C>();
        let mut cells_c = EpochCells::<C>::new();
        let mut model = TwoArrayModel::new();
        let mut high_water = 0usize;
        let (mut ran, mut pairs, mut observed) = (0usize, 0u64, 0u64);
        for (round, &(cells, query_len)) in rounds.iter().enumerate() {
            if !EpochCells::<C>::fits(query_len) {
                continue;
            }
            ran += 1;
            let window = [40u32, 40, 3, 5, 1000][(mix64(seed, round as u64) % 5) as usize];
            cells_c.reset(cells, query_len);
            model.reset(cells, window);
            high_water = high_water.max(cells);
            assert_eq!(
                cells_c.memory_bytes(),
                high_water * width,
                "one {width}-byte slot per cell"
            );
            for (q_off, cell) in scan_stream(seed, round as u64, cells, query_len, window) {
                let (got, want) = (
                    cells_c.observe(cell, q_off, window),
                    model.observe(cell, q_off),
                );
                assert_eq!(
                    got, want,
                    "{width}-byte cells, seed {seed:#x} round {round} (cells {cells}, qlen {query_len}, \
                     window {window}): cell {cell} q_off {q_off}"
                );
                observed += 1;
                pairs += u64::from(got.is_some());
            }
        }
        assert!(
            ran == 0 || (observed > 0 && pairs > 0),
            "the streams must exercise pairing ({pairs}/{observed})"
        );
        ran
    }

    /// Both widths over the same rounds; 2-byte cells take the ones they fit.
    fn run_rounds(tag: u64, rounds: &[(usize, u32)]) {
        let seed = seed() ^ tag;
        assert_eq!(
            run_width::<u32>(seed, rounds),
            rounds.len(),
            "4-byte cells fit every query"
        );
        let narrow = rounds.iter().filter(|&&(_, q)| q < u16::MAX as u32).count();
        assert_eq!(run_width::<u16>(seed, rounds), narrow);
    }

    #[test]
    fn query_length_edges() {
        // 3 is the shortest query with a word; 65 533 / 65 534 / 65 535
        // straddle the width switch (65 534 is the longest query whose span
        // fits a u16); 65 537 and 2²⁰ run at 4 bytes only.
        assert!(EpochCells::<u16>::fits(65_534) && !EpochCells::<u16>::fits(65_535));
        assert!(EpochCells::<u32>::fits(u32::MAX));
        run_rounds(
            1,
            &[
                (1, 3),
                (64, 3),
                (300, 256),
                (300, 65_533),
                (300, 65_534),
                (300, 65_535),
                (300, 65_537),
                (300, 1 << 20),
                (5, 3),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the cell width")]
    fn narrow_cells_refuse_a_span_past_u16() {
        EpochCells::<u16>::new().reset(8, 65_535);
    }

    #[test]
    fn many_resets_with_shrinking_and_growing_cells() {
        let seed = seed();
        let rounds: Vec<(usize, u32)> = (0..400u64)
            .map(|i| {
                let cells = [1usize, 7, 64, 1000, 5000, 33][(mix64(seed, i) % 6) as usize];
                let query_len = [40u32, 256, 3, 2000, 65_534, 65_536, 70_001]
                    [(mix64(seed, 1000 + i) % 7) as usize];
                (cells, query_len)
            })
            .collect();
        run_rounds(2, &rounds);
    }

    #[test]
    fn base_wrap_hard_clears() {
        // Each reset advances the base by query_len + 1: a dozen 2³⁰-residue
        // rounds carry a 4-byte base past 2³² three times over, and 2-byte
        // cells wrap every ⌊65 535 / (qlen + 1)⌋ resets. Without the hard
        // clear, offsets stored before a wrap would read as "seen". The cell
        // count never grows, so no reallocation hides a missing clear.
        let rounds: Vec<(usize, u32)> = (0..12)
            .map(|i| (50 - i, (1 << 30) - 7 * i as u32))
            .collect();
        run_rounds(3, &rounds);
        let narrow: Vec<(usize, u32)> =
            (0..600).map(|i| (40, [256, 2000, 65_534][i % 3])).collect();
        run_rounds(5, &narrow);
        // Right at the representable edge: base + span must not overflow.
        run_rounds(
            4,
            &[
                (9, u32::MAX - 1),
                (9, u32::MAX - 1),
                (9, 100),
                (9, u32::MAX - 1),
                (9, 65_534),
                (9, 65_534),
                (9, 100),
            ],
        );
        // Directed, 4 bytes: with a span of 2³⁰ the base repeats every third
        // reset. Cell c is touched in rounds c, c + 12, c + 24 — equal bases,
        // offsets 10 apart, nothing in between — so a finder that wraps
        // without clearing pairs the new hit with the one from twelve resets
        // ago.
        let mut finder = PairFinder::new(40);
        for round in 0..36u32 {
            finder.reset(12, (1 << 30) - 1, 40);
            let got = finder.observe(round as usize % 12, 100 + 10 * (round / 12));
            assert_eq!(
                got, None,
                "round {round}: first touch of the cell since its reset"
            );
        }
        // Directed, 2 bytes: the base repeats every ⌊65 535 / (qlen + 1)⌋
        // resets (255 at qlen 256). Cell c is touched in rounds c, c + period
        // and c + 2·period, at offsets 10 apart and equal bases.
        for query_len in [256u32, 2000, 65_534] {
            let period = (u16::MAX as u32 / (query_len + 1)) as usize;
            let mut cells = EpochCells::<u16>::new();
            for round in 0..3 * period {
                cells.reset(period, query_len);
                let got = cells.observe(round % period, 100 + 10 * (round / period) as u32, 40);
                assert_eq!(
                    got, None,
                    "qlen {query_len} round {round}: first touch of the cell since its reset"
                );
            }
        }
    }
}
