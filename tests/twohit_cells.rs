//! The one-word last-hit cells against a two-array reference model.
//!
//! `engine::twohit::PairFinder` keeps `base + q_off + 1` in a single
//! `u32` per diagonal cell and decides "seen", "overlaps" and "pairs"
//! without a branch on the cell's contents. The model below is the
//! obvious alternative — an epoch stamp array next to a value array,
//! decided by `forms_pair` / `overlaps_last` — and both are driven with
//! identical `(cell, q_off)` streams in scan order. Every `observe` must
//! return the same `Option<dist>`, across resets that shrink and grow the
//! cell count, query lengths from 3 to beyond 2¹⁶, distances at every
//! edge of the overlap and window rules, and enough huge-query resets to
//! push the finder's `base` past 2³² (the hard-clear path).
//!
//! `TWOHIT_SEED=<u64>` reruns the battery on fresh streams.

use engine::twohit::{forms_pair, overlaps_last, PairFinder};
use faultfn::mix64;

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

/// Run `rounds` (cells, query_len) resets through both implementations.
fn run_rounds(tag: u64, rounds: &[(usize, u32)]) {
    let seed = seed() ^ tag;
    let mut finder = PairFinder::new(40);
    let mut model = TwoArrayModel::new();
    let mut high_water = 0usize;
    let (mut pairs, mut observed) = (0u64, 0u64);
    for (round, &(cells, query_len)) in rounds.iter().enumerate() {
        let window = [40u32, 40, 3, 5, 1000][(mix64(seed, round as u64) % 5) as usize];
        finder.reset(cells, query_len, window);
        model.reset(cells, window);
        high_water = high_water.max(cells);
        assert_eq!(finder.memory_bytes(), high_water * 4, "one u32 per cell");
        for (q_off, cell) in scan_stream(seed, round as u64, cells, query_len, window) {
            let (got, want) = (finder.observe(cell, q_off), model.observe(cell, q_off));
            assert_eq!(
                got, want,
                "seed {seed:#x} round {round} (cells {cells}, qlen {query_len}, window {window}): \
                 cell {cell} q_off {q_off}"
            );
            observed += 1;
            pairs += u64::from(got.is_some());
        }
    }
    assert!(
        observed > 0 && pairs > 0,
        "the streams must exercise pairing ({pairs}/{observed})"
    );
}

#[test]
fn query_length_edges() {
    // 3 is the shortest query with a word; 65 535 / 65 537 / 2²⁰ straddle
    // the range a u16 offset could have held.
    run_rounds(
        1,
        &[
            (1, 3),
            (64, 3),
            (300, 256),
            (300, 65_535),
            (300, 65_537),
            (300, 1 << 20),
            (5, 3),
        ],
    );
}

#[test]
fn many_resets_with_shrinking_and_growing_cells() {
    let seed = seed();
    let rounds: Vec<(usize, u32)> = (0..400u64)
        .map(|i| {
            let cells = [1usize, 7, 64, 1000, 5000, 33][(mix64(seed, i) % 6) as usize];
            let query_len =
                [40u32, 256, 3, 2000, 65_536, 70_001][(mix64(seed, 1000 + i) % 6) as usize];
            (cells, query_len)
        })
        .collect();
    run_rounds(2, &rounds);
}

#[test]
fn base_wrap_hard_clears() {
    // Each reset advances the finder's base by query_len + 1: a dozen
    // 2³⁰-residue rounds carry it past 2³² three times over. Without the
    // hard clear, offsets stored before a wrap would read as "seen".
    // The cell count never grows, so no reallocation hides a missing clear.
    let rounds: Vec<(usize, u32)> = (0..12)
        .map(|i| (50 - i, (1 << 30) - 7 * i as u32))
        .collect();
    run_rounds(3, &rounds);
    // Right at the representable edge: base + span must not overflow.
    run_rounds(
        4,
        &[
            (9, u32::MAX - 1),
            (9, u32::MAX - 1),
            (9, 100),
            (9, u32::MAX - 1),
        ],
    );
    // Directed: with a span of 2³⁰ the base repeats every third reset.
    // Cell c is touched in rounds c, c + 12, c + 24 — equal bases, offsets
    // 10 apart, nothing in between — so a finder that wraps without
    // clearing pairs the new hit with the one from twelve resets ago.
    let mut finder = PairFinder::new(40);
    for round in 0..36u32 {
        finder.reset(12, (1 << 30) - 1, 40);
        let got = finder.observe(round as usize % 12, 100 + 10 * (round / 12));
        assert_eq!(
            got, None,
            "round {round}: first touch of the cell since its reset"
        );
    }
}
