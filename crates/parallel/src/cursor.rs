//! The dynamic scheduler's work-claiming cursor.
//!
//! `parallel_for_dynamic` hands out chunks of the index space `0..n`
//! through a single shared cursor. The claim protocol lives here, in one
//! small function, for two reasons:
//!
//! * **Overflow safety.** The seed implementation used a bare
//!   `fetch_add(chunk)`: once every index was handed out, each further
//!   claim still advanced the cursor by `chunk`, so with a large `chunk`
//!   (or merely enough spurious wakeups at `chunk` near `usize::MAX`) the
//!   cursor could *wrap past zero* and hand the same indices out twice.
//!   `claim_next` instead uses a CAS loop that clamps the cursor to `n`,
//!   so the cursor is monotone, bounded, and can never wrap.
//! * **Model checking.** The function is generic over `CursorCell`, an
//!   abstraction of the two atomic operations it needs. Production uses
//!   the [`AtomicUsize`] implementation below; the test-only model
//!   checker in `model.rs` substitutes a virtual cursor whose every atomic
//!   operation is a scheduling point, and drives *this exact code* through
//!   exhaustive and seeded-random interleavings.
//!
//! # Why `Ordering::Relaxed` is sufficient
//!
//! The cursor is a pure work-partitioning device: the only information it
//! carries is *which indices are still unclaimed*. No other shared memory
//! is published through it — per-worker scratch state never crosses
//! threads, each index `i` is touched by exactly one worker, and results
//! (in the maps) stay with the worker that computed them until it is
//! joined. The scope join is the one happens-before edge the whole loop
//! needs. Relaxed RMW operations on a single atomic are
//! still globally ordered (the modification order of the cursor), which is
//! the only property the claim protocol needs.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The atomic operations [`claim_next`] needs from a cursor.
///
/// Implemented by [`AtomicUsize`] for production and by the model
/// checker's virtual cursor (the test-only `model.rs`), where each call is a
/// scheduling point of the simulated interleaving.
pub(crate) trait CursorCell {
    /// Atomically read the cursor.
    fn load(&self) -> usize;
    /// Atomically compare-and-swap: if the cursor equals `current`,
    /// replace it with `new` and return `Ok(current)`; otherwise return
    /// `Err` with the observed value.
    fn compare_exchange(&self, current: usize, new: usize) -> Result<usize, usize>;
    /// Atomically add `delta` (wrapping, like the hardware instruction)
    /// and return the previous value. Only the model checker's mutation
    /// suite calls this — the fixed claim protocol is CAS-only — but it is
    /// part of the trait so the pre-fix protocol can be expressed against
    /// the same interface and shown to fail.
    #[cfg(test)]
    fn store_wrapping_add(&self, delta: usize) -> usize;
}

impl CursorCell for AtomicUsize {
    fn load(&self) -> usize {
        // relaxed: see module docs — the cursor
        // publishes no data, it only partitions the index space.
        AtomicUsize::load(self, Ordering::Relaxed)
    }

    fn compare_exchange(&self, current: usize, new: usize) -> Result<usize, usize> {
        // relaxed: see module docs.
        AtomicUsize::compare_exchange_weak(self, current, new, Ordering::Relaxed, Ordering::Relaxed)
    }

    #[cfg(test)]
    fn store_wrapping_add(&self, delta: usize) -> usize {
        // relaxed: see module docs.
        AtomicUsize::fetch_add(self, delta, Ordering::Relaxed)
    }
}

/// Claim the next chunk of work: atomically advance `cursor` by up to
/// `chunk` within `0..n` and return the claimed range as `(start, end)`,
/// or `None` when every index has been handed out.
///
/// The cursor value is clamped to `n` on every transition, so it is
/// monotone non-decreasing and never exceeds `n` — in particular it cannot
/// overflow, for any `chunk` up to and including `usize::MAX`. Ranges
/// returned to distinct callers are disjoint, and their union over the
/// whole run is exactly `0..n` (verified exhaustively by the model checker
/// in the test-only `model.rs`).
#[inline]
pub(crate) fn claim_next<C: CursorCell>(
    cursor: &C,
    n: usize,
    chunk: usize,
) -> Option<(usize, usize)> {
    let mut current = cursor.load();
    loop {
        if current >= n {
            return None;
        }
        let end = current.saturating_add(chunk).min(n);
        match cursor.compare_exchange(current, end) {
            Ok(_) => return Some((current, end)),
            Err(observed) => current = observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_are_disjoint_and_cover() {
        let cursor = AtomicUsize::new(0);
        let mut seen = Vec::new();
        while let Some((s, e)) = claim_next(&cursor, 10, 3) {
            seen.push((s, e));
        }
        assert_eq!(seen, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        assert_eq!(claim_next(&cursor, 10, 3), None);
    }

    #[test]
    fn huge_chunk_claims_everything_once() {
        for chunk in [usize::MAX, usize::MAX / 2 + 1, 1 << 63] {
            let cursor = AtomicUsize::new(0);
            assert_eq!(claim_next(&cursor, 7, chunk), Some((0, 7)));
            // The cursor is clamped to n: no wrap, no second claim, ever.
            for _ in 0..100 {
                assert_eq!(claim_next(&cursor, 7, chunk), None);
            }
        }
    }

    #[test]
    fn chunk_larger_than_n() {
        let cursor = AtomicUsize::new(0);
        assert_eq!(claim_next(&cursor, 5, 64), Some((0, 5)));
        assert_eq!(claim_next(&cursor, 5, 64), None);
    }

    #[test]
    fn n_zero_never_claims() {
        let cursor = AtomicUsize::new(0);
        assert_eq!(claim_next(&cursor, 0, 4), None);
    }
}
