//! Key–value sorting kernels for hit reordering.
//!
//! The muBLASTP paper (Sec. IV-B) evaluates three ways of putting the hit
//! buffer into `(sequence id, diagonal id)` order before ungapped extension
//! and picks **LSD radix sort**:
//!
//! * [`radix::lsd_radix_sort_by_key`] — the paper's choice: `O(n)` per pass,
//!   stable (preserving the query-offset order produced by hit detection),
//!   and cache-friendly because index blocking keeps each hit buffer within
//!   the last-level cache.
//! * [`radix::msd_radix_sort_by_key`] — MSD variant, kept to demonstrate the
//!   paper's observation that MSD is slower on the small (hundreds of KB)
//!   per-block buffers.
//! * [`merge::merge_sort_by_key`] — the `O(n log n)` contender.
//! * [`binning::two_level_binning_sort`] — the reordering scheme of the
//!   authors' earlier muBLASTP paper (BMC Bioinformatics 2016), binning by
//!   diagonal then by sequence; kept as the related-work baseline whose
//!   preallocation and data-movement costs Sec. VI criticises.
//!
//! All sorts are **stable** and sort by a `u32` key extracted with a
//! caller-supplied closure, which matches the packed
//! `(seq_id << diag_bits) | diag` hit keys used by the engine.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

pub mod binning;
pub mod merge;
pub mod radix;

pub use binning::two_level_binning_sort;
pub use merge::merge_sort_by_key;
pub use radix::{lsd_radix_sort_by_key, msd_radix_sort_by_key};

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test data is sized far below u32"
)]
mod proptests {
    //! Seeded batteries of [`CASES`] cases: case 0 is the empty input,
    //! case 1 the longest with every key at the top of its range, and
    //! every later case is drawn from `Rng::new(seed, case)`. A failure
    //! names the case and its input.

    use faultfn::Rng;

    /// Cases per property.
    const CASES: usize = 256;

    /// Case `case` of battery `seed`: up to `max_len` `(a, b)` pairs with
    /// `a < a_end` and `b < b_end` (ends up to `1 << 32`).
    fn pairs(
        seed: u64,
        case: usize,
        max_len: usize,
        a_end: usize,
        b_end: usize,
    ) -> Vec<(u32, u32)> {
        let mut rng = Rng::new(seed, case as u64);
        let len = match case {
            0 => 0,
            1 => max_len,
            _ => rng.below(max_len + 1),
        };
        let mut draw = |end: usize| if case == 1 { end - 1 } else { rng.below(end) } as u32;
        (0..len).map(|_| (draw(a_end), draw(b_end))).collect()
    }

    fn check_all_sorts(case: usize, mut data: Vec<(u32, u32)>) {
        // Payload carries the original index so stability is observable.
        for (i, kv) in data.iter_mut().enumerate() {
            kv.1 = i as u32;
        }
        let mut expect = data.clone();
        expect.sort_by_key(|kv| kv.0); // std stable sort = reference

        let mut a = data.clone();
        super::lsd_radix_sort_by_key(&mut a, |kv| kv.0);
        assert_eq!(a, expect, "lsd radix, case {case}: {data:?}");

        let mut b = data.clone();
        super::msd_radix_sort_by_key(&mut b, |kv| kv.0);
        assert_eq!(b, expect, "msd radix, case {case}: {data:?}");

        let mut c = data.clone();
        super::merge_sort_by_key(&mut c, |kv| kv.0);
        assert_eq!(c, expect, "merge sort, case {case}: {data:?}");
    }

    #[test]
    fn sorts_agree_with_std_stable_sort() {
        for case in 0..CASES {
            check_all_sorts(case, pairs(1, case, 1999, 1 << 32, 1));
        }
    }

    #[test]
    fn sorts_agree_on_skewed_keys() {
        for case in 0..CASES {
            check_all_sorts(case, pairs(2, case, 1999, 16, 1));
        }
    }

    #[test]
    fn binning_matches_stable_sort() {
        for case in 0..CASES {
            let data = pairs(3, case, 999, 64, 32);
            // key = (seq << 6) | diag with seq < 32, diag < 64.
            let items: Vec<(u32, u32, u32)> = data
                .iter()
                .enumerate()
                .map(|(i, &(diag, seq))| (seq, diag, i as u32))
                .collect();
            let mut expect = items.clone();
            expect.sort_by_key(|&(seq, diag, _)| (seq << 6) | diag);
            let got = super::two_level_binning_sort(
                items,
                |it| it.1 as usize,
                64,
                |it| it.0 as usize,
                32,
            );
            assert_eq!(got, expect, "case {case}: {data:?}");
        }
    }
}
