//! Packed-u64 SWAR primitives for the striped kernels (DESIGN.md §3.8).
//!
//! A `u64` holds four little-endian `i16` lanes (lane `k` at bits
//! `16k..16k+16`). Lane arithmetic is exact two's-complement `i16` math
//! as long as every lane value stays inside `i16` — the callers in
//! [`crate::striped`] guarantee that by construction (eight `i8` matrix
//! scores sum to at most `±1016`), which is why none of this needs
//! saturation, intrinsics, or unsafe.
//!
//! The only non-obvious trick is `add4`: adding two packed words with a
//! plain `+` would let a carry out of lane `k` corrupt lane `k + 1`, so
//! the sign bits are masked out, added separately, and recombined with
//! xor — the classic carry-fenced SWAR add.

/// The sign bit of each i16 lane.
const SIGN: u64 = 0x8000_8000_8000_8000;

/// Pack four `i16` values into one u64, lane 0 in the low bits.
#[inline]
pub(crate) fn pack4(a: [i16; 4]) -> u64 {
    (a[0] as u16 as u64)
        | ((a[1] as u16 as u64) << 16)
        | ((a[2] as u16 as u64) << 32)
        | ((a[3] as u16 as u64) << 48)
}

/// Unpack the four `i16` lanes of a u64.
#[inline]
pub(crate) fn unpack4(x: u64) -> [i16; 4] {
    [
        x as u16 as i16,
        (x >> 16) as u16 as i16,
        (x >> 32) as u16 as i16,
        (x >> 48) as u16 as i16,
    ]
}

/// Lane-wise `i16` add with the carry fenced at every lane boundary.
/// Each lane wraps modulo 2^16 independently, exactly like `i16`
/// wrapping addition.
#[inline]
pub(crate) fn add4(x: u64, y: u64) -> u64 {
    ((x & !SIGN).wrapping_add(y & !SIGN)) ^ ((x ^ y) & SIGN)
}

/// In-register inclusive prefix sum: lane `k` becomes the sum of lanes
/// `0..=k`. Two shift-add doubling steps cover all four lanes.
#[inline]
pub(crate) fn prefix4(x: u64) -> u64 {
    let x = add4(x, x << 16);
    add4(x, x << 32)
}

/// Broadcast lane 3 (the running total after [`prefix4`]) to all lanes.
#[inline]
pub(crate) fn splat_hi(x: u64) -> u64 {
    let t = x >> 48;
    t | (t << 16) | (t << 32) | (t << 48)
}

/// Inclusive prefix sum of eight `i16` values via two packed words:
/// prefix each half in-register, then add the low half's total into
/// every lane of the high half. Exact whenever all partial sums fit
/// `i16` (the striped kernels feed `i8` scores: `|sum| ≤ 1016`).
#[inline]
pub(crate) fn prefix8(v: [i16; 8]) -> [i16; 8] {
    let lo = prefix4(pack4([v[0], v[1], v[2], v[3]]));
    let hi = prefix4(pack4([v[4], v[5], v[6], v[7]]));
    let hi = add4(hi, splat_hi(lo));
    let a = unpack4(lo);
    let b = unpack4(hi);
    [a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_prefix8(v: [i16; 8]) -> [i16; 8] {
        let mut out = [0i16; 8];
        let mut run = 0i16;
        for (slot, &x) in out.iter_mut().zip(&v) {
            run += x;
            *slot = run;
        }
        out
    }

    #[test]
    fn pack_unpack_round_trips() {
        for a in [
            [0i16, 0, 0, 0],
            [1, -1, i16::MAX, i16::MIN],
            [-1016, 1016, -128, 127],
        ] {
            assert_eq!(unpack4(pack4(a)), a);
        }
    }

    #[test]
    fn add4_is_lane_wise_i16_addition() {
        let cases = [
            ([1i16, -2, 300, -400], [5i16, 7, -300, 400]),
            ([127, 127, 127, 127], [127, 127, 127, 127]),
            ([-1016, -1016, 1016, 1016], [-1016, 1016, -1016, 1016]),
            ([0x7F0, -0x7F0, 0x123, -0x123], [1, -1, 1, -1]),
        ];
        for (x, y) in cases {
            let got = unpack4(add4(pack4(x), pack4(y)));
            for k in 0..4 {
                assert_eq!(got[k], x[k].wrapping_add(y[k]), "lane {k} of {x:?}+{y:?}");
            }
        }
    }

    #[test]
    fn add4_carry_never_crosses_lanes() {
        // 0x7FFF + 1 wraps lane 0 to -0x8000 and must leave lane 1 alone.
        let got = unpack4(add4(pack4([0x7FFF, 0, 0, 0]), pack4([1, 0, 0, 0])));
        assert_eq!(got, [i16::MIN, 0, 0, 0]);
        // Same at the top lane.
        let got = unpack4(add4(pack4([0, 0, 0, -1]), pack4([0, 0, 0, -0x7FFF])));
        assert_eq!(got, [0, 0, 0, i16::MIN]);
    }

    #[test]
    fn prefix8_matches_scalar_on_score_range_sweep() {
        // Deterministic sweep over i8-score-valued inputs (the kernel's
        // actual domain), including all-max and all-min chunks.
        let mut state = 0x9E37_79B9_u64;
        for case in 0..2000 {
            let mut v = [0i16; 8];
            for slot in v.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *slot = i16::from(((state >> 33) & 0xFF) as u8 as i8);
            }
            assert_eq!(prefix8(v), scalar_prefix8(v), "case {case}: {v:?}");
        }
        assert_eq!(prefix8([127; 8])[7], 1016);
        assert_eq!(prefix8([-128; 8])[7], -1024);
    }
}
