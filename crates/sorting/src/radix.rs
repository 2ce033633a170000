//! LSD and MSD radix sorts on `u32`/`u64` keys.
//!
//! The LSD sort is the workhorse of muBLASTP's hit reordering: stable,
//! `O(n)` per 8-bit digit pass, and it **skips passes whose digit is
//! constant across all keys** — this is why the paper's packed
//! `(seq_id, diag_id)` keys with block-local ids sort in very few passes
//! (Sec. IV-B: "the fixed length of keys is friendly to the radix sort").

const RADIX_BITS: usize = 8;
const RADIX: usize = 1 << RADIX_BITS;

/// Stable LSD radix sort of `items` by the `u32` key returned by `key`.
///
/// Uses one scratch allocation of the same size as `items`; digit passes
/// whose byte is identical for every element are skipped.
pub fn lsd_radix_sort_by_key<T: Clone, F: Fn(&T) -> u32>(items: &mut Vec<T>, key: F) {
    if items.len() < 2 {
        return;
    }
    // One histogram pass computes all four digit distributions at once.
    let mut hist = [[0usize; RADIX]; 4];
    let mut or_all = 0u32;
    let mut and_all = u32::MAX;
    for it in items.iter() {
        let k = key(it);
        or_all |= k;
        and_all &= k;
        for (d, h) in hist.iter_mut().enumerate() {
            h[(k as usize >> (d * RADIX_BITS)) & (RADIX - 1)] += 1;
        }
    }
    let mut scratch: Vec<T> = Vec::with_capacity(items.len());
    // Safety-free approach: use clone-based scatter via MaybeUninit-free
    // double buffer. We simulate ping-pong with two Vecs.
    let mut src: Vec<T> = std::mem::take(items);
    #[allow(
        clippy::needless_range_loop,
        reason = "d is a digit shift, not just an index"
    )]
    for d in 0..4 {
        // Skip a pass when the digit is constant across all keys.
        let digit_or = (or_all >> (d * RADIX_BITS)) as usize & (RADIX - 1);
        let digit_and = (and_all >> (d * RADIX_BITS)) as usize & (RADIX - 1);
        if digit_or == digit_and {
            continue;
        }
        // Exclusive prefix sums → starting offsets.
        let mut offsets = [0usize; RADIX];
        let mut sum = 0usize;
        for (b, &count) in hist[d].iter().enumerate() {
            offsets[b] = sum;
            sum += count;
        }
        scratch.clear();
        scratch.resize_with(src.len(), || src[0].clone());
        for it in src.iter() {
            let b = (key(it) >> (d * RADIX_BITS)) as usize & (RADIX - 1);
            scratch[offsets[b]] = it.clone();
            offsets[b] += 1;
        }
        std::mem::swap(&mut src, &mut scratch);
    }
    *items = src;
}

/// Stable LSD radix sort by a `u64` key (eight 8-bit passes, constant
/// digits skipped). Used when `(seq_id, diag_id)` does not fit in 32 bits.
#[expect(
    clippy::cast_possible_truncation,
    reason = "each u64 -> usize cast is masked to one RADIX_BITS digit, so truncation drops only bits the mask drops"
)]
pub fn lsd_radix_sort_u64_by_key<T: Clone, F: Fn(&T) -> u64>(items: &mut Vec<T>, key: F) {
    if items.len() < 2 {
        return;
    }
    let mut hist = vec![[0usize; RADIX]; 8];
    let mut or_all = 0u64;
    let mut and_all = u64::MAX;
    for it in items.iter() {
        let k = key(it);
        or_all |= k;
        and_all &= k;
        for (d, h) in hist.iter_mut().enumerate() {
            h[(k >> (d * RADIX_BITS)) as usize & (RADIX - 1)] += 1;
        }
    }
    let mut scratch: Vec<T> = Vec::new();
    let mut src: Vec<T> = std::mem::take(items);
    #[allow(
        clippy::needless_range_loop,
        reason = "d is a digit shift, not just an index"
    )]
    for d in 0..8 {
        let digit_or = (or_all >> (d * RADIX_BITS)) as usize & (RADIX - 1);
        let digit_and = (and_all >> (d * RADIX_BITS)) as usize & (RADIX - 1);
        if digit_or == digit_and {
            continue;
        }
        let mut offsets = [0usize; RADIX];
        let mut sum = 0usize;
        for (b, &count) in hist[d].iter().enumerate() {
            offsets[b] = sum;
            sum += count;
        }
        scratch.clear();
        scratch.resize_with(src.len(), || src[0].clone());
        for it in src.iter() {
            let b = (key(it) >> (d * RADIX_BITS)) as usize & (RADIX - 1);
            scratch[offsets[b]] = it.clone();
            offsets[b] += 1;
        }
        std::mem::swap(&mut src, &mut scratch);
    }
    *items = src;
}

/// Stable MSD radix sort by a `u32` key.
///
/// Recurses from the most significant byte; buckets smaller than a cutoff
/// fall back to the standard-library stable sort. As the paper observes,
/// MSD loses to LSD on the small per-block hit buffers because the
/// recursion overhead dominates — this implementation exists so the
/// ablation benchmark can demonstrate exactly that.
pub fn msd_radix_sort_by_key<T: Clone, F: Fn(&T) -> u32 + Copy>(items: &mut [T], key: F) {
    if items.len() < 2 {
        return;
    }
    let mut buf = items.to_vec();
    msd_recurse(items, &mut buf, key, 3);
}

const MSD_CUTOFF: usize = 48;

fn msd_recurse<T: Clone, F: Fn(&T) -> u32 + Copy>(
    items: &mut [T],
    buf: &mut [T],
    key: F,
    digit: usize,
) {
    if items.len() <= MSD_CUTOFF {
        items.sort_by_key(|it| key(it) & low_mask(digit));
        return;
    }
    let shift = digit * RADIX_BITS;
    let mut hist = [0usize; RADIX];
    for it in items.iter() {
        hist[(key(it) >> shift) as usize & (RADIX - 1)] += 1;
    }
    let mut offsets = [0usize; RADIX];
    let mut sum = 0usize;
    for b in 0..RADIX {
        offsets[b] = sum;
        sum += hist[b];
    }
    let mut cursors = offsets;
    for it in items.iter() {
        let b = (key(it) >> shift) as usize & (RADIX - 1);
        buf[cursors[b]] = it.clone();
        cursors[b] += 1;
    }
    items.clone_from_slice(&buf[..items.len()]);
    if digit == 0 {
        return;
    }
    for b in 0..RADIX {
        let (lo, hi) = (offsets[b], offsets[b] + hist[b]);
        if hi - lo > 1 {
            msd_recurse(&mut items[lo..hi], &mut buf[lo..hi], key, digit - 1);
        }
    }
}

/// Mask covering digits `0 ..= digit` (the still-unsorted low bytes).
fn low_mask(digit: usize) -> u32 {
    if digit >= 3 {
        u32::MAX
    } else {
        (1u32 << ((digit + 1) * RADIX_BITS)) - 1
    }
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test data is sized far below u32"
)]
mod tests {
    use super::*;

    fn reference(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        v.sort_by_key(|kv| kv.0);
        v
    }

    fn tagged(keys: &[u32]) -> Vec<(u32, u32)> {
        keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect()
    }

    #[test]
    fn lsd_sorts_and_is_stable() {
        let data = tagged(&[5, 3, 5, 0, u32::MAX, 3, 1 << 24, 42, 5]);
        let mut got = data.clone();
        lsd_radix_sort_by_key(&mut got, |kv| kv.0);
        assert_eq!(got, reference(data));
    }

    #[test]
    fn lsd_handles_trivial_inputs() {
        let mut empty: Vec<(u32, u32)> = vec![];
        lsd_radix_sort_by_key(&mut empty, |kv| kv.0);
        assert!(empty.is_empty());
        let mut one = vec![(9u32, 0u32)];
        lsd_radix_sort_by_key(&mut one, |kv| kv.0);
        assert_eq!(one, vec![(9, 0)]);
    }

    #[test]
    fn lsd_all_equal_keys_preserves_order() {
        let data = tagged(&[7, 7, 7, 7]);
        let mut got = data.clone();
        lsd_radix_sort_by_key(&mut got, |kv| kv.0);
        assert_eq!(got, data);
    }

    #[test]
    fn lsd_skips_constant_high_bytes() {
        // All keys < 256 → only one pass actually runs; result still sorted.
        let data = tagged(&[200, 1, 99, 0, 255, 1]);
        let mut got = data.clone();
        lsd_radix_sort_by_key(&mut got, |kv| kv.0);
        assert_eq!(got, reference(data));
    }

    #[test]
    fn lsd_u64_wide_keys() {
        let keys = [u64::MAX, 0, 1 << 40, 1 << 40 | 3, 77, 1 << 63];
        let data: Vec<(u64, u32)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        let mut got = data.clone();
        lsd_radix_sort_u64_by_key(&mut got, |kv| kv.0);
        let mut expect = data;
        expect.sort_by_key(|kv| kv.0);
        assert_eq!(got, expect);
    }

    #[test]
    fn msd_sorts_large_random() {
        // Deterministic pseudo-random data crossing the MSD cutoff.
        let mut x = 0x12345678u32;
        let keys: Vec<u32> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        let data = tagged(&keys);
        let mut got = data.clone();
        msd_radix_sort_by_key(&mut got, |kv| kv.0);
        assert_eq!(got, reference(data));
    }

    #[test]
    fn msd_stability_within_cutoff_buckets() {
        // Many duplicates that land in the same top-byte bucket.
        let keys: Vec<u32> = (0..1000).map(|i| (i % 7) as u32).collect();
        let data = tagged(&keys);
        let mut got = data.clone();
        msd_radix_sort_by_key(&mut got, |kv| kv.0);
        assert_eq!(got, reference(data));
    }

    #[test]
    fn low_mask_values() {
        assert_eq!(low_mask(0), 0xFF);
        assert_eq!(low_mask(1), 0xFFFF);
        assert_eq!(low_mask(2), 0xFF_FFFF);
        assert_eq!(low_mask(3), u32::MAX);
    }
}
