//! Bottom-up stable merge sort by key.
//!
//! The `O(n log n)` contender from the paper's Sec. IV-B comparison. A
//! bottom-up (iterative) merge avoids recursion overhead and touches memory
//! in long sequential runs, which is what makes merge sort "bandwidth
//! friendly" in the sort literature the paper cites.

/// Stable bottom-up merge sort of `items` by the `u32` key from `key`.
pub fn merge_sort_by_key<T: Clone, F: Fn(&T) -> u32>(items: &mut Vec<T>, key: F) {
    let n = items.len();
    if n < 2 {
        return;
    }
    let mut src: Vec<T> = std::mem::take(items);
    let mut dst: Vec<T> = src.clone();
    let mut width = 1usize;
    let mut flipped = false;
    while width < n {
        let mut lo = 0usize;
        while lo < n {
            let mid = (lo + width).min(n);
            let hi = (lo + 2 * width).min(n);
            merge_runs(&src[lo..mid], &src[mid..hi], &mut dst[lo..hi], &key);
            lo = hi;
        }
        std::mem::swap(&mut src, &mut dst);
        flipped = !flipped;
        width *= 2;
    }
    let _ = flipped; // src now holds the sorted data regardless of parity
    *items = src;
}

/// Merge two adjacent sorted runs into `out`. Ties take from the left run
/// first, which is what makes the sort stable.
fn merge_runs<T: Clone, F: Fn(&T) -> u32>(left: &[T], right: &[T], out: &mut [T], key: &F) {
    debug_assert_eq!(left.len() + right.len(), out.len());
    let (mut i, mut j) = (0usize, 0usize);
    for slot in out.iter_mut() {
        let take_left = if i >= left.len() {
            false
        } else if j >= right.len() {
            true
        } else {
            key(&left[i]) <= key(&right[j])
        };
        if take_left {
            *slot = left[i].clone();
            i += 1;
        } else {
            *slot = right[j].clone();
            j += 1;
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test data is sized far below u32"
)]
mod tests {
    use super::*;

    fn tagged(keys: &[u32]) -> Vec<(u32, u32)> {
        keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect()
    }

    #[test]
    fn sorts_and_is_stable() {
        let data = tagged(&[9, 1, 9, 0, 4, 4, 4, u32::MAX, 2]);
        let mut got = data.clone();
        merge_sort_by_key(&mut got, |kv| kv.0);
        let mut expect = data;
        expect.sort_by_key(|kv| kv.0);
        assert_eq!(got, expect);
    }

    #[test]
    fn trivial_inputs() {
        let mut empty: Vec<(u32, u32)> = vec![];
        merge_sort_by_key(&mut empty, |kv| kv.0);
        assert!(empty.is_empty());
        let mut two = vec![(2u32, 0u32), (1, 1)];
        merge_sort_by_key(&mut two, |kv| kv.0);
        assert_eq!(two, vec![(1, 1), (2, 0)]);
    }

    #[test]
    fn already_sorted_and_reversed() {
        let asc = tagged(&(0..100).collect::<Vec<u32>>());
        let mut got = asc.clone();
        merge_sort_by_key(&mut got, |kv| kv.0);
        assert_eq!(got, asc);

        let desc_keys: Vec<u32> = (0..101).rev().collect();
        let data = tagged(&desc_keys);
        let mut got = data.clone();
        merge_sort_by_key(&mut got, |kv| kv.0);
        let mut expect = data;
        expect.sort_by_key(|kv| kv.0);
        assert_eq!(got, expect);
    }

    #[test]
    fn odd_length_runs() {
        // Lengths that are not powers of two exercise the ragged final run.
        for n in [3usize, 5, 17, 31, 1023] {
            let keys: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761) % 64).collect();
            let data = tagged(&keys);
            let mut got = data.clone();
            merge_sort_by_key(&mut got, |kv| kv.0);
            let mut expect = data;
            expect.sort_by_key(|kv| kv.0);
            assert_eq!(got, expect, "n = {n}");
        }
    }
}
