//! SEG low-complexity filtering (Wootton & Federhen, 1993).
//!
//! Protein databases are full of compositionally biased regions —
//! homopolymer runs, coiled coils, proline-rich linkers — that produce
//! floods of statistically meaningless word hits. NCBI-BLAST ships the
//! SEG filter to mask them; this module implements the standard two-stage
//! scheme:
//!
//! 1. slide a window of length `w` (default 12) over the sequence and
//!    compute its Shannon entropy over the residue composition; windows
//!    at or below the *trigger* entropy `k1` (default 2.2 bits) seed a
//!    low-complexity segment;
//! 2. each seed grows over every overlapping window at or below the
//!    *extension* entropy `k2` (default 2.5 bits); overlapping segments
//!    merge.
//!
//! Masked residues are replaced by `X`, which scores ≤ 0 against
//! everything in BLOSUM62, so masked regions simply stop seeding hits.
//! The muBLASTP engines apply SEG to the *query* when
//! `SearchParams::seg_filter` is on (like `blastp -seg yes`).

use crate::alphabet::{ALPHABET_SIZE, X_CODE};

/// SEG parameters (NCBI defaults).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SegParams {
    /// Window length.
    pub window: usize,
    /// Trigger entropy (bits): windows at or below seed a segment.
    pub k1: f64,
    /// Extension entropy (bits): windows at or below extend a segment.
    pub k2: f64,
}

impl Default for SegParams {
    fn default() -> Self {
        SegParams { window: 12, k1: 2.2, k2: 2.5 }
    }
}

/// Shannon entropy (bits) of the residue composition of `window`.
pub(crate) fn window_entropy(window: &[u8]) -> f64 {
    let mut counts = [0u32; ALPHABET_SIZE];
    for &r in window {
        counts[r as usize] += 1;
    }
    let n = window.len() as f64;
    let mut h = 0.0;
    for &c in &counts {
        if c > 0 {
            let p = c as f64 / n;
            h -= p * p.log2();
        }
    }
    h
}

/// Find low-complexity intervals of an encoded sequence (half-open
/// ranges, ascending, non-overlapping).
pub(crate) fn seg_intervals(seq: &[u8], params: &SegParams) -> Vec<(usize, usize)> {
    let w = params.window;
    if seq.len() < w {
        return Vec::new();
    }
    // Entropy of every window (rolling counts).
    let n_windows = seq.len() - w + 1;
    let mut entropies = Vec::with_capacity(n_windows);
    for i in 0..n_windows {
        entropies.push(window_entropy(&seq[i..i + w]));
    }
    // Seed on k1, extend on k2, merge overlaps.
    let mut out: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < n_windows {
        if entropies[i] > params.k1 {
            i += 1;
            continue;
        }
        // Grow left/right over k2 windows.
        let mut lo = i;
        while lo > 0 && entropies[lo - 1] <= params.k2 {
            lo -= 1;
        }
        let mut hi = i;
        while hi + 1 < n_windows && entropies[hi + 1] <= params.k2 {
            hi += 1;
        }
        let (start, end) = (lo, hi + w);
        match out.last_mut() {
            Some(prev) if start <= prev.1 => prev.1 = prev.1.max(end),
            _ => out.push((start, end)),
        }
        i = hi + 1;
    }
    out
}

/// Return a copy of `seq` with low-complexity intervals masked to `X`.
///
/// ```
/// use bioseq::alphabet::{decode_to_string, encode_str};
/// use bioseq::{seg_mask, SegParams};
///
/// let seq = encode_str(&format!("MARNDCQEGHILK{}", "P".repeat(20))).unwrap();
/// let masked = decode_to_string(&seg_mask(&seq, &SegParams::default()));
/// assert!(masked.starts_with("MARNDC")); // flank core survives
/// assert!(masked.ends_with("XXXXXXXX"));
/// ```
pub fn seg_mask(seq: &[u8], params: &SegParams) -> Vec<u8> {
    let mut out = seq.to_vec();
    for (lo, hi) in seg_intervals(seq, params) {
        out[lo..hi].fill(X_CODE);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_str;

    fn enc(s: &str) -> Vec<u8> {
        encode_str(s).unwrap()
    }

    #[test]
    fn entropy_extremes() {
        let homo = enc("AAAAAAAAAAAA");
        assert_eq!(window_entropy(&homo), 0.0);
        let diverse = enc("ARNDCQEGHILK"); // 12 distinct residues
        assert!((window_entropy(&diverse) - 12f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn homopolymer_run_is_masked() {
        let seq = enc(&format!("MKVLARNDCQEG{}HILKMFPSTWYV", "P".repeat(30)));
        let masked = seg_mask(&seq, &SegParams::default());
        let x = X_CODE;
        // The P-run is fully masked…
        let run = &masked[12..42];
        assert!(run.iter().all(|&r| r == x), "run not masked");
        // …and the diverse flank cores survive (the extension phase may
        // nibble a few boundary residues whose windows straddle the run).
        assert!(masked[..4].iter().all(|&r| r != x), "{masked:?}");
        assert!(masked[masked.len() - 4..].iter().all(|&r| r != x));
    }

    #[test]
    fn diverse_sequence_is_untouched() {
        let seq = enc("MARNDCQEGHILKMFPSTWYVMARNDCQEGHILKMFPSTWYV");
        assert!(seg_intervals(&seq, &SegParams::default()).is_empty());
        assert_eq!(seg_mask(&seq, &SegParams::default()), seq);
    }

    #[test]
    fn two_runs_give_two_intervals() {
        let seq = enc(&format!(
            "{}MARNDCQEGHILKMFPSTWYVMARNDCQEGHILK{}",
            "S".repeat(20),
            "E".repeat(20)
        ));
        let iv = seg_intervals(&seq, &SegParams::default());
        assert_eq!(iv.len(), 2, "{iv:?}");
        assert_eq!(iv[0].0, 0);
        assert_eq!(iv[1].1, seq.len());
    }

    #[test]
    fn adjacent_low_complexity_merges() {
        // Two different homopolymers back to back form one interval.
        let seq = enc(&format!("{}{}", "A".repeat(15), "G".repeat(15)));
        let iv = seg_intervals(&seq, &SegParams::default());
        assert_eq!(iv, vec![(0, 30)]);
    }

    #[test]
    fn short_sequences_pass_through() {
        let seq = enc("AAAAA"); // shorter than the window
        assert!(seg_intervals(&seq, &SegParams::default()).is_empty());
    }

    #[test]
    fn low_entropy_dipeptide_repeat_masked() {
        let seq = enc(&"PQ".repeat(15)); // entropy 1 bit
        let iv = seg_intervals(&seq, &SegParams::default());
        assert_eq!(iv, vec![(0, 30)]);
    }
}
