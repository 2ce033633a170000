//! Karlin–Altschul statistics.
//!
//! BLAST converts raw alignment scores `S` into *bit scores*
//! `S' = (λS − ln K) / ln 2` and *E-values* `E = m·n·2^(−S')`, where `λ`
//! and `K` are the Karlin–Altschul parameters of the scoring system and
//! `m`, `n` are the (effective) query and database lengths.
//!
//! For ungapped scoring, `λ` is the unique positive solution of
//! `Σ_ij p_i p_j e^{λ s_ij} = 1` and `H = λ · Σ_ij p_i p_j s_ij e^{λ s_ij}`;
//! this module's tests solve both numerically from the matrix and the
//! Robinson–Robinson background frequencies, and pin
//! `KarlinParams::UNGAPPED_BLOSUM62` to the result. For gapped scoring no
//! closed form exists and NCBI-BLAST itself ships precomputed constants per
//! (matrix, gap-open, gap-extend) combination; we ship the BLOSUM62 11/1 row
//! (the matrix and penalties used throughout the paper), and the tests pin
//! it against NCBI's table.

use std::f64::consts::LN_2;

/// Robinson–Robinson background amino-acid frequencies, indexed by the
/// residue codes of the 20 standard amino acids (`A..V` in NCBI order).
/// These are the frequencies NCBI-BLAST uses for protein statistics.
pub const ROBINSON_FREQS: [f64; 20] = [
    0.078_05, // A
    0.051_29, // R
    0.044_87, // N
    0.053_64, // D
    0.019_25, // C
    0.042_64, // Q
    0.062_95, // E
    0.073_77, // G
    0.021_99, // H
    0.051_42, // I
    0.090_19, // L
    0.057_44, // K
    0.022_43, // M
    0.038_56, // F
    0.052_03, // P
    0.071_20, // S
    0.058_41, // T
    0.013_30, // W
    0.032_16, // Y
    0.064_41, // V
];

/// Karlin–Altschul parameters of a scoring system.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KarlinParams {
    /// Scale parameter λ.
    pub lambda: f64,
    /// Search-space scale K.
    pub k: f64,
    /// Relative entropy H (bits of information per aligned position).
    pub h: f64,
}

impl KarlinParams {
    /// Published NCBI constants for **ungapped** BLOSUM62 statistics.
    pub(crate) const UNGAPPED_BLOSUM62: KarlinParams =
        KarlinParams { lambda: 0.3176, k: 0.134, h: 0.4012 };

    /// Published NCBI constants for **gapped** BLOSUM62 with the blastp
    /// default 11/1 gap penalties — the `(11, 1)` row of NCBI's gapped
    /// table, which this module's tests keep as `blosum62_gapped_params`.
    pub(crate) const GAPPED_BLOSUM62_11_1: KarlinParams =
        KarlinParams { lambda: 0.267, k: 0.041, h: 0.14 };

    /// Convert a raw score to a bit score.
    #[inline]
    pub fn bit_score(&self, raw: i32) -> f64 {
        (self.lambda * raw as f64 - self.k.ln()) / LN_2
    }

    /// Smallest raw score whose bit score is at least `bits`.
    #[inline]
    pub(crate) fn raw_for_bits(&self, bits: f64) -> i32 {
        ((bits * LN_2 + self.k.ln()) / self.lambda).ceil() as i32
    }

    /// E-value of a raw score in a search space of `m × n`.
    #[inline]
    pub(crate) fn evalue(&self, raw: i32, m: usize, n: usize) -> f64 {
        self.k * m as f64 * n as f64 * (-self.lambda * raw as f64).exp()
    }

    /// NCBI-style *length adjustment*: the expected alignment length `ℓ`
    /// satisfying `ℓ = ln(K (m − ℓ)(n − ℓ)) / H`, solved by fixed-point
    /// iteration and clamped to keep effective lengths positive.
    pub(crate) fn length_adjustment(&self, m: usize, n: usize) -> usize {
        if m == 0 || n == 0 {
            return 0;
        }
        let (mf, nf) = (m as f64, n as f64);
        let mut ell = 0.0f64;
        for _ in 0..20 {
            let em = (mf - ell).max(1.0);
            let en = (nf - ell).max(1.0);
            let next = (self.k * em * en).ln().max(0.0) / self.h;
            if (next - ell).abs() < 0.5 {
                ell = next;
                break;
            }
            ell = next;
        }
        // Never consume more than all of the query (minus one residue).
        (ell as usize).min(m.saturating_sub(1))
    }

    /// E-value using NCBI effective lengths: both `m` and `n` are reduced by
    /// the length adjustment before multiplying the search space.
    pub fn evalue_effective(&self, raw: i32, m: usize, n: usize, db_seqs: usize) -> f64 {
        let ell = self.length_adjustment(m, n);
        let em = m.saturating_sub(ell).max(1);
        let en = n.saturating_sub(ell * db_seqs).max(db_seqs.max(1));
        self.evalue(raw, em, en)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{Matrix, BLOSUM62};

    /// Solve the ungapped λ for `matrix` under background frequencies `freqs`
    /// (defaults to Robinson–Robinson over the 20 standard residues).
    ///
    /// Returns `None` if the scoring system has a non-negative expected score
    /// (in which case Karlin–Altschul theory does not apply).
    fn solve_ungapped_lambda(matrix: &Matrix, freqs: &[f64; 20]) -> Option<f64> {
        // Expected score must be negative and a positive score must exist.
        let mut expected = 0.0;
        let mut any_positive = false;
        for i in 0..20u8 {
            for j in 0..20u8 {
                let s = matrix.score(i, j);
                expected += freqs[i as usize] * freqs[j as usize] * s as f64;
                any_positive |= s > 0;
            }
        }
        if expected >= 0.0 || !any_positive {
            return None;
        }
        // f(λ) = Σ p_i p_j e^{λ s_ij} − 1 is convex with f(0) = 0, f'(0) < 0 and
        // f(∞) = ∞; bisect on the positive root.
        let f = |lambda: f64| -> f64 {
            let mut sum = 0.0;
            for i in 0..20u8 {
                for j in 0..20u8 {
                    sum += freqs[i as usize]
                        * freqs[j as usize]
                        * (lambda * matrix.score(i, j) as f64).exp();
                }
            }
            sum - 1.0
        };
        let mut hi = 0.5;
        while f(hi) < 0.0 {
            hi *= 2.0;
            if hi > 32.0 {
                return None;
            }
        }
        let mut lo = 0.0;
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if f(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }

    /// Relative entropy `H = λ Σ p_i p_j s_ij e^{λ s_ij}` for the given λ.
    fn ungapped_entropy(matrix: &Matrix, freqs: &[f64; 20], lambda: f64) -> f64 {
        let mut h = 0.0;
        for i in 0..20u8 {
            for j in 0..20u8 {
                let s = matrix.score(i, j) as f64;
                h += freqs[i as usize] * freqs[j as usize] * s * (lambda * s).exp();
            }
        }
        lambda * h
    }

    /// Published NCBI gapped Karlin–Altschul parameters for BLOSUM62 by
    /// `(gap_open, gap_extend)`. NCBI-BLAST ships exactly such a table
    /// (`blast_stat.c`) because gapped parameters have no closed form.
    /// Returns `None` for unsupported penalty combinations.
    fn blosum62_gapped_params(gap_open: i32, gap_extend: i32) -> Option<KarlinParams> {
        let table: &[(i32, i32, f64, f64, f64)] = &[
            (11, 2, 0.297, 0.082, 0.27),
            (10, 2, 0.291, 0.075, 0.23),
            (9, 2, 0.279, 0.058, 0.19),
            (8, 2, 0.264, 0.045, 0.15),
            (7, 2, 0.239, 0.027, 0.10),
            (6, 2, 0.201, 0.012, 0.061),
            (13, 1, 0.292, 0.071, 0.23),
            (12, 1, 0.283, 0.059, 0.19),
            (11, 1, 0.267, 0.041, 0.14),
            (10, 1, 0.243, 0.024, 0.10),
            (9, 1, 0.206, 0.010, 0.052),
        ];
        table
            .iter()
            .find(|&&(o, e, ..)| o == gap_open && e == gap_extend)
            .map(|&(_, _, lambda, k, h)| KarlinParams { lambda, k, h })
    }

    #[test]
    fn ungapped_lambda_matches_published_value() {
        let lambda = solve_ungapped_lambda(&BLOSUM62, &ROBINSON_FREQS).unwrap();
        assert!(
            (lambda - 0.3176).abs() < 0.005,
            "lambda = {lambda}, expected ≈ 0.3176"
        );
    }

    #[test]
    fn ungapped_entropy_matches_published_value() {
        let lambda = solve_ungapped_lambda(&BLOSUM62, &ROBINSON_FREQS).unwrap();
        let h = ungapped_entropy(&BLOSUM62, &ROBINSON_FREQS, lambda);
        assert!((h - 0.4012).abs() < 0.02, "H = {h}, expected ≈ 0.4012");
    }

    #[test]
    fn background_freqs_sum_to_one() {
        let sum: f64 = ROBINSON_FREQS.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum = {sum}");
    }

    #[test]
    fn bit_score_and_raw_roundtrip() {
        let p = KarlinParams::UNGAPPED_BLOSUM62;
        for raw in [10, 41, 100] {
            let bits = p.bit_score(raw);
            let back = p.raw_for_bits(bits);
            assert!(back <= raw + 1 && back >= raw - 1);
        }
        // 22 bits is NCBI's default gap trigger; for ungapped BLOSUM62 this
        // corresponds to a raw score of about 41.
        let trigger = p.raw_for_bits(22.0);
        assert!((40..=43).contains(&trigger), "trigger = {trigger}");
    }

    #[test]
    fn evalue_decreases_with_score() {
        let p = KarlinParams::UNGAPPED_BLOSUM62;
        let e1 = p.evalue(30, 500, 100_000);
        let e2 = p.evalue(60, 500, 100_000);
        assert!(e2 < e1);
        assert!(e2 > 0.0);
    }

    #[test]
    fn gapped_table_lookup() {
        let p = blosum62_gapped_params(11, 1).unwrap();
        assert!((p.lambda - 0.267).abs() < 1e-9);
        assert!((p.k - 0.041).abs() < 1e-9);
        assert!(blosum62_gapped_params(3, 3).is_none());
        // The named default const must stay in sync with the table row.
        assert_eq!(Some(KarlinParams::GAPPED_BLOSUM62_11_1), blosum62_gapped_params(11, 1));
    }

    #[test]
    fn length_adjustment_reasonable() {
        let p = KarlinParams::UNGAPPED_BLOSUM62;
        let ell = p.length_adjustment(512, 10_000_000);
        // For these sizes NCBI's adjustment is a few dozen residues.
        assert!(ell > 10 && ell < 200, "ell = {ell}");
        assert_eq!(p.length_adjustment(0, 100), 0);
        // Tiny query: adjustment must not swallow the whole query.
        assert!(p.length_adjustment(5, 10_000_000) < 5);
    }

    #[test]
    fn effective_evalue_larger_than_naive_for_huge_db() {
        // Effective lengths shrink the search space, so E-values drop.
        let p = KarlinParams::UNGAPPED_BLOSUM62;
        let naive = p.evalue(50, 512, 10_000_000);
        let eff = p.evalue_effective(50, 512, 10_000_000, 30_000);
        assert!(eff < naive);
    }
}
