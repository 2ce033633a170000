//! BLASTP search parameters.
//!
//! One struct bundles every tunable the four pipeline stages need, with the
//! NCBI-BLAST defaults the paper's experiments use. All engines in the
//! workspace take the same [`SearchParams`], which is what makes their
//! outputs bit-for-bit comparable (paper Sec. V-E).

use crate::karlin::KarlinParams;
use crate::matrix::{Matrix, BLOSUM62};

/// Which *gapped*-extension kernel implementation the finish stage runs.
///
/// Both kernels are bit-for-bit identical by construction (the striped
/// kernels fall back to the scalar oracle whenever their i16 lanes could
/// saturate), so the choice is purely a performance knob. `Auto` resolves
/// to striped, which carries its own scalar rescue path internally.
///
/// Ungapped extension is not selectable: the engines always run the
/// scalar x-drop walk. Measured in the engine (DESIGN.md §3.8), 99.8 % of
/// two-hit extensions die within a few residues, so the striped 8-wide
/// chunked walk never amortises its set-up and costs 2.4× the scalar
/// stage time; the gapped kernels, with long rows to fill, are 1.7×
/// faster striped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Pick the fastest safe kernel per stage (currently: striped gapped
    /// extension with rescue, scalar ungapped extension).
    #[default]
    Auto,
    /// The reference scalar kernels — the oracle every suite compares to.
    Scalar,
    /// Profile-driven SWAR gapped kernels (DESIGN.md §3.8).
    Striped,
}

impl KernelKind {
    /// Whether this choice resolves to the striped gapped kernels.
    #[inline]
    pub fn use_striped(self) -> bool {
        !matches!(self, KernelKind::Scalar)
    }

    /// Parse a CLI spelling (`auto` / `scalar` / `striped`).
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s {
            "auto" => Some(KernelKind::Auto),
            "scalar" => Some(KernelKind::Scalar),
            "striped" => Some(KernelKind::Striped),
            _ => None,
        }
    }

    /// The CLI spelling of this choice.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Auto => "auto",
            KernelKind::Scalar => "scalar",
            KernelKind::Striped => "striped",
        }
    }
}

/// Complete parameter set for a BLASTP search.
#[derive(Clone, Debug)]
pub struct SearchParams {
    /// Substitution matrix (BLOSUM62 by default).
    pub matrix: Matrix,
    /// Word threshold `T` for neighboring words (NCBI default 11).
    pub word_threshold: i32,
    /// Two-hit window `A`: the maximum distance (in diagonal offset) between
    /// two hits on the same diagonal for the pair to trigger an ungapped
    /// extension (NCBI default 40).
    pub two_hit_window: u32,
    /// X-drop for the ungapped extension, in raw score units (NCBI default
    /// 7 bits ≈ raw 16 under ungapped BLOSUM62 statistics).
    pub ungapped_xdrop: i32,
    /// Raw ungapped score required to trigger a gapped extension (NCBI's
    /// `gap_trigger`, default 22 bits ≈ raw 41).
    pub gap_trigger: i32,
    /// Gap-open penalty (NCBI default 11).
    pub gap_open: i32,
    /// Gap-extension penalty (NCBI default 1).
    pub gap_extend: i32,
    /// X-drop for the preliminary gapped extension, raw units (15 bits).
    pub gapped_xdrop: i32,
    /// X-drop for the final (traceback) gapped extension, raw units (25 bits).
    pub final_xdrop: i32,
    /// E-value report cutoff (NCBI default 10).
    pub evalue_cutoff: f64,
    /// Maximum alignments reported per query (NCBI default 500).
    pub max_reported: usize,
    /// Mask low-complexity query regions with SEG before searching
    /// (`blastp -seg yes`; off by default like modern blastp).
    pub seg_filter: bool,
    /// Extension-kernel implementation (scores are identical either way).
    pub kernel: KernelKind,
    /// Ungapped Karlin–Altschul parameters.
    pub ungapped_stats: KarlinParams,
    /// Gapped Karlin–Altschul parameters.
    pub gapped_stats: KarlinParams,
}

impl SearchParams {
    /// The NCBI-BLAST blastp defaults used throughout the paper:
    /// BLOSUM62, `T = 11`, `A = 40`, gap penalties 11/1.
    pub fn blastp_defaults() -> SearchParams {
        let ungapped = KarlinParams::UNGAPPED_BLOSUM62;
        let gapped = KarlinParams::GAPPED_BLOSUM62_11_1;
        SearchParams {
            matrix: BLOSUM62,
            word_threshold: 11,
            two_hit_window: 40,
            ungapped_xdrop: ungapped.raw_for_bits_scale(7.0),
            gap_trigger: ungapped.raw_for_bits(22.0),
            gap_open: 11,
            gap_extend: 1,
            gapped_xdrop: gapped.raw_for_bits_scale(15.0),
            final_xdrop: gapped.raw_for_bits_scale(25.0),
            evalue_cutoff: 10.0,
            max_reported: 500,
            seg_filter: false,
            kernel: KernelKind::Auto,
            ungapped_stats: ungapped,
            gapped_stats: gapped,
        }
    }

    /// A permissive parameter set for tests on tiny synthetic data: lower
    /// thresholds so that short random sequences still produce hits and
    /// extensions through all four stages.
    pub fn relaxed_for_tests() -> SearchParams {
        let mut p = SearchParams::blastp_defaults();
        p.word_threshold = 9;
        p.gap_trigger = 15;
        p.evalue_cutoff = 1e6;
        p
    }
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams::blastp_defaults()
    }
}

/// Helper: convert a bit *drop-off* (a score difference, so the `ln K` term
/// does not apply) into raw score units.
trait BitsScale {
    fn raw_for_bits_scale(&self, bits: f64) -> i32;
}

impl BitsScale for KarlinParams {
    fn raw_for_bits_scale(&self, bits: f64) -> i32 {
        (bits * std::f64::consts::LN_2 / self.lambda).ceil() as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_ncbi() {
        let p = SearchParams::blastp_defaults();
        assert_eq!(p.word_threshold, 11);
        assert_eq!(p.two_hit_window, 40);
        assert_eq!((p.gap_open, p.gap_extend), (11, 1));
        // 7-bit ungapped x-drop ≈ raw 16 under λ = 0.3176.
        assert!((15..=17).contains(&p.ungapped_xdrop), "{}", p.ungapped_xdrop);
        // 22-bit gap trigger ≈ raw 41.
        assert!((40..=43).contains(&p.gap_trigger), "{}", p.gap_trigger);
        // 15-bit gapped x-drop ≈ raw 39 under λ = 0.267.
        assert!((38..=40).contains(&p.gapped_xdrop), "{}", p.gapped_xdrop);
        assert_eq!(p.matrix.name, "BLOSUM62");
    }

    #[test]
    fn kernel_kind_round_trips_and_resolves() {
        for k in [KernelKind::Auto, KernelKind::Scalar, KernelKind::Striped] {
            assert_eq!(KernelKind::parse(k.name()), Some(k));
        }
        assert_eq!(KernelKind::parse("fast"), None);
        assert_eq!(KernelKind::default(), KernelKind::Auto);
        assert!(KernelKind::Auto.use_striped());
        assert!(KernelKind::Striped.use_striped());
        assert!(!KernelKind::Scalar.use_striped());
        assert_eq!(SearchParams::blastp_defaults().kernel, KernelKind::Auto);
    }

    #[test]
    fn relaxed_is_more_permissive() {
        let d = SearchParams::blastp_defaults();
        let r = SearchParams::relaxed_for_tests();
        assert!(r.word_threshold < d.word_threshold);
        assert!(r.gap_trigger < d.gap_trigger);
    }
}
