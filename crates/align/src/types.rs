//! Alignment result types.

/// A high-scoring ungapped alignment (an HSP seed). All coordinates are
/// 0-based offsets into the *encoded* sequences; ranges are half-open.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct UngappedAlignment {
    /// Query range `[q_start, q_end)`.
    pub q_start: u32,
    pub q_end: u32,
    /// Subject range `[s_start, s_end)`.
    pub s_start: u32,
    pub s_end: u32,
    /// Raw ungapped score.
    pub score: i32,
}

impl UngappedAlignment {
    /// Length of the (gapless) alignment.
    pub(crate) fn len(&self) -> u32 {
        self.q_end - self.q_start
    }

    /// Diagonal id `s_start − q_start` (can be negative).
    pub(crate) fn diagonal(&self) -> i64 {
        self.s_start as i64 - self.q_start as i64
    }

    /// The query/subject offset pair of the highest-scoring midpoint used
    /// to seed a gapped extension — the middle of the ungapped region, as
    /// NCBI-BLAST does.
    pub fn seed(&self) -> (u32, u32) {
        let half = self.len() / 2;
        (self.q_start + half, self.s_start + half)
    }
}

/// One traceback operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlignOp {
    /// Aligned residue pair (match or mismatch) — CIGAR `M`.
    Sub,
    /// Gap in the subject: query residue unpaired — CIGAR `I`.
    Ins,
    /// Gap in the query: subject residue unpaired — CIGAR `D`.
    Del,
}

/// A gapped local alignment, optionally with its traceback.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GappedAlignment {
    pub q_start: u32,
    pub q_end: u32,
    pub s_start: u32,
    pub s_end: u32,
    /// Raw gapped score.
    pub score: i32,
    /// Traceback operations, query/subject-leading order. Empty when only
    /// the score-only stage ran.
    pub ops: Vec<AlignOp>,
}

impl GappedAlignment {
    /// Count identical residues given the two sequences.
    pub fn identities(&self, query: &[u8], subject: &[u8]) -> usize {
        let mut q = self.q_start as usize;
        let mut s = self.s_start as usize;
        let mut n = 0;
        for op in &self.ops {
            match op {
                AlignOp::Sub => {
                    if query[q] == subject[s] {
                        n += 1;
                    }
                    q += 1;
                    s += 1;
                }
                AlignOp::Ins => q += 1,
                AlignOp::Del => s += 1,
            }
        }
        n
    }

    /// Check the ops are internally consistent with the coordinate ranges.
    pub fn validate(&self) -> bool {
        if self.ops.is_empty() {
            return self.q_end >= self.q_start && self.s_end >= self.s_start;
        }
        let (mut q, mut s) = (0u32, 0u32);
        for op in &self.ops {
            match op {
                AlignOp::Sub => {
                    q += 1;
                    s += 1;
                }
                AlignOp::Ins => q += 1,
                AlignOp::Del => s += 1,
            }
        }
        q == self.q_end - self.q_start && s == self.s_end - self.s_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ungapped_geometry() {
        let u = UngappedAlignment { q_start: 4, q_end: 12, s_start: 6, s_end: 14, score: 30 };
        assert_eq!(u.len(), 8);
        assert_eq!(u.diagonal(), 2);
        assert_eq!(u.seed(), (8, 10));
    }

    #[test]
    fn gapped_validate_and_identities() {
        let g = GappedAlignment {
            q_start: 0,
            q_end: 3,
            s_start: 0,
            s_end: 4,
            score: 10,
            ops: vec![AlignOp::Sub, AlignOp::Del, AlignOp::Sub, AlignOp::Sub],
        };
        assert!(g.validate());
        // query ABC vs subject A-BC with the Del consuming subject's X.
        let q = [0u8, 1, 2];
        let s = [0u8, 9, 1, 2];
        assert_eq!(g.identities(&q, &s), 3);
    }

    #[test]
    fn gapped_validate_rejects_mismatched_ops() {
        let g = GappedAlignment {
            q_start: 0,
            q_end: 5,
            s_start: 0,
            s_end: 5,
            score: 0,
            ops: vec![AlignOp::Sub],
        };
        assert!(!g.validate());
    }
}
