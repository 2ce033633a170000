//! Index build configuration and the paper's block-size model.

/// Configuration for building a [`crate::DbIndex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexConfig {
    /// Target index bytes per block. Each posting is a 4-byte packed
    /// position, so a block holds about `block_bytes / 4` positions
    /// (≈ residues). The paper sweeps 128 KB – 4 MB and lands on 512 KB
    /// for a 30 MB L3 shared by 12 threads.
    pub block_bytes: usize,
    /// Bits of the packed posting used for the subject offset; the
    /// remaining `32 − offset_bits` bits hold the block-local sequence id.
    pub offset_bits: u32,
    /// Residues shared between consecutive fragments when a sequence
    /// longer than the offset field must be split (Sec. IV-A).
    pub frag_overlap: usize,
}

impl IndexConfig {
    /// Maximum fragment length representable by the offset field.
    pub(crate) fn max_seq_len(&self) -> usize {
        (1usize << self.offset_bits) - 1
    }

    /// Maximum block-local sequence count.
    pub(crate) fn max_seqs_per_block(&self) -> usize {
        1usize << (32 - self.offset_bits)
    }

    /// Residue budget per block implied by `block_bytes`.
    pub fn residues_per_block(&self) -> usize {
        (self.block_bytes / 4).max(1)
    }
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            block_bytes: 512 << 10, // the paper's sweet spot
            offset_bits: 15,        // fragments ≤ 32 767 residues
            frag_overlap: 64,
        }
    }
}

/// The paper's block-size model (Sec. V-B): with `t` threads each keeping a
/// last-hit array roughly twice the block size, the block and all last-hit
/// arrays fit in the L3 of size `l3` when `b = l3 / (2t + 1)`.
pub fn optimal_block_bytes(l3_bytes: usize, threads: usize) -> usize {
    assert!(threads > 0);
    l3_bytes / (2 * threads + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = IndexConfig::default();
        assert_eq!(c.block_bytes, 512 << 10);
        assert_eq!(c.max_seq_len(), 32_767);
        assert_eq!(c.max_seqs_per_block(), 1 << 17);
        assert_eq!(c.residues_per_block(), 128 << 10);
    }

    #[test]
    fn paper_block_size_example() {
        // 30 MB L3, 12 threads → b = 30 MB / 25 ≈ 1.2 MB; the paper rounds
        // down to the measured optimum of 512 KB–1 MB.
        let b = optimal_block_bytes(30 << 20, 12);
        assert!(b > 1 << 20 && b < 2 << 20, "b = {b}");
        // One thread → nearly a third of the cache.
        assert_eq!(optimal_block_bytes(30 << 20, 1), 10 << 20);
    }
}
