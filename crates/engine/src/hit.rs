//! Hit-pair representation and key packing (paper Sec. IV-A/B).
//!
//! A detected hit pair carries everything the decoupled ungapped-extension
//! stage needs:
//!
//! * a **packed key** `(local sequence id << diag_bits) | diagonal id` —
//!   one radix sort on this key orders hits by sequence *and* diagonal at
//!   once (the paper packs both ids into one 32-bit integer);
//! * the **query offset** of the second (triggering) hit — the subject
//!   offset is recomputed from the diagonal at extension time, halving the
//!   buffer (the paper keeps only one of the two offsets);
//! * the **distance** to the first hit of the pair (Alg. 1 line 10), from
//!   which the first hit's position is recovered for the two-hit
//!   connection rule.
//!
//! Diagonal ids are shifted by the query length so they are non-negative:
//! `diag = s_off − q_off + query_len`.

/// A filtered hit pair awaiting ungapped extension.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HitPair {
    /// `(local_seq << diag_bits) | diag`, see [`KeySpec`].
    pub key: u32,
    /// Query offset of the second hit's word start.
    pub q_off: u32,
    /// Distance to the first hit of the pair (`q2 − q1`, > 0).
    pub dist: u32,
}

/// Packing geometry for hit keys within one (block, query) search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeySpec {
    /// Bits reserved for the diagonal id (low bits).
    pub diag_bits: u32,
    /// Query length used for the diagonal shift.
    pub query_len: u32,
}

impl KeySpec {
    /// Build a key spec for a query of length `query_len` against subjects
    /// of at most `max_subject_len` residues.
    ///
    /// # Panics
    /// Panics if `local-seq bits + diag bits` exceed 32 — with the default
    /// index config (fragments ≤ 32 767) and queries ≤ 32 767 this cannot
    /// happen for blocks under 2¹⁷ sequences.
    pub fn new(query_len: usize, max_subject_len: usize, n_seqs: usize) -> KeySpec {
        // diag ∈ [0, query_len + max_subject_len], need that many values.
        let diag_span = (query_len + max_subject_len + 1) as u64;
        let diag_bits = 64 - (diag_span - 1).max(1).leading_zeros();
        let seq_bits = 64 - (n_seqs.max(1) as u64 - 1).max(1).leading_zeros();
        assert!(
            diag_bits + seq_bits <= 32,
            "hit key overflow: {n_seqs} seqs × diag span {diag_span} needs \
             {seq_bits}+{diag_bits} bits"
        );
        KeySpec { diag_bits, query_len: query_len as u32 }
    }

    /// Number of diagonal slots per sequence.
    #[inline]
    pub fn diag_span(&self) -> u32 {
        1 << self.diag_bits
    }

    /// Diagonal id of a `(q_off, s_off)` hit.
    #[inline]
    pub fn diag(&self, q_off: u32, s_off: u32) -> u32 {
        s_off + self.query_len - q_off
    }

    /// Pack a key.
    #[inline]
    pub fn key(&self, local_seq: u32, diag: u32) -> u32 {
        debug_assert!(diag < self.diag_span());
        (local_seq << self.diag_bits) | diag
    }

    /// Unpack `(local_seq, diag)`.
    #[inline]
    pub fn unpack(&self, key: u32) -> (u32, u32) {
        (key >> self.diag_bits, key & (self.diag_span() - 1))
    }

    /// Recover the subject offset from a key's diagonal and a query offset.
    #[inline]
    pub fn s_off(&self, key: u32, q_off: u32) -> u32 {
        let diag = key & (self.diag_span() - 1);
        diag + q_off - self.query_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diag_roundtrip() {
        let ks = KeySpec::new(512, 2000, 1000);
        for (q, s) in [(0u32, 0u32), (511, 0), (0, 1999), (300, 700)] {
            let d = ks.diag(q, s);
            let key = ks.key(42, d);
            assert_eq!(ks.unpack(key), (42, d));
            assert_eq!(ks.s_off(key, q), s);
        }
    }

    #[test]
    fn keys_sort_by_seq_then_diag() {
        let ks = KeySpec::new(100, 100, 50);
        let k1 = ks.key(1, ks.diag_span() - 1); // seq 1, max diag
        let k2 = ks.key(2, 0); // seq 2, min diag
        assert!(k1 < k2, "sequence id must dominate the ordering");
        let k3 = ks.key(2, 5);
        assert!(k2 < k3, "diagonal orders within a sequence");
    }

    #[test]
    fn spec_sizes() {
        let ks = KeySpec::new(512, 2000, 1000);
        // span 2513 → 12 bits.
        assert_eq!(ks.diag_bits, 12);
        assert_eq!(ks.diag_span(), 4096);
    }

    #[test]
    fn tiny_inputs() {
        let ks = KeySpec::new(3, 3, 1);
        assert_eq!(ks.diag(0, 0), 3);
        assert!(ks.diag_bits >= 3);
    }

    #[test]
    #[should_panic(expected = "hit key overflow")]
    fn overflow_detected() {
        KeySpec::new(1 << 16, 1 << 16, 1 << 17);
    }
}
