//! Index blocking and per-block posting lists.

use crate::config::IndexConfig;
use align::assembly::split_long;
use bioseq::alphabet::{Word, WordIter, WORD_SPACE};
use bioseq::{SequenceDb, SequenceId};

/// One (fragment of a) subject sequence inside a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockSeq {
    /// Id of the original sequence in the source database.
    pub global_id: SequenceId,
    /// Offset of this fragment within the original sequence (0 for whole
    /// sequences; fragments of split long sequences carry their position
    /// so extensions can be assembled back, Sec. IV-A).
    pub frag_offset: u32,
    /// Start of the fragment in the block's residue buffer.
    pub start: u32,
    /// Fragment length in residues.
    pub len: u32,
}

/// One index block: its subject residues (contiguous — block-local
/// subjects are what the decoupled pipeline streams through the cache) and
/// a CSR posting list per word.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexBlock {
    seqs: Vec<BlockSeq>,
    residues: Vec<u8>,
    /// CSR over words: `offsets[w]..offsets[w+1]` indexes `entries`.
    offsets: Vec<u32>,
    /// Packed postings: `(local_seq << offset_bits) | subject_offset`,
    /// emitted in scan order (ascending local seq, then offset).
    entries: Vec<u32>,
    offset_bits: u32,
}

impl IndexBlock {
    /// Number of fragments in the block.
    pub fn n_seqs(&self) -> usize {
        self.seqs.len()
    }

    /// Fragment metadata by block-local id.
    pub fn seq(&self, local: u32) -> &BlockSeq {
        &self.seqs[local as usize]
    }

    /// All fragments.
    pub fn seqs(&self) -> &[BlockSeq] {
        &self.seqs
    }

    /// Residues of a fragment.
    #[inline]
    pub fn seq_residues(&self, local: u32) -> &[u8] {
        let s = &self.seqs[local as usize];
        &self.residues[s.start as usize..(s.start + s.len) as usize]
    }

    /// Packed postings of `word` (ascending by packed value).
    #[inline]
    pub fn postings(&self, word: Word) -> &[u32] {
        let lo = self.offsets[word as usize] as usize;
        let hi = self.offsets[word as usize + 1] as usize;
        &self.entries[lo..hi]
    }

    /// Index of `word`'s first posting within the whole entry array —
    /// instrumented kernels use it to compute trace addresses.
    #[inline]
    pub fn posting_start(&self, word: Word) -> u32 {
        self.offsets[word as usize]
    }

    /// Unpack a posting into `(local sequence id, subject offset)`.
    #[inline]
    pub fn unpack(&self, entry: u32) -> (u32, u32) {
        (entry >> self.offset_bits, entry & ((1 << self.offset_bits) - 1))
    }

    /// Pack `(local sequence id, subject offset)` into a posting; the
    /// tests check [`Self::unpack`] against it.
    #[cfg(test)]
    fn pack(&self, local_seq: u32, offset: u32) -> u32 {
        debug_assert!(offset < (1 << self.offset_bits));
        (local_seq << self.offset_bits) | offset
    }

    /// Total stored positions.
    pub fn total_positions(&self) -> usize {
        self.entries.len()
    }

    /// Total residues in the block.
    pub fn total_residues(&self) -> usize {
        self.residues.len()
    }

    /// Length of the longest fragment (bounds the diagonal space).
    pub fn max_seq_len(&self) -> u32 {
        self.seqs.iter().map(|s| s.len).max().unwrap_or(0)
    }

    /// Approximate memory footprint in bytes (what must fit in cache).
    pub fn memory_bytes(&self) -> usize {
        self.entries.len() * 4
            + self.offsets.len() * 4
            + self.residues.len()
            + self.seqs.len() * std::mem::size_of::<BlockSeq>()
    }

    /// Bits used for subject offsets in packed postings.
    pub(crate) fn offset_bits(&self) -> u32 {
        self.offset_bits
    }

    pub(crate) fn from_parts(
        seqs: Vec<BlockSeq>,
        residues: Vec<u8>,
        offsets: Vec<u32>,
        entries: Vec<u32>,
        offset_bits: u32,
    ) -> IndexBlock {
        IndexBlock { seqs, residues, offsets, entries, offset_bits }
    }

    pub(crate) fn parts(&self) -> (&[BlockSeq], &[u8], &[u32], &[u32]) {
        (&self.seqs, &self.residues, &self.offsets, &self.entries)
    }

    /// Build the posting lists for a block whose fragments are already
    /// laid out in `residues`/`seqs`.
    fn index_postings(seqs: &[BlockSeq], residues: &[u8], offset_bits: u32) -> (Vec<u32>, Vec<u32>) {
        // Pass 1: counts.
        let mut counts = vec![0u32; WORD_SPACE];
        for s in seqs {
            let frag = &residues[s.start as usize..(s.start + s.len) as usize];
            for (_p, w) in WordIter::new(frag) {
                counts[w as usize] += 1;
            }
        }
        let mut offsets = vec![0u32; WORD_SPACE + 1];
        let mut sum = 0u32;
        for (w, &c) in counts.iter().enumerate() {
            offsets[w] = sum;
            sum += c;
        }
        offsets[WORD_SPACE] = sum;
        // Pass 2: fill in scan order; cursor reuses the counts array.
        let mut cursor = offsets.clone();
        let mut entries = vec![0u32; sum as usize];
        for (local, s) in seqs.iter().enumerate() {
            let frag = &residues[s.start as usize..(s.start + s.len) as usize];
            for (p, w) in WordIter::new(frag) {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "`local < max_seqs_per_block() = 2^(32-offset_bits)` — asserted in `finish_block` (Sec. III local-offset packing)"
                )]
                let e = ((local as u32) << offset_bits) | p;
                entries[cursor[w as usize] as usize] = e;
                cursor[w as usize] += 1;
            }
        }
        (offsets, entries)
    }
}

/// A complete database index: blocks over a length-sorted database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DbIndex {
    blocks: Vec<IndexBlock>,
    config: IndexConfig,
}

impl DbIndex {
    /// Build the index (paper Sec. III):
    ///
    /// 1. split over-long sequences into overlapped fragments;
    /// 2. sort fragments by length (stable);
    /// 3. greedily pack fragments into blocks of
    ///    [`IndexConfig::residues_per_block`] residues, never splitting a
    ///    fragment across blocks;
    /// 4. index each block's overlapping words with local-offset packing.
    ///
    /// ```
    /// use bioseq::{Sequence, SequenceDb};
    /// use dbindex::{DbIndex, IndexConfig};
    ///
    /// let db: SequenceDb = vec![
    ///     Sequence::from_str_checked("a", "MKVLWCHWMYF").unwrap(),
    ///     Sequence::from_str_checked("b", "ARNDCQEG").unwrap(),
    /// ].into_iter().collect();
    /// let index = DbIndex::build(&db, &IndexConfig::default());
    /// assert_eq!(index.blocks().len(), 1);
    /// // Postings invert the database: the word "MKV" is found at
    /// // (sequence "a", offset 0). Note blocks are length-sorted, so "a"
    /// // (the longer sequence) has local id 1.
    /// let block = &index.blocks()[0];
    /// let word = bioseq::alphabet::pack_word(
    ///     bioseq::encode_residue(b'M').unwrap(),
    ///     bioseq::encode_residue(b'K').unwrap(),
    ///     bioseq::encode_residue(b'V').unwrap(),
    /// );
    /// let (local, offset) = block.unpack(block.postings(word)[0]);
    /// assert_eq!(block.seq(local).global_id, 0);
    /// assert_eq!(offset, 0);
    /// ```
    pub fn build(db: &SequenceDb, config: &IndexConfig) -> DbIndex {
        let max_len = config.max_seq_len();
        // (global_id, frag_offset, len)
        let mut frags: Vec<(SequenceId, u32, u32)> = Vec::with_capacity(db.len());
        for (id, seq) in db.iter() {
            if seq.len() <= max_len {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "`seq.len() <= max_seq_len() < 2^offset_bits ≤ 2^31` on this branch"
                )]
                frags.push((id, 0, seq.len() as u32));
            } else {
                for f in split_long(seq.len(), max_len, config.frag_overlap) {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "`split_long` caps fragment offset and length at the original sequence length, itself bounded by the u32 residue space of `SequenceDb`"
                    )]
                    frags.push((id, f.offset as u32, f.len as u32));
                }
            }
        }
        frags.sort_by_key(|&(_, _, len)| len);

        let budget = config.residues_per_block();
        let mut blocks = Vec::new();
        let mut cur: Vec<(SequenceId, u32, u32)> = Vec::new();
        let mut cur_residues = 0usize;
        for f in frags {
            if cur_residues + f.2 as usize > budget && !cur.is_empty() {
                blocks.push(Self::finish_block(db, &cur, config));
                cur.clear();
                cur_residues = 0;
            }
            cur_residues += f.2 as usize;
            cur.push(f);
        }
        if !cur.is_empty() {
            blocks.push(Self::finish_block(db, &cur, config));
        }
        DbIndex { blocks, config: *config }
    }

    fn finish_block(
        db: &SequenceDb,
        frags: &[(SequenceId, u32, u32)],
        config: &IndexConfig,
    ) -> IndexBlock {
        assert!(
            frags.len() <= config.max_seqs_per_block(),
            "block exceeds the local-sequence-id space; increase block granularity"
        );
        let total: usize = frags.iter().map(|f| f.2 as usize).sum();
        let mut residues = Vec::with_capacity(total);
        let mut seqs = Vec::with_capacity(frags.len());
        for &(gid, off, len) in frags {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "fragment starts fit u32 — a block holds `residues_per_block()` residues plus one fragment of at most `max_seq_len() < 2^offset_bits ≤ 2^31` residues"
            )]
            let start = residues.len() as u32;
            let src = db.get(gid).residues();
            residues.extend_from_slice(&src[off as usize..(off + len) as usize]);
            seqs.push(BlockSeq { global_id: gid, frag_offset: off, start, len });
        }
        let (offsets, entries) = IndexBlock::index_postings(&seqs, &residues, config.offset_bits);
        IndexBlock { seqs, residues, offsets, entries, offset_bits: config.offset_bits }
    }

    /// Like [`DbIndex::build`] but indexing blocks in parallel on
    /// `threads` workers — the paper's nodes "build the database index …
    /// in parallel" (Sec. IV-D3), and a multi-core build amortises the
    /// one-time cost the paper excludes from its timings. The result is
    /// bit-identical to the serial build.
    pub fn build_parallel(db: &SequenceDb, config: &IndexConfig, threads: usize) -> DbIndex {
        let max_len = config.max_seq_len();
        let mut frags: Vec<(SequenceId, u32, u32)> = Vec::with_capacity(db.len());
        for (id, seq) in db.iter() {
            if seq.len() <= max_len {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "`seq.len() <= max_seq_len() < 2^offset_bits ≤ 2^31` on this branch"
                )]
                frags.push((id, 0, seq.len() as u32));
            } else {
                for f in split_long(seq.len(), max_len, config.frag_overlap) {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "`split_long` caps fragment offset and length at the original sequence length, itself bounded by the u32 residue space of `SequenceDb`"
                    )]
                    frags.push((id, f.offset as u32, f.len as u32));
                }
            }
        }
        frags.sort_by_key(|&(_, _, len)| len);

        // Plan the block boundaries serially (cheap), then index each
        // block's postings in parallel (the expensive part).
        let budget = config.residues_per_block();
        let mut plans: Vec<Vec<(SequenceId, u32, u32)>> = Vec::new();
        let mut cur: Vec<(SequenceId, u32, u32)> = Vec::new();
        let mut cur_residues = 0usize;
        for f in frags {
            if cur_residues + f.2 as usize > budget && !cur.is_empty() {
                plans.push(std::mem::take(&mut cur));
                cur_residues = 0;
            }
            cur_residues += f.2 as usize;
            cur.push(f);
        }
        if !cur.is_empty() {
            plans.push(cur);
        }
        let blocks = parallel::parallel_map_dynamic(
            threads.max(1),
            plans.len(),
            1,
            || (),
            |_, i| Self::finish_block(db, &plans[i], config),
        );
        DbIndex { blocks, config: *config }
    }

    /// Incrementally index sequences `new_ids` of an *extended* database
    /// (`db` must contain every sequence the index already covers, plus
    /// the new ones). The new sequences are packed into fresh "delta"
    /// blocks appended after the existing ones.
    ///
    /// Because search results are independent of how sequences are
    /// grouped into blocks, an appended index returns exactly what a full
    /// rebuild would — only the cache-locality tuning degrades as deltas
    /// accumulate (delta blocks are length-sorted internally but not
    /// merged with the old ones); a fresh [`DbIndex::build`] restores the
    /// fully sorted layout.
    ///
    /// # Panics
    /// Panics if any id in `new_ids` is out of range for `db`.
    pub fn append(&mut self, db: &SequenceDb, new_ids: std::ops::Range<SequenceId>) {
        let config = self.config;
        let max_len = config.max_seq_len();
        let mut frags: Vec<(SequenceId, u32, u32)> = Vec::new();
        for id in new_ids {
            let seq = db.get(id);
            if seq.len() <= max_len {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "`seq.len() <= max_seq_len() < 2^offset_bits ≤ 2^31` on this branch"
                )]
                frags.push((id, 0, seq.len() as u32));
            } else {
                for f in split_long(seq.len(), max_len, config.frag_overlap) {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "`split_long` caps fragment offset and length at the original sequence length, itself bounded by the u32 residue space of `SequenceDb`"
                    )]
                    frags.push((id, f.offset as u32, f.len as u32));
                }
            }
        }
        frags.sort_by_key(|&(_, _, len)| len);
        let budget = config.residues_per_block();
        let mut cur: Vec<(SequenceId, u32, u32)> = Vec::new();
        let mut cur_residues = 0usize;
        for f in frags {
            if cur_residues + f.2 as usize > budget && !cur.is_empty() {
                self.blocks.push(Self::finish_block(db, &cur, &config));
                cur.clear();
                cur_residues = 0;
            }
            cur_residues += f.2 as usize;
            cur.push(f);
        }
        if !cur.is_empty() {
            self.blocks.push(Self::finish_block(db, &cur, &config));
        }
    }

    /// The blocks, ascending by fragment length.
    pub fn blocks(&self) -> &[IndexBlock] {
        &self.blocks
    }

    /// Build configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Total positions across blocks.
    pub fn total_positions(&self) -> usize {
        self.blocks.iter().map(|b| b.total_positions()).sum()
    }

    /// Approximate resident footprint: the sum of every block's
    /// [`IndexBlock::memory_bytes`] — what a fully loaded index charges
    /// against serving memory (reported in the daemon's stats frame).
    pub fn memory_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.memory_bytes()).sum()
    }

    pub(crate) fn from_parts(blocks: Vec<IndexBlock>, config: IndexConfig) -> DbIndex {
        DbIndex { blocks, config }
    }
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test data is sized far below u32"
)]
mod tests {
    use super::*;
    use bioseq::Sequence;

    fn db_from(strs: &[&str]) -> SequenceDb {
        strs.iter()
            .enumerate()
            .map(|(i, s)| Sequence::from_str_checked(format!("s{i}"), s).unwrap())
            .collect()
    }

    fn small_config(budget_residues: usize) -> IndexConfig {
        IndexConfig { block_bytes: budget_residues * 4, offset_bits: 15, frag_overlap: 8 }
    }

    #[test]
    fn single_block_postings_invert_words() {
        let db = db_from(&["MARNDWWW", "WWWCQEG"]);
        let idx = DbIndex::build(&db, &small_config(1000));
        assert_eq!(idx.blocks().len(), 1);
        let b = &idx.blocks()[0];
        // Every word occurrence of every fragment appears exactly once.
        let mut found: Vec<(u32, u32, Word)> = Vec::new();
        for w in 0..WORD_SPACE as Word {
            for &e in b.postings(w) {
                let (ls, off) = b.unpack(e);
                found.push((ls, off, w));
            }
        }
        let mut expect: Vec<(u32, u32, Word)> = Vec::new();
        for local in 0..b.n_seqs() as u32 {
            for (p, w) in WordIter::new(b.seq_residues(local)) {
                expect.push((local, p, w));
            }
        }
        found.sort_unstable();
        expect.sort_unstable();
        assert_eq!(found, expect);
    }

    #[test]
    fn blocks_sorted_by_length_and_within_budget() {
        let strs: Vec<String> = (0..30)
            .map(|i| "ARNDCQEGHILKMFPSTWYV".repeat(1 + i % 7))
            .collect();
        let refs: Vec<&str> = strs.iter().map(|s| s.as_str()).collect();
        let db = db_from(&refs);
        let budget = 300usize;
        let idx = DbIndex::build(&db, &small_config(budget));
        assert!(idx.blocks().len() > 1);
        let mut prev_max = 0u32;
        for b in idx.blocks() {
            // Length-sorted fill: each block's shortest ≥ previous block's
            // longest (sorted order is preserved by greedy packing).
            let min = b.seqs().iter().map(|s| s.len).min().unwrap();
            assert!(min >= prev_max, "blocks out of length order");
            prev_max = b.max_seq_len();
            // A block may exceed the budget only by its last sequence.
            let total = b.total_residues();
            let largest = b.max_seq_len() as usize;
            assert!(total <= budget + largest);
        }
        // Every sequence appears exactly once.
        let mut seen = vec![0; db.len()];
        for b in idx.blocks() {
            for s in b.seqs() {
                seen[s.global_id as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn sequence_larger_than_budget_gets_own_block() {
        let long = "ARNDCQEGHILKMFPSTWYV".repeat(50); // 1000 residues
        let db = db_from(&["MARND", &long]);
        let idx = DbIndex::build(&db, &small_config(100));
        assert_eq!(idx.blocks().len(), 2);
        assert_eq!(idx.blocks()[1].total_residues(), 1000);
    }

    #[test]
    fn long_sequences_fragment_with_overlap() {
        let mut config = small_config(100_000);
        config.offset_bits = 8; // max fragment 255 residues
        config.frag_overlap = 16;
        let long = "ARNDCQEGHILKMFPSTWYV".repeat(40); // 800 residues
        let db = db_from(&[&long]);
        let idx = DbIndex::build(&db, &config);
        let frags: Vec<&BlockSeq> =
            idx.blocks().iter().flat_map(|b| b.seqs().iter()).collect();
        assert!(frags.len() > 3);
        // Fragments tile the sequence with the configured overlap.
        let mut sorted: Vec<(u32, u32)> = frags.iter().map(|f| (f.frag_offset, f.len)).collect();
        sorted.sort_unstable();
        assert_eq!(sorted[0].0, 0);
        assert_eq!(sorted.last().unwrap().0 + sorted.last().unwrap().1, 800);
        for w in sorted.windows(2) {
            assert_eq!(w[1].0, w[0].0 + (255 - 16));
        }
        // Fragment residues match the original sequence content.
        for b in idx.blocks() {
            for (local, f) in b.seqs().iter().enumerate() {
                let orig = &db.get(f.global_id).residues()
                    [f.frag_offset as usize..(f.frag_offset + f.len) as usize];
                assert_eq!(b.seq_residues(local as u32), orig);
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let db = db_from(&["MARNDWWW"]);
        let idx = DbIndex::build(&db, &small_config(1000));
        let b = &idx.blocks()[0];
        for (ls, off) in [(0u32, 0u32), (0, 5), (0, 32_766)] {
            assert_eq!(b.unpack(b.pack(ls, off)), (ls, off));
        }
    }

    #[test]
    fn postings_sorted_by_packed_value() {
        let db = db_from(&["WWWAWWW", "WWWW", "AWWWA"]);
        let idx = DbIndex::build(&db, &small_config(1000));
        let b = &idx.blocks()[0];
        for w in 0..WORD_SPACE as Word {
            let p = b.postings(w);
            assert!(p.windows(2).all(|x| x[0] < x[1]), "word {w}: {p:?}");
        }
    }

    #[test]
    fn append_covers_new_sequences() {
        let strs: Vec<String> =
            (0..20).map(|i| "ARNDCQEGHILKMFPSTWYV".repeat(1 + i % 5)).collect();
        let refs: Vec<&str> = strs.iter().map(|s| s.as_str()).collect();
        let mut db = db_from(&refs);
        let cfg = small_config(300);
        let mut index = DbIndex::build(&db, &cfg);
        let before_blocks = index.blocks().len();

        // Extend the database and append.
        let first_new = db.len() as u32;
        for i in 0..7 {
            db.push(
                Sequence::from_str_checked(
                    format!("new{i}"),
                    &"WCHWMYFWCHW".repeat(2 + i % 3),
                )
                .unwrap(),
            );
        }
        index.append(&db, first_new..db.len() as u32);
        assert!(index.blocks().len() > before_blocks, "delta blocks appended");

        // Every sequence appears exactly once across blocks.
        let mut seen = vec![0u32; db.len()];
        for b in index.blocks() {
            for s in b.seqs() {
                seen[s.global_id as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");

        // Appended index carries the same postings as a fresh build
        // (set-equal; block grouping differs).
        let fresh = DbIndex::build(&db, &cfg);
        let collect = |idx: &DbIndex| {
            let mut v: Vec<(u32, u32, Word)> = Vec::new();
            for b in idx.blocks() {
                for w in 0..WORD_SPACE as Word {
                    for &e in b.postings(w) {
                        let (ls, off) = b.unpack(e);
                        let s = b.seq(ls);
                        v.push((s.global_id, s.frag_offset + off, w));
                    }
                }
            }
            v.sort_unstable();
            v
        };
        assert_eq!(collect(&index), collect(&fresh));
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let strs: Vec<String> = (0..40)
            .map(|i| "ARNDCQEGHILKMFPSTWYV".repeat(1 + i % 9))
            .collect();
        let refs: Vec<&str> = strs.iter().map(|s| s.as_str()).collect();
        let db = db_from(&refs);
        let cfg = small_config(400);
        let serial = DbIndex::build(&db, &cfg);
        for threads in [1usize, 2, 4, 7] {
            let par = DbIndex::build_parallel(&db, &cfg, threads);
            assert_eq!(serial, par, "{threads} threads");
        }
    }

    #[test]
    fn empty_database() {
        let db = SequenceDb::new();
        let idx = DbIndex::build(&db, &IndexConfig::default());
        assert!(idx.blocks().is_empty());
        assert_eq!(idx.total_positions(), 0);
    }

    #[test]
    fn tiny_sequences_have_no_words() {
        let db = db_from(&["MA", "R"]);
        let idx = DbIndex::build(&db, &small_config(100));
        assert_eq!(idx.total_positions(), 0);
        assert_eq!(idx.blocks().len(), 1);
        assert_eq!(idx.blocks()[0].n_seqs(), 2);
    }
}
