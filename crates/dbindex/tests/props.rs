//! Property tests on the database index: for arbitrary databases and
//! build configurations, the index is a lossless, complete inversion of
//! the word content.

use bioseq::alphabet::{Word, WordIter, WORD_SPACE};
use bioseq::{Sequence, SequenceDb};
use dbindex::{read_store, write_store, DbIndex, IndexConfig};
use proptest::prelude::*;

fn arb_db() -> impl Strategy<Value = SequenceDb> {
    proptest::collection::vec(proptest::collection::vec(0u8..24, 0..120), 0..25).prop_map(
        |seqs| {
            seqs.into_iter()
                .enumerate()
                .map(|(i, r)| Sequence::from_encoded(format!("s{i}"), r))
                .collect()
        },
    )
}

fn arb_config() -> impl Strategy<Value = IndexConfig> {
    (64usize..4096, 6u32..16, 4usize..32).prop_map(|(block_bytes, offset_bits, ov)| {
        IndexConfig {
            block_bytes,
            offset_bits,
            frag_overlap: ov.min((1 << offset_bits) - 2),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every (sequence, position, word) triple of the database appears in
    /// the index exactly once — counted over fragments mapped back to
    /// global coordinates, with fragment-overlap duplicates accounted for.
    #[test]
    fn postings_are_a_complete_inversion((db, cfg) in (arb_db(), arb_config())) {
        let index = DbIndex::build(&db, &cfg);
        // Collect all postings as (global seq, global offset, word).
        let mut from_index: Vec<(u32, u32, Word)> = Vec::new();
        for b in index.blocks() {
            for w in 0..WORD_SPACE as Word {
                for &e in b.postings(w) {
                    let (ls, off) = b.unpack(e);
                    let s = b.seq(ls);
                    from_index.push((s.global_id, s.frag_offset + off, w));
                }
            }
        }
        // Expected: words of every sequence; words inside a fragment
        // overlap appear once per fragment containing them fully.
        let mut expected: Vec<(u32, u32, Word)> = Vec::new();
        for b in index.blocks() {
            for s in b.seqs() {
                let orig = db.get(s.global_id).residues();
                let frag = &orig[s.frag_offset as usize..(s.frag_offset + s.len) as usize];
                for (p, w) in WordIter::new(frag) {
                    expected.push((s.global_id, s.frag_offset + p, w));
                }
            }
        }
        from_index.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(from_index, expected);
    }

    /// Every residue of every sequence is covered by the fragments, and
    /// no sequence is lost or duplicated (beyond declared overlaps).
    #[test]
    fn fragments_tile_every_sequence((db, cfg) in (arb_db(), arb_config())) {
        let index = DbIndex::build(&db, &cfg);
        let mut coverage: Vec<Vec<u32>> =
            db.iter().map(|(_, s)| vec![0u32; s.len()]).collect();
        for b in index.blocks() {
            for (local, s) in b.seqs().iter().enumerate() {
                // Fragment content matches the original.
                let orig = &db.get(s.global_id).residues()
                    [s.frag_offset as usize..(s.frag_offset + s.len) as usize];
                prop_assert_eq!(b.seq_residues(local as u32), orig);
                for c in &mut coverage[s.global_id as usize]
                    [s.frag_offset as usize..(s.frag_offset + s.len) as usize]
                {
                    *c += 1;
                }
            }
        }
        for (sid, cov) in coverage.iter().enumerate() {
            // Complete coverage; at most 2 fragments share any residue
            // (consecutive windows only overlap pairwise).
            prop_assert!(cov.iter().all(|&c| (1..=2).contains(&c)),
                "sequence {sid}: coverage {:?}", cov);
        }
    }

    /// Serialization round-trips for arbitrary databases and configs.
    #[test]
    fn serialization_roundtrip((db, cfg) in (arb_db(), arb_config())) {
        let index = DbIndex::build(&db, &cfg);
        let back = read_store(&write_store(&index)).unwrap();
        prop_assert_eq!(index, back);
    }

    /// Block budgets are respected: a block exceeds the residue budget by
    /// at most its largest fragment (the "move to the next block" rule).
    #[test]
    fn block_budgets_respected((db, cfg) in (arb_db(), arb_config())) {
        let index = DbIndex::build(&db, &cfg);
        let budget = cfg.residues_per_block();
        for b in index.blocks() {
            let largest = b.max_seq_len() as usize;
            prop_assert!(b.total_residues() <= budget + largest);
            prop_assert!(b.n_seqs() > 0, "no empty blocks");
        }
    }
}
