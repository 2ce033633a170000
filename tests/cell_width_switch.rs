//! muBLASTP's pre-filter scan on both last-hit cell widths, end to end.
//!
//! `kernels::mublastp::search_block` keeps 2-byte last-hit cells while a
//! query's epoch span `query_len + 1` fits a `u16` and 4-byte cells beyond
//! that, through one scan generic over the width. Queries just below and
//! just above the switch are searched against a small database, and each
//! must produce exactly the seeds and `StageCounts` of
//! `kernels::db_interleaved::search_block`, which pairs every hit through
//! `PairFinder`'s 4-byte cells. Every query ends in a motif planted in two
//! subjects, so pairs form at the largest offsets the narrow cells store.

use bioseq::{Sequence, SequenceDb};
use dbindex::{DbIndex, IndexConfig};
use engine::kernels::{db_interleaved, mublastp, null_ctx};
use engine::scratch::Scratch;
use engine::StageCounts;
use faultfn::mix64;
use memsim::NullTracer;
use scoring::{NeighborTable, SearchParams, BLOSUM62};

const MOTIF: &str = "WCHWMYFWCHW";

/// `len` residues drawn from the 20 standard amino acids.
fn random_residues(seed: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (mix64(seed, i) % 20) as u8)
        .collect()
}

fn motif() -> Vec<u8> {
    Sequence::from_str_checked("m", MOTIF)
        .unwrap()
        .residues()
        .to_vec()
}

fn database() -> SequenceDb {
    (0..24u64)
        .map(|i| {
            let mut residues = random_residues(0xD8 ^ i, 150 + (mix64(i, 99) % 200) as usize);
            if i % 12 == 3 {
                // The planted subjects: the motif in the middle.
                let at = residues.len() / 2;
                residues.splice(at..at, motif());
            }
            Sequence::from_encoded(format!("s{i}"), residues)
        })
        .collect()
}

/// Seeds (sorted: muBLASTP emits in subject order, the interleaved kernel
/// in detection order) and counts of one kernel over every block.
fn search(
    query: &[u8],
    index: &DbIndex,
    neighbors: &NeighborTable,
    scratch: &mut Scratch,
    mu: bool,
) -> (Vec<engine::results::Seed>, StageCounts) {
    let params = SearchParams::blastp_defaults();
    let mut counts = StageCounts::default();
    let mut tracer = NullTracer;
    let mut ctx = null_ctx(&mut tracer);
    scratch.seeds.clear();
    for block in index.blocks() {
        if mu {
            mublastp::search_block(
                query,
                block,
                neighbors,
                &params,
                scratch,
                &mut counts,
                &mut ctx,
                &mut obsv::NoObs,
                mublastp::ReorderAlgo::LsdRadix,
                true,
            );
        } else {
            db_interleaved::search_block(
                query,
                block,
                neighbors,
                &params,
                scratch,
                &mut counts,
                &mut ctx,
                &mut obsv::NoObs,
            );
        }
    }
    let mut seeds = std::mem::take(&mut scratch.seeds);
    seeds.sort_by_key(|s| (s.subject, s.frag_offset, s.aln));
    (seeds, counts)
}

#[test]
fn both_widths_match_the_interleaved_kernel_across_the_switch() {
    let db = database();
    let index = DbIndex::build(&db, &IndexConfig::default());
    let neighbors = NeighborTable::build(&BLOSUM62, 11);
    // 65 534 residues is the longest query whose span fits a u16.
    for (query_len, narrow) in [
        (65_533, true),
        (65_534, true),
        (65_535, false),
        (65_536, false),
    ] {
        let mut query = random_residues(query_len as u64, query_len - MOTIF.len());
        query.extend(motif());
        let mut scratch = Scratch::new();
        let (mu_seeds, mu_counts) = search(&query, &index, &neighbors, &mut scratch, true);
        assert_eq!(
            (
                scratch.narrow_cells_bytes() > 0,
                scratch.finder.memory_bytes() > 0
            ),
            (narrow, !narrow),
            "qlen {query_len}: the scan must use {} cells",
            if narrow { "2-byte" } else { "4-byte" }
        );
        let (il_seeds, il_counts) = search(&query, &index, &neighbors, &mut Scratch::new(), false);
        assert_eq!(mu_counts, il_counts, "qlen {query_len}: stage counts");
        assert_eq!(mu_seeds, il_seeds, "qlen {query_len}: seeds");
        assert!(mu_counts.pairs > 0 && mu_counts.pairs < mu_counts.hits);
        // The planted motif pairs at the query's last words.
        let planted = mu_seeds
            .iter()
            .filter(|s| s.aln.q_end as usize == query_len)
            .count();
        assert_eq!(
            planted, 2,
            "qlen {query_len}: one seed per planted subject at the query end"
        );
    }
}
