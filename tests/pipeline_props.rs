//! Property tests over the whole pipeline on randomly generated worlds.

use mublastp::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;

fn neighbors() -> &'static NeighborTable {
    static T: OnceLock<NeighborTable> = OnceLock::new();
    T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
}

/// Random residues over the 20 standard amino acids.
fn residues(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..20, len)
}

/// A random world: a handful of subjects (some sharing a planted core
/// with the query so alignments actually happen) plus one query.
#[allow(clippy::type_complexity)]
fn random_world() -> impl Strategy<Value = (Vec<Vec<u8>>, Vec<u8>)> {
    (
        residues(12..40),                                   // shared core
        proptest::collection::vec(residues(10..80), 2..8),  // noise subjects
        residues(0..20),
        residues(0..20),
    )
        .prop_map(|(core, mut subjects, pre, suf)| {
            // Two subjects carry the core; the query is pre+core+suf.
            let mut with_core = pre.clone();
            with_core.extend_from_slice(&core);
            with_core.extend_from_slice(&suf);
            subjects.push(with_core);
            let mut other = suf.clone();
            other.extend_from_slice(&core);
            subjects.push(other);
            let mut query = pre;
            query.extend_from_slice(&core);
            query.extend_from_slice(&suf);
            (subjects, query)
        })
}

fn make_db(subjects: &[Vec<u8>]) -> SequenceDb {
    subjects
        .iter()
        .enumerate()
        .map(|(i, s)| Sequence::from_encoded(format!("s{i}"), s.clone()))
        .collect()
}

fn config(kind: EngineKind) -> SearchConfig {
    let mut c = SearchConfig::new(kind);
    c.params.evalue_cutoff = 1e12;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All three engines agree on arbitrary worlds.
    #[test]
    fn engines_agree_on_random_worlds((subjects, query) in random_world()) {
        let db = make_db(&subjects);
        let queries = vec![Sequence::from_encoded("q", query)];
        let index = DbIndex::build(&db, &IndexConfig::default());
        let a = search_batch(&db, Some(&index), neighbors(), &queries,
                             &config(EngineKind::QueryIndexed));
        let b = search_batch(&db, Some(&index), neighbors(), &queries,
                             &config(EngineKind::DbInterleaved));
        let c = search_batch(&db, Some(&index), neighbors(), &queries,
                             &config(EngineKind::MuBlastp));
        prop_assert!(results_identical(&a, &b).is_ok(), "{:?}", results_identical(&a, &b));
        prop_assert!(results_identical(&b, &c).is_ok(), "{:?}", results_identical(&b, &c));
    }

    /// Every reported alignment is bounded by Smith–Waterman and its
    /// traceback is internally consistent.
    #[test]
    fn reported_alignments_are_valid_and_bounded((subjects, query) in random_world()) {
        let db = make_db(&subjects);
        let queries = vec![Sequence::from_encoded("q", query.clone())];
        let index = DbIndex::build(&db, &IndexConfig::default());
        let results = search_batch(&db, Some(&index), neighbors(), &queries,
                                   &config(EngineKind::MuBlastp));
        for aln in &results[0].alignments {
            prop_assert!(aln.aln.validate(), "inconsistent traceback: {aln:?}");
            let subject = db.get(aln.subject).residues();
            let sw = align::smith_waterman(&BLOSUM62, &query, subject, 11, 1);
            prop_assert!(
                aln.aln.score <= sw.score,
                "reported {} beats Smith–Waterman {}", aln.aln.score, sw.score
            );
            // Coordinates stay inside the sequences.
            prop_assert!(aln.aln.q_end as usize <= query.len());
            prop_assert!(aln.aln.s_end as usize <= subject.len());
            // E-value and bit score are consistent with the score.
            prop_assert!(aln.evalue >= 0.0);
            prop_assert!(aln.bit_score.is_finite());
        }
        // Results are sorted best-first.
        let scores: Vec<i32> = results[0].alignments.iter().map(|a| a.aln.score).collect();
        prop_assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }

    /// The planted-homology subject is always found with a decent score.
    #[test]
    fn planted_core_is_found((subjects, query) in random_world()) {
        let db = make_db(&subjects);
        let queries = vec![Sequence::from_encoded("q", query.clone())];
        let index = DbIndex::build(&db, &IndexConfig::default());
        let mut cfg = config(EngineKind::MuBlastp);
        cfg.params.gap_trigger = 25; // the planted core can be short
        let results = search_batch(&db, Some(&index), neighbors(), &queries, &cfg);
        // The second-to-last subject contains pre+core+suf == the query
        // itself, so its Smith–Waterman score is the full self-score; when
        // the query is long enough to pass the trigger it must be found.
        let self_score: i32 = query.iter().map(|&c| BLOSUM62.score(c, c)).sum();
        if self_score >= 50 {
            let target = (db.len() - 2) as u32;
            prop_assert!(
                results[0].alignments.iter().any(|a| a.subject == target),
                "query failed to find its own copy (self score {self_score}): {:?}",
                results[0].alignments
            );
        }
    }

    /// Index serialization round-trips on random databases.
    #[test]
    fn index_serialization_roundtrip((subjects, _q) in random_world()) {
        let db = make_db(&subjects);
        let cfg = IndexConfig { block_bytes: 256, offset_bits: 15, frag_overlap: 8 };
        let index = DbIndex::build(&db, &cfg);
        let back = dbindex::read_store(&dbindex::write_store(&index)).unwrap();
        prop_assert_eq!(index, back);
    }
}
