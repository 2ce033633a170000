//! Property tests: the query-index lookup table agrees with a naive
//! neighbor scan on arbitrary queries.
//!
//! Each property is a seeded battery of [`CASES`] cases: case 0 draws
//! every length and word at the low end of its range (the empty query),
//! case 1 at the high end, and every later case uniformly from
//! `Rng::new(seed, case)`. A failure names the case and its inputs.

use bioseq::alphabet::{WordIter, WORD_SPACE};
use faultfn::Rng;
use qindex::QueryIndex;
use scoring::{NeighborTable, BLOSUM62};
use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Cases per property.
const CASES: usize = 32;

fn neighbors() -> &'static NeighborTable {
    static T: OnceLock<NeighborTable> = OnceLock::new();
    T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
}

/// Run `check` on the `CASES` inputs `draw` makes for battery `seed`.
fn battery<T: Debug>(seed: u64, draw: impl Fn(&mut Rng, usize) -> T, check: impl Fn(&T)) {
    for case in 0..CASES {
        let input = draw(&mut Rng::new(seed, case as u64), case);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(&input))) {
            eprintln!("battery {seed} failed at case {case} on {input:?}");
            resume_unwind(panic);
        }
    }
}

/// `lo` in case 0, `hi` in case 1, uniform in `lo..=hi` after that.
fn pick(rng: &mut Rng, case: usize, lo: usize, hi: usize) -> usize {
    match case {
        0 => lo,
        1 => hi,
        _ => rng.between(lo, hi),
    }
}

/// Random residues over the full 24-code alphabet, `lo..=hi` of them.
fn residues(rng: &mut Rng, case: usize, lo: usize, hi: usize) -> Vec<u8> {
    let len = pick(rng, case, lo, hi);
    (0..len).map(|_| rng.below(24) as u8).collect()
}

/// Table lookups equal the naive neighbor relation for sampled words.
#[test]
fn table_matches_naive() {
    let draw = |rng: &mut Rng, case| {
        let q = residues(rng, case, 0, 79);
        (q, pick(rng, case, 0, WORD_SPACE - 1) as u32)
    };
    battery(1, draw, |(q, probe)| {
        let idx = QueryIndex::build(q, neighbors());
        let naive: Vec<u32> = WordIter::new(q)
            .filter(|&(_, qw)| neighbors().neighbors(qw).contains(probe))
            .map(|(p, _)| p)
            .collect();
        assert_eq!(idx.lookup(*probe), naive.as_slice());
        assert_eq!(idx.is_present(*probe), !naive.is_empty());
    });
}

/// Total stored positions equal the sum of neighbor list lengths of
/// the query's words.
#[test]
fn total_positions_counts_neighbor_expansion() {
    let draw = |rng: &mut Rng, case| residues(rng, case, 0, 99);
    battery(4, draw, |q| {
        let idx = QueryIndex::build(q, neighbors());
        let expect: usize = WordIter::new(q)
            .map(|(_, w)| neighbors().neighbors(w).len())
            .sum();
        assert_eq!(idx.total_positions(), expect);
    });
}
