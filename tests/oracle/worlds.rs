//! The `World` table: every seeded database and query set the oracle
//! searches, each built (and indexed) once per binary behind a
//! `OnceLock`.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

use bioseq::{Sequence, SequenceDb};
use datagen::{sample_mixed_queries, sample_queries, synthesize_db, DbSpec};
use dbindex::{DbIndex, IndexConfig};
use engine::QueryResult;
use faultfn::{mix64, Rng};
use scoring::{NeighborTable, SearchParams, BLOSUM62};

/// The one neighbor table every search uses (T = 11).
pub(crate) fn neighbors() -> &'static NeighborTable {
    static T: OnceLock<NeighborTable> = OnceLock::new();
    T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
}

/// One database, its queries and its resident index.
pub(crate) struct Case {
    pub(crate) db: SequenceDb,
    pub(crate) queries: Vec<Sequence>,
    pub(crate) index: DbIndex,
}

pub(crate) struct World {
    /// One case, or a property battery's [`CASES`].
    pub(crate) cases: Vec<Case>,
    pub(crate) index_config: IndexConfig,
    /// What every variant starts from: BLASTP defaults with the world's
    /// E-value cutoff (small synthetic search spaces push E-values far
    /// past the default 10).
    pub(crate) params: SearchParams,
    /// The world's own contract, checked on the reference and on every
    /// cell's output.
    pub(crate) expect: fn(&[QueryResult]),
    pub(crate) references: References,
}

/// The reference variant's outputs, keyed by (case, SEG, top-k), each
/// computed by the first cell that asks for it.
type References = Mutex<HashMap<(usize, bool, Option<u32>), Arc<OnceLock<Vec<QueryResult>>>>>;

impl World {
    fn new(
        cases: Vec<(SequenceDb, Vec<Sequence>)>,
        index_config: IndexConfig,
        cutoff: f64,
    ) -> World {
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = cutoff;
        let cases = cases
            .into_iter()
            .map(|(db, queries)| Case {
                index: DbIndex::build(&db, &index_config),
                db,
                queries,
            })
            .collect();
        World {
            cases,
            index_config,
            params,
            expect: |_| {},
            references: Mutex::default(),
        }
    }

    fn one(db: SequenceDb, queries: Vec<Sequence>, cutoff: f64) -> World {
        World::new(vec![(db, queries)], IndexConfig::default(), cutoff)
    }

    fn expect(mut self, expect: fn(&[QueryResult])) -> World {
        self.expect = expect;
        self
    }

    /// Fixture sizing: enough blocks that a cache budget or a pruner has
    /// something to decide.
    fn min_blocks(self, n: usize) -> World {
        for case in &self.cases {
            let got = case.index.blocks().len();
            assert!(got >= n, "want at least {n} blocks, got {got}");
        }
        self
    }

    /// `check` every case; a battery failure names the case and its
    /// inputs.
    pub(crate) fn each_case(&self, check: impl Fn(usize, &Case)) {
        for (i, case) in self.cases.iter().enumerate() {
            if self.cases.len() == 1 {
                check(i, case);
            } else if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(i, case))) {
                let subjects: Vec<&[u8]> =
                    case.db.sequences().iter().map(|s| s.residues()).collect();
                let queries: Vec<&[u8]> = case.queries.iter().map(|q| q.residues()).collect();
                eprintln!("failed at case {i} on subjects {subjects:?} queries {queries:?}");
                resume_unwind(panic);
            }
        }
    }
}

/// Some query reports at least one alignment.
fn some_hits(results: &[QueryResult]) {
    assert!(
        results.iter().any(|r| !r.alignments.is_empty()),
        "world produced no alignments at all"
    );
}

fn seq(id: impl Into<String>, text: &str) -> Sequence {
    Sequence::from_str_checked(id, text).unwrap()
}

fn db_of(texts: &[&str]) -> SequenceDb {
    texts
        .iter()
        .enumerate()
        .map(|(i, t)| seq(format!("s{i}"), t))
        .collect()
}

/// The first `n` sequences of `world`'s database, with its queries.
fn prefix(world: &World, n: usize) -> (SequenceDb, Vec<Sequence>) {
    let case = &world.cases[0];
    (
        case.db.sequences()[..n].iter().cloned().collect(),
        case.queries.clone(),
    )
}

/// Blocks of 64 residues: many blocks, room to prune and to evict.
pub(crate) fn small_blocks() -> IndexConfig {
    IndexConfig {
        block_bytes: 256,
        offset_bits: 15,
        frag_overlap: 8,
    }
}

/// A synthesized database with three 128-residue queries sampled at
/// `qseed` and two mixed ones at `qseed + 1`.
fn sampled(spec: &DbSpec, residues: usize, seed: u64, qseed: u64) -> (SequenceDb, Vec<Sequence>) {
    let db = synthesize_db(spec, residues, seed);
    let mut queries = sample_queries(&db, 128, 3, qseed);
    queries.extend(sample_mixed_queries(&db, 2, qseed.wrapping_add(1)));
    (db, queries)
}

/// A differential world: [`sampled`] at `seed + 1`, plus one hand-built
/// query carrying every special residue the alphabet admits.
fn differential(spec: &DbSpec, residues: usize, seed: u64) -> (SequenceDb, Vec<Sequence>) {
    let (db, mut queries) = sampled(spec, residues, seed, seed.wrapping_add(1));
    // Selenocysteine folds to X at encode time — the special-residue paths
    // must behave identically whether X arrives as 'X' or as 'U'.
    let enc = |c: u8| bioseq::alphabet::encode_residue(c).unwrap();
    assert_eq!(enc(b'U'), enc(b'X'));
    let mut special = db.get(0).residues().to_vec();
    special.truncate(80.min(special.len()));
    for (pos, code) in [
        (5, enc(b'B')),
        (11, enc(b'Z')),
        (17, enc(b'X')),
        (23, enc(b'U')),
    ] {
        if pos < special.len() {
            special[pos] = code;
        }
    }
    queries.push(Sequence::from_encoded("q|special|BZXU", special));
    (db, queries)
}

/// `TOPK_SEED=<u64>` reseeds the top-k worlds (CI runs a fixed matrix).
pub(crate) fn topk_seed() -> u64 {
    match std::env::var("TOPK_SEED") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("TOPK_SEED must be a u64, got '{v}'")),
        Err(_) => 0x70BEE5,
    }
}

/// Sixty sequences of deliberately *uneven* block strength: most are weak
/// filler, every fifth carries two copies of a strong motif. Uneven
/// strength is what gives block bounds their discriminating power. The
/// queries copy three strong sequences (hits sharply peaked) and one weak
/// one (the threshold stays loose).
fn uneven(seed: u64) -> (SequenceDb, Vec<Sequence>) {
    let motifs = [
        "WCHWMYFWCHWRYW",
        "MKVLAARNDCEQHK",
        "HILKMFPSTWYWCH",
        "CQEGHILKMFADNE",
    ];
    let fillers = ["AGVLSTNQ", "DERKHWYF", "PGASTCVL", "NQHKMILV"];
    let db: SequenceDb = (0..60)
        .map(|i| {
            let r = mix64(seed, i as u64);
            let f = fillers[(r % fillers.len() as u64) as usize];
            let pad_a: String = f
                .chars()
                .cycle()
                .take(12 + (r >> 8) as usize % 29)
                .collect();
            let text = if i % 5 == 0 {
                let m = motifs[(r >> 4) as usize % motifs.len()];
                format!("{pad_a}{m}{f}{m}")
            } else {
                let pad_b: String = f
                    .chars()
                    .rev()
                    .cycle()
                    .take(10 + (r >> 16) as usize % 17)
                    .collect();
                format!("{pad_a}{pad_b}")
            };
            seq(format!("s{i}"), &text)
        })
        .collect();
    let mut queries: Vec<Sequence> = (0..3)
        .map(|i| {
            let pick = ((mix64(seed ^ 0x9, i) % 12) * 5) as bioseq::SequenceId;
            Sequence::from_encoded(format!("q{i}"), db.get(pick).residues().to_vec())
        })
        .collect();
    queries.push(Sequence::from_encoded(
        "q_weak",
        db.get(1).residues().to_vec(),
    ));
    (db, queries)
}

/// `len` residues drawn from the 20 standard amino acids.
fn random_residues(seed: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (mix64(seed, i) % 20) as u8)
        .collect()
}

/// Planted at the end of every long query and in two subjects.
pub(crate) const MOTIF: &str = "WCHWMYFWCHW";

fn motif() -> Vec<u8> {
    seq("m", MOTIF).residues().to_vec()
}

/// Query lengths on both sides of the 2-/4-byte last-hit cell switch:
/// 65 534 residues is the longest query whose epoch span fits a `u16`.
pub(crate) const LONG_QUERY_LENS: [usize; 4] = [65_533, 65_534, 65_535, 65_536];

/// Cases per property battery.
const CASES: usize = 64;

/// `lo` in case 0, `hi` in case 1, uniform in `lo..=hi` after that.
fn pick(rng: &mut Rng, case: usize, lo: usize, hi: usize) -> usize {
    match case {
        0 => lo,
        1 => hi,
        _ => rng.between(lo, hi),
    }
}

fn residues(rng: &mut Rng, case: usize, lo: usize, hi: usize) -> Vec<u8> {
    let len = pick(rng, case, lo, hi);
    (0..len).map(|_| rng.below(20) as u8).collect()
}

/// Case `case` of battery `seed`: a handful of random subjects plus two
/// that share a planted core with the one query — the second-to-last
/// *is* the query (`pre + core + suf`), the last is `suf + core`.
fn battery_case(seed: u64, case: usize) -> (SequenceDb, Vec<Sequence>) {
    let rng = &mut Rng::new(seed, case as u64);
    let core = residues(rng, case, 12, 39);
    let mut subjects: Vec<Vec<u8>> = (0..pick(rng, case, 2, 7))
        .map(|_| residues(rng, case, 10, 79))
        .collect();
    let pre = residues(rng, case, 0, 19);
    let suf = residues(rng, case, 0, 19);
    let query = [&pre[..], &core, &suf].concat();
    subjects.push(query.clone());
    subjects.push([&suf[..], &core].concat());
    let db = subjects
        .into_iter()
        .enumerate()
        .map(|(i, s)| Sequence::from_encoded(format!("s{i}"), s))
        .collect();
    (db, vec![Sequence::from_encoded("q", query)])
}

fn battery(seed: u64) -> World {
    World::new(
        (0..CASES).map(|c| battery_case(seed, c)).collect(),
        IndexConfig::default(),
        1e12,
    )
}

/// Three short subjects, two sharing the `WCHWMYFWCHW` core.
pub(crate) fn small_db() -> SequenceDb {
    db_of(&["MKVLAWCHWMYFWCHWARND", "GGWCHWMYFWCHWGG", "HILKMFPSTWYV"])
}

pub(crate) fn core_query() -> Vec<Sequence> {
    vec![seq("q", "AWCHWMYFWCHWA")]
}

macro_rules! worlds {
    ($($(#[$doc:meta])* $name:ident => $build:expr;)+) => {$(
        $(#[$doc])*
        pub(crate) fn $name() -> &'static World {
            static W: OnceLock<World> = OnceLock::new();
            W.get_or_init(|| $build)
        }
    )+};
}

worlds! {
    /// Three engines, two kernels and the sharded driver on synthesized data.
    diff_sprot => World::new(vec![differential(&DbSpec::uniprot_sprot(), 90_000, 101)], IndexConfig::default(), 1e6).expect(some_hits);
    diff_envnr => World::new(
        vec![differential(&DbSpec::env_nr().with_special_residues(0.03), 70_000, 202)],
        IndexConfig::default(),
        1e6,
    ).expect(some_hits);
    diff_heavy => World::new(
        vec![differential(&DbSpec::uniprot_sprot().with_special_residues(0.06), 50_000, 303)],
        IndexConfig::default(),
        1e6,
    ).expect(some_hits);
    /// A fourth seed with 256-residue windows: the long-query split.
    diff_long => {
        let db = synthesize_db(&DbSpec::uniprot_sprot(), 60_000, 404);
        let queries = sample_queries(&db, 256, 2, 405);
        World::one(db, queries, 1e6)
    };
    /// Partitioning the database changes nothing about the answer.
    shard_sprot => World::new(vec![sampled(&DbSpec::uniprot_sprot(), 80_000, 2026, 7)], IndexConfig::default(), 1e6)
        .expect(some_hits);
    /// A `max_reported` of 3 makes the merge's subject-level cut do real
    /// work: per-shard lists are truncated locally, merged globally.
    shard_cap3 => {
        let (db, queries) = prefix(shard_sprot(), shard_sprot().cases[0].db.len());
        let mut w = World::one(db, queries, 1e6);
        w.params.max_reported = 3;
        w
    };
    /// Five sequences: more shards than sequences leaves empty shards.
    shard_five => { let (db, q) = prefix(shard_sprot(), 5); World::one(db, q, 1e6) };
    /// Twelve sequences: one sequence per shard.
    shard_twelve => { let (db, q) = prefix(shard_sprot(), 12); World::one(db, q, 1e6) };
    /// A one-sequence database, more shards than content.
    shard_single => { let (db, q) = prefix(shard_sprot(), 1); World::one(db, q, 1e6) };
    /// Paper Sec. V-E: every optimisation leaves the output bit-identical.
    verif_sprot => World::new(vec![sampled(&DbSpec::uniprot_sprot(), 150_000, 77, 5)], IndexConfig::default(), 1e6)
        .expect(some_hits);
    /// The length-sorted database `mublastp distributed` deals to ranks.
    verif_sorted => {
        let case = &verif_sprot().cases[0];
        World::one(case.db.sorted_by_length(), case.queries.clone(), 1e6)
    };
    /// 16 KB blocks: the store path over a multi-block synthesized index.
    stream_sprot => {
        let db = synthesize_db(&DbSpec::uniprot_sprot(), 120_000, 31);
        let queries = sample_queries(&db, 128, 3, 2);
        World::new(vec![(db, queries)], IndexConfig { block_bytes: 16 << 10, ..IndexConfig::default() }, 1e6)
            .min_blocks(4)
    };
    seg_envnr => {
        let db = synthesize_db(&DbSpec::env_nr(), 80_000, 55);
        let queries = sample_queries(&db, 128, 2, 3);
        World::one(db, queries, 1e6)
    };
    /// Subject 0's only similarity to the query is a low-complexity
    /// glutamate run; subject 1 shares a diverse region with it.
    seg_lowc => {
        let (diverse, low) = ("WCHWMYFKRIDEWCHW", "E".repeat(40));
        let db = db_of(&[&format!("MKVL{low}ARND"), &format!("GGG{diverse}GG")]);
        World::one(db, vec![seq("q", &format!("{diverse}AAA{low}"))], 1e9)
    };
    /// About 5k residues with planted repeats over ≈ 20 blocks, so a
    /// quarter-of-serialized cache budget cannot hold the decoded index.
    ooc_motifs => {
        let motifs = ["WCHWMYFWCHW", "MKVLAARNDCE", "HILKMFPSTWY", "CQEGHILKMFA"];
        let fillers = ["AGVLSTNQ", "DERKHWYF", "PGASTCVL"];
        let db: SequenceDb = (0..80)
            .map(|i| {
                let (m, f) = (motifs[i % motifs.len()], fillers[i % fillers.len()]);
                let pad_a: String = f.chars().cycle().take(10 + (i * 7) % 23).collect();
                let pad_b: String = f.chars().rev().cycle().take(8 + (i * 5) % 19).collect();
                seq(format!("s{i}"), &format!("{pad_a}{m}{pad_b}{m}"))
            })
            .collect();
        let queries = (0..3)
            .map(|i| Sequence::from_encoded(format!("q{i}"), db.get(i * 17).residues().to_vec()))
            .collect();
        World::new(vec![(db, queries)], small_blocks(), 1e9).expect(some_hits).min_blocks(8)
    };
    /// The top-k worlds: `uneven(TOPK_SEED)` and two seeds derived from it.
    topk => World::new(vec![uneven(topk_seed())], small_blocks(), 1e9).expect(some_hits);
    topk_r0 => World::new(vec![uneven(mix64(topk_seed(), 0))], small_blocks(), 1e9).expect(some_hits).min_blocks(8);
    topk_r1 => World::new(vec![uneven(mix64(topk_seed(), 1))], small_blocks(), 1e9).expect(some_hits).min_blocks(8);
    /// Two subjects tie on score and E-value: 0 is the query itself, 2 is
    /// the query plus a tail of tryptophans that raises its block's bound
    /// (so it is visited first) without changing its alignment. Subject
    /// 0's bound equals its score exactly, so at K = 1 only a strict skip
    /// test keeps it, and the subject-id tie-break reports it. Subject 1
    /// (glycine, absent from the query) sits in a block the pruner skips.
    topk_tie => {
        let core = "WCHWMYFKRIDEWCHWMKVLAARNDCEQHK";
        let db = db_of(&[core, &"G".repeat(40), &format!("{core}WWWWWWWWWWWW")]);
        World::new(vec![(db, vec![seq("q", core)])], small_blocks(), 1e9).expect(some_hits).min_blocks(3)
    };
    /// The 24-letter alphabet's special states (B, Z, X, `*`, and IUPAC
    /// extras folded to X) flow through every engine.
    special => World::one(
        db_of(&[
            "MKXXVLAWCHWMYFWCHWARND",
            "BZBZWCHWMYFWCHWBZBZ",
            "MKVL*WCHWMYFWCHW*ARND",
            "XXXXXXXXXXXXXXXXXX",
            "UUOJWCHWMYFWCHWJOU",
        ]),
        vec![seq("q1", "AWCHWMYFWCHWA"), seq("q2", "XXBZ*WCHWMYFWCHW")],
        1e9,
    )
    .expect(|r| {
        // The shared core is found in the normal subjects; the all-X
        // subject never matches anything (X-vs-X scores −1).
        assert!(r[0].alignments.iter().any(|a| a.subject <= 2), "{:?}", r[0].alignments);
        assert!(r[0].alignments.iter().all(|a| a.subject != 3));
    });
    masked_query => World::one(db_of(&["MKVLAWCHWMYFWCHWARND"]), vec![seq("q", &"X".repeat(100))], 1e9)
        .expect(|r| {
            assert!(r[0].alignments.is_empty());
            assert_eq!(r[0].counts.hits, 0);
        });
    /// Queries shorter than the word size seed nothing; a single word
    /// cannot satisfy the two-hit rule either.
    subword_queries => World::one(
        small_db(),
        vec![seq("empty", ""), seq("one", "W"), seq("two", "WC"), seq("three", "WCH")],
        1e9,
    )
    .expect(|r| {
        assert_eq!(r.len(), 4);
        for q in &r[..3] {
            assert!(q.alignments.is_empty(), "sub-word query matched");
            assert_eq!(q.counts.hits, 0);
        }
        assert_eq!(r[3].counts.extensions, 0);
    });
    empty_and_tiny_subjects => World::one(db_of(&["", "MA", "MKVLAWCHWMYFWCHWARND"]), core_query(), 1e9)
        .expect(|r| {
            assert_eq!(r[0].alignments.len(), 1);
            assert_eq!(r[0].alignments[0].subject, 2);
        });
    /// Every subject identical: ranking falls to the subject id.
    identical_subjects => {
        let text = "MKVLAWCHWMYFWCHWARND";
        World::one(db_of(&[text; 5]), vec![seq("q", text)], 1e9).expect(|r| {
            let subjects: Vec<u32> = r[0].alignments.iter().map(|a| a.subject).collect();
            assert_eq!(subjects, vec![0, 1, 2, 3, 4], "ties broken by subject id");
            assert!(r[0].alignments.windows(2).all(|w| w[0].aln.score == w[1].aln.score));
        })
    };
    single_subject => World::one(db_of(&[MOTIF]), vec![seq("q", MOTIF)], 1e9).expect(|r| {
        assert_eq!(r[0].alignments.len(), 1);
        let a = &r[0].alignments[0];
        assert_eq!((a.aln.q_start, a.aln.q_end), (0, 11));
        assert!(a.aln.validate());
    });
    zero_evalue_cutoff => World::one(small_db(), core_query(), 0.0).expect(|r| {
        assert!(r[0].alignments.is_empty());
        assert_eq!(r[0].counts.reported, 0);
    });
    /// Property batteries: 64 random worlds each, case 0 at every range's
    /// low end, case 1 at its high end.
    battery1 => battery(1);
    battery2 => battery(2);
    battery3 => battery(3);
    battery4 => battery(4);
    /// 24 random subjects, two with [`MOTIF`] planted in the middle, and
    /// queries on both sides of the cell-width switch ending in the motif,
    /// so pairs form at the largest offsets the narrow cells store.
    long_queries => {
        let db = (0..24u64)
            .map(|i| {
                let mut residues = random_residues(0xD8 ^ i, 150 + (mix64(i, 99) % 200) as usize);
                if i % 12 == 3 {
                    let at = residues.len() / 2;
                    residues.splice(at..at, motif());
                }
                Sequence::from_encoded(format!("s{i}"), residues)
            })
            .collect();
        let queries = LONG_QUERY_LENS
            .iter()
            .map(|&len| {
                let mut q = random_residues(len as u64, len - MOTIF.len());
                q.extend(motif());
                Sequence::from_encoded(format!("q{len}"), q)
            })
            .collect();
        World::one(db, queries, SearchParams::blastp_defaults().evalue_cutoff)
    };
}
