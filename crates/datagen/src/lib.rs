//! Synthetic protein databases and query workloads.
//!
//! The paper evaluates on two NCBI databases — `uniprot_sprot` (~300 k
//! sequences, median length 292, mean 355) and `env_nr` (~6 M sequences,
//! median 177, mean 197) — and on query batches of 128 sequences with
//! lengths 128 / 256 / 512 / mixed, sampled from the target database
//! (Sec. V-A). Those FASTA dumps are not available offline, so this crate
//! synthesizes statistically equivalent stand-ins (substitution #2 in
//! DESIGN.md):
//!
//! * sequence **lengths** come from a log-normal fitted to the published
//!   median/mean, clamped to the 40–5 000 range of the paper's Fig. 7;
//! * **residues** are drawn from the Robinson–Robinson background
//!   frequencies (the same ones BLAST statistics assume);
//! * a configurable fraction of sequences receives a **planted homologous
//!   segment** copied (with point mutations) from a small ancestor pool, so
//!   that hit detection, two-hit extension and gapped alignment all fire at
//!   realistic rates instead of at the near-zero rate of pure noise;
//! * **queries** are sampled from the generated database exactly as the
//!   paper samples from the target database: windows of the requested
//!   length, or whole-length sampling for the "mixed" set.
//!
//! Everything is deterministic given the seed.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_methods
)]

use bioseq::{Sequence, SequenceDb};
use faultfn::Rng;
use scoring::karlin::ROBINSON_FREQS;

/// Specification of a synthetic database, fitted to a real one.
#[derive(Clone, Debug)]
pub struct DbSpec {
    /// Name used in sequence ids (e.g. `"sprot"`).
    pub name: &'static str,
    /// Log-normal location (ln of the median length).
    pub mu: f64,
    /// Log-normal scale.
    pub sigma: f64,
    /// Length clamp (the paper's Fig. 7 range).
    pub min_len: usize,
    pub max_len: usize,
    /// Fraction of sequences carrying a planted homologous segment.
    pub homology_fraction: f64,
    /// Per-residue probability that a planted segment keeps the ancestor
    /// residue (the rest are re-drawn from the background).
    pub conservation: f64,
    /// Number of distinct ancestor segments in the pool.
    pub ancestors: usize,
    /// Per-residue probability of replacing a standard residue with one of
    /// the special codes B (Asx), Z (Glx) or X (unknown). Real databases
    /// carry a sprinkling of these — selenocysteine `U` and other rare
    /// letters fold to X at encode time (see `bioseq::alphabet`), so X here
    /// stands in for the whole tail. Zero (the constructors' default)
    /// leaves the residue stream bit-identical to earlier versions.
    pub special_residue_rate: f64,
}

impl DbSpec {
    /// `uniprot_sprot`: median 292 / mean 355.
    /// For a log-normal, `median = e^μ` and `mean = e^{μ + σ²/2}`, so
    /// `σ = sqrt(2 ln(mean/median))`.
    pub fn uniprot_sprot() -> DbSpec {
        let (median, mean) = (292.0f64, 355.0f64);
        DbSpec {
            name: "sprot",
            mu: median.ln(),
            sigma: (2.0 * (mean / median).ln()).sqrt(),
            min_len: 40,
            max_len: 5_000,
            homology_fraction: 0.35,
            conservation: 0.72,
            ancestors: 64,
            special_residue_rate: 0.0,
        }
    }

    /// `env_nr`: median 177 / mean 197, shorter environmental reads.
    pub fn env_nr() -> DbSpec {
        let (median, mean) = (177.0f64, 197.0f64);
        DbSpec {
            name: "envnr",
            mu: median.ln(),
            sigma: (2.0 * (mean / median).ln()).sqrt(),
            min_len: 40,
            max_len: 5_000,
            homology_fraction: 0.35,
            conservation: 0.72,
            ancestors: 64,
            special_residue_rate: 0.0,
        }
    }

    /// Sprinkle B/Z/X special residues into every synthesized sequence at
    /// the given per-residue rate (builder-style; used by the differential
    /// harness to exercise ambiguity-code scoring paths).
    pub fn with_special_residues(mut self, rate: f64) -> DbSpec {
        self.special_residue_rate = rate;
        self
    }

    /// Sample one sequence length.
    fn sample_len(&self, rng: &mut Rng) -> usize {
        let len = (self.mu + self.sigma * rng.normal()).exp();
        (len as usize).clamp(self.min_len, self.max_len)
    }
}

/// Encoded special residues: B (Asx), Z (Glx), X (unknown) in the 24-letter
/// NCBI alphabet (`bioseq::alphabet` folds U/J/O to X, so X covers those).
const SPECIAL_CODES: [u8; 3] = [20, 21, 22];

/// Cumulative table for background residue sampling (20 standard residues).
fn background_cdf() -> [f64; 20] {
    let mut cdf = [0.0f64; 20];
    let mut acc = 0.0;
    for (i, &p) in ROBINSON_FREQS.iter().enumerate() {
        acc += p;
        cdf[i] = acc;
    }
    cdf[19] = 1.0 + 1e-12; // absorb rounding
    cdf
}

fn sample_residue(cdf: &[f64; 20], rng: &mut Rng) -> u8 {
    let x = rng.unit();
    cdf.iter().position(|&c| x < c).unwrap_or(19) as u8
}

/// Generate a synthetic database of approximately `target_residues` total
/// residues (the paper quotes database sizes in bytes ≈ residues).
///
/// Draws from stream 1 of [`faultfn::Rng`], in the same order as
/// `benchmark`'s `LogNormalDb::synthesize`, so the two agree id for id and
/// residue for residue on the same spec and seed.
pub fn synthesize_db(spec: &DbSpec, target_residues: usize, seed: u64) -> SequenceDb {
    let mut rng = Rng::new(seed, 1);
    let cdf = background_cdf();

    // Ancestor pool for planted homology.
    let ancestors: Vec<Vec<u8>> = (0..spec.ancestors.max(1))
        .map(|_| {
            let len = rng.between(80, 239);
            (0..len).map(|_| sample_residue(&cdf, &mut rng)).collect()
        })
        .collect();

    let mut db = SequenceDb::new();
    let mut total = 0usize;
    let mut i = 0usize;
    while total < target_residues {
        let len = spec.sample_len(&mut rng);
        let mut residues: Vec<u8> = (0..len).map(|_| sample_residue(&cdf, &mut rng)).collect();
        if rng.chance(spec.homology_fraction) {
            // Plant a mutated copy of an ancestor segment at a random spot.
            let anc = &ancestors[rng.below(ancestors.len())];
            let seg_len = anc.len().min(len).min(rng.between(40, 200));
            if seg_len >= 10 {
                let src = rng.below(anc.len() - seg_len + 1);
                let dst = rng.below(len - seg_len + 1);
                for k in 0..seg_len {
                    if rng.chance(spec.conservation) {
                        residues[dst + k] = anc[src + k];
                    }
                }
            }
        }
        if spec.special_residue_rate > 0.0 {
            // Inject ambiguity codes after homology planting so conserved
            // segments pick them up too. The rate-0 guard keeps the rng
            // stream — and thus every existing seeded database — unchanged.
            for r in residues.iter_mut() {
                if rng.chance(spec.special_residue_rate) {
                    *r = SPECIAL_CODES[rng.below(SPECIAL_CODES.len())];
                }
            }
        }
        total += residues.len();
        db.push(
            Sequence::from_encoded(format!("{}|{:07}", spec.name, i), residues)
                .with_description(format!("synthetic {} sequence", spec.name)),
        );
        i += 1;
    }
    db
}

/// Sample a query batch of `count` sequences of exactly `len` residues:
/// random windows of database sequences at least that long, as the paper
/// samples its 128/256/512 sets from the target database.
///
/// # Panics
/// Panics if no database sequence is at least `len` long.
pub fn sample_queries(db: &SequenceDb, len: usize, count: usize, seed: u64) -> Vec<Sequence> {
    let mut rng = Rng::new(seed, 3);
    let candidates: Vec<u32> =
        db.iter().filter(|(_, s)| s.len() >= len).map(|(id, _)| id).collect();
    assert!(
        !candidates.is_empty(),
        "no database sequence of length >= {len} to sample queries from"
    );
    (0..count)
        .map(|i| {
            let id = candidates[rng.below(candidates.len())];
            let s = db.get(id);
            let start = rng.below(s.len() - len + 1);
            Sequence::from_encoded(
                format!("query|{i:04}|len{len}"),
                s.residues()[start..start + len].to_vec(),
            )
        })
        .collect()
}

/// Sample a "mixed" query batch whose lengths follow the database's own
/// length distribution (the paper's fourth query set).
pub fn sample_mixed_queries(db: &SequenceDb, count: usize, seed: u64) -> Vec<Sequence> {
    let mut rng = Rng::new(seed, 4);
    assert!(!db.is_empty());
    (0..count)
        .map(|i| {
            let id = rng.below(db.len()) as u32;
            let s = db.get(id);
            Sequence::from_encoded(format!("query|{i:04}|mixed"), s.residues().to_vec())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_by_seed() {
        let spec = DbSpec::uniprot_sprot();
        let a = synthesize_db(&spec, 50_000, 42);
        let b = synthesize_db(&spec, 50_000, 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.sequences().iter().zip(b.sequences()) {
            assert_eq!(x, y);
        }
        let c = synthesize_db(&spec, 50_000, 43);
        assert!(a.sequences().iter().zip(c.sequences()).any(|(x, y)| x != y));
    }

    #[test]
    fn sprot_stats_match_published_shape() {
        let db = synthesize_db(&DbSpec::uniprot_sprot(), 2_000_000, 1);
        let s = db.stats();
        // Median 292 ± 15 %, mean 355 ± 15 % (clamping shifts slightly).
        assert!((248..=336).contains(&s.median_len), "median {}", s.median_len);
        assert!(s.mean_len > 300.0 && s.mean_len < 410.0, "mean {}", s.mean_len);
        assert!(s.total_residues >= 2_000_000);
    }

    #[test]
    fn env_nr_is_shorter_than_sprot() {
        let sprot = synthesize_db(&DbSpec::uniprot_sprot(), 1_000_000, 7).stats();
        let envnr = synthesize_db(&DbSpec::env_nr(), 1_000_000, 7).stats();
        assert!(envnr.median_len < sprot.median_len);
        assert!((150..=205).contains(&envnr.median_len), "median {}", envnr.median_len);
        // env_nr therefore needs more sequences for the same residue count.
        assert!(envnr.count > sprot.count);
    }

    #[test]
    fn lengths_mostly_in_figure7_range() {
        let db = synthesize_db(&DbSpec::env_nr(), 500_000, 3);
        let in_range = db
            .sequences()
            .iter()
            .filter(|s| (60..=1000).contains(&s.len()))
            .count();
        assert!(
            in_range as f64 / db.len() as f64 > 0.9,
            "only {}/{} in 60..1000",
            in_range,
            db.len()
        );
    }

    #[test]
    fn queries_have_requested_length_and_come_from_db() {
        let db = synthesize_db(&DbSpec::uniprot_sprot(), 300_000, 5);
        for len in [128usize, 256, 512] {
            let qs = sample_queries(&db, len, 16, 9);
            assert_eq!(qs.len(), 16);
            for q in &qs {
                assert_eq!(q.len(), len);
                // The window exists verbatim in some database sequence.
                let found = db.sequences().iter().any(|s| {
                    s.len() >= len
                        && s.residues().windows(len).any(|w| w == q.residues())
                });
                assert!(found, "query window not found in database");
            }
        }
    }

    #[test]
    fn mixed_queries_follow_db_lengths() {
        let db = synthesize_db(&DbSpec::uniprot_sprot(), 200_000, 5);
        let qs = sample_mixed_queries(&db, 64, 11);
        assert_eq!(qs.len(), 64);
        let mean: f64 = qs.iter().map(|q| q.len() as f64).sum::<f64>() / 64.0;
        // Mixed mean should resemble the database mean (wide tolerance).
        assert!(mean > 150.0 && mean < 650.0, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "no database sequence")]
    fn query_longer_than_everything_panics() {
        let db = synthesize_db(&DbSpec::env_nr(), 10_000, 2);
        sample_queries(&db, 100_000, 1, 0);
    }

    #[test]
    fn special_residues_appear_at_requested_rate_and_zero_is_identical() {
        let base = DbSpec::uniprot_sprot();
        let plain = synthesize_db(&base, 60_000, 17);
        // rate 0.0 must not perturb the rng stream: bit-identical output.
        let zeroed = synthesize_db(&base.clone().with_special_residues(0.0), 60_000, 17);
        assert_eq!(plain.sequences(), zeroed.sequences());

        let spiked = synthesize_db(&base.with_special_residues(0.05), 60_000, 17);
        let total: usize = spiked.sequences().iter().map(|s| s.len()).sum();
        let specials: usize = spiked
            .sequences()
            .iter()
            .flat_map(|s| s.residues())
            .filter(|&&r| SPECIAL_CODES.contains(&r))
            .count();
        let rate = specials as f64 / total as f64;
        assert!((0.03..=0.07).contains(&rate), "special rate {rate}");
        // All three codes show up and decode to the expected letters.
        for (code, letter) in [(20u8, 'B'), (21, 'Z'), (22, 'X')] {
            assert!(
                spiked
                    .sequences()
                    .iter()
                    .any(|s| s.residues().contains(&code)),
                "no {letter} planted"
            );
            assert_eq!(bioseq::alphabet::decode_residue(code), letter as u8);
        }
    }

    #[test]
    fn homology_plants_detectable_similarity() {
        // With homology on, some pair of sequences shares a long common
        // segment; with it off, none should (at tiny sizes).
        let mut spec = DbSpec::uniprot_sprot();
        spec.homology_fraction = 1.0;
        spec.conservation = 1.0;
        let db = synthesize_db(&spec, 30_000, 13);
        // Look for a shared 15-mer between two different sequences.
        use std::collections::HashMap;
        let mut seen: HashMap<&[u8], u32> = HashMap::new();
        let mut shared = false;
        'outer: for (id, s) in db.iter() {
            for w in s.residues().windows(15) {
                if let Some(&other) = seen.get(w) {
                    if other != id {
                        shared = true;
                        break 'outer;
                    }
                } else {
                    seen.insert(w, id);
                }
            }
        }
        assert!(shared, "no shared 15-mer found despite forced homology");
    }
}
