//! Seeded, std-only input generation: databases, queries and arrival
//! schedules.
//!
//! Replaces `crates/datagen`, which needs `rand` and therefore cannot be
//! built offline. The shapes are the same ones `datagen` fits (DESIGN.md
//! substitution #2): log-normal lengths matched to the published
//! median/mean of `uniprot_sprot` and `env_nr`, Robinson–Robinson
//! background residues, and planted homologous segments so every pipeline
//! stage fires at a realistic rate. On top of that this module adds the
//! length-skewed family corpus the out-of-core workloads need.
//!
//! Everything is a pure function of the seed: the generator is a
//! counter-mode SplitMix64 ([`faultfn::mix64`]), so there is no hidden
//! state and no dependence on iteration order of any hash map.

use bioseq::Sequence;
use faultfn::mix64;
use scoring::karlin::ROBINSON_FREQS;

/// Counter-mode SplitMix64 stream.
pub struct Rng {
    key: u64,
    n: u64,
}

impl Rng {
    /// Stream `stream` of `seed`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng {
            key: mix64(seed, stream),
            n: 0,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.n += 1;
        mix64(self.key, self.n)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); multiply-shift, bias below 2^-32 for
    /// the sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit(); // (0, 1]
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Cumulative Robinson–Robinson background over the 20 standard residues.
fn background_cdf() -> [f64; 20] {
    let mut cdf = [0.0f64; 20];
    let mut acc = 0.0;
    for (c, &p) in cdf.iter_mut().zip(ROBINSON_FREQS.iter()) {
        acc += p;
        *c = acc;
    }
    cdf[19] = f64::INFINITY; // absorb rounding
    cdf
}

fn background(rng: &mut Rng, cdf: &[f64; 20], len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            let x = rng.unit();
            cdf.iter().position(|&c| x < c).unwrap_or(19) as u8
        })
        .collect()
}

/// Overwrite `dst` with `src`, keeping each ancestor residue with
/// probability `conservation` (the rest stay background).
fn plant(rng: &mut Rng, dst: &mut [u8], src: &[u8], conservation: f64) {
    for (d, &s) in dst.iter_mut().zip(src) {
        if rng.chance(conservation) {
            *d = s;
        }
    }
}

/// Length clamp of the log-normal databases (the paper's Fig. 7 range).
const LEN_CLAMP: (usize, usize) = (40, 5_000);
/// Share of their sequences carrying a planted homologous segment.
const HOMOLOGY_FRACTION: f64 = 0.35;
/// Per-residue probability that a planted segment keeps the ancestor.
const CONSERVATION: f64 = 0.72;
/// Distinct ancestor segments.
const ANCESTORS: usize = 64;

/// A database whose lengths follow a log-normal fitted to a real one.
#[derive(Clone, Copy, Debug)]
pub struct LogNormalDb {
    /// Prefix of sequence ids.
    pub name: &'static str,
    pub median_len: f64,
    pub mean_len: f64,
}

impl LogNormalDb {
    /// `uniprot_sprot`: median 292 / mean 355.
    pub fn sprot() -> LogNormalDb {
        LogNormalDb {
            name: "sprot",
            median_len: 292.0,
            mean_len: 355.0,
        }
    }

    /// `env_nr`: median 177 / mean 197.
    pub fn env_nr() -> LogNormalDb {
        LogNormalDb {
            name: "envnr",
            median_len: 177.0,
            mean_len: 197.0,
        }
    }

    /// At least `target_residues` residues of sequences. For a
    /// log-normal, `median = e^μ` and `mean = e^(μ + σ²/2)`.
    pub fn synthesize(&self, target_residues: usize, seed: u64) -> Vec<Sequence> {
        let mut rng = Rng::new(seed, 1);
        let cdf = background_cdf();
        let mu = self.median_len.ln();
        let sigma = (2.0 * (self.mean_len / self.median_len).ln()).sqrt();
        let ancestors: Vec<Vec<u8>> = (0..ANCESTORS)
            .map(|_| {
                let len = rng.between(80, 239);
                background(&mut rng, &cdf, len)
            })
            .collect();
        let mut out = Vec::new();
        let mut total = 0usize;
        while total < target_residues {
            let len = ((mu + sigma * rng.normal()).exp() as usize).clamp(LEN_CLAMP.0, LEN_CLAMP.1);
            let mut residues = background(&mut rng, &cdf, len);
            if rng.chance(HOMOLOGY_FRACTION) {
                let anc = &ancestors[rng.below(ancestors.len())];
                let seg = anc.len().min(len).min(rng.between(40, 200));
                let src = rng.below(anc.len() - seg + 1);
                let dst = rng.below(len - seg + 1);
                plant(
                    &mut rng,
                    &mut residues[dst..dst + seg],
                    &anc[src..src + seg],
                    CONSERVATION,
                );
            }
            total += len;
            out.push(Sequence::from_encoded(
                format!("{}|{:07}", self.name, out.len()),
                residues,
            ));
        }
        out
    }
}

/// Length range of the long family carriers in [`skewed_families`].
pub const CARRIER_LEN: (usize, usize) = (300, 600);
/// Length range of the short tail fragments in [`skewed_families`].
pub const TAIL_LEN: (usize, usize) = (40, 70);
/// Members planted per family in [`skewed_families`]. The shard plan deals
/// a family's equally long members round-robin, and a shard prunes only
/// once it holds K hits of its own, so a top-10 search needs 10 members
/// *per shard*: 48 covers up to four shards.
pub const FAMILY_SIZE: usize = 48;
/// Per-residue probability that a family member keeps its ancestor's
/// residue. Two members then agree at ~72 % of positions, so a 200-residue
/// window scores ~700 raw against a relative — above the ~480 the block
/// bound allows any 70-residue tail fragment. (At `datagen`'s 0.72 the
/// relatives score ~450 and no tail block could ever be skipped.)
pub const FAMILY_CONSERVATION: f64 = 0.85;

/// Share of sequences in [`skewed_families`] that are family carriers.
pub const CARRIER_SHARE: f64 = 0.15;

/// The length-skewed corpus of the out-of-core workloads: a share
/// [`CARRIER_SHARE`] of the sequences are long carriers, each a mutated
/// full-length copy of its family's ancestor ([`FAMILY_SIZE`] members per
/// family), and the rest are short background fragments.
///
/// The index sorts fragments by length before packing blocks, so the tail
/// fills whole blocks whose score bound stays far below what a family
/// hit scores — the blocks a top-k search can skip without fetching.
/// Carriers and tail are interleaved in id order so that the LPT shard
/// plan gives every shard both kinds.
pub fn skewed_families(target_residues: usize, seed: u64) -> Vec<Sequence> {
    let mut rng = Rng::new(seed, 2);
    let cdf = background_cdf();
    let mut out: Vec<Sequence> = Vec::new();
    let mut total = 0usize;
    let mut ancestor: Vec<u8> = Vec::new();
    let mut members_left = 0usize;
    let mut family = 0usize;
    while total < target_residues {
        let residues = if rng.chance(CARRIER_SHARE) {
            if members_left == 0 {
                let len = rng.between(CARRIER_LEN.0, CARRIER_LEN.1);
                ancestor = background(&mut rng, &cdf, len);
                members_left = FAMILY_SIZE;
                family += 1;
            }
            members_left -= 1;
            let mut r = background(&mut rng, &cdf, ancestor.len());
            plant(&mut rng, &mut r, &ancestor, FAMILY_CONSERVATION);
            out.push(Sequence::from_encoded(
                format!("fam{family:05}|{:07}", out.len()),
                r,
            ));
            ancestor.len()
        } else {
            let len = rng.between(TAIL_LEN.0, TAIL_LEN.1);
            let r = background(&mut rng, &cdf, len);
            out.push(Sequence::from_encoded(format!("tail|{:07}", out.len()), r));
            len
        };
        total += residues;
    }
    out
}

/// A query cut from the database, remembering where it came from so the
/// correctness gate can demand that the search finds its source.
#[derive(Clone, Debug)]
pub struct Query {
    pub seq: Sequence,
    /// Index of the database sequence the window was cut from.
    pub source: u32,
}

/// `count` windows of exactly `len` residues from database sequences of
/// length in `source_len` (inclusive) — how the paper samples its
/// 128/256/512 query sets from the target database.
///
/// # Panics
/// Panics if no sequence qualifies.
pub fn window_queries(
    db: &[Sequence],
    len: usize,
    source_len: (usize, usize),
    count: usize,
    seed: u64,
) -> Vec<Query> {
    let mut rng = Rng::new(seed, 3);
    let lo = source_len.0.max(len);
    let candidates: Vec<u32> = (0..db.len() as u32)
        .filter(|&i| (lo..=source_len.1).contains(&db[i as usize].len()))
        .collect();
    assert!(
        !candidates.is_empty(),
        "no database sequence can hold a {len}-residue window"
    );
    (0..count)
        .map(|i| {
            let source = candidates[rng.below(candidates.len())];
            let s = db[source as usize].residues();
            let start = rng.below(s.len() - len + 1);
            Query {
                seq: Sequence::from_encoded(format!("q{i:05}"), s[start..start + len].to_vec()),
                source,
            }
        })
        .collect()
}

/// Due times (seconds from the start of the phase) of a Poisson arrival
/// process at `rate` requests per second over `seconds`, conditioned on
/// its count: exactly `round(rate × seconds)` arrivals, which given the
/// count are independent uniform times, sorted. Fixing the count keeps the
/// offered load identical across seeds; the gaps stay exponential-like.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 5);
    let n = (rate * seconds).round() as usize;
    let mut due: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// FASTA text of `seqs`, as the daemon would read it from a file.
pub fn to_fasta(seqs: &[Sequence]) -> Vec<u8> {
    let mut out = Vec::new();
    bioseq::write_fasta(&mut out, seqs).expect("writing to a Vec cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median_mean(db: &[Sequence]) -> (usize, f64) {
        let mut lens: Vec<usize> = db.iter().map(|s| s.len()).collect();
        lens.sort_unstable();
        let total: usize = lens.iter().sum();
        (lens[lens.len() / 2], total as f64 / lens.len() as f64)
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = LogNormalDb::sprot();
        let a = spec.synthesize(50_000, 42);
        assert_eq!(a, spec.synthesize(50_000, 42));
        assert_ne!(a, spec.synthesize(50_000, 43));
        let s = skewed_families(50_000, 42);
        assert_eq!(s, skewed_families(50_000, 42));
        assert_ne!(s, skewed_families(50_000, 43));
        assert_eq!(
            poisson_schedule(60.0, 5.0, 7),
            poisson_schedule(60.0, 5.0, 7)
        );
        assert_ne!(
            poisson_schedule(60.0, 5.0, 7),
            poisson_schedule(60.0, 5.0, 8)
        );
    }

    // The same bands `datagen`'s tests hold its generator to.
    #[test]
    fn sprot_lengths_match_published_shape() {
        let db = LogNormalDb::sprot().synthesize(2_000_000, 1);
        let (median, mean) = median_mean(&db);
        assert!((248..=336).contains(&median), "median {median}");
        assert!(mean > 300.0 && mean < 410.0, "mean {mean}");
        assert!(db.iter().map(|s| s.len()).sum::<usize>() >= 2_000_000);
    }

    #[test]
    fn env_nr_lengths_match_published_shape() {
        let db = LogNormalDb::env_nr().synthesize(1_000_000, 7);
        let (median, mean) = median_mean(&db);
        assert!((150..=205).contains(&median), "median {median}");
        assert!(mean > 170.0 && mean < 230.0, "mean {mean}");
    }

    #[test]
    fn skewed_corpus_has_full_families_and_a_short_tail() {
        let db = skewed_families(400_000, 3);
        let carriers: Vec<&Sequence> = db.iter().filter(|s| s.id.starts_with("fam")).collect();
        let share = carriers.len() as f64 / db.len() as f64;
        assert!((0.12..=0.18).contains(&share), "carrier share {share}");
        assert!(carriers
            .iter()
            .all(|s| (CARRIER_LEN.0..=CARRIER_LEN.1).contains(&s.len())));
        assert!(db
            .iter()
            .filter(|s| s.id.starts_with("tail"))
            .all(|s| (TAIL_LEN.0..=TAIL_LEN.1).contains(&s.len())));
        // Every family but the last is complete.
        let mut sizes = std::collections::BTreeMap::new();
        for s in &carriers {
            *sizes.entry(&s.id[..8]).or_insert(0usize) += 1;
        }
        let complete = sizes.values().filter(|&&n| n == FAMILY_SIZE).count();
        assert!(
            complete + 1 >= sizes.len(),
            "{complete} of {} families complete",
            sizes.len()
        );
    }

    #[test]
    fn windows_come_verbatim_from_their_source() {
        let db = LogNormalDb::sprot().synthesize(200_000, 5);
        for q in window_queries(&db, 256, (0, usize::MAX), 16, 9) {
            assert_eq!(q.seq.len(), 256);
            let src = db[q.source as usize].residues();
            assert!(src.windows(256).any(|w| w == q.seq.residues()));
        }
    }

    #[test]
    fn poisson_schedule_has_the_requested_count_and_exponential_gaps() {
        let due = poisson_schedule(60.0, 100.0, 11);
        assert_eq!(due.len(), 6_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.last().is_some_and(|&t| t < 100.0));
        // Exponential gaps: a share 1 - 1/e of them is shorter than the mean.
        let short = due.windows(2).filter(|w| w[1] - w[0] < 1.0 / 60.0).count() as f64;
        assert!(
            (0.60..=0.66).contains(&(short / 5_999.0)),
            "short-gap share {}",
            short / 5_999.0
        );
    }

    #[test]
    fn fasta_round_trips() {
        let db = LogNormalDb::env_nr().synthesize(20_000, 2);
        let back = bioseq::read_fasta(&to_fasta(&db)[..]).unwrap();
        assert_eq!(db, back);
    }
}
