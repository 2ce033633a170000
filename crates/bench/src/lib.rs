//! Shared workload setup for the benchmark harness.
//!
//! Every figure and ablation binary draws its data from here so the
//! whole evaluation uses one consistent set of synthetic stand-ins
//! (DESIGN.md substitution #2). Database sizes are scaled down from the
//! paper's 250 MB / 1.7 GB to laptop-friendly defaults; set
//! `MUBLASTP_SCALE` (a float, default 1.0) to grow or shrink every
//! workload proportionally.

use bioseq::{Sequence, SequenceDb};
use datagen::{sample_mixed_queries, sample_queries, synthesize_db, DbSpec};
use dbindex::{DbIndex, IndexConfig};
use scoring::{NeighborTable, BLOSUM62};
use std::sync::OnceLock;

/// Baseline residue counts for the two database stand-ins (the paper's
/// databases, scaled ~50×/100× down; `MUBLASTP_SCALE` rescales).
const SPROT_RESIDUES: usize = 5_000_000;
const ENVNR_RESIDUES: usize = 16_000_000;

/// Global workload scale factor from `MUBLASTP_SCALE`.
fn scale() -> f64 {
    static S: OnceLock<f64> = OnceLock::new();
    *S.get_or_init(|| parse_scale(std::env::var("MUBLASTP_SCALE").ok().as_deref()))
}

/// A scale factor must be positive and finite; anything else (absent,
/// unparsable, `0`, `-1`, `inf`, `NaN`, `1e400`) falls back to 1.0. An
/// infinite scale would saturate every workload size to `usize::MAX`.
fn parse_scale(value: Option<&str>) -> f64 {
    value
        .and_then(|v| v.parse().ok())
        .filter(|&v: &f64| v.is_finite() && v > 0.0)
        .unwrap_or(1.0)
}

fn scaled(base: usize) -> usize {
    ((base as f64 * scale()) as usize).max(50_000)
}

/// The shared neighbor table (T = 11, BLOSUM62).
pub fn neighbors() -> &'static NeighborTable {
    static T: OnceLock<NeighborTable> = OnceLock::new();
    T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
}

/// The `uniprot_sprot` stand-in (cached).
pub fn sprot() -> &'static SequenceDb {
    static DB: OnceLock<SequenceDb> = OnceLock::new();
    DB.get_or_init(|| synthesize_db(&DbSpec::uniprot_sprot(), scaled(SPROT_RESIDUES), 20_170_530))
}

/// The `env_nr` stand-in (cached).
pub fn env_nr() -> &'static SequenceDb {
    static DB: OnceLock<SequenceDb> = OnceLock::new();
    DB.get_or_init(|| synthesize_db(&DbSpec::env_nr(), scaled(ENVNR_RESIDUES), 20_170_531))
}

/// Index a database with the given block size (bytes).
pub fn index_with_block(db: &SequenceDb, block_bytes: usize) -> DbIndex {
    DbIndex::build(db, &IndexConfig { block_bytes, ..IndexConfig::default() })
}

/// Default-block index for a database.
pub fn default_index(db: &SequenceDb) -> DbIndex {
    DbIndex::build(db, &IndexConfig::default())
}

/// A query batch of `n` queries of fixed `len`, sampled from `db`
/// (seeded per the paper's protocol: queries come from the target
/// database).
pub fn query_batch(db: &SequenceDb, len: usize, n: usize) -> Vec<Sequence> {
    sample_queries(db, len, n, 4242 + len as u64)
}

/// The paper's "mixed" batch: lengths follow the database distribution.
pub fn mixed_batch(db: &SequenceDb, n: usize) -> Vec<Sequence> {
    sample_mixed_queries(db, n, 777)
}

/// Number of queries per batch used by the figure harnesses. The paper
/// uses 128; the scaled default is 16 so a full figure regenerates in
/// minutes (raise `MUBLASTP_QUERIES` to match the paper exactly).
pub fn batch_size() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("MUBLASTP_QUERIES").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_accepts_only_positive_finite_values() {
        for bad in ["inf", "NaN", "1e400", "-1", "0", "x"] {
            assert_eq!(parse_scale(Some(bad)), 1.0, "{bad}");
        }
        assert_eq!(parse_scale(None), 1.0);
        assert_eq!(parse_scale(Some("0.5")), 0.5);
    }

    #[test]
    fn workloads_materialize() {
        // Keep this cheap: only the sprot workload at whatever scale.
        let db = sprot();
        assert!(db.total_residues() >= 50_000);
        let q = query_batch(db, 128, 2);
        assert_eq!(q.len(), 2);
        assert!(q.iter().all(|s| s.len() == 128));
    }
}
