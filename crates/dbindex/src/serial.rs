//! Errors of the on-disk index, and the daemon's resilient loader.
//!
//! The whole point of a database index is to build it once and reuse it
//! across query batches (the paper excludes build time from its end-to-end
//! measurements on this basis), so the index must round-trip through disk.
//! The one on-disk format is the block store of [`crate::store`];
//! this module holds what every reader of it shares: the typed
//! [`SerialError`], and [`load_index_resilient`] — retry the read, then
//! rebuild from the database — for a daemon that must come up even when
//! the file is damaged.

use crate::block::DbIndex;
use crate::config::IndexConfig;
use crate::store::read_store;
use std::fmt;

/// Errors from reading a serialized index.
#[derive(Debug, PartialEq, Eq)]
pub enum SerialError {
    /// Not a muBLASTP index file.
    BadMagic,
    /// Format version mismatch.
    BadVersion(u32),
    /// Input ended prematurely or a length field was inconsistent.
    Truncated,
    /// The content checksum did not match: the file was altered after it
    /// was written (bit rot, partial overwrite, tampering).
    Corrupt,
}

impl fmt::Display for SerialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerialError::BadMagic => write!(f, "not a muBLASTP index (bad magic)"),
            SerialError::BadVersion(v) => write!(f, "unsupported index version {v}"),
            SerialError::Truncated => write!(f, "truncated or corrupt index data"),
            SerialError::Corrupt => write!(f, "index checksum mismatch (file corrupted)"),
        }
    }
}

impl std::error::Error for SerialError {}

/// Fault-injection site consulted once per [`load_index_resilient`] read
/// attempt: a firing flips one byte of the freshly read image (offset
/// chosen from the plan's seed), exercising the CRC/parse rejection path
/// exactly like on-disk bit rot would.
pub const FAULT_LOAD: &str = "dbindex.load";

/// How [`load_index_resilient`] obtained a usable index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The first read parsed and checksummed clean.
    Loaded,
    /// Early reads failed; attempt number `attempts` (1-based) succeeded.
    Recovered {
        /// Total read attempts made, including the successful one.
        attempts: u32,
    },
    /// Every read attempt failed; the index was rebuilt from the
    /// database. Slower than a load, but the daemon still comes up.
    Rebuilt,
}

/// Load a serialized index with retry, falling back to an in-memory
/// rebuild — the resident daemon's answer to a corrupt or flaky index
/// file: never serve garbage (the CRC sees to that), never refuse to
/// start over a file that can be regenerated from the database.
///
/// `read` produces the serialized image and is invoked up to
/// `1 + retries` times; any image that fails [`read_store`] (or any
/// `read` that returns an I/O error) is discarded and retried. If no
/// attempt yields a clean index, the index is rebuilt from `db` with
/// `config` — the same bytes-in-memory either way, so callers cannot
/// tell a rebuilt index from a loaded one except through the returned
/// [`LoadOutcome`].
pub fn load_index_resilient<F>(
    mut read: F,
    db: &bioseq::SequenceDb,
    config: &IndexConfig,
    retries: u32,
    faults: &faultfn::Faults,
) -> (DbIndex, LoadOutcome)
where
    F: FnMut() -> std::io::Result<Vec<u8>>,
{
    for attempt in 0..=retries {
        let Ok(mut bytes) = read() else { continue };
        if faults.fire(FAULT_LOAD) && !bytes.is_empty() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a fault-injection draw: any bits of it pick a byte"
            )]
            let pos = faults.rand(FAULT_LOAD, u64::from(attempt)) as usize % bytes.len();
            bytes[pos] ^= 0x40;
        }
        if let Ok(index) = read_store(&bytes) {
            let outcome = if attempt == 0 {
                LoadOutcome::Loaded
            } else {
                LoadOutcome::Recovered {
                    attempts: attempt + 1,
                }
            };
            return (index, outcome);
        }
    }
    (DbIndex::build(db, config), LoadOutcome::Rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::write_store;
    use bioseq::{Sequence, SequenceDb};

    fn sample_db() -> SequenceDb {
        ["MARNDWWWCQEG", "WWWHILKMFPST", "ARNDARNDARND", "MKVL"]
            .iter()
            .enumerate()
            .map(|(i, s)| Sequence::from_str_checked(format!("s{i}"), s).unwrap())
            .collect()
    }

    /// Load the sample index through `read` (given the clean image and the
    /// 1-based attempt number) with `retries` retries; returns the outcome
    /// and the number of reads made, after checking the index is intact.
    fn load(
        retries: u32,
        faults: &faultfn::Faults,
        read: impl Fn(&[u8], u32) -> std::io::Result<Vec<u8>>,
    ) -> (LoadOutcome, u32) {
        let config = IndexConfig::default();
        let idx = DbIndex::build(&sample_db(), &config);
        let bytes = write_store(&idx);
        let mut reads = 0u32;
        let (loaded, outcome) = load_index_resilient(
            || {
                reads += 1;
                read(&bytes, reads)
            },
            &sample_db(),
            &config,
            retries,
            faults,
        );
        assert_eq!(loaded, idx, "loaded, recovered or rebuilt: the same index");
        (outcome, reads)
    }

    #[test]
    fn resilient_load_reads_once_when_clean() {
        let outcome = load(3, &faultfn::Faults::none(), |b, _| Ok(b.to_vec()));
        assert_eq!(outcome, (LoadOutcome::Loaded, 1), "no retry needed");
    }

    #[test]
    fn resilient_load_recovers_from_transient_read_failures() {
        let outcome = load(3, &faultfn::Faults::none(), |b, attempt| {
            if attempt < 3 {
                Err(std::io::ErrorKind::Interrupted.into())
            } else {
                Ok(b.to_vec())
            }
        });
        assert_eq!(outcome, (LoadOutcome::Recovered { attempts: 3 }, 3));
    }

    /// The injected corruption flips one byte per attempt; with the site
    /// always armed every read is rejected and the loader falls back to
    /// rebuilding — as it does for a file in a retired format.
    #[test]
    fn resilient_load_rebuilds_when_every_read_is_rejected() {
        let faults = faultfn::FaultPlan::new(17)
            .with(FAULT_LOAD, faultfn::Schedule::Always)
            .build();
        let outcome = load(2, &faults, |b, _| Ok(b.to_vec()));
        assert_eq!(outcome, (LoadOutcome::Rebuilt, 3), "1 + retries reads");
        assert_eq!(faults.fired(FAULT_LOAD), 3);
        // Every retired version, and the next one.
        for other in [1u8, 2, 3, 4, 6] {
            let outcome = load(1, &faultfn::Faults::none(), |b, _| {
                let mut stamped = b.to_vec();
                stamped[4] = other;
                assert_eq!(
                    read_store(&stamped).err(),
                    Some(SerialError::BadVersion(u32::from(other)))
                );
                Ok(stamped)
            });
            assert_eq!(outcome, (LoadOutcome::Rebuilt, 2), "v{other} file");
        }
    }

    /// Corrupting only the first attempt exercises retry-then-recover,
    /// and the whole sequence is pinned by the plan seed.
    #[test]
    fn resilient_load_recovery_is_deterministic() {
        let run = || {
            let faults = faultfn::FaultPlan::new(17)
                .with(FAULT_LOAD, faultfn::Schedule::FirstN(1))
                .build();
            load(2, &faults, |b, _| Ok(b.to_vec()))
        };
        assert_eq!(run(), (LoadOutcome::Recovered { attempts: 2 }, 2));
        assert_eq!(run(), run());
    }
}
