//! In-memory protein sequence database.
//!
//! The muBLASTP index build (Sec. III of the paper) and the inter-node data
//! partitioning (Sec. IV-D3) both start from a database *sorted by sequence
//! length*; this module provides that plus the summary statistics reported in
//! the paper's Fig. 7.

use crate::seq::{Sequence, SequenceId};

/// An owned collection of subject sequences.
#[derive(Clone, Debug, Default)]
pub struct SequenceDb {
    seqs: Vec<Sequence>,
}

/// Summary statistics of a database (paper Fig. 7 / Sec. V-A).
#[derive(Clone, Debug, PartialEq)]
pub struct DbStats {
    /// Number of sequences.
    pub count: usize,
    /// Total residues across all sequences.
    pub total_residues: usize,
    /// Median sequence length (0 for an empty database).
    pub median_len: usize,
    /// Mean sequence length (0.0 for an empty database).
    pub mean_len: f64,
    /// Minimum / maximum sequence lengths.
    pub min_len: usize,
    pub max_len: usize,
}

impl SequenceDb {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one sequence, returning its id.
    pub fn push(&mut self, seq: Sequence) -> SequenceId {
        self.seqs.push(seq);
        (self.seqs.len() - 1) as SequenceId
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Whether the database holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Access a sequence by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn get(&self, id: SequenceId) -> &Sequence {
        &self.seqs[id as usize]
    }

    /// All sequences in storage order.
    pub fn sequences(&self) -> &[Sequence] {
        &self.seqs
    }

    /// Iterate `(id, sequence)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (SequenceId, &Sequence)> {
        self.seqs.iter().enumerate().map(|(i, s)| (i as SequenceId, s))
    }

    /// Total residues in the database.
    pub fn total_residues(&self) -> usize {
        self.seqs.iter().map(|s| s.len()).sum()
    }

    /// Return a copy of this database with sequences sorted by ascending
    /// length (ties broken by original order — the sort is stable so results
    /// are deterministic). This is the preprocessing step for both index
    /// blocking (Sec. III) and round-robin inter-node partitioning
    /// (Sec. IV-D3).
    pub fn sorted_by_length(&self) -> SequenceDb {
        let mut seqs = self.seqs.clone();
        seqs.sort_by_key(|s| s.len());
        SequenceDb { seqs }
    }

    /// Compute summary statistics.
    pub fn stats(&self) -> DbStats {
        if self.seqs.is_empty() {
            return DbStats {
                count: 0,
                total_residues: 0,
                median_len: 0,
                mean_len: 0.0,
                min_len: 0,
                max_len: 0,
            };
        }
        let mut lens: Vec<usize> = self.seqs.iter().map(|s| s.len()).collect();
        lens.sort_unstable();
        let total: usize = lens.iter().sum();
        DbStats {
            count: lens.len(),
            total_residues: total,
            median_len: lens[lens.len() / 2],
            mean_len: total as f64 / lens.len() as f64,
            min_len: lens[0],
            max_len: lens[lens.len() - 1],
        }
    }

    /// Histogram of sequence lengths with the given bucket width (used to
    /// regenerate the paper's Fig. 7). Returns `(bucket_start, count)` pairs
    /// for non-empty buckets, ascending.
    pub fn length_histogram(&self, bucket: usize) -> Vec<(usize, usize)> {
        assert!(bucket > 0);
        let mut counts: std::collections::BTreeMap<usize, usize> = Default::default();
        for s in &self.seqs {
            *counts.entry(s.len() / bucket * bucket).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

impl FromIterator<Sequence> for SequenceDb {
    fn from_iter<T: IntoIterator<Item = Sequence>>(iter: T) -> Self {
        SequenceDb { seqs: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(id: &str, len: usize) -> Sequence {
        Sequence::from_encoded(id, vec![0u8; len])
    }

    fn db(lens: &[usize]) -> SequenceDb {
        lens.iter()
            .enumerate()
            .map(|(i, &l)| seq(&format!("s{i}"), l))
            .collect()
    }

    #[test]
    fn push_and_get() {
        let mut d = SequenceDb::new();
        let id = d.push(seq("a", 3));
        assert_eq!(id, 0);
        assert_eq!(d.get(0).id, "a");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn sorted_by_length_is_stable() {
        let d = db(&[5, 3, 5, 1]);
        let s = d.sorted_by_length();
        let ids: Vec<&str> = s.sequences().iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids, ["s3", "s1", "s0", "s2"]);
    }

    #[test]
    fn stats_on_known_data() {
        let d = db(&[100, 200, 300, 400]);
        let s = d.stats();
        assert_eq!(s.count, 4);
        assert_eq!(s.total_residues, 1000);
        assert_eq!(s.median_len, 300);
        assert!((s.mean_len - 250.0).abs() < 1e-9);
        assert_eq!((s.min_len, s.max_len), (100, 400));
    }

    #[test]
    fn stats_empty() {
        let s = SequenceDb::new().stats();
        assert_eq!(s.count, 0);
        assert_eq!(s.median_len, 0);
    }

    #[test]
    fn histogram_buckets() {
        let d = db(&[10, 15, 25, 99, 100]);
        let h = d.length_histogram(20);
        assert_eq!(h, vec![(0, 2), (20, 1), (80, 1), (100, 1)]);
    }
}
