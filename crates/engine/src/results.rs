//! Search result types and per-stage counters.

use align::{GappedAlignment, UngappedAlignment};
use bioseq::SequenceId;

/// A high-scoring ungapped alignment produced by stage 2, still in
/// *fragment* coordinates; the finish stages assemble fragments and map to
/// whole-subject coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seed {
    /// Original database sequence.
    pub subject: SequenceId,
    /// Offset of the fragment within the subject (0 for whole sequences).
    pub frag_offset: u32,
    /// The ungapped alignment, subject coordinates relative to the fragment.
    pub aln: UngappedAlignment,
}

/// A reported alignment (after gapped extension + traceback).
#[derive(Clone, Debug, PartialEq)]
pub struct Alignment {
    /// Subject sequence id in the database.
    pub subject: SequenceId,
    /// Gapped alignment with traceback, whole-subject coordinates.
    pub aln: GappedAlignment,
    /// Bit score under the gapped Karlin–Altschul parameters.
    pub bit_score: f64,
    /// E-value over the effective search space.
    pub evalue: f64,
}

/// Canonical ordering of reported alignments: best raw score first, then
/// subject id, then query/subject start, then query/subject *end*.
///
/// This is the one sort key every result producer uses — the per-query
/// finish stage and the sharded merge — so equal ranked output never
/// depends on arrival order. The end coordinates
/// matter: two tracebacks from different seeds can tie on
/// `(score, subject, q_start, s_start)` and still span different ranges,
/// and a key that stopped there would let thread or shard scheduling
/// leak into the reported order. On the full key, alignments that still
/// compare equal are identical records (`bit_score`/`evalue` are
/// functions of the score), so the order is total over distinct
/// alignments.
pub fn compare_alignments(a: &Alignment, b: &Alignment) -> std::cmp::Ordering {
    b.aln
        .score
        .cmp(&a.aln.score)
        .then(a.subject.cmp(&b.subject))
        .then(a.aln.q_start.cmp(&b.aln.q_start))
        .then(a.aln.s_start.cmp(&b.aln.s_start))
        .then(a.aln.q_end.cmp(&b.aln.q_end))
        .then(a.aln.s_end.cmp(&b.aln.s_end))
}

/// Per-stage work counters (paper Figs. 2 and 6 report these shapes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Word hits found by hit detection (before any filtering).
    pub hits: u64,
    /// Hit pairs surviving the two-hit distance rule (after pre-filtering —
    /// `pairs / hits` is the paper's Fig. 6 percentage).
    pub pairs: u64,
    /// Ungapped extensions actually performed (pairs admitted by coverage).
    pub extensions: u64,
    /// Ungapped alignments reaching the gapped trigger (seeds).
    pub seeds: u64,
    /// Gapped extensions performed in the finish stage.
    pub gapped: u64,
    /// Alignments reported after E-value cutoff.
    pub reported: u64,
}

impl StageCounts {
    /// Accumulate another counter set. Saturates instead of wrapping: a
    /// counter that has been accumulated across an unbounded stream of
    /// blocks (the resident service never resets) must pin at `u64::MAX`,
    /// not wrap to a small number that reads as a quiet server.
    pub fn add(&mut self, other: &StageCounts) {
        self.hits = self.hits.saturating_add(other.hits);
        self.pairs = self.pairs.saturating_add(other.pairs);
        self.extensions = self.extensions.saturating_add(other.extensions);
        self.seeds = self.seeds.saturating_add(other.seeds);
        self.gapped = self.gapped.saturating_add(other.gapped);
        self.reported = self.reported.saturating_add(other.reported);
    }

    /// Fraction of hits surviving the pre-filter (Fig. 6).
    pub fn prefilter_survival(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            self.pairs as f64 / self.hits as f64
        }
    }
}

/// Everything reported for one query.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// Index of the query within the submitted batch.
    pub query_index: usize,
    /// Reported alignments, best first.
    pub alignments: Vec<Alignment>,
    /// Stage counters for this query.
    pub counts: StageCounts,
}

impl QueryResult {
    /// Best bit score, if anything was reported.
    pub fn best_bit_score(&self) -> Option<f64> {
        self.alignments.first().map(|a| a.bit_score)
    }
}

/// Demultiplex the results of one coalesced `search_batch` run back into
/// the per-submitter batches it was formed from.
///
/// `sizes[k]` is the query count of the k-th original batch; the batches
/// were concatenated in order before the search, so the combined results
/// are split at the same boundaries and each result's `query_index` is
/// rebased to its own batch. Every pipeline stage is per-query
/// independent (per-query scratch, per-query finish), which is what makes
/// coalescing + this split byte-identical to running each batch alone —
/// the invariant the serving layer's micro-batcher rests on.
///
/// # Panics
/// Panics if `sizes` does not sum to `results.len()`.
pub fn split_batch(results: Vec<QueryResult>, sizes: &[usize]) -> Vec<Vec<QueryResult>> {
    let total: usize = sizes.iter().sum();
    assert_eq!(
        total,
        results.len(),
        "split_batch: sizes sum to {total} but there are {} results",
        results.len()
    );
    let mut rest = results;
    let mut out = Vec::with_capacity(sizes.len());
    let mut consumed = 0usize;
    for &size in sizes {
        let tail = rest.split_off(size);
        let mut head = rest;
        rest = tail;
        for r in &mut head {
            r.query_index -= consumed;
        }
        consumed += size;
        out.push(head);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(query_index: usize, hits: u64) -> QueryResult {
        QueryResult {
            query_index,
            alignments: Vec::new(),
            counts: StageCounts {
                hits,
                ..Default::default()
            },
        }
    }

    #[test]
    fn split_batch_rebases_indices() {
        let combined: Vec<QueryResult> = (0..6).map(|i| result(i, i as u64 * 10)).collect();
        let split = split_batch(combined, &[2, 0, 3, 1]);
        assert_eq!(split.len(), 4);
        assert_eq!(
            split[0].iter().map(|r| r.query_index).collect::<Vec<_>>(),
            [0, 1]
        );
        assert!(split[1].is_empty());
        assert_eq!(
            split[2].iter().map(|r| r.query_index).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(split[3][0].query_index, 0);
        // Payloads travel with their slot.
        assert_eq!(split[2][0].counts.hits, 20);
        assert_eq!(split[3][0].counts.hits, 50);
    }

    #[test]
    #[should_panic(expected = "split_batch")]
    fn split_batch_rejects_bad_sizes() {
        split_batch(vec![result(0, 0)], &[2]);
    }

    #[test]
    fn counts_accumulate() {
        let mut a = StageCounts {
            hits: 10,
            pairs: 2,
            ..Default::default()
        };
        let b = StageCounts {
            hits: 5,
            pairs: 1,
            extensions: 1,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.hits, 15);
        assert_eq!(a.pairs, 3);
        assert_eq!(a.extensions, 1);
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        let mut a = StageCounts {
            hits: u64::MAX - 1,
            pairs: u64::MAX,
            extensions: 0,
            ..Default::default()
        };
        let b = StageCounts {
            hits: 5,
            pairs: 1,
            extensions: u64::MAX,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.hits, u64::MAX);
        assert_eq!(a.pairs, u64::MAX);
        assert_eq!(a.extensions, u64::MAX);
        // Saturated counters stay saturated under further accumulation.
        a.add(&b);
        assert_eq!(a.hits, u64::MAX);
    }

    #[test]
    fn survival_fraction() {
        let c = StageCounts {
            hits: 200,
            pairs: 8,
            ..Default::default()
        };
        assert!((c.prefilter_survival() - 0.04).abs() < 1e-12);
        assert_eq!(StageCounts::default().prefilter_survival(), 0.0);
    }
}
