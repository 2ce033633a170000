//! Top-k early termination: block-max score bounds and the shared
//! k-th-best-E-value watermark (Block-Max-WAND / MaxScore adapted to
//! protein search).
//!
//! The exhaustive engines score every database block even when the caller
//! only wants the best `K` subjects — the same irregularity the paper
//! removes at the hit level reappearing as wasted work at the reporting
//! level. This module supplies the three pieces the pruned drivers share:
//!
//! * [`QueryPruner`] — turns a [`dbindex::BlockBound`] (per-block residue
//!   histogram + length cap, stored in the store directory) into an
//!   upper bound on the *preliminary gapped score* any subject in the
//!   block can reach against one query. The bound ignores gap penalties
//!   and pairs each subject residue with the best-scoring residue that
//!   actually occurs in the query, so it dominates every alignment the
//!   finish stage could produce.
//! * [`TopKSet`] — a bounded max-heap over admitted preliminary E-values;
//!   its [`TopKSet::kth`] is the local pruning threshold.
//! * [`Watermark`] / [`TopKShared`] — an atomic f64-bits cell per query
//!   that shard tasks tighten with their k-th-best E-value on successful
//!   completion. Non-negative IEEE-754 doubles sort identically to their
//!   bit patterns, so a CAS-min on the bits is a CAS-min on the E-value
//!   and the threshold is *monotone*: no interleaving of updates can
//!   loosen it (the property test below convicts a broken protocol).
//!
//! Why pruning preserves bit-identity: per query, the effective E-value
//! is strictly decreasing in the raw score (the Karlin length adjustment
//! does not depend on the score), so "E-value ≤ threshold" and "raw score
//! ≥ some bar" select the same subjects. A block is skipped only when its
//! best-case E-value is **strictly** worse than the threshold — a subject
//! tying the k-th admitted E-value can still displace it on the subject-id
//! tie-break, so ties are always scanned. See `DESIGN.md` §3.7.

use dbindex::BlockBound;
use scoring::Matrix;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for one pruned search: how many blocks the bound check
/// actually excused from seeding/extension. `scanned + skipped` equals
/// the number of blocks the exhaustive path would have visited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TopKStats {
    /// Blocks fetched and searched.
    pub blocks_scanned: u64,
    /// Blocks whose bound proved they cannot affect the top-k output
    /// (never fetched on the out-of-core path).
    pub blocks_skipped: u64,
}

impl TopKStats {
    /// Accumulate another search's counters (shard merges).
    pub fn add(&mut self, other: &TopKStats) {
        self.blocks_scanned += other.blocks_scanned;
        self.blocks_skipped += other.blocks_skipped;
    }
}

/// A monotone atomic threshold: the smallest E-value ever published.
///
/// Stored as the bit pattern of a non-negative `f64` (`+∞` initially), so
/// an integer compare-exchange-min implements a float min. [`Watermark::update`]
/// only ever lowers the stored value; a stale read is merely a *looser*
/// threshold, which costs pruning opportunity but never correctness.
pub struct Watermark(AtomicU64);

impl Default for Watermark {
    fn default() -> Watermark {
        Watermark::new()
    }
}

impl Watermark {
    /// A fresh threshold: `+∞` (nothing prunes until something publishes).
    pub fn new() -> Watermark {
        Watermark(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    /// Current threshold value.
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }

    /// Tighten the threshold to `min(current, evalue)`.
    ///
    /// The compare-exchange loop re-reads the cell on failure and gives up
    /// as soon as the observed value is already ≤ `evalue` — the ordering
    /// that makes the cell monotone under any interleaving. (A
    /// check-then-store protocol loses concurrent updates; the property
    /// test in this module convicts that mutant.)
    pub fn update(&self, evalue: f64) {
        debug_assert!(evalue >= 0.0 && !evalue.is_nan());
        let new = evalue.to_bits();
        let mut cur = self.0.load(Ordering::Acquire);
        while new < cur {
            match self
                .0
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// One [`Watermark`] per query of a batch — the threshold state shard
/// tasks share during a sharded top-k search. A shard publishes its local
/// k-th-best E-values only after completing successfully, so a failed
/// shard never influences the survivors' output (degraded-mode contract).
pub struct TopKShared {
    cells: Vec<Watermark>,
}

impl TopKShared {
    /// Fresh thresholds (`+∞`) for a batch of `n_queries`.
    pub fn new(n_queries: usize) -> TopKShared {
        TopKShared { cells: (0..n_queries).map(|_| Watermark::new()).collect() }
    }

    /// Tighten query `q`'s threshold to `min(current, kth_evalue)`.
    pub fn publish(&self, q: usize, kth_evalue: f64) {
        self.cells[q].update(kth_evalue);
    }

    /// Query `q`'s current shared threshold.
    pub fn load(&self, q: usize) -> f64 {
        self.cells[q].load()
    }
}

/// Bounded max-heap over admitted preliminary E-values: tracks the k
/// smallest values seen and exposes the k-th as the local threshold.
#[derive(Debug)]
pub(crate) struct TopKSet {
    k: usize,
    /// E-value bit patterns (non-negative, so bit order == value order);
    /// max at the top, never more than `k` entries.
    heap: BinaryHeap<u64>,
}

impl TopKSet {
    pub(crate) fn new(k: usize) -> TopKSet {
        TopKSet { k, heap: BinaryHeap::new() }
    }

    /// Record one admitted subject's preliminary E-value.
    pub(crate) fn admit(&mut self, evalue: f64) {
        if self.k == 0 {
            return;
        }
        let bits = evalue.to_bits();
        if self.heap.len() < self.k {
            self.heap.push(bits);
        } else if self.heap.peek().is_some_and(|&top| bits < top) {
            self.heap.pop();
            self.heap.push(bits);
        }
    }

    /// The k-th-best admitted E-value, or `+∞` while fewer than `k`
    /// subjects have been admitted (nothing may be pruned yet).
    pub(crate) fn kth(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map_or(f64::INFINITY, |&b| f64::from_bits(b))
        }
    }
}

/// Per-query pruning state: the query length and, for every subject
/// residue code, the best substitution score against any residue that
/// occurs in the (SEG-masked) query — sorted best-first, non-positive
/// entries dropped.
pub struct QueryPruner {
    qlen: usize,
    order: Vec<(u8, i32)>,
}

impl QueryPruner {
    /// Build the pruner for one encoded query under `matrix`.
    pub fn new(query: &[u8], matrix: &Matrix) -> QueryPruner {
        let mut present = [false; bioseq::alphabet::ALPHABET_SIZE];
        for &q in query {
            if let Some(p) = present.get_mut(q as usize) {
                *p = true;
            }
        }
        let mut order: Vec<(u8, i32)> = Vec::new();
        for code in 0..bioseq::alphabet::ALPHABET_SIZE as u8 {
            let mut best = i32::MIN;
            for (qc, &p) in present.iter().enumerate() {
                if p {
                    best = best.max(matrix.score(code, qc as u8));
                }
            }
            if best > 0 {
                order.push((code, best));
            }
        }
        order.sort_by_key(|&(code, s)| (std::cmp::Reverse(s), code));
        QueryPruner { qlen: query.len(), order }
    }

    /// Upper bound on the raw score of *any* gapped alignment between this
    /// query and *any* subject fragment summarised by `bound`.
    ///
    /// Soundness: an alignment pairs each subject position with at most
    /// one query position and scores at most `best-vs-query(residue)` per
    /// pair, minus non-negative gap penalties; at most
    /// `min(qlen, max_len)` pairs exist; and the block histogram dominates
    /// every fragment's residue counts. Greedily spending the pair budget
    /// on the best-scoring residue classes is the exact maximum of that
    /// relaxation, so nothing reachable exceeds it.
    pub fn bound_raw(&self, bound: &BlockBound) -> i32 {
        let mut left = self.qlen.min(bound.max_len as usize);
        let mut total: i64 = 0;
        for &(code, s) in &self.order {
            if left == 0 {
                break;
            }
            let take = (bound.hist[code as usize] as usize).min(left);
            total += take as i64 * i64::from(s);
            left -= take;
        }
        // Clamped to i32::MAX on the line above's
        // accumulator; scores fit comfortably below that in practice.
        total.min(i64::from(i32::MAX)) as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::Sequence;
    use dbindex::{DbIndex, IndexConfig};
    use scoring::BLOSUM62;

    #[test]
    fn watermark_starts_at_infinity_and_only_tightens() {
        let w = Watermark::new();
        assert_eq!(w.load(), f64::INFINITY);
        w.update(5.0);
        assert_eq!(w.load(), 5.0);
        w.update(9.0); // looser — must be ignored
        assert_eq!(w.load(), 5.0);
        w.update(1.5);
        assert_eq!(w.load(), 1.5);
        w.update(0.0);
        assert_eq!(w.load(), 0.0);
    }

    #[test]
    fn shared_cells_are_independent_per_query() {
        let s = TopKShared::new(3);
        s.publish(1, 2.0);
        assert_eq!(s.load(0), f64::INFINITY);
        assert_eq!(s.load(1), 2.0);
        assert_eq!(s.load(2), f64::INFINITY);
    }

    #[test]
    fn topk_set_tracks_the_kth_smallest() {
        let mut set = TopKSet::new(2);
        assert_eq!(set.kth(), f64::INFINITY);
        set.admit(10.0);
        assert_eq!(set.kth(), f64::INFINITY, "not full yet");
        set.admit(4.0);
        assert_eq!(set.kth(), 10.0);
        set.admit(7.0);
        assert_eq!(set.kth(), 7.0);
        set.admit(100.0); // worse than kth — no change
        assert_eq!(set.kth(), 7.0);
        set.admit(1.0);
        assert_eq!(set.kth(), 4.0);
    }

    #[test]
    fn topk_set_keeps_duplicate_evalues() {
        let mut set = TopKSet::new(2);
        set.admit(3.0);
        set.admit(3.0);
        assert_eq!(set.kth(), 3.0);
        set.admit(3.0);
        assert_eq!(set.kth(), 3.0);
    }

    /// The histogram bound dominates the best gapped score of every
    /// sequence actually packed into the block (a score-level soundness
    /// check on top of the count-level one in `dbindex`).
    #[test]
    fn bound_dominates_true_block_scores() {
        let db: bioseq::SequenceDb = [
            "MKVLAARNDCQEGH",
            "WCHWMYFWCHWMYFW",
            "AGAGAGAGVLVLVLVL",
            "HILKMFPSTWYVBZ",
        ]
        .iter()
        .enumerate()
        .map(|(i, s)| Sequence::from_str_checked(format!("s{i}"), s).unwrap())
        .collect();
        let index = DbIndex::build(
            &db,
            &IndexConfig { block_bytes: 64, offset_bits: 15, frag_overlap: 8 },
        );
        let query = Sequence::from_str_checked("q", "WCHWMYFWCHW").unwrap();
        let pruner = QueryPruner::new(query.residues(), &BLOSUM62);
        for block in index.blocks() {
            let bound = dbindex::BlockBound::from_block(block);
            let cap = pruner.bound_raw(&bound);
            for local in 0..block.n_seqs() {
                // Local ids fit the packed
                // offset layout by construction (see dbindex::block).
                let res = block.seq_residues(local as u32);
                // Best possible pairing score for this fragment: same
                // relaxation, computed directly.
                let mut per_pos: Vec<i32> = res
                    .iter()
                    .map(|&r| {
                        query
                            .residues()
                            .iter()
                            .map(|&q| BLOSUM62.score(r, q))
                            .max()
                            .unwrap_or(0)
                    })
                    .filter(|&s| s > 0)
                    .collect();
                per_pos.sort_unstable_by_key(|&s| std::cmp::Reverse(s));
                let true_max: i32 =
                    per_pos.iter().take(query.len()).sum();
                assert!(
                    cap >= true_max,
                    "bound {cap} < achievable {true_max} for a packed fragment"
                );
            }
        }
    }

    #[test]
    fn bound_is_zero_for_empty_blocks_or_queries() {
        let empty = BlockBound::default();
        let q = Sequence::from_str_checked("q", "WCHW").unwrap();
        let pruner = QueryPruner::new(q.residues(), &BLOSUM62);
        assert_eq!(pruner.bound_raw(&empty), 0);
        let none = QueryPruner::new(&[], &BLOSUM62);
        let mut hist = BlockBound::default().hist;
        hist[0] = 50;
        let b = BlockBound { max_len: 50, hist, ..BlockBound::default() };
        assert_eq!(none.bound_raw(&b), 0);
    }

    // -----------------------------------------------------------------
    // Satellite: watermark monotonicity under *all* interleavings of N
    // simulated shard tasks, in the `parallel::model` style — task logic
    // is compiled to primitive steps against a virtual cell, a scheduler
    // enumerates every step interleaving depth-first, and shadow checks
    // run after each step. The deliberately-wrong protocol (check, then
    // store as a separate step — the classic lost update, i.e. the CAS's
    // compare and swap in the wrong "ordering") must be convicted.
    // -----------------------------------------------------------------

    /// One simulated task publishing `new` into the virtual cell.
    #[derive(Clone, Copy)]
    struct Task {
        new: u64,
        /// Last observed cell value (the CAS expectation).
        observed: u64,
        state: TaskState,
    }

    #[derive(Clone, Copy, PartialEq)]
    enum TaskState {
        Load,
        Act,
        Done,
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Protocol {
        /// Transcription of [`Watermark::update`]: compare and swap happen
        /// in one atomic step; failure re-reads and retries.
        CasMin,
        /// Mutant: the comparison and the store are separate steps, so a
        /// concurrent tightening between them is overwritten (loosened).
        CheckThenStore,
    }

    /// Advance one task by one atomic step. Returns whether it finished.
    fn step(task: &mut Task, cell: &mut u64, protocol: Protocol) {
        match task.state {
            TaskState::Load => {
                task.observed = *cell;
                task.state =
                    if task.new < task.observed { TaskState::Act } else { TaskState::Done };
            }
            TaskState::Act => match protocol {
                Protocol::CasMin => {
                    if *cell == task.observed {
                        *cell = task.new;
                        task.state = TaskState::Done;
                    } else {
                        // CAS failure returns the current value; retry
                        // only while still an improvement.
                        task.observed = *cell;
                        if task.new >= task.observed {
                            task.state = TaskState::Done;
                        }
                    }
                }
                Protocol::CheckThenStore => {
                    *cell = task.new; // blind store — the bug
                    task.state = TaskState::Done;
                }
            },
            TaskState::Done => {}
        }
    }

    /// Depth-first enumeration of every interleaving; returns the first
    /// monotonicity/final-value violation found, if any.
    fn explore(
        tasks: &[Task],
        cell: u64,
        protocol: Protocol,
        expected_min: u64,
        runs: &mut usize,
    ) -> Option<String> {
        let live: Vec<usize> = (0..tasks.len())
            .filter(|&i| tasks[i].state != TaskState::Done)
            .collect();
        if live.is_empty() {
            *runs += 1;
            if cell != expected_min {
                return Some(format!(
                    "final cell {cell} != min of published values {expected_min}"
                ));
            }
            return None;
        }
        for &i in &live {
            let mut t = tasks.to_vec();
            let mut c = cell;
            step(&mut t[i], &mut c, protocol);
            if c > cell {
                return Some(format!("cell loosened {cell} -> {c} (task {i})"));
            }
            if let Some(v) = explore(&t, c, protocol, expected_min, runs) {
                return Some(v);
            }
        }
        None
    }

    #[test]
    fn watermark_protocol_is_monotone_under_every_interleaving() {
        // Three tasks racing distinct values, including one that should
        // lose to both others.
        for values in [[5u64, 3, 8], [8, 5, 3], [3, 3, 9], [7, 1, 1]] {
            let tasks: Vec<Task> = values
                .iter()
                .map(|&v| Task { new: v, observed: 0, state: TaskState::Load })
                .collect();
            let min = *values.iter().min().unwrap();
            let mut runs = 0;
            let violation = explore(&tasks, u64::MAX, Protocol::CasMin, min, &mut runs);
            assert!(violation.is_none(), "{}", violation.unwrap());
            assert!(runs > 1, "scheduler must have explored interleavings");
        }
    }

    #[test]
    fn check_then_store_mutant_is_convicted() {
        // Two tasks suffice: the loser observes ∞, parks before its store,
        // the winner lands 1, then the loser's blind store loosens 1 → 4.
        let tasks: Vec<Task> = [4u64, 1]
            .iter()
            .map(|&v| Task { new: v, observed: 0, state: TaskState::Load })
            .collect();
        let mut runs = 0;
        let violation = explore(&tasks, u64::MAX, Protocol::CheckThenStore, 1, &mut runs);
        assert!(
            violation.is_some(),
            "the lost-update protocol must be observably non-monotone"
        );
    }

    /// The real `Watermark` under real threads: hammer concurrent updates
    /// and check the final value is the global minimum (the model above
    /// proves the protocol; this pins the transcription to the atomics).
    #[test]
    fn real_watermark_under_threads_settles_at_the_minimum() {
        let w = Watermark::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let w = &w;
                scope.spawn(move || {
                    for i in 0..1000 {
                        let v = ((t * 1000 + i) % 997) as f64 + 1.0;
                        w.update(v);
                        assert!(w.load() <= v);
                    }
                });
            }
        });
        assert_eq!(w.load(), 1.0);
    }
}
