//! Database sharding (paper Sec. V): split a sequence store into K
//! balanced shards and build one independent index per shard.
//!
//! The paper scales muBLASTP beyond one index by partitioning the
//! database, searching partitions independently, and merging results with
//! E-values computed against the *whole* database. The planner here is
//! the partitioning half of that design:
//!
//! * **Sequences are never split** — a shard holds whole sequences only,
//!   so per-subject pipeline stages (assembly, gapped extension,
//!   traceback) run unchanged inside a shard and the merged output can be
//!   byte-identical to an unsharded search.
//! * **Balance is by residue count**, not sequence count: search cost is
//!   proportional to the residues scanned, and the paper's load-balancing
//!   partitioner targets equal character counts per partition.
//! * Two partitioners are provided on the same plan type: [`ShardPlan::balance`]
//!   (LPT greedy — longest sequence first onto the least-loaded shard,
//!   the default of [`ShardedIndex::build`]) and [`ShardPlan::round_robin`]
//!   (the paper's sorted round-robin, used by `mublastp distributed` and
//!   the cluster simulator so both reuse one planner).
//!
//! [`ShardedIndex`] materialises a plan: one sub-database plus one
//! [`DbIndex`] per shard, with the local→global sequence-id map needed to
//! report merged results in global coordinates.

use crate::block::DbIndex;
use crate::config::IndexConfig;
use bioseq::{SequenceDb, SequenceId};

/// An assignment of sequences to K shards, balanced by residue count.
///
/// The plan is purely positional: it maps *input indices* (positions in
/// the length slice it was built from) to shards, so it works for a real
/// [`SequenceDb`] and for the cluster simulator's bare length lists alike.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Per-shard member indices into the planned collection, ascending.
    members: Vec<Vec<usize>>,
    /// Per-shard residue totals.
    residues: Vec<usize>,
}

impl ShardPlan {
    /// LPT (longest-processing-time) greedy balance: sequences are taken
    /// longest first and each goes to the currently least-loaded shard
    /// (ties broken toward the lowest shard id, so the plan is a pure
    /// function of the lengths). Long sequences are kept whole — one
    /// sequence is never split across shards. Shards may be empty when
    /// `shards > lens.len()`.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn balance(lens: &[usize], shards: usize) -> ShardPlan {
        assert!(shards > 0, "need at least one shard");
        let mut order: Vec<usize> = (0..lens.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(lens[i]), i));
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut residues = vec![0usize; shards];
        for i in order {
            let mut best = 0usize;
            for s in 1..shards {
                if residues[s] < residues[best] {
                    best = s;
                }
            }
            members[best].push(i);
            residues[best] += lens[i];
        }
        for m in &mut members {
            m.sort_unstable();
        }
        ShardPlan { members, residues }
    }

    /// The paper's partitioner: sort by length, deal round-robin. Input
    /// order is *preserved as given* — callers that want the paper's exact
    /// behaviour sort their collection by length first (as
    /// `mublastp distributed` does). Bins end up within one
    /// sequence length of each other on sorted input.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn round_robin(lens: &[usize], shards: usize) -> ShardPlan {
        assert!(shards > 0, "need at least one shard");
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut residues = vec![0usize; shards];
        for (i, &len) in lens.iter().enumerate() {
            members[i % shards].push(i);
            residues[i % shards] += len;
        }
        ShardPlan { members, residues }
    }

    /// Convenience: [`ShardPlan::balance`] over a database's sequence lengths.
    pub fn balance_db(db: &SequenceDb, shards: usize) -> ShardPlan {
        let lens: Vec<usize> = db.sequences().iter().map(|s| s.len()).collect();
        ShardPlan::balance(&lens, shards)
    }

    /// Number of shards in the plan (≥ 1; some may be empty).
    pub fn shards(&self) -> usize {
        self.members.len()
    }

    /// Member indices of shard `s`, ascending.
    pub fn members(&self, s: usize) -> &[usize] {
        &self.members[s]
    }

    /// Per-shard residue totals, indexed by shard id.
    pub fn residue_totals(&self) -> &[usize] {
        &self.residues
    }

    /// Relative load spread `(max − min) / max` over the shard residue
    /// totals (0.0 for a perfectly balanced or single-shard plan).
    pub fn spread(&self) -> f64 {
        let max = self.residues.iter().copied().max().unwrap_or(0);
        let min = self.residues.iter().copied().min().unwrap_or(0);
        if max == 0 {
            0.0
        } else {
            (max - min) as f64 / max as f64
        }
    }
}

/// One shard of a [`ShardedIndex`]: a sub-database of whole sequences,
/// its own index, and the map back to global sequence ids.
#[derive(Clone, Debug)]
pub struct DbShard {
    /// Global id of each local sequence (`ids[local] == global`), ascending.
    pub ids: Vec<SequenceId>,
    /// The shard's sequences, in ascending global-id order.
    pub db: SequenceDb,
    /// Index over `db` alone.
    pub index: DbIndex,
}

/// A database partitioned into K shards, each with its own [`DbIndex`],
/// plus the global database size needed for statistics-correct merges.
#[derive(Clone, Debug)]
pub struct ShardedIndex {
    shards: Vec<DbShard>,
    global_residues: usize,
    global_seqs: usize,
}

impl ShardedIndex {
    /// Build with an LPT-balanced plan ([`ShardPlan::balance_db`]).
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn build(db: &SequenceDb, config: &IndexConfig, shards: usize) -> ShardedIndex {
        ShardedIndex::build_with_plan(db, config, &ShardPlan::balance_db(db, shards))
    }

    /// Build one sub-database and index per shard of `plan`. The plan's
    /// member indices must address `db` (i.e. the plan was built from this
    /// database's lengths).
    ///
    /// # Panics
    /// Panics if the plan references a sequence id outside `db`.
    pub fn build_with_plan(db: &SequenceDb, config: &IndexConfig, plan: &ShardPlan) -> ShardedIndex {
        ShardedIndex::build_inner(db, config, plan, 1)
    }

    /// Like [`ShardedIndex::build`], but shard indexes are built
    /// concurrently on `threads` workers (each shard's index is built
    /// single-threaded; shards are independent, so shard-level parallelism
    /// is the natural grain here).
    ///
    /// # Panics
    /// Panics if `shards == 0` or `threads == 0`.
    pub fn build_parallel(
        db: &SequenceDb,
        config: &IndexConfig,
        shards: usize,
        threads: usize,
    ) -> ShardedIndex {
        ShardedIndex::build_inner(db, config, &ShardPlan::balance_db(db, shards), threads)
    }

    fn build_inner(
        db: &SequenceDb,
        config: &IndexConfig,
        plan: &ShardPlan,
        threads: usize,
    ) -> ShardedIndex {
        let shards = parallel::parallel_map_dynamic(
            threads.max(1).min(plan.shards().max(1)),
            plan.shards(),
            1,
            || (),
            |(), s| {
                let mut ids: Vec<SequenceId> = Vec::with_capacity(plan.members(s).len());
                let mut local = SequenceDb::new();
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "plans are index-addressed: `gid` addresses an existing db sequence, so it fits SequenceId"
                )]
                for &gid in plan.members(s) {
                    let seq = db.get(gid as SequenceId);
                    ids.push(gid as SequenceId);
                    local.push(seq.clone());
                }
                let index = DbIndex::build(&local, config);
                DbShard { ids, db: local, index }
            },
        );
        ShardedIndex {
            shards,
            global_residues: db.total_residues(),
            global_seqs: db.len(),
        }
    }

    /// The shards, indexed by shard id.
    pub fn shards(&self) -> &[DbShard] {
        &self.shards
    }

    /// Number of shards (≥ 1; some may be empty).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Residue count of the *whole* database — the `n` of the
    /// Karlin–Altschul search space every shard must use so merged
    /// E-values match an unsharded search (paper Sec. V).
    pub fn global_residues(&self) -> usize {
        self.global_residues
    }

    /// Sequence count of the whole database (the statistics companion of
    /// [`ShardedIndex::global_residues`]).
    pub fn global_seqs(&self) -> usize {
        self.global_seqs
    }
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test data is sized far below u32"
)]
mod tests {
    use super::*;
    use bioseq::Sequence;

    fn db_of_lens(lens: &[usize]) -> SequenceDb {
        lens.iter()
            .enumerate()
            .map(|(i, &n)| {
                let body: String = "ARNDCQEGHILKMFPSTWYV".chars().cycle().take(n).collect();
                Sequence::from_str_checked(format!("s{i}"), &body).unwrap()
            })
            .collect()
    }

    #[test]
    fn balance_covers_every_sequence_exactly_once() {
        let lens = [5, 300, 40, 40, 7, 90, 90, 1];
        for k in 1..=10 {
            let plan = ShardPlan::balance(&lens, k);
            assert_eq!(plan.shards(), k);
            let mut seen: Vec<usize> = (0..k).flat_map(|s| plan.members(s).to_vec()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..lens.len()).collect::<Vec<_>>(), "k={k}");
            assert_eq!(
                plan.residue_totals().iter().sum::<usize>(),
                lens.iter().sum::<usize>()
            );
        }
    }

    #[test]
    fn balance_keeps_long_sequences_whole_and_bounds_spread() {
        // One huge sequence and many small ones: the huge one lands alone
        // on a shard, untouched, and no other shard exceeds it.
        let mut lens = vec![1000usize];
        lens.extend(std::iter::repeat_n(10usize, 100));
        let plan = ShardPlan::balance(&lens, 4);
        let home = (0..4)
            .find(|&s| plan.members(s).contains(&0))
            .expect("sequence 0 must be assigned");
        // LPT property: max load ≤ min load + longest remaining item.
        let max = *plan.residue_totals().iter().max().expect("nonempty");
        let min = *plan.residue_totals().iter().min().expect("nonempty");
        assert!(max - min <= 1000, "max {max} min {min}");
        assert!(plan.residue_totals()[home] >= 1000);
    }

    #[test]
    fn balance_is_deterministic_under_ties() {
        let lens = [50usize; 12];
        let a = ShardPlan::balance(&lens, 5);
        let b = ShardPlan::balance(&lens, 5);
        assert_eq!(a, b);
        // Equal lengths deal out in index order.
        assert_eq!(a.members(0), &[0, 5, 10]);
        assert_eq!(a.members(4), &[4, 9]);
    }

    #[test]
    fn round_robin_matches_modular_dealing() {
        let lens = [3, 1, 4, 1, 5, 9, 2];
        let plan = ShardPlan::round_robin(&lens, 3);
        assert_eq!(plan.members(0), &[0, 3, 6]);
        assert_eq!(plan.members(1), &[1, 4]);
        assert_eq!(plan.members(2), &[2, 5]);
        assert_eq!(plan.residue_totals()[0], 3 + 1 + 2);
    }

    #[test]
    fn empty_input_yields_empty_shards() {
        let plan = ShardPlan::balance(&[], 3);
        assert_eq!(plan.shards(), 3);
        assert!(plan.members(1).is_empty());
        assert_eq!(plan.spread(), 0.0);
    }

    #[test]
    fn more_shards_than_sequences_leaves_empties() {
        let lens = [10, 20];
        let plan = ShardPlan::balance(&lens, 5);
        let empty = (0..5).filter(|&s| plan.members(s).is_empty()).count();
        assert_eq!(empty, 3);
    }

    #[test]
    fn sharded_index_maps_ids_and_conserves_residues() {
        let db = db_of_lens(&[30, 80, 25, 60, 45, 18, 70]);
        let cfg = IndexConfig { block_bytes: 256, offset_bits: 15, frag_overlap: 8 };
        let si = ShardedIndex::build(&db, &cfg, 3);
        assert_eq!(si.num_shards(), 3);
        assert_eq!(si.global_residues(), db.total_residues());
        assert_eq!(si.global_seqs(), db.len());
        let mut seen = vec![false; db.len()];
        for shard in si.shards() {
            assert_eq!(shard.ids.len(), shard.db.len());
            for (local, &gid) in shard.ids.iter().enumerate() {
                assert!(!seen[gid as usize], "sequence {gid} in two shards");
                seen[gid as usize] = true;
                assert_eq!(
                    shard.db.get(local as SequenceId).residues(),
                    db.get(gid).residues()
                );
            }
        }
        assert!(seen.iter().all(|&b| b), "every sequence assigned");
    }

    #[test]
    fn sharded_index_parallel_build_matches_serial_plan() {
        let db = db_of_lens(&[30, 80, 25, 60, 45, 18, 70, 22, 91]);
        let cfg = IndexConfig { block_bytes: 256, offset_bits: 15, frag_overlap: 8 };
        let a = ShardedIndex::build(&db, &cfg, 4);
        let b = ShardedIndex::build_parallel(&db, &cfg, 4, 4);
        assert_eq!(a.num_shards(), b.num_shards());
        for (x, y) in a.shards().iter().zip(b.shards()) {
            assert_eq!(x.ids, y.ids);
            assert_eq!(x.index.total_positions(), y.index.total_positions());
        }
    }

    #[test]
    fn empty_shard_builds_empty_index() {
        let db = db_of_lens(&[40]);
        let cfg = IndexConfig::default();
        let si = ShardedIndex::build(&db, &cfg, 3);
        let empties = si.shards().iter().filter(|s| s.db.is_empty()).count();
        assert_eq!(empties, 2);
        for shard in si.shards().iter().filter(|s| s.db.is_empty()) {
            assert!(shard.index.blocks().is_empty());
        }
    }
}
