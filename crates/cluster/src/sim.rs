//! Discrete-event scaling models of the two distributed designs (Fig. 10).
//!
//! Both simulators consume real sequence-length workloads and a
//! [`CalibratedCost`] measured from the actual engines, and reproduce the
//! *structural* causes of the paper's strong-scaling gap:
//!
//! * **muBLASTP-MPI** — one multithreaded rank per node over a
//!   length-sorted, round-robin database partition; every node runs the
//!   whole query batch; one merge message per node at the end. Scaling is
//!   bounded only by the per-query fixed overhead (which does not shrink
//!   with the partition) and the root's merge serialisation.
//! * **mpiBLAST** — single-threaded worker ranks (16 per node, as the
//!   paper configures it), an *unsorted chunk-partitioned* database (one
//!   fragment per worker), and a dedicated scheduler rank that handles a
//!   message per (query, fragment) task. Imbalance across fragments and
//!   the scheduler's serialisation are what collapse its efficiency at
//!   scale (the paper measures 31–57 %).

use crate::model::{CalibratedCost, ClusterParams};
use dbindex::ShardPlan;

/// Result of one simulated run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimOutcome {
    /// Nodes simulated.
    pub nodes: usize,
    /// End-to-end time (s).
    pub makespan: f64,
    /// Busiest / least-busy compute rank (s) — the imbalance window.
    pub compute_max: f64,
    pub compute_min: f64,
    /// Time attributable to communication + scheduling (s).
    pub overhead: f64,
}

impl SimOutcome {
    /// Strong-scaling efficiency against a 1-node run of the same system.
    pub fn efficiency_vs(&self, single_node: &SimOutcome) -> f64 {
        single_node.makespan / (self.nodes as f64 * self.makespan)
    }
}

/// Per-bin residue totals under the paper's partitioner: sort by length,
/// deal round-robin. Delegates to the *same* [`ShardPlan`] that
/// `mublastp distributed` hands the sharded driver, so the simulator's
/// partitions are the real planner's partitions (bins end up within one
/// sequence of each other).
fn round_robin_residues(seq_lens: &[usize], bins: usize) -> Vec<usize> {
    let mut sorted: Vec<usize> = seq_lens.to_vec();
    sorted.sort_unstable();
    ShardPlan::round_robin(&sorted, bins).residue_totals().to_vec()
}

/// Contiguous chunk partitioning of the *unsorted* sequence list into
/// `bins` fragments of roughly equal residue counts — mpiBLAST-style
/// segmentation. Variance is higher than round-robin because fragment
/// boundaries cannot split sequences and the input is unsorted.
fn chunk_residues(seq_lens: &[usize], bins: usize) -> Vec<usize> {
    let total: usize = seq_lens.iter().sum();
    let target = total.div_ceil(bins).max(1);
    let mut out = Vec::with_capacity(bins);
    let mut acc = 0usize;
    for &len in seq_lens {
        if acc >= target && out.len() + 1 < bins {
            out.push(acc);
            acc = 0;
        }
        acc += len;
    }
    out.push(acc);
    while out.len() < bins {
        out.push(0);
    }
    out
}

/// The thread that frees up first, by index scan: f64 has no `Ord`, and
/// an index walk needs neither `partial_cmp` nor an unwrap. The slice is
/// never empty (thread counts are asserted positive at every entry).
fn earliest_free(threads: &mut [f64]) -> &mut f64 {
    let mut best = 0;
    for i in 1..threads.len() {
        if threads[i] < threads[best] {
            best = i;
        }
    }
    &mut threads[best]
}

/// Simulate muBLASTP's multi-node execution.
///
/// * `seq_lens` — database sequence lengths (any order).
/// * `query_lens` — the batch.
/// * `threads_per_node` — per-rank OpenMP-style threads (16 on Stampede).
pub fn simulate_mublastp(
    seq_lens: &[usize],
    query_lens: &[usize],
    nodes: usize,
    threads_per_node: usize,
    cost: &CalibratedCost,
    params: &ClusterParams,
) -> SimOutcome {
    assert!(nodes > 0 && threads_per_node > 0);
    let partitions = round_robin_residues(seq_lens, nodes);
    let mut compute: Vec<f64> = Vec::with_capacity(nodes);
    for &residues in &partitions {
        // Dynamic schedule of queries over threads (Alg. 3): greedy
        // assignment to the earliest-free thread in batch order.
        let mut threads = vec![0f64; threads_per_node];
        for &qlen in query_lens {
            let t = cost.task_cost(qlen, residues);
            *earliest_free(&mut threads) += t;
        }
        compute.push(threads.iter().cloned().fold(0.0, f64::max));
    }
    let compute_max = compute.iter().cloned().fold(0.0, f64::max);
    let compute_min = compute.iter().cloned().fold(f64::INFINITY, f64::min);
    // One batched merge message per non-root node; the root folds each
    // message serially (it is a single rank).
    let msg_bytes = params.result_bytes_per_query * query_lens.len() as f64;
    let merge = (nodes.saturating_sub(1)) as f64
        * (params.sched_cpu_per_msg + params.result_bytes_per_query * query_lens.len() as f64
            / params.bandwidth)
        + params.msg_time(msg_bytes);
    SimOutcome {
        nodes,
        makespan: compute_max + merge,
        compute_max,
        compute_min,
        overhead: merge,
    }
}

/// Simulate mpiBLAST's multi-node execution.
///
/// mpiBLAST processes queries through its group one at a time: the
/// dedicated scheduler dispatches query `q` to every fragment's host,
/// waits for all `F` results (a barrier on the slowest fragment — the
/// straggler), merges them (one message handled per fragment), and only
/// then moves to `q + 1`. The makespan is therefore a *sum over queries*
/// of `max_w compute + scheduler serialisation`, which is what erodes its
/// efficiency as workers multiply (the paper measures 31–57 %).
///
/// * `ranks_per_node` — worker processes per node (16 in the paper's
///   runs; mpiBLAST has no multithreading).
pub fn simulate_mpiblast(
    seq_lens: &[usize],
    query_lens: &[usize],
    nodes: usize,
    ranks_per_node: usize,
    cost: &CalibratedCost,
    params: &ClusterParams,
) -> SimOutcome {
    assert!(nodes > 0 && ranks_per_node > 0);
    let workers = nodes * ranks_per_node;
    // One database fragment per worker, unsorted chunk partitioning.
    let fragments = chunk_residues(seq_lens, workers);
    let frag_max = fragments.iter().copied().max().unwrap_or(0);
    let frag_min = fragments.iter().copied().min().unwrap_or(0);

    let mut makespan = 0.0f64;
    let mut compute_max = 0.0f64;
    let mut compute_min = 0.0f64;
    let mut overhead = 0.0f64;
    for &qlen in query_lens {
        // Barrier on the slowest fragment host.
        let slowest = cost.task_cost(qlen, frag_max);
        compute_max += slowest;
        compute_min += cost.task_cost(qlen, frag_min);
        // Dispatch + merge: the single-threaded scheduler touches two
        // messages per fragment, serially, plus the wire time of the
        // result payloads.
        let sched = 2.0 * workers as f64 * params.sched_cpu_per_msg
            + workers as f64 * params.result_bytes_per_query / params.bandwidth
            + 2.0 * params.latency;
        overhead += sched;
        makespan += slowest + sched;
    }
    SimOutcome { nodes, makespan, compute_max, compute_min, overhead }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> (Vec<usize>, Vec<usize>) {
        // ~40k sequences with a skewed length mix, 128 queries of 256.
        let seq_lens: Vec<usize> =
            (0..40_000).map(|i| 60 + (i * 37) % 900).collect();
        let query_lens = vec![256usize; 128];
        (seq_lens, query_lens)
    }

    fn cost() -> CalibratedCost {
        // Scaled to the paper's regime: a 256-residue query against the
        // full 20 M-residue test database costs ~31 s single-threaded, so
        // a 128-query batch on 16 threads runs ~250 s on one node —
        // comparable to the Fig. 10 single-node times.
        CalibratedCost { k: 6e-9, task_overhead: 50e-6 }
    }

    #[test]
    fn mublastp_scales_nearly_linearly() {
        let (seq_lens, query_lens) = workload();
        let c = cost();
        let p = ClusterParams::default();
        let one = simulate_mublastp(&seq_lens, &query_lens, 1, 16, &c, &p);
        for nodes in [2usize, 8, 32, 128] {
            let r = simulate_mublastp(&seq_lens, &query_lens, nodes, 16, &c, &p);
            let eff = r.efficiency_vs(&one);
            assert!(
                eff > 0.80 && eff <= 1.01,
                "{nodes} nodes: efficiency {eff}"
            );
            assert!(r.makespan < one.makespan);
        }
    }

    #[test]
    fn mpiblast_efficiency_collapses_at_scale() {
        let (seq_lens, query_lens) = workload();
        let c = cost();
        let p = ClusterParams::default();
        let one = simulate_mpiblast(&seq_lens, &query_lens, 1, 16, &c, &p);
        let mid = simulate_mpiblast(&seq_lens, &query_lens, 16, 16, &c, &p);
        let big = simulate_mpiblast(&seq_lens, &query_lens, 128, 16, &c, &p);
        let eff_mid = mid.efficiency_vs(&one);
        let eff_big = big.efficiency_vs(&one);
        assert!(eff_big < eff_mid, "efficiency must decline: {eff_mid} vs {eff_big}");
        assert!(eff_big < 0.7, "128-node efficiency should collapse: {eff_big}");
    }

    #[test]
    fn mublastp_beats_mpiblast_at_every_scale() {
        let (seq_lens, query_lens) = workload();
        // mpiBLAST wraps the slower query-indexed engine: its calibrated
        // per-work cost is higher (the fig10 harness measures both; the
        // paper's single-node gap comes from the same source).
        let c_mu = cost();
        let c_mpib = CalibratedCost { k: c_mu.k * 3.0, ..c_mu };
        let p = ClusterParams::default();
        for nodes in [1usize, 4, 16, 64, 128] {
            let a = simulate_mublastp(&seq_lens, &query_lens, nodes, 16, &c_mu, &p);
            let b = simulate_mpiblast(&seq_lens, &query_lens, nodes, 16, &c_mpib, &p);
            assert!(
                a.makespan < b.makespan,
                "{nodes} nodes: muBLASTP {} vs mpiBLAST {}",
                a.makespan,
                b.makespan
            );
        }
    }

    #[test]
    fn round_robin_balances_better_than_chunks() {
        let (seq_lens, _) = workload();
        let rr = round_robin_residues(&seq_lens, 64);
        let ch = chunk_residues(&seq_lens, 64);
        let spread = |v: &[usize]| {
            let max = *v.iter().max().unwrap() as f64;
            let min = *v.iter().min().unwrap() as f64;
            (max - min) / max
        };
        assert!(spread(&rr) <= spread(&ch) + 1e-12);
        assert_eq!(
            rr.iter().sum::<usize>(),
            seq_lens.iter().sum::<usize>(),
            "round robin must conserve residues"
        );
        assert_eq!(ch.iter().sum::<usize>(), seq_lens.iter().sum::<usize>());
    }

    #[test]
    fn lpt_plan_balances_at_least_as_well_as_round_robin() {
        // The in-process sharded driver uses the LPT variant of the same
        // planner; on the simulator's workload it must not balance worse
        // than the paper's round-robin dealing.
        let (seq_lens, _) = workload();
        for bins in [4usize, 16, 64] {
            let lpt = ShardPlan::balance(&seq_lens, bins);
            let mut sorted = seq_lens.clone();
            sorted.sort_unstable();
            let rr = ShardPlan::round_robin(&sorted, bins);
            assert!(lpt.spread() <= rr.spread() + 1e-12, "bins {bins}");
            assert_eq!(
                lpt.residue_totals().iter().sum::<usize>(),
                rr.residue_totals().iter().sum::<usize>()
            );
        }
    }

    #[test]
    fn deterministic() {
        let (seq_lens, query_lens) = workload();
        let c = cost();
        let p = ClusterParams::default();
        let a = simulate_mublastp(&seq_lens, &query_lens, 16, 16, &c, &p);
        let b = simulate_mublastp(&seq_lens, &query_lens, 16, 16, &c, &p);
        assert_eq!(a, b);
    }
}
