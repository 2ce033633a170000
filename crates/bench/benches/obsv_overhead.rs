//! Proof that observability is free when disabled (ISSUE PR 3 acceptance):
//! the muBLASTP kernel run with a *disabled* `obsv::Recorder` must stay
//! within 2% of the same run with `obsv::NoObs` (the observer that
//! compiles to nothing). The disabled recorder's `start`/`record` are a
//! branch on a bool each — if this bench fails, someone put work on the
//! disabled path.
//!
//! Since ISSUE 8 the same contract covers the metrics registry: a
//! synthetic admission loop making the batcher's per-request updates
//! (two counters, a gauge, a latency histogram) through handles from a
//! *disabled* `obsv::Registry` must stay within the same bound of the
//! loop with no metrics at all, and the *enabled* path's marginal cost
//! is measured and printed as ns per metric update.
//!
//! Runs as a `harness = false` bench timed with `std::time::Instant`; the
//! workload is synthesized inline from [`faultfn::Rng`].
//!
//! ```sh
//! cargo bench -p bench --bench obsv_overhead            # full: assert <2%
//! cargo bench -p bench --bench obsv_overhead -- --check # CI: small + <10%
//! ```
//!
//! `--check` shrinks the workload and loosens the bound to 10% — shared
//! CI runners have noisy clocks; the 2% claim is for quiet machines.

use std::time::{Duration, Instant};

use bioseq::{Sequence, SequenceDb};
use dbindex::{DbIndex, IndexConfig};
use engine::kernels::{mublastp, null_ctx};
use engine::results::StageCounts;
use engine::scratch::Scratch;
use engine::SortAlgo;
use faultfn::Rng;
use memsim::NullTracer;
use obsv::metrics::names;
use obsv::{Counter, Gauge, Histogram, ObsvConfig, Registry, StageObs, TraceSession};
use scoring::{NeighborTable, SearchParams, BLOSUM62};

const RESIDUES: &[u8] = b"ARNDCQEGHILKMFPSTWYV";

fn synth_db(n_seqs: usize, seq_len: usize, seed: u64) -> SequenceDb {
    let mut rng = Rng::new(seed, 0);
    (0..n_seqs)
        .map(|i| {
            let s: String = (0..seq_len)
                .map(|_| RESIDUES[rng.below(RESIDUES.len())] as char)
                .collect();
            match Sequence::from_str_checked(format!("synth{i}"), &s) {
                Ok(seq) => seq,
                Err(b) => panic!("generator produced bad residue {b}"),
            }
        })
        .collect()
}

/// One full pass: every query against every index block through the
/// muBLASTP kernel, parameterized over the observer. Returns total hits
/// so the work cannot be optimized away.
fn run_all<O: StageObs>(
    queries: &[Sequence],
    index: &DbIndex,
    neighbors: &NeighborTable,
    params: &SearchParams,
    scratch: &mut Scratch,
    obs: &mut O,
) -> u64 {
    let mut total = 0u64;
    for q in queries {
        let mut counts = StageCounts::default();
        scratch.seeds.clear();
        let mut nt = NullTracer;
        let mut ctx = null_ctx(&mut nt);
        for block in index.blocks() {
            mublastp::search_block(
                q.residues(),
                block,
                neighbors,
                params,
                scratch,
                &mut counts,
                &mut ctx,
                obs,
                SortAlgo::LsdRadix,
                true,
            );
        }
        total = total.saturating_add(counts.hits);
    }
    total
}

/// The handles the synthetic admission loop updates — the same four the
/// batcher touches per request.
struct MetricHandles {
    accepted: Counter,
    completed: Counter,
    depth: Gauge,
    total: Histogram,
}

impl MetricHandles {
    fn from(r: &Registry) -> MetricHandles {
        MetricHandles {
            accepted: r.counter(names::BATCHER_ACCEPTED),
            completed: r.counter(names::BATCHER_COMPLETED),
            depth: r.gauge(names::QUEUE_DEPTH),
            total: r.hist(names::LATENCY_TOTAL),
        }
    }
}

/// Updates made per loop iteration when handles are supplied.
const UPDATES_PER_ITER: u64 = 4;

/// Serially-dependent mixing rounds per iteration. Each iteration stands
/// in for one admitted request; ~100 dependent ALU ops (~60 ns) is still
/// two orders of magnitude below what the cheapest real request costs in
/// the batcher, so the percentage bound stays conservative while the
/// denominator is honest work, not an empty loop the four no-op
/// branches would dwarf.
const MIX_ROUNDS: u32 = 96;

/// A synthetic admission loop: `MIX_ROUNDS` of real arithmetic per
/// iteration plus, when supplied, the four per-request metric updates.
/// Returns the accumulator so nothing is optimized away.
fn registry_pass(handles: Option<&MetricHandles>, iters: u64, seed: u64) -> u64 {
    let mut rng = Rng::new(seed, 0);
    let mut acc = 0u64;
    for _ in 0..iters {
        let mut x = rng.next_u64();
        for _ in 0..MIX_ROUNDS {
            x = x.rotate_left((x & 63) as u32) ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        acc = acc.wrapping_add(x);
        if let Some(h) = handles {
            h.accepted.inc();
            h.depth.set(x & 0x3f);
            h.total.record_us(x & 0xfff);
            h.completed.inc();
        }
    }
    acc
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let (n_seqs, seq_len, n_queries, rounds, bound_pct) =
        if check { (60, 256, 3, 5, 10.0) } else { (240, 320, 24, 11, 2.0) };

    let db = synth_db(n_seqs, seq_len, 0x0B5E_2026);
    let index = DbIndex::build(&db, &IndexConfig::default());
    let neighbors = NeighborTable::build(&BLOSUM62, 11);
    let params = SearchParams::blastp_defaults();
    let queries: Vec<Sequence> = (0..n_queries)
        .map(|i| {
            Sequence::from_encoded(
                format!("q{i}"),
                db.get(i as u32).residues()[..128].to_vec(),
            )
        })
        .collect();
    let mut scratch = Scratch::new();
    let session = TraceSession::new(ObsvConfig::off());

    // Warm both paths (index pages, allocator, branch predictors).
    let warm_a = run_all(&queries, &index, &neighbors, &params, &mut scratch, &mut obsv::NoObs);
    let mut rec = session.recorder();
    let warm_b = run_all(&queries, &index, &neighbors, &params, &mut scratch, &mut rec);
    assert_eq!(warm_a, warm_b, "observer must not change the search");
    assert!(warm_a > 0, "workload found no hits — nothing was measured");

    // Paired rounds: each round times both variants back to back and
    // contributes one disabled/NoObs ratio; the median ratio cancels CPU
    // frequency drift that min-of-N across unpaired samples cannot.
    let mut ratios = Vec::with_capacity(rounds);
    let mut best_noobs = Duration::MAX;
    let mut best_disabled = Duration::MAX;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let a = run_all(&queries, &index, &neighbors, &params, &mut scratch, &mut obsv::NoObs);
        let noobs = t0.elapsed();

        let mut rec = session.recorder();
        let t0 = Instant::now();
        let b = run_all(&queries, &index, &neighbors, &params, &mut scratch, &mut rec);
        let disabled = t0.elapsed();
        assert_eq!(a, b);

        ratios.push(disabled.as_secs_f64() / noobs.as_secs_f64().max(1e-12));
        best_noobs = best_noobs.min(noobs);
        best_disabled = best_disabled.min(disabled);
    }
    ratios.sort_by(|x, y| x.total_cmp(y));
    let median_ratio = ratios[ratios.len() / 2];

    let noobs_ns = best_noobs.as_nanos() as f64;
    let disabled_ns = best_disabled.as_nanos() as f64;
    let overhead_pct = (median_ratio - 1.0) * 100.0;
    println!(
        "obsv_overhead{}: NoObs {:.3} ms, disabled Recorder {:.3} ms (best), median overhead {:+.2}% (bound {bound_pct}%)",
        if check { " (check mode)" } else { "" },
        noobs_ns / 1e6,
        disabled_ns / 1e6,
        overhead_pct,
    );

    // ---- Registry hot path (ISSUE 8) ------------------------------------
    // Paired rounds again: bare loop, disabled-registry loop, enabled
    // loop. The disabled/bare median ratio carries the <2% claim; the
    // enabled marginal cost is reported, not bounded — it is the price
    // an operator opts into.
    let reg_iters: u64 = if check { 100_000 } else { 500_000 };
    let disabled_reg = Registry::new(false);
    let enabled_reg = Registry::new(true);
    let disabled_handles = MetricHandles::from(&disabled_reg);
    let enabled_handles = MetricHandles::from(&enabled_reg);
    // Warm all three paths.
    let w0 = registry_pass(None, reg_iters, 0x5EED);
    let w1 = registry_pass(Some(&disabled_handles), reg_iters, 0x5EED);
    let w2 = registry_pass(Some(&enabled_handles), reg_iters, 0x5EED);
    assert!(w0 == w1 && w1 == w2, "metric updates must not change the work");

    let mut reg_ratios = Vec::with_capacity(rounds);
    let mut best_bare = Duration::MAX;
    let mut best_reg_disabled = Duration::MAX;
    let mut best_enabled = Duration::MAX;
    for round in 0..rounds {
        let seed = 0x5EED ^ round as u64;
        let t0 = Instant::now();
        let a = registry_pass(None, reg_iters, seed);
        let bare = t0.elapsed();

        let t0 = Instant::now();
        let b = registry_pass(Some(&disabled_handles), reg_iters, seed);
        let disabled_t = t0.elapsed();

        let t0 = Instant::now();
        let c = registry_pass(Some(&enabled_handles), reg_iters, seed);
        let enabled_t = t0.elapsed();
        assert!(a == b && b == c);

        reg_ratios.push(disabled_t.as_secs_f64() / bare.as_secs_f64().max(1e-12));
        best_bare = best_bare.min(bare);
        best_reg_disabled = best_reg_disabled.min(disabled_t);
        best_enabled = best_enabled.min(enabled_t);
    }
    reg_ratios.sort_by(|x, y| x.total_cmp(y));
    let reg_overhead_pct = (reg_ratios[reg_ratios.len() / 2] - 1.0) * 100.0;
    let updates = (reg_iters * UPDATES_PER_ITER) as f64;
    let enabled_ns_per_update =
        (best_enabled.as_nanos() as f64 - best_bare.as_nanos() as f64).max(0.0) / updates;
    println!(
        "registry{}: bare {:.3} ms, disabled {:.3} ms (median overhead {:+.2}%, bound \
         {bound_pct}%), enabled {:.3} ms ({:.1} ns/update)",
        if check { " (check mode)" } else { "" },
        best_bare.as_nanos() as f64 / 1e6,
        best_reg_disabled.as_nanos() as f64 / 1e6,
        reg_overhead_pct,
        best_enabled.as_nanos() as f64 / 1e6,
        enabled_ns_per_update,
    );

    assert!(
        overhead_pct <= bound_pct,
        "disabled-observability overhead {overhead_pct:.2}% exceeds the {bound_pct}% bound"
    );
    assert!(
        reg_overhead_pct <= bound_pct,
        "disabled-registry overhead {reg_overhead_pct:.2}% exceeds the {bound_pct}% bound"
    );
}
