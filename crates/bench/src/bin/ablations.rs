//! **Ablations** behind three of the paper's design choices, each timed as
//! the minimum of `RUNS` runs with `std::time::Instant`:
//!
//! * `sort` — Sec. IV-B: LSD radix vs MSD radix vs merge sort vs two-level
//!   binning vs std stable sort, on a real pre-filtered hit buffer captured
//!   from a muBLASTP detection pass. Every sort must return the same
//!   buffer.
//! * `prefilter` — Sec. IV-C: the Alg. 2 pre-filter (sort only the ~4 %
//!   surviving pairs) vs the Alg. 1 post-filter (buffer and sort every hit,
//!   filter afterwards). Both searches must report identical results.
//! * `schedule` — Sec. IV-D1: `schedule(dynamic)` vs `schedule(static)`
//!   over a mixed-length query batch, where BLAST's input sensitivity makes
//!   static partitioning load-imbalance. Both must count the same hits.
//!   The difference only shows with real hardware parallelism.
//!
//! ```sh
//! cargo run --release -p bench --bin ablations            # all three
//! cargo run --release -p bench --bin ablations -- sort    # one of them
//! ```

use bench::{default_index, mixed_batch, neighbors, query_batch, sprot};
use engine::kernels::mublastp::{search_block, sort_pairs};
use engine::kernels::null_ctx;
use engine::results::StageCounts;
use engine::scratch::Scratch;
use engine::{results_identical, search_batch, EngineKind, HitPair, SearchConfig, SortAlgo};
use memsim::NullTracer;
use parallel::{default_threads, parallel_for_dynamic, parallel_for_static};
use scoring::SearchParams;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Timed runs per variant; the minimum is reported.
const RUNS: usize = 10;

/// Minimum wall time of `RUNS` calls of `f`, and the last call's output.
fn min_time<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let v = std::hint::black_box(f());
        best = best.min(t0.elapsed());
        out = Some(v);
    }
    (best, out.expect("RUNS > 0"))
}

/// One query against one block through the muBLASTP kernel, pre-filter on.
fn search_one_block(
    query: &[u8],
    block: &dbindex::IndexBlock,
    scratch: &mut Scratch,
    counts: &mut StageCounts,
) {
    let mut nt = NullTracer;
    let mut ctx = null_ctx(&mut nt);
    search_block(
        query,
        block,
        neighbors(),
        &SearchParams::blastp_defaults(),
        scratch,
        counts,
        &mut ctx,
        &mut obsv::NoObs,
        SortAlgo::LsdRadix,
        true,
    );
}

/// The pre-filtered hit buffer of the block that yields the most pairs for
/// one 512-residue query, in detection order.
fn capture_pairs() -> Vec<HitPair> {
    let db = sprot();
    let index = default_index(db);
    let query = query_batch(db, 512, 1).pop().expect("one query");
    let mut best: Vec<HitPair> = Vec::new();
    for block in index.blocks() {
        let mut scratch = Scratch::new();
        search_one_block(
            query.residues(),
            block,
            &mut scratch,
            &mut StageCounts::default(),
        );
        if scratch.pairs.len() > best.len() {
            best = scratch.pairs.clone();
        }
    }
    assert!(!best.is_empty(), "no hit pairs captured");
    // The buffer as left by extension is sorted; a stable sort on q_off
    // restores the per-diagonal order hit detection produces.
    best.sort_by_key(|p| p.q_off);
    best
}

fn ablation_sort() {
    let pairs = capture_pairs();
    println!(
        "ablation_sort: reorder {} hit pairs (ns per pair, min of {RUNS})",
        pairs.len()
    );
    let mut reference = pairs.clone();
    reference.sort_by_key(|p| p.key);
    for algo in [
        SortAlgo::LsdRadix,
        SortAlgo::MsdRadix,
        SortAlgo::Merge,
        SortAlgo::Binning,
        SortAlgo::Std,
    ] {
        // One fresh copy per run, made before the clock starts.
        let mut copies = vec![pairs.clone(); RUNS];
        let (t, sorted) = min_time(|| {
            let mut p = copies.pop().expect("one copy per run");
            sort_pairs(&mut p, algo);
            p
        });
        assert!(
            sorted == reference,
            "{algo:?} ordered the hit pairs differently"
        );
        let ns = t.as_nanos() as f64 / pairs.len() as f64;
        println!("  {:<10} {ns:>8.2}", format!("{algo:?}"));
    }
}

fn ablation_prefilter() {
    let db = sprot();
    let index = default_index(db);
    println!("ablation_prefilter: 4-query muBLASTP batch (ms, min of {RUNS})");
    for qlen in [128usize, 512] {
        let queries = query_batch(db, qlen, 4);
        let mut times = Vec::new();
        let mut outputs = Vec::new();
        for prefilter in [true, false] {
            let mut config = SearchConfig::new(EngineKind::MuBlastp);
            config.prefilter = prefilter;
            let (t, results) =
                min_time(|| search_batch(db, Some(&index), neighbors(), &queries, &config));
            times.push(t.as_secs_f64());
            outputs.push(results);
        }
        results_identical(&outputs[0], &outputs[1])
            .unwrap_or_else(|e| panic!("post-filter diverged from the pre-filter search: {e}"));
        println!(
            "  len {qlen:<4} prefilter {:>8.2}  postfilter {:>8.2}  ({:.2}x)",
            times[0] * 1e3,
            times[1] * 1e3,
            times[1] / times[0]
        );
    }
}

fn ablation_schedule() {
    let db = sprot();
    let index = default_index(db);
    // Mixed lengths — the input sensitivity that motivates dynamic.
    let queries = mixed_batch(db, 16);
    let threads = default_threads().max(2);
    let hits = AtomicU64::new(0);
    let run_query = |scratch: &mut Scratch, qi: usize| {
        let mut counts = StageCounts::default();
        scratch.seeds.clear();
        for block in index.blocks() {
            search_one_block(queries[qi].residues(), block, scratch, &mut counts);
        }
        hits.fetch_add(counts.hits, Ordering::Relaxed);
    };
    println!("ablation_schedule: 16 mixed-length queries on {threads} threads (ms, min of {RUNS})");
    let mut totals = Vec::new();
    for (label, dynamic) in [("dynamic", true), ("static", false)] {
        hits.store(0, Ordering::Relaxed);
        let (t, ()) = min_time(|| {
            if dynamic {
                parallel_for_dynamic(threads, queries.len(), 1, Scratch::new, run_query);
            } else {
                parallel_for_static(threads, queries.len(), Scratch::new, run_query);
            }
        });
        totals.push(hits.load(Ordering::Relaxed));
        println!("  {label:<8} {:>8.2}", t.as_secs_f64() * 1e3);
    }
    assert_eq!(totals[0], totals[1], "the two schedules did different work");
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        None => {
            ablation_sort();
            ablation_prefilter();
            ablation_schedule();
        }
        Some("sort") => ablation_sort(),
        Some("prefilter") => ablation_prefilter(),
        Some("schedule") => ablation_schedule(),
        Some(other) => panic!("unknown ablation {other:?}; expected sort, prefilter or schedule"),
    }
}
