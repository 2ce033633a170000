//! **Top-k pruning** — block-max bound effectiveness vs the exhaustive
//! reporting path (DESIGN.md §3.7).
//!
//! Pruning power is a property of *corpus skew*: a block is excused only
//! when its stored bound provably cannot beat the running k-th-best
//! E-value, and on a composition-uniform database every block's bound
//! ties so nothing can ever be skipped. The harness therefore searches a
//! deliberately skewed corpus — a few long motif-carrying sequences up
//! front, a long tail of short weak filler behind them — which is the
//! regime the heavy-tailed score distributions of real databases put a
//! top-k search in (`tests/topk_oracle.rs` pins the same construction at
//! unit scale). Every row is verified byte-identical to the exhaustive
//! engine truncated to K before any number is reported. Columns:
//!
//! * **wall / exh wall** — pruned vs exhaustive end-to-end batch time on
//!   the resident index.
//! * **skipped / skip ratio** — blocks the bound check excused, out of
//!   the blocks an exhaustive scan visits. Deterministic on the resident
//!   path (fixed visit order, single task), so it is guarded by
//!   `xtask bench diff`: a change that dulls the bounds fails the gate.
//! * **makespan** — slowest single shard of a 4-shard serial pass, with
//!   and without pruning: the ideal-parallel wall time a starved machine
//!   cannot show directly (same column as the `shards` harness).
//!
//! ```sh
//! cargo run --release -p bench --bin topk
//! ```

use bench::{assert_outputs_identical, neighbors, scale};
use bioseq::{Sequence, SequenceDb};
use dbindex::{DbIndex, IndexConfig, ShardedIndex};
use engine::{
    search_batch, search_batch_blocks, search_batch_sharded_traced, EngineKind, QueryResult,
    SearchConfig,
};
use faultfn::mix64;
use obsv::TraceSession;
use std::time::Instant;

const SEED: u64 = 0x70BEE5_BE;
const SHARDS: usize = 4;

/// Skewed stand-in corpus: `strong` long motif-carriers first, then short
/// weak filler. Front-loading the strong sequences packs the filler into
/// blocks whose bounds stay low — the blocks a top-k search can skip.
fn skewed_db(n_seqs: usize, strong: usize) -> SequenceDb {
    let motifs = ["WCHWMYFWCHWRYW", "MKVLAARNDCEQHK", "HILKMFPSTWYWCH", "CQEGHILKMFADNE"];
    let fillers = ["AGVLSTNQ", "DERKHAYV", "PGASTCVL", "NQHKMILV"];
    (0..n_seqs)
        .map(|i| {
            let r = mix64(SEED, i as u64);
            let f = fillers[(r % fillers.len() as u64) as usize];
            let text = if i < strong {
                // Long and motif-rich: several planted copies so the
                // self-hit score towers over any filler block's bound.
                let m = motifs[(r >> 4) as usize % motifs.len()];
                let pad: String = f.chars().cycle().take(20 + (r >> 8) as usize % 13).collect();
                format!("{pad}{m}{f}{m}{pad}{m}")
            } else {
                // Short weak filler: low length cap, low best-pair score.
                f.chars().cycle().take(14 + (r >> 16) as usize % 11).collect()
            };
            match Sequence::from_str_checked(format!("s{i}"), &text) {
                Ok(s) => s,
                Err(b) => panic!("bad residue {b} in generated sequence"),
            }
        })
        .collect()
}

/// Queries are copies of strong database sequences: hits are guaranteed,
/// the watermark tightens fast, and a block is skipped only when *every*
/// query's bound check passes — so an all-strong batch is the honest
/// "pruning works" measurement. (The loose-threshold weak-query path is
/// covered functionally by `tests/topk_oracle.rs`.)
fn strong_queries(db: &SequenceDb, strong: usize, n: usize) -> Vec<Sequence> {
    (0..n)
        .map(|i| {
            // lint: allow(lossy-cast): picks index below `strong`, far
            // inside the u32 id space.
            let pick = (mix64(SEED ^ 0x51, i as u64) % strong as u64) as bioseq::SequenceId;
            Sequence::from_encoded(format!("q{i}"), db.get(pick).residues().to_vec())
        })
        .collect()
}

/// The exhaustive oracle at cap K — what every pruned row must match.
fn oracle(db: &SequenceDb, index: &DbIndex, queries: &[Sequence], k: u32) -> Vec<QueryResult> {
    let mut cfg = SearchConfig::new(EngineKind::MuBlastp);
    cfg.params.max_reported = cfg.params.max_reported.min(k as usize);
    search_batch(db, Some(index), neighbors(), queries, &cfg)
}

fn main() {
    let n_seqs = ((3000.0 * scale()) as usize).max(400);
    let strong = (n_seqs / 125).max(8);
    let db = skewed_db(n_seqs, strong);
    let queries = strong_queries(&db, strong, 8);
    let index_config = IndexConfig { block_bytes: 1024, offset_bits: 15, frag_overlap: 8 };
    let index = DbIndex::build(&db, &index_config);
    let n_blocks = index.blocks().len() as u64;
    println!(
        "Top-k pruning — {} residues ({} strong / {} filler), {} queries, {} blocks\n",
        db.total_residues(),
        strong,
        n_seqs - strong,
        queries.len(),
        n_blocks
    );

    let sharded = ShardedIndex::build_parallel(
        &db,
        &index_config,
        SHARDS,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    );
    let session = TraceSession::disabled();

    let mut report = bench::RunReport::new("topk");
    report.push("topk/blocks", n_blocks as f64, "count");

    println!(
        "{:>4} {:>9} {:>9} {:>8} {:>8} {:>10} {:>13} {:>13}",
        "K", "wall (s)", "exh (s)", "skipped", "ratio", "shard skip", "makespan (s)", "exh mksp (s)"
    );
    for k in [1u32, 4, 16, 64] {
        // Exhaustive reference, timed on the same resident index.
        let t0 = Instant::now();
        let reference = oracle(&db, &index, &queries, k);
        let exhaustive_wall = t0.elapsed().as_secs_f64();

        // Resident pruned path. Single task, fixed visit order: the skip
        // counters are deterministic, which is what lets the ratio be a
        // guarded measurement rather than a noisy one.
        let config = SearchConfig::new(EngineKind::MuBlastp).with_top_k(k);
        let t0 = Instant::now();
        let Ok(outcome) =
            search_batch_blocks(&db, &index, neighbors(), &queries, &config, None, &session);
        let wall = t0.elapsed().as_secs_f64();
        assert_outputs_identical(&reference, &outcome.results, &format!("K={k} resident top-k"));
        assert_eq!(
            outcome.topk.blocks_scanned + outcome.topk.blocks_skipped,
            n_blocks,
            "K={k}: pruning counters must account for every block"
        );
        let skip_ratio = outcome.topk.blocks_skipped as f64 / (n_blocks as f64).max(1.0);

        // Sharded makespans from *serial* passes (one shard task at a
        // time), so CPU time-slicing cannot pollute the column and the
        // shared-watermark publish order — hence the shard skip counter —
        // is deterministic too.
        let serial_topk = SearchConfig::new(EngineKind::MuBlastp).with_top_k(k).with_threads(1);
        let out = search_batch_sharded_traced(&sharded, neighbors(), &queries, &serial_topk, &session);
        assert!(out.failed.is_empty(), "fault-free run degraded: {:?}", out.failed);
        assert_outputs_identical(&reference, &out.results, &format!("K={k} sharded top-k"));
        let makespan =
            out.timings.iter().map(|t| t.search.as_secs_f64()).fold(0.0f64, f64::max);
        let shard_skipped = out.topk.blocks_skipped;

        let serial_exh = {
            let mut cfg = SearchConfig::new(EngineKind::MuBlastp).with_threads(1);
            cfg.params.max_reported = cfg.params.max_reported.min(k as usize);
            cfg
        };
        let exh = search_batch_sharded_traced(&sharded, neighbors(), &queries, &serial_exh, &session);
        assert!(exh.failed.is_empty(), "fault-free run degraded: {:?}", exh.failed);
        assert_outputs_identical(&reference, &exh.results, &format!("K={k} sharded exhaustive"));
        let makespan_exh =
            exh.timings.iter().map(|t| t.search.as_secs_f64()).fold(0.0f64, f64::max);

        println!(
            "{:>4} {:>9.4} {:>9.4} {:>8} {:>7.1}% {:>10} {:>13.4} {:>13.4}",
            k,
            wall,
            exhaustive_wall,
            outcome.topk.blocks_skipped,
            skip_ratio * 100.0,
            shard_skipped,
            makespan,
            makespan_exh
        );
        let tag = format!("topk/k{k}");
        report.push(format!("{tag}/wall"), wall, "s");
        report.push(format!("{tag}/exhaustive_wall"), exhaustive_wall, "s");
        report.push(
            format!("{tag}/blocks_skipped"),
            outcome.topk.blocks_skipped as f64,
            "count",
        );
        report.push(format!("{tag}/skip_ratio"), skip_ratio, "ratio");
        report.push(format!("{tag}/sharded_blocks_skipped"), shard_skipped as f64, "count");
        report.push(format!("{tag}/makespan"), makespan, "s");
        report.push(format!("{tag}/makespan_exhaustive"), makespan_exh, "s");
        report.push(
            format!("{tag}/makespan_speedup"),
            makespan_exh / makespan.max(1e-12),
            "ratio",
        );
    }

    println!(
        "\nOutputs verified byte-identical to the exhaustive engine at every K.\n\
         Expected shape: skip ratio is high at small K and decays as K grows\n\
         (a looser k-th-best threshold excuses fewer blocks); makespan tracks\n\
         the skip ratio since skipped blocks are never seeded."
    );
    match report.write() {
        Ok(path) => eprintln!("topk: run report appended to {}", path.display()),
        Err(e) => eprintln!("topk: could not write run report: {e}"),
    }
}
