//! **Out-of-core block store** — streaming shard search under shrinking
//! LRU cache budgets vs the resident-index baseline.
//!
//! Each row searches the same query batch through the same per-shard
//! block stores on disk, with the shared block cache budgeted at a
//! fraction of the total decoded index size. Outputs are verified
//! byte-identical to the resident engine before any number is reported.
//! Columns:
//!
//! * **hit rate** — cache hits / (hits + misses); the locality the
//!   block layout actually delivers at that budget.
//! * **fetched** — blocks read and CRC-checked from disk (misses plus
//!   re-fetches after eviction).
//! * **decode ns/post** — record decode cost (CRC + bounds-checked copy)
//!   per posting, measured inside the fetch path.
//! * **wall** — end-to-end batch search time at that budget.
//!
//! ```sh
//! cargo run --release -p bench --bin blockstore
//! ```

use bench::{assert_outputs_identical, batch_size, default_index, neighbors, query_batch, sprot};
use dbindex::IndexConfig;
use engine::{search_batch, EngineKind, SearchConfig};
use obsv::TraceSession;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let db = sprot();
    let queries = query_batch(db, 128, batch_size());
    let shards = 4usize;
    println!(
        "Out-of-core block store — {} residues, {} queries, {} disk shards\n",
        db.total_residues(),
        queries.len(),
        shards
    );

    let reference = {
        let index = default_index(db);
        let config = SearchConfig::new(EngineKind::MuBlastp);
        search_batch(db, Some(&index), neighbors(), &queries, &config)
    };

    let dir = std::env::temp_dir()
        .join(format!("mublastp-bench-blockstore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create store dir");

    // Probe build: full budget, to learn the total decoded index size the
    // fractional budgets are scaled from.
    let total_decoded: u64 = {
        let cache = Arc::new(blockstore::BlockCache::new(u64::MAX));
        let streaming = blockstore::StreamingShards::build_in_dir(
            db,
            &IndexConfig::default(),
            shards,
            &dir,
            cache,
            &faultfn::Faults::none(),
        )
        .expect("build block stores");
        streaming.shards().iter().map(|s| s.store.directory().total_decoded_bytes()).sum()
    };
    println!(
        "total decoded index: {:.1} MiB across {} shards\n",
        total_decoded as f64 / (1 << 20) as f64,
        shards
    );

    let mut report = bench::RunReport::new("blockstore");
    report.push("blockstore/shards", shards as f64, "count");
    report.push("blockstore/decoded_bytes", total_decoded as f64, "B");

    println!(
        "{:>8} {:>12} {:>9} {:>9} {:>8} {:>14} {:>10}",
        "budget", "bytes", "hit rate", "fetched", "evicted", "decode ns/post", "wall (s)"
    );
    let mut wall_full = 0.0f64;
    for (label, denom) in [("full", 1u64), ("1/4", 4), ("1/16", 16), ("1/64", 64)] {
        let budget = (total_decoded / denom).max(1);
        let cache = Arc::new(blockstore::BlockCache::new(budget));
        let streaming = blockstore::StreamingShards::build_in_dir(
            db,
            &IndexConfig::default(),
            shards,
            &dir,
            Arc::clone(&cache),
            &faultfn::Faults::none(),
        )
        .expect("build block stores");
        let config = SearchConfig::new(EngineKind::MuBlastp).with_threads(shards);
        let session = TraceSession::disabled();
        let t0 = Instant::now();
        let out = engine::search_batch_backend_traced(
            &streaming,
            neighbors(),
            &queries,
            &config,
            &session,
        );
        let wall = t0.elapsed().as_secs_f64();
        assert!(out.failed.is_empty(), "fault-free run degraded: {:?}", out.failed);
        assert_outputs_identical(&reference, &out.results, &format!("budget {label}"));
        let c = cache.counters().snapshot();
        if denom == 1 {
            wall_full = wall;
        }
        println!(
            "{:>8} {:>12} {:>8.1}% {:>9} {:>8} {:>14.1} {:>10.3}",
            label,
            budget,
            c.hit_rate() * 100.0,
            c.fetched_blocks,
            c.evictions,
            c.decode_ns_per_posting(),
            wall
        );
        let tag = format!("blockstore/budget_{}", label.replace('/', "_"));
        report.push(format!("{tag}/budget_bytes"), budget as f64, "B");
        report.push(format!("{tag}/hit_rate"), c.hit_rate(), "ratio");
        report.push(format!("{tag}/blocks_fetched"), c.fetched_blocks as f64, "count");
        report.push(format!("{tag}/bytes_fetched"), c.fetched_bytes as f64, "B");
        report.push(format!("{tag}/evictions"), c.evictions as f64, "count");
        report.push(format!("{tag}/decode_ns_per_posting"), c.decode_ns_per_posting(), "ns");
        report.push(format!("{tag}/peak_resident_bytes"), c.peak_resident_bytes as f64, "B");
        report.push(format!("{tag}/wall"), wall, "s");
        report.push(format!("{tag}/slowdown_vs_full"), wall / wall_full.max(1e-12), "ratio");
    }

    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "\nOutputs verified byte-identical to the resident engine at every budget.\n\
         Expected shape: hit rate falls and fetches rise as the budget shrinks;\n\
         decode ns/posting stays flat (the codec does not know the budget)."
    );
    match report.write() {
        Ok(path) => eprintln!("blockstore: run report appended to {}", path.display()),
        Err(e) => eprintln!("blockstore: could not write run report: {e}"),
    }
}
