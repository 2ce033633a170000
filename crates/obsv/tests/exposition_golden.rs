//! Golden exposition: the one pin on the exported metrics surface.
//!
//! `tests/fixtures/metrics.v{METRICS_VERSION}.prom` is what
//! `Registry::render_prometheus()` prints after a fixed script that
//! touches every series, registers shards 0 and 1, and records
//! histogram samples at zero, mid-range, in the last finite bucket and
//! in each layout's open-ended top bucket. So every name, type, label value and bucket edge a
//! dashboard can key on is in the file. Renaming a series, changing its
//! type or label, dropping or doubling a declaration, or moving a bucket
//! edge fails here. Such a change bumps `METRICS_VERSION`, which names a
//! new file, and `METRICS_BLESS=1` writes it once; a bless never
//! rewrites an existing file.

use faultfn::golden::check_or_bless;
use obsv::metrics::{names, CAUSES, TRIGGERS};
use obsv::{Registry, Stage, METRICS_VERSION};

fn fixture_path() -> std::path::PathBuf {
    let dir = match option_env!("CARGO_MANIFEST_DIR") {
        Some(dir) => std::path::Path::new(dir).join("tests/fixtures"),
        None => std::path::PathBuf::from("crates/obsv/tests/fixtures"),
    };
    dir.join(format!("metrics.v{METRICS_VERSION}.prom"))
}

/// Log2-µs samples: bucket 0, a mid-range bucket, the last finite
/// bucket (so every finite edge renders), and the open-ended top bucket.
const LOG2_SAMPLES_US: [u64; 4] = [0, 1_000, (1 << 62) - 1, 1 << 63];
/// Batch sizes: zero (ignored), mid-range, the last finite bucket, and
/// two sizes the open-ended top bucket takes.
const SIZES: [usize; 5] = [0, 32, 63, 64, 100];
const SHARDS: [usize; 2] = [0, 1];

/// Every series resolved through its own handle kind and bumped.
fn scripted_registry() -> Registry {
    let r = Registry::new(true);
    for name in [
        names::BATCHER_ACCEPTED,
        names::BATCHER_REJECTED,
        names::BATCHER_EXPIRED,
        names::BATCHER_COMPLETED,
        names::BATCHER_BATCHES,
        names::BATCHER_DEGRADED,
        names::SLOW_QUERIES,
        names::RETRY_ATTEMPTS,
        names::RETRY_EXHAUSTED,
        names::EVENTS_LOGGED,
        names::EVENTS_DROPPED,
        names::CACHE_HITS,
        names::CACHE_MISSES,
        names::CACHE_EVICTIONS,
        names::CACHE_FETCHED_BLOCKS,
        names::CACHE_FETCHED_BYTES,
        names::CACHE_DECODE_NS,
        names::CACHE_DECODED_POSTINGS,
        names::TOPK_REQUESTS,
        names::TOPK_BLOCKS_SCANNED,
        names::TOPK_BLOCKS_SKIPPED,
        names::KERNEL_STRIPED_REQUESTS,
        names::KERNEL_SCALAR_REQUESTS,
    ] {
        r.counter(name).inc();
    }
    for cause in CAUSES {
        r.counter_for_cause(names::SHARD_FAILURES_BY_CAUSE, cause)
            .inc();
    }
    for trigger in TRIGGERS {
        r.counter_for_trigger(names::DISPATCHES_BY_TRIGGER, trigger)
            .inc();
    }
    for name in [
        names::QUEUE_DEPTH,
        names::QUEUE_CAP,
        names::QUEUE_MAX_DEPTH,
        names::INDEX_PINNED_BYTES,
        names::CACHE_BUDGET_BYTES,
        names::CACHE_RESIDENT_BYTES,
        names::CACHE_PEAK_RESIDENT_BYTES,
        names::KERNEL_GAPPED_RESCUES,
    ] {
        r.gauge(name).set(7);
    }
    let mut hists = vec![
        r.hist(names::LATENCY_QUEUE_WAIT),
        r.hist(names::LATENCY_SEARCH),
        r.hist(names::LATENCY_TOTAL),
    ];
    hists.extend(Stage::ALL.map(|stage| r.hist_for_stage(names::LATENCY_STAGE, stage)));
    for shard in SHARDS {
        r.counter_for_shard(names::SHARD_FAILURES, shard).inc();
        r.gauge_for_shard(names::SHARD_SEQS, shard).set(7);
        r.gauge_for_shard(names::SHARD_RESIDUES, shard).set(7);
        hists.push(r.hist_for_shard(names::SHARD_QUEUED_US, shard));
        hists.push(r.hist_for_shard(names::SHARD_SEARCH_US, shard));
    }
    for h in &hists {
        for us in LOG2_SAMPLES_US {
            h.record_us(us);
        }
    }
    let sizes = r.size_hist(names::BATCH_SIZE);
    for size in SIZES {
        sizes.record(size);
    }
    r
}

#[test]
fn golden_exposition_pins_the_metrics_surface() {
    let text = scripted_registry().render_prometheus();
    let path = fixture_path();
    if let Err(e) = check_or_bless(&path, text.as_bytes(), "METRICS_BLESS", "METRICS_VERSION") {
        panic!("{e}");
    }
}
