//! Service health counters: queue depth, batch-size histogram, and
//! per-stage latency digests.
//!
//! Since the unified-metrics change every counter here is a view over
//! one [`obsv::Registry`]: the `on_*` methods update pre-resolved
//! lock-free registry handles, and `ServeStats::snapshot` reads the
//! same cells the Prometheus endpoint renders — the wire stats frame,
//! `--metrics-addr`, and the event log can never disagree. Latencies
//! land in logarithmic buckets (one per power of two of microseconds):
//! O(1) record, O(64) percentile, no allocation on the hot path.
//! Percentiles are the upper edge of the bucket holding the requested
//! rank — a ≤2× bound, plenty for "is the queue melting" dashboards.

use crate::proto::{LatencySummary, ShardStat, StageLatency, StatsReport};
use engine::{ShardFailCause, ShardFailure, ShardTiming};
use obsv::metrics::names;
use obsv::{Counter, Gauge, HistSummary, Histogram, Lock, Registry, SizeHistogram};
use std::sync::Arc;
use std::time::Duration;

/// Registry histogram digest → wire shape.
fn wire(s: HistSummary) -> LatencySummary {
    LatencySummary {
        count: s.count,
        p50_us: s.p50_us,
        p99_us: s.p99_us,
        max_us: s.max_us,
    }
}

/// Index of a failure cause in [`obsv::metrics::CAUSES`] order. The
/// `causes_match_the_registry_labels` test pins the mapping.
fn cause_idx(c: ShardFailCause) -> usize {
    match c {
        ShardFailCause::Injected => 0,
        ShardFailCause::DeadlineExceeded => 1,
        ShardFailCause::Storage => 2,
    }
}

/// Why the batcher closed a forming window. The discriminant indexes
/// [`obsv::metrics::TRIGGERS`]; the `triggers_match_the_registry_labels`
/// test pins the order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Trigger {
    /// The dispatcher had been idle for `max_delay` or longer when the
    /// head request arrived: it was dispatched at once.
    Idle,
    /// The window ran out with fewer than `max_batch` requests queued.
    Aged,
    /// No further request could join: `max_batch` requests were queued,
    /// or every attached connection had one queued.
    Full,
    /// A shutdown flushed the queue.
    Drain,
}

/// One shard's registry handles: the static shard shape plus the
/// scheduler-wait and search-time digests fed on every dispatch.
#[derive(Debug)]
struct ShardSlot {
    seqs: u64,
    residues: u64,
    queued: Histogram,
    search: Histogram,
    failures: Counter,
}

/// The little state that is not a registry cell: the shard layout (rows
/// must appear on the stats frame even before the first dispatch) and
/// the out-of-core cache whose live counters snapshots fold in.
#[derive(Debug, Default)]
struct Meta {
    shards: Vec<ShardSlot>,
    block_cache: Option<Arc<blockstore::BlockCache>>,
}

/// Shared, thread-safe service counters — a facade over the unified
/// metrics registry.
#[derive(Debug)]
pub struct ServeStats {
    registry: Registry,
    accepted: Counter,
    rejected: Counter,
    expired: Counter,
    completed: Counter,
    degraded: Counter,
    batches: Counter,
    slow_queries: Counter,
    batch_size: SizeHistogram,
    queue_wait: Histogram,
    search: Histogram,
    total: Histogram,
    queue_depth: Gauge,
    queue_cap: Gauge,
    max_depth: Gauge,
    index_pinned: Gauge,
    topk_requests: Counter,
    topk_scanned: Counter,
    topk_skipped: Counter,
    kernel_striped: Counter,
    kernel_scalar: Counter,
    kernel_rescues: Gauge,
    stage_lat: [Histogram; obsv::Stage::ALL.len()],
    by_cause: [Counter; obsv::metrics::CAUSES.len()],
    by_trigger: [Counter; obsv::metrics::TRIGGERS.len()],
    meta: Lock<Meta>,
}

impl ServeStats {
    /// Fresh counters over a private, enabled registry.
    pub fn new() -> ServeStats {
        ServeStats::with_registry(Registry::new(true))
    }

    /// Counters over a caller-supplied registry (the daemon shares one
    /// registry between the stats frame, the Prometheus endpoint, and
    /// the event log).
    pub(crate) fn with_registry(registry: Registry) -> ServeStats {
        ServeStats {
            accepted: registry.counter(names::BATCHER_ACCEPTED),
            rejected: registry.counter(names::BATCHER_REJECTED),
            expired: registry.counter(names::BATCHER_EXPIRED),
            completed: registry.counter(names::BATCHER_COMPLETED),
            degraded: registry.counter(names::BATCHER_DEGRADED),
            batches: registry.counter(names::BATCHER_BATCHES),
            slow_queries: registry.counter(names::SLOW_QUERIES),
            batch_size: registry.size_hist(names::BATCH_SIZE),
            queue_wait: registry.hist(names::LATENCY_QUEUE_WAIT),
            search: registry.hist(names::LATENCY_SEARCH),
            total: registry.hist(names::LATENCY_TOTAL),
            queue_depth: registry.gauge(names::QUEUE_DEPTH),
            queue_cap: registry.gauge(names::QUEUE_CAP),
            max_depth: registry.gauge(names::QUEUE_MAX_DEPTH),
            index_pinned: registry.gauge(names::INDEX_PINNED_BYTES),
            topk_requests: registry.counter(names::TOPK_REQUESTS),
            topk_scanned: registry.counter(names::TOPK_BLOCKS_SCANNED),
            topk_skipped: registry.counter(names::TOPK_BLOCKS_SKIPPED),
            kernel_striped: registry.counter(names::KERNEL_STRIPED_REQUESTS),
            kernel_scalar: registry.counter(names::KERNEL_SCALAR_REQUESTS),
            kernel_rescues: registry.gauge(names::KERNEL_GAPPED_RESCUES),
            stage_lat: std::array::from_fn(|i| {
                registry.hist_for_stage(names::LATENCY_STAGE, obsv::Stage::ALL[i])
            }),
            by_cause: std::array::from_fn(|i| {
                registry.counter_for_cause(
                    names::SHARD_FAILURES_BY_CAUSE,
                    obsv::metrics::CAUSES[i],
                )
            }),
            by_trigger: std::array::from_fn(|i| {
                registry
                    .counter_for_trigger(names::DISPATCHES_BY_TRIGGER, obsv::metrics::TRIGGERS[i])
            }),
            meta: Lock::new(Meta::default()),
            registry,
        }
    }

    /// The registry behind these counters (the Prometheus endpoint and
    /// the event log resolve their handles from it).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A request entered the queue, which now holds `depth` entries.
    pub(crate) fn on_admit(&self, depth: usize) {
        self.accepted.inc();
        self.max_depth.set_max(depth as u64);
    }

    /// A request was refused because the queue was full.
    pub(crate) fn on_reject(&self) {
        self.rejected.inc();
    }

    /// A request's deadline passed while it waited.
    pub(crate) fn on_expire(&self) {
        self.expired.inc();
    }

    /// A batch of `size` requests was dispatched; `waits` are the
    /// per-request queue delays and `search` the engine time.
    pub(crate) fn on_batch(&self, size: usize, waits: &[Duration], search: Duration) {
        self.batches.inc();
        self.batch_size.record(size);
        for &w in waits {
            self.queue_wait.record(w);
        }
        self.search.record(search);
    }

    /// The batcher closed a forming window over a non-empty batch.
    pub(crate) fn on_dispatch(&self, trigger: Trigger) {
        self.by_trigger[trigger as usize].inc();
    }

    /// A request was answered `total` after admission.
    pub(crate) fn on_complete(&self, total: Duration) {
        self.completed.inc();
        self.total.record(total);
    }

    /// A request was answered with partial (degraded) results.
    pub(crate) fn on_degraded(&self) {
        self.degraded.inc();
    }

    /// A request crossed the slow-query threshold.
    pub(crate) fn on_slow_query(&self) {
        self.slow_queries.inc();
    }

    /// A top-k batch of `requests` requests was dispatched: `scanned`
    /// blocks were fetched and searched, `skipped` blocks were pruned by
    /// their stored score bound.
    pub(crate) fn on_topk(&self, requests: u64, scanned: u64, skipped: u64) {
        self.topk_requests.add(requests);
        self.topk_scanned.add(scanned);
        self.topk_skipped.add(skipped);
    }

    /// A batch of `requests` requests finished with the striped or the
    /// scalar *gapped* kernels (ungapped extension is always scalar, see
    /// `scoring::KernelKind`). `rescues_total` is the process-wide cumulative
    /// value of `align::gapped_rescues()`; the gauge mirrors it
    /// absolutely, so concurrent batches can race without drift.
    pub(crate) fn on_kernel(&self, striped: bool, requests: u64, rescues_total: u64) {
        if striped {
            self.kernel_striped.add(requests);
        } else {
            self.kernel_scalar.add(requests);
        }
        self.kernel_rescues.set_max(rescues_total);
    }

    /// Declare how many bytes of decoded index stay resident for the
    /// daemon's lifetime. Called once at startup by resident daemons;
    /// reported as `index_resident_bytes` on the stats frame.
    pub(crate) fn set_index_memory(&self, bytes: u64) {
        self.index_pinned.set(bytes);
    }

    /// Attach the out-of-core block cache. Its live counters are bound
    /// into the registry (`blockstore.cache.*`) and every snapshot
    /// thereafter reads the cache's budget, residency, and
    /// hit/miss/eviction counters into the stats frame's cache fields.
    pub fn set_block_cache(&self, cache: Arc<blockstore::BlockCache>) {
        cache.bind_metrics(&self.registry);
        self.meta.lock().block_cache = Some(cache);
    }

    /// Declare the shard layout of a sharded daemon (`(sequences,
    /// residues)` per shard, in shard order). Called once at startup;
    /// every snapshot thereafter carries one [`ShardStat`] row per shard,
    /// even before the first dispatch.
    pub(crate) fn init_shards(&self, info: &[(u64, u64)]) {
        // Registering a series takes the registry's lock, so the slots are
        // built before `meta` is taken.
        let shards = info
            .iter()
            .enumerate()
            .map(|(i, &(seqs, residues))| {
                self.registry.gauge_for_shard(names::SHARD_SEQS, i).set(seqs);
                self.registry.gauge_for_shard(names::SHARD_RESIDUES, i).set(residues);
                ShardSlot {
                    seqs,
                    residues,
                    queued: self.registry.hist_for_shard(names::SHARD_QUEUED_US, i),
                    search: self.registry.hist_for_shard(names::SHARD_SEARCH_US, i),
                    failures: self.registry.counter_for_shard(names::SHARD_FAILURES, i),
                }
            })
            .collect();
        self.meta.lock().shards = shards;
    }

    /// Record one sharded dispatch: each shard's scheduler wait (queue
    /// depth made visible as latency) and search time land in that
    /// shard's digests. Timings for shards never declared via
    /// [`ServeStats::init_shards`] are ignored.
    pub(crate) fn on_shard_batch(&self, timings: &[ShardTiming]) {
        let m = self.meta.lock();
        for t in timings {
            if let Some(slot) = m.shards.get(t.shard) {
                slot.queued.record(t.queued);
                slot.search.record(t.search);
            }
        }
    }

    /// Record which shards dropped out of one sharded dispatch. Every
    /// failure counts toward its cause; per-shard rows only count shards
    /// declared via [`ServeStats::init_shards`].
    pub(crate) fn on_shard_failures(&self, failed: &[ShardFailure]) {
        if failed.is_empty() {
            return;
        }
        let m = self.meta.lock();
        for f in failed {
            self.by_cause[cause_idx(f.cause)].inc();
            if let Some(slot) = m.shards.get(f.shard) {
                slot.failures.inc();
            }
        }
    }

    /// Digest the span durations of a traced batch into the per-stage
    /// latency histograms. A no-op for empty traces.
    pub(crate) fn on_trace(&self, trace: &obsv::Trace) {
        for span in &trace.spans {
            let idx = (span.stage.code() - 1) as usize;
            self.stage_lat[idx].record(Duration::from_nanos(span.dur_ns));
        }
    }

    /// Render the Prometheus text exposition of the registry, refreshing
    /// the queue gauges first (they are owned by the batcher and sampled
    /// at read time, like in [`ServeStats::snapshot`]).
    pub(crate) fn render_metrics(&self, queue_depth: usize, queue_cap: usize) -> String {
        self.queue_depth.set(queue_depth as u64);
        self.queue_cap.set(queue_cap as u64);
        self.registry.render_prometheus()
    }

    /// Point-in-time report (`queue_depth`/`queue_cap` are owned by the
    /// batcher and passed in; they are published to the registry gauges
    /// here so a scrape racing a stats frame sees the same values).
    pub(crate) fn snapshot(&self, queue_depth: usize, queue_cap: usize) -> StatsReport {
        self.queue_depth.set(queue_depth as u64);
        self.queue_cap.set(queue_cap as u64);
        // Copy out what `meta` guards, then let it go: reading a series
        // below takes the registry's lock.
        let (shards, cache) = {
            let m = self.meta.lock();
            let shards: Vec<ShardStat> = m
                .shards
                .iter()
                .enumerate()
                .map(|(i, sh)| ShardStat {
                    shard: i as u32,
                    seqs: sh.seqs,
                    residues: sh.residues,
                    queued: wire(sh.queued.summary()),
                    search: wire(sh.search.summary()),
                    failures: sh.failures.value(),
                })
                .collect();
            (shards, m.block_cache.clone())
        };
        let cache = cache.map(|c| (c.budget_bytes(), c.counters().snapshot()));
        let cs = |f: fn(&blockstore::CounterSnapshot) -> u64| {
            cache.as_ref().map_or(0, |(_, c)| f(c))
        };
        StatsReport {
            queue_depth: queue_depth as u32,
            queue_cap: queue_cap as u32,
            max_depth_seen: self.max_depth.value() as u32,
            accepted: self.accepted.value(),
            rejected: self.rejected.value(),
            expired: self.expired.value(),
            completed: self.completed.value(),
            degraded: self.degraded.value(),
            batches: self.batches.value(),
            batch_hist: self.batch_size.counts(),
            queue_wait: wire(self.queue_wait.summary()),
            search: wire(self.search.summary()),
            total: wire(self.total.summary()),
            stages: obsv::Stage::ALL
                .iter()
                .filter_map(|&stage| {
                    let summary = self.stage_lat[(stage.code() - 1) as usize].summary();
                    (summary.count > 0).then_some(StageLatency {
                        stage,
                        latency: wire(summary),
                    })
                })
                .collect(),
            shards,
            index_resident_bytes: self.index_pinned.value()
                + cs(|c| c.resident_bytes),
            cache_budget_bytes: cache.as_ref().map_or(0, |&(budget, _)| budget),
            cache_used_bytes: cs(|c| c.resident_bytes),
            cache_hits: cs(|c| c.hits),
            cache_misses: cs(|c| c.misses),
            cache_evictions: cs(|c| c.evictions),
            shard_fail_injected: self.by_cause[0].value(),
            shard_fail_deadline: self.by_cause[1].value(),
            shard_fail_storage: self.by_cause[2].value(),
            slow_queries: self.slow_queries.value(),
            retry_attempts: self.registry.value(names::RETRY_ATTEMPTS),
            retry_exhausted: self.registry.value(names::RETRY_EXHAUSTED),
            events_logged: self.registry.value(names::EVENTS_LOGGED),
            events_dropped: self.registry.value(names::EVENTS_DROPPED),
            cache_fetched_blocks: cs(|c| c.fetched_blocks),
            cache_fetched_bytes: cs(|c| c.fetched_bytes),
            cache_decode_ns: cs(|c| c.decode_ns),
            cache_decoded_postings: cs(|c| c.decoded_postings),
            metrics_text: self.registry.render_prometheus(),
            topk_requests: self.topk_requests.value(),
            topk_blocks_scanned: self.topk_scanned.value(),
            topk_blocks_skipped: self.topk_skipped.value(),
        }
    }
}

impl Default for ServeStats {
    fn default() -> ServeStats {
        ServeStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causes_match_the_registry_labels() {
        for c in [
            ShardFailCause::Injected,
            ShardFailCause::DeadlineExceeded,
            ShardFailCause::Storage,
        ] {
            assert_eq!(obsv::metrics::CAUSES[cause_idx(c)], c.name());
        }
    }

    #[test]
    fn triggers_match_the_registry_labels() {
        let stats = ServeStats::new();
        let all = [Trigger::Idle, Trigger::Aged, Trigger::Full, Trigger::Drain];
        assert_eq!(all.len(), obsv::metrics::TRIGGERS.len());
        for (i, t) in all.into_iter().enumerate() {
            assert_eq!(format!("{t:?}").to_lowercase(), obsv::metrics::TRIGGERS[i]);
            for _ in 0..=i {
                stats.on_dispatch(t);
            }
        }
        for (i, label) in obsv::metrics::TRIGGERS.iter().enumerate() {
            let got = stats
                .registry()
                .value_for(names::DISPATCHES_BY_TRIGGER, label);
            assert_eq!(got, i as u64 + 1, "{label}");
        }
        let text = stats.registry().render_prometheus();
        assert!(text.contains("serve_batcher_dispatches_by_trigger{trigger=\"aged\"} 2"));
    }

    #[test]
    fn stage_digests_appear_only_for_observed_stages() {
        let stats = ServeStats::new();
        let trace = obsv::Trace {
            spans: vec![
                obsv::SpanRecord {
                    trace_id: 1,
                    seq: 0,
                    stage: obsv::Stage::Seed,
                    query: 0,
                    block: 0,
                    worker: 0,
                    start_ns: 0,
                    dur_ns: 2_000_000, // 2 ms
                },
                obsv::SpanRecord {
                    trace_id: 1,
                    seq: 1,
                    stage: obsv::Stage::Seed,
                    query: 1,
                    block: 0,
                    worker: 0,
                    start_ns: 0,
                    dur_ns: 4_000_000,
                },
            ],
            dropped: 0,
        };
        stats.on_trace(&trace);
        stats.on_trace(&obsv::Trace::new()); // empty: must be a no-op
        let report = stats.snapshot(0, 8);
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.stages[0].stage, obsv::Stage::Seed);
        assert_eq!(report.stages[0].latency.count, 2);
        assert_eq!(report.stages[0].latency.max_us, 4_000);
    }

    #[test]
    fn batch_histogram_grows_to_fit() {
        let stats = ServeStats::new();
        stats.on_batch(1, &[Duration::from_micros(5)], Duration::from_micros(9));
        stats.on_batch(3, &[], Duration::from_micros(9));
        stats.on_batch(3, &[], Duration::from_micros(9));
        let report = stats.snapshot(0, 8);
        assert_eq!(report.batch_hist, vec![1, 0, 2]);
        assert_eq!(report.batches, 3);
    }

    #[test]
    fn shard_rows_carry_shape_and_per_dispatch_digests() {
        let stats = ServeStats::new();
        // No rows before the layout is declared.
        assert!(stats.snapshot(0, 4).shards.is_empty());
        stats.init_shards(&[(10, 1_000), (12, 900)]);
        // Declared but idle: rows appear with empty digests.
        let idle = stats.snapshot(0, 4);
        assert_eq!(idle.shards.len(), 2);
        assert_eq!(idle.shards[1].seqs, 12);
        assert_eq!(idle.shards[1].residues, 900);
        assert_eq!(idle.shards[0].search.count, 0);
        stats.on_shard_batch(&[
            ShardTiming {
                shard: 0,
                queued: Duration::from_micros(3),
                search: Duration::from_micros(700),
            },
            ShardTiming {
                shard: 1,
                queued: Duration::from_micros(650),
                search: Duration::from_micros(500),
            },
            // Out-of-range shard ids are ignored, not a panic.
            ShardTiming {
                shard: 9,
                queued: Duration::ZERO,
                search: Duration::ZERO,
            },
        ]);
        let report = stats.snapshot(0, 4);
        assert_eq!(report.shards[0].shard, 0);
        assert_eq!(report.shards[0].search.count, 1);
        assert!(report.shards[0].search.max_us >= 500);
        assert_eq!(report.shards[1].queued.count, 1);
        assert!(report.shards[1].queued.max_us >= 512);
    }

    #[test]
    fn degraded_and_shard_failure_counters() {
        let stats = ServeStats::new();
        stats.init_shards(&[(4, 400), (4, 390)]);
        stats.on_degraded();
        stats.on_shard_failures(&[
            ShardFailure { shard: 1, cause: engine::ShardFailCause::Injected },
            // Out-of-range shard ids are ignored, not a panic.
            ShardFailure { shard: 9, cause: engine::ShardFailCause::Injected },
        ]);
        stats.on_shard_failures(&[]);
        let report = stats.snapshot(0, 4);
        assert_eq!(report.degraded, 1);
        assert_eq!(report.shards[0].failures, 0);
        assert_eq!(report.shards[1].failures, 1);
        // Every failure counts toward its cause, even on undeclared
        // shard ids.
        assert_eq!(report.shard_fail_injected, 2);
        assert_eq!(report.shard_fail_deadline, 0);
        assert_eq!(report.shard_fail_storage, 0);
    }

    #[test]
    fn memory_fields_default_to_zero_and_track_their_sources() {
        let stats = ServeStats::new();
        let bare = stats.snapshot(0, 4);
        assert_eq!(bare.index_resident_bytes, 0);
        assert_eq!(bare.cache_budget_bytes, 0);

        // A resident daemon pins a fixed decoded index.
        stats.set_index_memory(12_345);
        assert_eq!(stats.snapshot(0, 4).index_resident_bytes, 12_345);
        assert_eq!(stats.snapshot(0, 4).cache_used_bytes, 0);

        // An out-of-core daemon reports the live cache on top.
        let cache = Arc::new(blockstore::BlockCache::new(4096));
        let store = cache.register_store();
        let idx = dbindex::DbIndex::build(
            &[bioseq::Sequence::from_str_checked("s0", "MKVLAARNDCEQGH").unwrap()]
                .into_iter()
                .collect(),
            &dbindex::IndexConfig::default(),
        );
        let block = Arc::new(idx.blocks()[0].clone());
        let block_bytes = block.memory_bytes() as u64;
        cache.insert(store, 0, block);
        cache.counters().snapshot(); // counters are live, not consumed
        stats.set_block_cache(Arc::clone(&cache));
        let report = stats.snapshot(0, 4);
        assert_eq!(report.cache_budget_bytes, 4096);
        assert_eq!(report.cache_used_bytes, block_bytes);
        assert_eq!(report.index_resident_bytes, 12_345 + block_bytes);
        assert_eq!(report.cache_evictions, 0);
        // The bound registry reads the same cells the frame reports.
        assert_eq!(
            stats.registry().value(obsv::metrics::names::CACHE_RESIDENT_BYTES),
            block_bytes
        );
    }

    #[test]
    fn admission_counters() {
        let stats = ServeStats::new();
        stats.on_admit(1);
        stats.on_admit(2);
        stats.on_reject();
        stats.on_expire();
        stats.on_complete(Duration::from_micros(100));
        let report = stats.snapshot(2, 4);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.expired, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.max_depth_seen, 2);
        assert_eq!(report.queue_depth, 2);
        assert_eq!(report.queue_cap, 4);
    }

    /// Top-k counters land in the stats frame and the registry alike.
    #[test]
    fn topk_counters_reach_frame_and_registry() {
        let stats = ServeStats::new();
        assert_eq!(stats.snapshot(0, 4).topk_requests, 0);
        stats.on_topk(2, 10, 30);
        stats.on_topk(1, 5, 0);
        let report = stats.snapshot(0, 4);
        assert_eq!(report.topk_requests, 3);
        assert_eq!(report.topk_blocks_scanned, 15);
        assert_eq!(report.topk_blocks_skipped, 30);
        assert_eq!(stats.registry().value(names::TOPK_REQUESTS), 3);
        assert_eq!(stats.registry().value(names::TOPK_BLOCKS_SKIPPED), 30);
    }

    /// Kernel counters split by configuration; the rescue gauge mirrors
    /// the process-wide cumulative total monotonically.
    #[test]
    fn kernel_counters_reach_registry() {
        let stats = ServeStats::new();
        stats.on_kernel(true, 3, 0);
        stats.on_kernel(false, 2, 5);
        stats.on_kernel(true, 1, 4); // stale total must not lower the gauge
        let r = stats.registry();
        assert_eq!(r.value(names::KERNEL_STRIPED_REQUESTS), 4);
        assert_eq!(r.value(names::KERNEL_SCALAR_REQUESTS), 2);
        assert_eq!(r.value(names::KERNEL_GAPPED_RESCUES), 5);
        assert!(r.render_prometheus().contains("engine_kernel_striped_requests"));
    }

    /// The stats frame and the Prometheus exposition are snapshots of
    /// the same registry: counters read back identically through both.
    #[test]
    fn wire_frame_and_exposition_agree() {
        let stats = ServeStats::new();
        stats.on_admit(1);
        stats.on_admit(1);
        stats.on_reject();
        stats.on_complete(Duration::from_micros(800));
        stats.on_slow_query();
        let report = stats.snapshot(0, 8);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.slow_queries, 1);
        let text = stats.registry().render_prometheus();
        assert!(text.contains("serve_batcher_accepted 2"));
        assert!(text.contains("serve_batcher_rejected 1"));
        assert!(text.contains("serve_batcher_slow_queries 1"));
        assert!(text.contains("serve_latency_total_count 1"));
        // The stats frame carries the very same exposition text.
        assert_eq!(report.metrics_text, text);
    }
}
