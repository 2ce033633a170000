//! Unified metrics registry: counters, gauges, and fixed-bucket
//! histograms behind stable dotted series names.
//!
//! Every runtime counter the serving stack exports — batcher admission,
//! stage latencies, block-cache traffic, shard failures, retry budget —
//! lives in one [`Registry`] so the wire stats frame, the Prometheus
//! exposition endpoint, and the structured event log are three snapshots
//! of the same cells. Design constraints, matching the rest of the crate:
//!
//! 1. **Lock-free hot path.** Handles ([`Counter`], [`Gauge`],
//!    [`Histogram`], [`SizeHistogram`]) are resolved once against the
//!    registry (one short-lived lock) and then update plain atomic cells.
//!    Where many connection threads hammer one counter, a striped
//!    per-worker cell (`def_counter_sharded` in `declare_all`) spreads the
//!    contention and sums at read time.
//! 2. **The disabled path costs a branch.** A registry built with
//!    `Registry::new(false)` resolves every handle to `None`; `add` /
//!    `record` are then a single `Option` test. `crates/bench`'s
//!    `obsv_overhead` harness asserts the <2% bound.
//! 3. **The exported surface is pinned.** Series are *declared* in one
//!    place, `declare_all`; declaring a name twice panics, and so does
//!    resolving a handle against an undeclared name in a debug build.
//!    The golden exposition `tests/fixtures/metrics.v{METRICS_VERSION}.prom`
//!    fixes every name, type, label and bucket edge, so a rename, a kind
//!    change or a dropped series fails `cargo test` until
//!    [`METRICS_VERSION`] is bumped and the new golden blessed.
//!
//! Histogram buckets replicate the service's original `LatencyRecorder`
//! math exactly: one bucket per power of two of microseconds, percentile
//! = the upper edge of the bucket holding the requested rank, capped at
//! the true observed maximum.

use crate::span::Stage;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Version of the exported metrics surface; it names the golden
/// exposition `tests/fixtures/metrics.v{METRICS_VERSION}.prom`. Bump it
/// when a series must change name, type, label or bucket edges, then
/// write the new golden once with `METRICS_BLESS=1`; a bless never
/// rewrites an existing file.
pub const METRICS_VERSION: u32 = 1;

/// The stable dotted names of every exported series. One `const` per
/// series; the golden exposition pins each one, so renaming or deleting
/// one here fails `cargo test -p obsv` until [`METRICS_VERSION`] moves.
pub mod names {
    /// Requests admitted to the batcher queue.
    pub const BATCHER_ACCEPTED: &str = "serve.batcher.accepted";
    /// Requests refused because the queue was full.
    pub const BATCHER_REJECTED: &str = "serve.batcher.rejected";
    /// Requests whose deadline passed while queued.
    pub const BATCHER_EXPIRED: &str = "serve.batcher.expired";
    /// Requests answered (successfully or degraded).
    pub const BATCHER_COMPLETED: &str = "serve.batcher.completed";
    /// Batches dispatched to the engine.
    pub const BATCHER_BATCHES: &str = "serve.batcher.batches";
    /// Batches dispatched, labeled by what closed their forming window.
    pub const DISPATCHES_BY_TRIGGER: &str = "serve.batcher.dispatches_by_trigger";
    /// Requests answered with partial (degraded) coverage.
    pub const BATCHER_DEGRADED: &str = "serve.batcher.degraded";
    /// Requests slower than the configured slow-query threshold.
    pub const SLOW_QUERIES: &str = "serve.batcher.slow_queries";
    /// Retry attempts made (first tries included).
    pub const RETRY_ATTEMPTS: &str = "serve.retry.attempts";
    /// Retry loops that gave up with the error unresolved.
    pub const RETRY_EXHAUSTED: &str = "serve.retry.exhausted";
    /// Structured events written to the event log.
    pub const EVENTS_LOGGED: &str = "serve.events.logged";
    /// Structured events lost to I/O errors on the event log.
    pub const EVENTS_DROPPED: &str = "serve.events.dropped";
    /// Shard dispatch failures, labeled by shard id.
    pub const SHARD_FAILURES: &str = "engine.shard.failures";
    /// Shard dispatch failures, labeled by failure cause.
    pub const SHARD_FAILURES_BY_CAUSE: &str = "engine.shard.failures_by_cause";
    /// Block-cache lookups served from memory.
    pub const CACHE_HITS: &str = "blockstore.cache.hits";
    /// Block-cache lookups that missed.
    pub const CACHE_MISSES: &str = "blockstore.cache.misses";
    /// Blocks evicted to stay under the cache budget.
    pub const CACHE_EVICTIONS: &str = "blockstore.cache.evictions";
    /// Blocks fetched from backing stores on misses.
    pub const CACHE_FETCHED_BLOCKS: &str = "blockstore.cache.fetched_blocks";
    /// Encoded bytes read from backing stores on misses.
    pub const CACHE_FETCHED_BYTES: &str = "blockstore.cache.fetched_bytes";
    /// Nanoseconds spent decoding fetched blocks.
    pub const CACHE_DECODE_NS: &str = "blockstore.cache.decode_ns";
    /// Postings decoded from fetched blocks.
    pub const CACHE_DECODED_POSTINGS: &str = "blockstore.cache.decoded_postings";
    /// Current admission-queue depth (sampled at snapshot time).
    pub const QUEUE_DEPTH: &str = "serve.queue.depth";
    /// Admission-queue capacity.
    pub const QUEUE_CAP: &str = "serve.queue.cap";
    /// High-water mark of the admission queue.
    pub const QUEUE_MAX_DEPTH: &str = "serve.queue.max_depth";
    /// Bytes of decoded index pinned for the daemon's lifetime.
    pub const INDEX_PINNED_BYTES: &str = "serve.index.pinned_bytes";
    /// Block-cache byte budget.
    pub const CACHE_BUDGET_BYTES: &str = "blockstore.cache.budget_bytes";
    /// Decoded bytes currently resident in the block cache.
    pub const CACHE_RESIDENT_BYTES: &str = "blockstore.cache.resident_bytes";
    /// High-water mark of cache residency.
    pub const CACHE_PEAK_RESIDENT_BYTES: &str = "blockstore.cache.peak_resident_bytes";
    /// Sequences per shard, labeled by shard id.
    pub const SHARD_SEQS: &str = "engine.shard.seqs";
    /// Residues per shard, labeled by shard id.
    pub const SHARD_RESIDUES: &str = "engine.shard.residues";
    /// Per-request queue wait, admission to dispatch.
    pub const LATENCY_QUEUE_WAIT: &str = "serve.latency.queue_wait";
    /// Engine time per dispatched batch.
    pub const LATENCY_SEARCH: &str = "serve.latency.search";
    /// Per-request total latency, admission to reply.
    pub const LATENCY_TOTAL: &str = "serve.latency.total";
    /// Per-stage span durations, labeled by pipeline stage.
    pub const LATENCY_STAGE: &str = "serve.latency.stage";
    /// Per-shard scheduler wait, labeled by shard id.
    pub const SHARD_QUEUED_US: &str = "engine.shard.queued_us";
    /// Per-shard search time, labeled by shard id.
    pub const SHARD_SEARCH_US: &str = "engine.shard.search_us";
    /// Dispatched batch sizes (requests per batch).
    pub const BATCH_SIZE: &str = "serve.batch.size";
    /// Requests that asked for top-k pruned reporting.
    pub const TOPK_REQUESTS: &str = "engine.topk.requests";
    /// Index blocks fetched and searched by pruned top-k searches.
    pub const TOPK_BLOCKS_SCANNED: &str = "engine.topk.blocks_scanned";
    /// Index blocks the score bound excused from scanning.
    pub const TOPK_BLOCKS_SKIPPED: &str = "engine.topk.blocks_skipped";
    /// Requests the daemon searched with the striped gapped-extension
    /// kernels (ungapped extension is scalar either way).
    pub const KERNEL_STRIPED_REQUESTS: &str = "engine.kernel.striped_requests";
    /// Requests the daemon searched with the scalar gapped-extension
    /// kernels.
    pub const KERNEL_SCALAR_REQUESTS: &str = "engine.kernel.scalar_requests";
    /// Process-wide total of gapped halves the striped kernel re-ran
    /// scalar after an i16 saturation guard fired (DESIGN.md §3.8);
    /// a monotone gauge mirroring `align::gapped_rescues()`.
    pub const KERNEL_GAPPED_RESCUES: &str = "engine.kernel.gapped_rescues";
}

/// The label values of the `cause` label, in wire order. Matches
/// `engine::ShardFailCause::name()` (pinned by a test in `serve`).
pub const CAUSES: [&str; 3] = ["injected", "deadline", "storage"];

/// The label values of the `trigger` label — why the batcher closed a
/// forming window — in `serve::stats::Trigger` order (pinned by a test
/// there): the dispatcher had been idle a whole window when the request
/// arrived, the window ran out, `max_batch` requests were queued, or a
/// shutdown flushed the queue.
pub const TRIGGERS: [&str; 4] = ["idle", "aged", "full", "drain"];

/// Declare every exported series against a fresh registry: one `def_*`
/// call per [`names`] entry, whose method fixes the series' type, label
/// and bucket layout. The golden exposition test renders the result.
fn declare_all(r: &Registry) {
    r.def_counter_sharded(names::BATCHER_ACCEPTED);
    r.def_counter_sharded(names::BATCHER_REJECTED);
    r.def_counter(names::BATCHER_EXPIRED);
    r.def_counter(names::BATCHER_COMPLETED);
    r.def_counter(names::BATCHER_BATCHES);
    r.def_counter_per_trigger(names::DISPATCHES_BY_TRIGGER);
    r.def_counter(names::BATCHER_DEGRADED);
    r.def_counter(names::SLOW_QUERIES);
    r.def_counter(names::RETRY_ATTEMPTS);
    r.def_counter(names::RETRY_EXHAUSTED);
    r.def_counter(names::EVENTS_LOGGED);
    r.def_counter(names::EVENTS_DROPPED);
    r.def_counter_per_shard(names::SHARD_FAILURES);
    r.def_counter_per_cause(names::SHARD_FAILURES_BY_CAUSE);
    r.def_counter(names::CACHE_HITS);
    r.def_counter(names::CACHE_MISSES);
    r.def_counter(names::CACHE_EVICTIONS);
    r.def_counter(names::CACHE_FETCHED_BLOCKS);
    r.def_counter(names::CACHE_FETCHED_BYTES);
    r.def_counter(names::CACHE_DECODE_NS);
    r.def_counter(names::CACHE_DECODED_POSTINGS);
    r.def_gauge(names::QUEUE_DEPTH);
    r.def_gauge(names::QUEUE_CAP);
    r.def_gauge(names::QUEUE_MAX_DEPTH);
    r.def_gauge(names::INDEX_PINNED_BYTES);
    r.def_gauge(names::CACHE_BUDGET_BYTES);
    r.def_gauge(names::CACHE_RESIDENT_BYTES);
    r.def_gauge(names::CACHE_PEAK_RESIDENT_BYTES);
    r.def_gauge_per_shard(names::SHARD_SEQS);
    r.def_gauge_per_shard(names::SHARD_RESIDUES);
    r.def_hist_log2_us(names::LATENCY_QUEUE_WAIT);
    r.def_hist_log2_us(names::LATENCY_SEARCH);
    r.def_hist_log2_us(names::LATENCY_TOTAL);
    r.def_hist_per_stage(names::LATENCY_STAGE);
    r.def_hist_per_shard(names::SHARD_QUEUED_US);
    r.def_hist_per_shard(names::SHARD_SEARCH_US);
    r.def_hist_linear(names::BATCH_SIZE);
    r.def_counter(names::TOPK_REQUESTS);
    r.def_counter(names::TOPK_BLOCKS_SCANNED);
    r.def_counter(names::TOPK_BLOCKS_SKIPPED);
    r.def_counter(names::KERNEL_STRIPED_REQUESTS);
    r.def_counter(names::KERNEL_SCALAR_REQUESTS);
    r.def_gauge(names::KERNEL_GAPPED_RESCUES);
}

// ---------------------------------------------------------------------
// Atomic cells.
//
// All metric cells are advisory statistics: readers tolerate torn
// multi-cell snapshots, no decision logic depends on cross-cell
// consistency, and no other memory is published through them — Relaxed
// is sufficient for every access below.
// ---------------------------------------------------------------------

fn stat_add(c: &AtomicU64, n: u64) {
    // lint: allow(relaxed-ordering): advisory statistic; see above.
    c.fetch_add(n, Ordering::Relaxed);
}

fn stat_load(c: &AtomicU64) -> u64 {
    // lint: allow(relaxed-ordering): advisory statistic; see above.
    c.load(Ordering::Relaxed)
}

fn stat_store(c: &AtomicU64, v: u64) {
    // lint: allow(relaxed-ordering): advisory statistic; see above.
    c.store(v, Ordering::Relaxed);
}

fn stat_max(c: &AtomicU64, v: u64) {
    // lint: allow(relaxed-ordering): advisory statistic; see above.
    c.fetch_max(v, Ordering::Relaxed);
}

/// Stripe count for contended counters. A power of two so the stripe
/// pick is a mask.
const STRIPES: usize = 8;

/// A striped counter cell: each thread adds to its own stripe, readers
/// sum. Trades 8× the memory for no cross-thread cache-line ping-pong on
/// the admission path.
#[derive(Debug)]
pub(crate) struct Stripes {
    cells: Vec<AtomicU64>,
}

impl Stripes {
    fn new() -> Stripes {
        Stripes { cells: (0..STRIPES).map(|_| AtomicU64::new(0)).collect() }
    }

    fn add(&self, n: u64) {
        stat_add(&self.cells[stripe_id() & (STRIPES - 1)], n);
    }

    fn sum(&self) -> u64 {
        self.cells.iter().map(stat_load).fold(0, u64::saturating_add)
    }
}

/// The calling thread's stripe index, assigned round-robin on first use.
fn stripe_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            // lint: allow(relaxed-ordering): round-robin stripe assignment
            // only needs distinct-ish values, not ordering.
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            s.set(v);
        }
        v
    })
}

/// Log2 histogram bucket count (one per power of two of microseconds).
const LOG2_BUCKETS: usize = 64;
/// Linear histogram bucket count (sizes 1..=63, then one bucket for
/// every size ≥ 64).
const LINEAR_BUCKETS: usize = 64;

/// Shared histogram cell: bucket counts plus count/sum/max.
#[derive(Debug)]
pub(crate) struct HistCell {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCell {
    fn new(n_buckets: usize) -> HistCell {
        HistCell {
            buckets: (0..n_buckets).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one log2-bucketed microsecond value: 0 µs lands in bucket
    /// 0; otherwise value v lands in bucket floor(log2 v) + 1, i.e.
    /// bucket i holds [2^(i-1), 2^i), except that the last bucket also
    /// holds every value ≥ 2^63. Same math as the service's original
    /// `LatencyRecorder`.
    fn record_us(&self, us: u64) {
        let bucket = (64 - us.leading_zeros()).min(63) as usize;
        stat_add(&self.buckets[bucket], 1);
        stat_add(&self.count, 1);
        stat_add(&self.sum, us);
        stat_max(&self.max, us);
    }

    /// Record one linear-bucketed size: size s ≥ 1 lands in bucket
    /// s − 1, clamped to the last bucket. Zero sizes are ignored.
    fn record_size(&self, size: u64) {
        if size == 0 {
            return;
        }
        let bucket = ((size - 1) as usize).min(self.buckets.len() - 1);
        stat_add(&self.buckets[bucket], 1);
        stat_add(&self.count, 1);
        stat_add(&self.sum, size);
        stat_max(&self.max, size);
    }

    /// The upper edge (in the recorded unit) of the log2 bucket holding
    /// the `p`-quantile sample, capped at the observed maximum. Zero
    /// when empty.
    fn percentile(&self, p: f64) -> u64 {
        let count = stat_load(&self.count);
        if count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((count as f64 * p).ceil() as u64).clamp(1, count);
        let max = stat_load(&self.max);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(stat_load(b));
            if seen >= rank {
                // Bucket i holds values in [2^(i-1), 2^i); report the
                // edge, but never more than the largest sample.
                return if i == 0 { 0 } else { (1u64 << i).min(max) };
            }
        }
        max
    }

    fn summary(&self) -> HistSummary {
        HistSummary {
            count: stat_load(&self.count),
            p50_us: self.percentile(0.50),
            p99_us: self.percentile(0.99),
            max_us: stat_load(&self.max),
        }
    }

    fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(stat_load).collect()
    }
}

/// Digest of one histogram, in the same shape the wire stats frame
/// reports (`serve` maps it onto its `LatencySummary`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Upper edge of the median bucket, ≤ the observed maximum.
    pub p50_us: u64,
    /// Upper edge of the p99 bucket, ≤ the observed maximum.
    pub p99_us: u64,
    /// Largest sample observed.
    pub max_us: u64,
}

// ---------------------------------------------------------------------
// Handles.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum CounterCell {
    Plain(Arc<AtomicU64>),
    Striped(Arc<Stripes>),
}

/// A monotonic counter handle. Disabled (or unresolved) handles carry no
/// cell; `add` is then a single branch.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<CounterCell>,
}

impl Counter {
    /// A handle that counts nothing (the disabled path).
    pub(crate) fn disabled() -> Counter {
        Counter { cell: None }
    }

    /// Add `n`. Inlined so the disabled path is a branch at the call
    /// site, not a cross-crate call (rlib builds have no LTO).
    #[inline]
    pub fn add(&self, n: u64) {
        match &self.cell {
            Some(CounterCell::Plain(c)) => stat_add(c, n),
            Some(CounterCell::Striped(s)) => s.add(n),
            None => {}
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (stripes summed). Zero for disabled handles.
    pub fn value(&self) -> u64 {
        match &self.cell {
            Some(CounterCell::Plain(c)) => stat_load(c),
            Some(CounterCell::Striped(s)) => s.sum(),
            None => 0,
        }
    }
}

/// A gauge handle: last-write-wins value with a `set_max` variant for
/// high-water marks.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A handle that records nothing.
    pub(crate) fn disabled() -> Gauge {
        Gauge { cell: None }
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(c) = &self.cell {
            stat_store(c, v);
        }
    }

    /// Raise the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        if let Some(c) = &self.cell {
            stat_max(c, v);
        }
    }

    /// Current value. Zero for disabled handles.
    pub fn value(&self) -> u64 {
        self.cell.as_deref().map_or(0, stat_load)
    }
}

/// A log2-bucketed latency histogram handle.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cell: Option<Arc<HistCell>>,
}

impl Histogram {
    /// A handle that records nothing.
    pub(crate) fn disabled() -> Histogram {
        Histogram { cell: None }
    }

    /// Record one duration. Sub-microsecond (including zero) durations
    /// land in bucket 0, whose upper edge is 0 µs.
    #[inline]
    pub fn record(&self, d: Duration) {
        if let Some(c) = &self.cell {
            c.record_us(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        }
    }

    /// Record a raw microsecond value.
    #[inline]
    pub fn record_us(&self, us: u64) {
        if let Some(c) = &self.cell {
            c.record_us(us);
        }
    }

    /// Digest (count / p50 / p99 / max). All-zero for disabled handles.
    pub fn summary(&self) -> HistSummary {
        self.cell.as_deref().map(HistCell::summary).unwrap_or_default()
    }
}

/// A linear-bucketed size histogram handle (batch sizes).
#[derive(Clone, Debug, Default)]
pub struct SizeHistogram {
    cell: Option<Arc<HistCell>>,
}

impl SizeHistogram {
    /// A handle that records nothing.
    pub(crate) fn disabled() -> SizeHistogram {
        SizeHistogram { cell: None }
    }

    /// Record one size (sizes of zero are ignored).
    #[inline]
    pub fn record(&self, size: usize) {
        if let Some(c) = &self.cell {
            c.record_size(size as u64);
        }
    }

    /// Per-size counts, trimmed of trailing zeros: index i holds the
    /// count of size i + 1, except that the last index (63) holds every
    /// size ≥ 64 (the shape the wire stats frame reports).
    pub fn counts(&self) -> Vec<u64> {
        let Some(c) = &self.cell else { return Vec::new() };
        let mut counts = c.bucket_counts();
        while counts.last() == Some(&0) {
            counts.pop();
        }
        counts
    }
}

// ---------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------

/// Series kind, as rendered and as fingerprinted into the schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    HistLog2Us,
    HistLinear,
}

#[derive(Debug)]
enum Cell {
    Num(Arc<AtomicU64>),
    Striped(Arc<Stripes>),
    Hist(Arc<HistCell>),
}

impl Cell {
    fn for_kind(kind: Kind) -> Cell {
        match kind {
            Kind::Counter | Kind::Gauge => Cell::Num(Arc::new(AtomicU64::new(0))),
            Kind::HistLog2Us => Cell::Hist(Arc::new(HistCell::new(LOG2_BUCKETS))),
            Kind::HistLinear => Cell::Hist(Arc::new(HistCell::new(LINEAR_BUCKETS))),
        }
    }

    fn value(&self) -> u64 {
        match self {
            Cell::Num(c) => stat_load(c),
            Cell::Striped(s) => s.sum(),
            Cell::Hist(h) => stat_load(&h.count),
        }
    }
}

#[derive(Debug)]
struct Series {
    kind: Kind,
    /// `Some(label_name)` for labeled series; cells are `(label_value,
    /// cell)` in registration order. Unlabeled series hold one cell
    /// under the empty label value.
    label: Option<&'static str>,
    cells: Vec<(String, Cell)>,
}

/// The metrics registry: every exported series, declared once, updated
/// through lock-free handles, read by the stats frame, the Prometheus
/// endpoint, and the event log alike. Cloning shares the underlying
/// cells.
#[derive(Clone, Debug)]
pub struct Registry {
    enabled: bool,
    inner: Arc<Mutex<BTreeMap<&'static str, Series>>>,
}

impl Registry {
    /// Build a registry with every series from `declare_all`
    /// pre-declared. A disabled registry still knows its series (renders
    /// as all-zero) but resolves every handle to the no-op path.
    pub fn new(enabled: bool) -> Registry {
        let r = Registry { enabled, inner: Arc::new(Mutex::new(BTreeMap::new())) };
        declare_all(&r);
        r
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<&'static str, Series>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    // -- declaration (called from `declare_all` only) -----------------

    /// Add one series. A name declared twice is a programming error: the
    /// second declaration would silently drop the first one's cells.
    fn insert(&self, name: &'static str, series: Series) {
        let mut m = self.lock();
        assert!(
            !m.contains_key(name),
            "metrics series `{name}` declared twice"
        );
        m.insert(name, series);
    }

    fn def(&self, name: &'static str, kind: Kind, label: Option<&'static str>) {
        let cells = match label {
            None => vec![(String::new(), Cell::for_kind(kind))],
            Some("cause") => {
                CAUSES.iter().map(|c| (c.to_string(), Cell::for_kind(kind))).collect()
            }
            Some("trigger") => {
                TRIGGERS.iter().map(|t| (t.to_string(), Cell::for_kind(kind))).collect()
            }
            Some("stage") => Stage::ALL
                .iter()
                .map(|s| (s.name().to_string(), Cell::for_kind(kind)))
                .collect(),
            // Shard labels register dynamically (`*_for_shard`).
            Some(_) => Vec::new(),
        };
        self.insert(name, Series { kind, label, cells });
    }

    /// Declare an unlabeled monotonic counter.
    fn def_counter(&self, name: &'static str) {
        self.def(name, Kind::Counter, None);
    }

    /// Declare a contended counter with per-worker striping.
    fn def_counter_sharded(&self, name: &'static str) {
        self.insert(
            name,
            Series {
                kind: Kind::Counter,
                label: None,
                cells: vec![(String::new(), Cell::Striped(Arc::new(Stripes::new())))],
            },
        );
    }

    /// Declare a counter labeled by shard id (cells appear as shards
    /// register).
    fn def_counter_per_shard(&self, name: &'static str) {
        self.def(name, Kind::Counter, Some("shard"));
    }

    /// Declare a counter labeled by failure cause (one cell per
    /// [`CAUSES`] entry).
    fn def_counter_per_cause(&self, name: &'static str) {
        self.def(name, Kind::Counter, Some("cause"));
    }

    /// Declare a counter labeled by dispatch trigger (one cell per
    /// [`TRIGGERS`] entry).
    fn def_counter_per_trigger(&self, name: &'static str) {
        self.def(name, Kind::Counter, Some("trigger"));
    }

    /// Declare an unlabeled gauge.
    fn def_gauge(&self, name: &'static str) {
        self.def(name, Kind::Gauge, None);
    }

    /// Declare a gauge labeled by shard id.
    fn def_gauge_per_shard(&self, name: &'static str) {
        self.def(name, Kind::Gauge, Some("shard"));
    }

    /// Declare an unlabeled log2-µs latency histogram.
    fn def_hist_log2_us(&self, name: &'static str) {
        self.def(name, Kind::HistLog2Us, None);
    }

    /// Declare a log2-µs histogram labeled by pipeline stage.
    fn def_hist_per_stage(&self, name: &'static str) {
        self.def(name, Kind::HistLog2Us, Some("stage"));
    }

    /// Declare a log2-µs histogram labeled by shard id.
    fn def_hist_per_shard(&self, name: &'static str) {
        self.def(name, Kind::HistLog2Us, Some("shard"));
    }

    /// Declare a linear size histogram.
    fn def_hist_linear(&self, name: &'static str) {
        self.def(name, Kind::HistLinear, None);
    }

    // -- resolution (cold path; handles are then lock-free) ------------

    fn find_cell(&self, name: &str, value: &str) -> Option<CellRef> {
        if !self.enabled {
            return None;
        }
        let m = self.lock();
        let s = m.get(name);
        debug_assert!(s.is_some(), "metrics series `{name}` is not declared");
        let (_, cell) = s?.cells.iter().find(|(v, _)| v == value)?;
        Some(match cell {
            Cell::Num(c) => CellRef::Num(Arc::clone(c)),
            Cell::Striped(st) => CellRef::Striped(Arc::clone(st)),
            Cell::Hist(h) => CellRef::Hist(Arc::clone(h)),
        })
    }

    /// Create-or-find the cell for one shard-label value. Returns `None`
    /// when the series is not shard-labeled or the registry is disabled;
    /// an undeclared series also fails a debug assertion.
    fn shard_cell(&self, name: &str, shard: usize) -> Option<CellRef> {
        if !self.enabled {
            return None;
        }
        let mut m = self.lock();
        let s = m.get_mut(name);
        debug_assert!(s.is_some(), "metrics series `{name}` is not declared");
        let s = s?;
        if s.label != Some("shard") {
            return None;
        }
        let value = shard.to_string();
        if !s.cells.iter().any(|(v, _)| *v == value) {
            s.cells.push((value.clone(), Cell::for_kind(s.kind)));
            s.cells.sort_by_key(|(v, _)| v.parse::<u64>().unwrap_or(u64::MAX));
        }
        let (_, cell) = s.cells.iter().find(|(v, _)| *v == value)?;
        Some(match cell {
            Cell::Num(c) => CellRef::Num(Arc::clone(c)),
            Cell::Striped(st) => CellRef::Striped(Arc::clone(st)),
            Cell::Hist(h) => CellRef::Hist(Arc::clone(h)),
        })
    }

    /// Resolve an unlabeled counter handle.
    pub fn counter(&self, name: &str) -> Counter {
        match self.find_cell(name, "") {
            Some(CellRef::Num(c)) => Counter { cell: Some(CounterCell::Plain(c)) },
            Some(CellRef::Striped(s)) => Counter { cell: Some(CounterCell::Striped(s)) },
            _ => Counter::disabled(),
        }
    }

    /// Resolve a cause-labeled counter handle.
    pub fn counter_for_cause(&self, name: &str, cause: &str) -> Counter {
        match self.find_cell(name, cause) {
            Some(CellRef::Num(c)) => Counter { cell: Some(CounterCell::Plain(c)) },
            _ => Counter::disabled(),
        }
    }

    /// Resolve a trigger-labeled counter handle.
    pub fn counter_for_trigger(&self, name: &str, trigger: &str) -> Counter {
        match self.find_cell(name, trigger) {
            Some(CellRef::Num(c)) => Counter { cell: Some(CounterCell::Plain(c)) },
            _ => Counter::disabled(),
        }
    }

    /// Resolve (registering on first use) a shard-labeled counter handle.
    pub fn counter_for_shard(&self, name: &str, shard: usize) -> Counter {
        match self.shard_cell(name, shard) {
            Some(CellRef::Num(c)) => Counter { cell: Some(CounterCell::Plain(c)) },
            _ => Counter::disabled(),
        }
    }

    /// Resolve an unlabeled gauge handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.find_cell(name, "") {
            Some(CellRef::Num(c)) => Gauge { cell: Some(c) },
            _ => Gauge::disabled(),
        }
    }

    /// Resolve (registering on first use) a shard-labeled gauge handle.
    pub fn gauge_for_shard(&self, name: &str, shard: usize) -> Gauge {
        match self.shard_cell(name, shard) {
            Some(CellRef::Num(c)) => Gauge { cell: Some(c) },
            _ => Gauge::disabled(),
        }
    }

    /// Resolve an unlabeled latency histogram handle.
    pub fn hist(&self, name: &str) -> Histogram {
        match self.find_cell(name, "") {
            Some(CellRef::Hist(h)) => Histogram { cell: Some(h) },
            _ => Histogram::disabled(),
        }
    }

    /// Resolve a stage-labeled latency histogram handle.
    pub fn hist_for_stage(&self, name: &str, stage: Stage) -> Histogram {
        match self.find_cell(name, stage.name()) {
            Some(CellRef::Hist(h)) => Histogram { cell: Some(h) },
            _ => Histogram::disabled(),
        }
    }

    /// Resolve (registering on first use) a shard-labeled histogram
    /// handle.
    pub fn hist_for_shard(&self, name: &str, shard: usize) -> Histogram {
        match self.shard_cell(name, shard) {
            Some(CellRef::Hist(h)) => Histogram { cell: Some(h) },
            _ => Histogram::disabled(),
        }
    }

    /// Resolve a linear size-histogram handle.
    pub fn size_hist(&self, name: &str) -> SizeHistogram {
        match self.find_cell(name, "") {
            Some(CellRef::Hist(h)) => SizeHistogram { cell: Some(h) },
            _ => SizeHistogram::disabled(),
        }
    }

    // -- binding (external owners share their cells) -------------------

    /// Replace an unlabeled counter's cell with `cell`, so a subsystem
    /// that already counts into its own atomic (the block cache) exports
    /// that very cell instead of double-counting. No-op on disabled
    /// registries or unknown series.
    pub fn bind_counter(&self, name: &str, cell: Arc<AtomicU64>) {
        self.bind(name, cell);
    }

    /// Replace an unlabeled gauge's cell with `cell` (see
    /// [`Registry::bind_counter`]).
    pub fn bind_gauge(&self, name: &str, cell: Arc<AtomicU64>) {
        self.bind(name, cell);
    }

    fn bind(&self, name: &str, cell: Arc<AtomicU64>) {
        if !self.enabled {
            return;
        }
        let mut m = self.lock();
        if let Some(s) = m.get_mut(name) {
            if s.label.is_none() && matches!(s.kind, Kind::Counter | Kind::Gauge) {
                s.cells = vec![(String::new(), Cell::Num(cell))];
            }
        }
    }

    // -- reading -------------------------------------------------------

    /// Current value of an unlabeled counter or gauge (zero if unknown).
    pub fn value(&self, name: &str) -> u64 {
        self.value_for(name, "")
    }

    /// Current value of one labeled counter/gauge cell (zero if absent).
    pub fn value_for(&self, name: &str, label_value: &str) -> u64 {
        let m = self.lock();
        m.get(name)
            .and_then(|s| s.cells.iter().find(|(v, _)| v == label_value))
            .map_or(0, |(_, c)| c.value())
    }

    /// Every declared series name, in render order.
    #[cfg(test)]
    fn series_names(&self) -> Vec<&'static str> {
        self.lock().keys().copied().collect()
    }

    /// Render the whole registry in Prometheus text exposition format
    /// (version 0.0.4). Dots in series names become underscores;
    /// histograms render cumulative `_bucket{le=...}` rows (µs upper
    /// edges for log2 series, sizes for linear ones) up to the last
    /// non-empty finite bucket, then `le="+Inf"`, `_sum` and `_count`.
    /// Each layout's top bucket is open-ended, so it has no finite row.
    pub fn render_prometheus(&self) -> String {
        let m = self.lock();
        let mut out = String::new();
        for (name, s) in m.iter() {
            let flat = name.replace('.', "_");
            match s.kind {
                Kind::Counter | Kind::Gauge => {
                    let t = if s.kind == Kind::Counter { "counter" } else { "gauge" };
                    let _ = writeln!(out, "# TYPE {flat} {t}");
                    for (value, cell) in &s.cells {
                        match (s.label, value.as_str()) {
                            (Some(l), v) => {
                                let _ = writeln!(out, "{flat}{{{l}=\"{v}\"}} {}", cell.value());
                            }
                            (None, _) => {
                                let _ = writeln!(out, "{flat} {}", cell.value());
                            }
                        }
                    }
                }
                Kind::HistLog2Us | Kind::HistLinear => {
                    let _ = writeln!(out, "# TYPE {flat} histogram");
                    for (value, cell) in &s.cells {
                        let Cell::Hist(h) = cell else { continue };
                        let pre = match (s.label, value.as_str()) {
                            (Some(l), v) => format!("{l}=\"{v}\","),
                            (None, _) => String::new(),
                        };
                        // The last bucket is open-ended (it takes every
                        // clamped sample), so only `+Inf` may count it.
                        let counts = h.bucket_counts();
                        let finite = &counts[..counts.len() - 1];
                        let last = finite.iter().rposition(|&n| n > 0);
                        let mut cum = 0u64;
                        for (i, &n) in finite.iter().enumerate() {
                            if Some(i) > last {
                                break;
                            }
                            cum = cum.saturating_add(n);
                            let le = match s.kind {
                                // Bucket i of the log2 layout holds
                                // [2^(i-1), 2^i): everything ≤ 2^i − 1.
                                Kind::HistLog2Us => {
                                    if i == 0 {
                                        0
                                    } else {
                                        (1u64 << i) - 1
                                    }
                                }
                                _ => (i + 1) as u64,
                            };
                            let _ =
                                writeln!(out, "{flat}_bucket{{{pre}le=\"{le}\"}} {cum}");
                        }
                        let count = stat_load(&h.count);
                        let _ =
                            writeln!(out, "{flat}_bucket{{{pre}le=\"+Inf\"}} {count}");
                        match (s.label, value.as_str()) {
                            (Some(l), v) => {
                                let _ = writeln!(
                                    out,
                                    "{flat}_sum{{{l}=\"{v}\"}} {}",
                                    stat_load(&h.sum)
                                );
                                let _ =
                                    writeln!(out, "{flat}_count{{{l}=\"{v}\"}} {count}");
                            }
                            (None, _) => {
                                let _ = writeln!(out, "{flat}_sum {}", stat_load(&h.sum));
                                let _ = writeln!(out, "{flat}_count {count}");
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

enum CellRef {
    Num(Arc<AtomicU64>),
    Striped(Arc<Stripes>),
    Hist(Arc<HistCell>),
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(h: &Histogram, us: u64) {
        h.record(Duration::from_micros(us));
    }

    #[test]
    fn percentiles_bracket_the_samples() {
        let r = Registry::new(true);
        let h = r.hist(names::LATENCY_TOTAL);
        for us in [10u64, 20, 30, 40, 50, 1000] {
            rec(&h, us);
        }
        let s = h.summary();
        assert!((16..=64).contains(&s.p50_us), "p50={}", s.p50_us);
        assert!(s.p99_us >= 1000, "p99={}", s.p99_us);
        assert!(s.p50_us <= s.p99_us);
        assert_eq!(s.count, 6);
        assert_eq!(s.max_us, 1000);
    }

    #[test]
    fn empty_and_zero_duration_histograms() {
        let r = Registry::new(true);
        let h = r.hist(names::LATENCY_SEARCH);
        assert_eq!(h.summary(), HistSummary::default());
        h.record(Duration::ZERO);
        h.record(Duration::from_nanos(500)); // sub-µs truncates to 0 µs
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.max_us, 0);
    }

    /// Exhaustive power-of-two boundaries, ported from the original
    /// `LatencyRecorder` tests: the reported percentile brackets the
    /// sample without exceeding it.
    #[test]
    fn power_of_two_boundaries_bucket_and_bound_correctly() {
        for k in 1..=40u32 {
            let edge = 1u64 << k;
            for us in [edge - 1, edge, edge + 1] {
                let r = Registry::new(true);
                let h = r.hist(names::LATENCY_TOTAL);
                rec(&h, us);
                let s = h.summary();
                assert_eq!(s.p50_us, s.p99_us, "us={us}");
                assert!(s.p99_us <= us, "us={us}: p99={} exceeds the sample", s.p99_us);
                assert!(s.p99_us * 2 > us, "us={us}: p99={} is over 2x low", s.p99_us);
            }
        }
    }

    #[test]
    fn percentile_never_exceeds_max_even_mid_bucket() {
        // 1000 µs lands in [512, 1024) whose raw edge, 1024, exceeds the
        // sample — the cap must bring it back to 1000.
        let r = Registry::new(true);
        let h = r.hist(names::LATENCY_TOTAL);
        rec(&h, 1000);
        assert_eq!(h.summary().p99_us, 1000);
    }

    #[test]
    fn disabled_registry_resolves_no_op_handles() {
        let r = Registry::new(false);
        let c = r.counter(names::BATCHER_EXPIRED);
        let h = r.hist(names::LATENCY_TOTAL);
        c.add(5);
        rec(&h, 10);
        assert_eq!(c.value(), 0);
        assert_eq!(r.value(names::BATCHER_EXPIRED), 0);
        assert_eq!(h.summary().count, 0);
    }

    #[test]
    fn striped_counters_sum_across_threads() {
        let r = Registry::new(true);
        let c = r.counter(names::BATCHER_ACCEPTED);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc();
                }
            }));
        }
        for t in handles {
            t.join().unwrap_or_else(|_| panic!("worker panicked"));
        }
        assert_eq!(c.value(), 4000);
        assert_eq!(r.value(names::BATCHER_ACCEPTED), 4000);
    }

    #[test]
    fn cause_and_shard_labels_register_and_read_back() {
        let r = Registry::new(true);
        r.counter_for_cause(names::SHARD_FAILURES_BY_CAUSE, "storage").add(3);
        r.counter_for_shard(names::SHARD_FAILURES, 2).inc();
        r.counter_for_shard(names::SHARD_FAILURES, 0).add(2);
        assert_eq!(r.value_for(names::SHARD_FAILURES_BY_CAUSE, "storage"), 3);
        assert_eq!(r.value_for(names::SHARD_FAILURES_BY_CAUSE, "injected"), 0);
        assert_eq!(r.value_for(names::SHARD_FAILURES, "2"), 1);
        assert_eq!(r.value_for(names::SHARD_FAILURES, "0"), 2);
        // Shard cells render in shard order.
        let text = r.render_prometheus();
        let row = |shard: &str, v: u64| {
            text.find(&format!("engine_shard_failures{{shard=\"{shard}\"}} {v}\n"))
        };
        assert!(row("0", 2).unwrap() < row("2", 1).unwrap());
        // An unknown cause resolves disabled, not a panic.
        let bogus = r.counter_for_cause(names::SHARD_FAILURES_BY_CAUSE, "gremlins");
        bogus.inc();
        assert_eq!(bogus.value(), 0);
    }

    #[test]
    fn linear_histogram_reports_trimmed_counts() {
        let r = Registry::new(true);
        let h = r.size_hist(names::BATCH_SIZE);
        assert!(h.counts().is_empty());
        h.record(1);
        h.record(3);
        h.record(3);
        h.record(0); // ignored
        assert_eq!(h.counts(), vec![1, 0, 2]);
        // Oversized batches clamp into the last bucket.
        h.record(LINEAR_BUCKETS + 100);
        assert_eq!(h.counts().len(), LINEAR_BUCKETS);
    }

    #[test]
    fn top_buckets_count_only_under_inf() {
        let r = Registry::new(true);
        let sizes = r.size_hist(names::BATCH_SIZE);
        sizes.record(2);
        sizes.record(100); // clamped into the open-ended last bucket
        let h = r.hist(names::LATENCY_TOTAL);
        h.record_us(3);
        h.record_us(u64::MAX);
        let text = r.render_prometheus();
        for flat in ["serve_batch_size", "serve_latency_total"] {
            let rows: Vec<(&str, u64)> = text
                .lines()
                .filter_map(|l| l.strip_prefix(flat)?.strip_prefix("_bucket{le=\""))
                .filter_map(|l| {
                    let (le, n) = l.split_once("\"} ")?;
                    Some((le, n.parse().ok()?))
                })
                .collect();
            assert!(rows.contains(&("+Inf", 2)), "{flat}: {rows:?}");
            for (le, n) in rows.iter().filter(|(le, _)| *le != "+Inf") {
                assert!(*n <= 1, "{flat}: le=\"{le}\" counts a sample above it");
            }
        }
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn a_second_declaration_panics() {
        Registry::new(true).def_counter(names::BATCHER_EXPIRED);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not declared")]
    fn resolving_an_undeclared_name_panics_in_debug() {
        let _ = Registry::new(true).counter("serve.batcher.expird");
    }

    #[test]
    fn bound_cells_read_through_to_their_owner() {
        let r = Registry::new(true);
        let owned = Arc::new(AtomicU64::new(0));
        r.bind_counter(names::CACHE_HITS, Arc::clone(&owned));
        stat_add(&owned, 7);
        assert_eq!(r.value(names::CACHE_HITS), 7);
        // The handle resolved after binding shares the same cell.
        r.counter(names::CACHE_HITS).add(2);
        assert_eq!(stat_load(&owned), 9);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let r = Registry::new(true);
        r.counter(names::BATCHER_EXPIRED).add(2);
        r.counter_for_cause(names::SHARD_FAILURES_BY_CAUSE, "deadline").inc();
        r.gauge(names::QUEUE_CAP).set(64);
        let h = r.hist(names::LATENCY_TOTAL);
        rec(&h, 3);
        rec(&h, 900);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE serve_batcher_expired counter"));
        assert!(text.contains("serve_batcher_expired 2"));
        assert!(text.contains("engine_shard_failures_by_cause{cause=\"deadline\"} 1"));
        assert!(text.contains("engine_shard_failures_by_cause{cause=\"injected\"} 0"));
        assert!(text.contains("serve_queue_cap 64"));
        assert!(text.contains("# TYPE serve_latency_total histogram"));
        // 3 µs lands in [2,4): cumulative le="3" row counts it.
        assert!(text.contains("serve_latency_total_bucket{le=\"3\"} 1"));
        assert!(text.contains("serve_latency_total_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("serve_latency_total_sum 903"));
        assert!(text.contains("serve_latency_total_count 2"));
        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .split_once(' ')
                        .is_some_and(|(n, v)| !n.is_empty() && v.parse::<f64>().is_ok()),
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn high_water_gauges_only_rise() {
        let r = Registry::new(true);
        let g = r.gauge(names::QUEUE_MAX_DEPTH);
        g.set_max(3);
        g.set_max(1);
        assert_eq!(g.value(), 3);
        g.set_max(9);
        assert_eq!(r.value(names::QUEUE_MAX_DEPTH), 9);
    }

    #[test]
    fn every_declared_series_renders() {
        let r = Registry::new(true);
        let text = r.render_prometheus();
        for name in r.series_names() {
            let flat = name.replace('.', "_");
            assert!(
                text.contains(&format!("# TYPE {flat} ")),
                "series {name} missing from exposition"
            );
        }
    }
}
