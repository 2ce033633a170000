//! LRU cache over decoded index blocks.
//!
//! The fetch unit of the block store is a whole [`IndexBlock`] record; the
//! cache holds *decoded* blocks (ready to search) under a byte budget, so
//! out-of-core search touches the disk once per block per working-set
//! turnover instead of once per block per query batch. Accounting uses
//! [`IndexBlock::memory_bytes`] — the same figure the store's footer
//! directory records as `decoded_bytes` — so a budget can be chosen from
//! the directory alone, before anything is decoded.
//!
//! Eviction is strict LRU and nothing else. LRU alone serves a repeated
//! ascending scan of more blocks than fit *nothing* — each block is the
//! least recently used just before its turn comes round — so the engine's
//! exhaustive scan asks `BlockCache::contains` (a pure observation: no
//! counter, no recency refresh) and visits resident blocks first; the
//! policy stays simple and the visit order does the work.
//!
//! One cache is shared by all open stores (each store registers for an id
//! namespace), which is exactly the serving-box scenario: many shards,
//! one memory budget. All counters live in [`CacheCounters`] and are
//! plain atomics, so the serve stats frame and the bench harness read
//! them without touching the cache lock.

use dbindex::IndexBlock;
use obsv::Lock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// Every counter access funnels through these four helpers. The counters
// are advisory statistics — readers tolerate torn multi-field snapshots
// — and the one value a decision is based on (`resident_bytes`, read by
// the eviction loop) is only ever written while the cache mutex is
// held, so the mutex provides all the ordering that matters.

fn stat_load(c: &AtomicU64) -> u64 {
    // relaxed: advisory statistic; see above.
    c.load(Ordering::Relaxed)
}

/// Returns the post-add value (for peak tracking).
fn stat_add(c: &AtomicU64, n: u64) -> u64 {
    // relaxed: advisory statistic; see above.
    c.fetch_add(n, Ordering::Relaxed) + n
}

fn stat_sub(c: &AtomicU64, n: u64) {
    // relaxed: advisory statistic; see above.
    c.fetch_sub(n, Ordering::Relaxed);
}

fn stat_max(c: &AtomicU64, n: u64) {
    // relaxed: advisory statistic; see above.
    c.fetch_max(n, Ordering::Relaxed);
}

/// Monotonic counters describing cache and fetch-path behaviour. All
/// updates are `Relaxed`: these are statistics, not synchronization.
///
/// Each cell is individually `Arc`-shared so [`BlockCache::bind_metrics`]
/// can hand the *same* atomics to an [`obsv::metrics::Registry`] — the
/// Prometheus endpoint and the wire stats frame then read live cache
/// counters with no copying or double counting.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    evictions: Arc<AtomicU64>,
    resident_bytes: Arc<AtomicU64>,
    peak_resident_bytes: Arc<AtomicU64>,
    fetched_blocks: Arc<AtomicU64>,
    fetched_bytes: Arc<AtomicU64>,
    decode_ns: Arc<AtomicU64>,
    decoded_postings: Arc<AtomicU64>,
}

/// A point-in-time copy of `CacheCounters`, for stats frames and bench
/// reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to fetch and decode.
    pub misses: u64,
    /// Blocks evicted to stay under the byte budget.
    pub evictions: u64,
    /// Decoded bytes currently resident.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub peak_resident_bytes: u64,
    /// Block records fetched from storage (equals `misses` unless a
    /// fetch failed before insertion).
    pub fetched_blocks: u64,
    /// Serialized bytes fetched from storage.
    pub fetched_bytes: u64,
    /// Wall-clock nanoseconds spent decoding fetched records.
    pub decode_ns: u64,
    /// Postings decoded across all fetched records.
    pub decoded_postings: u64,
}

impl CounterSnapshot {
    /// Mean decode cost per posting in nanoseconds (0.0 before any
    /// decode).
    pub fn decode_ns_per_posting(&self) -> f64 {
        if self.decoded_postings == 0 {
            0.0
        } else {
            // Statistics; precision loss above 2^52 postings is
            // irrelevant to a mean.
            self.decode_ns as f64 / self.decoded_postings as f64
        }
    }
}

impl CacheCounters {
    /// Copy every counter (each read individually; the snapshot is not
    /// atomic across fields, which statistics readers tolerate).
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            hits: stat_load(&self.hits),
            misses: stat_load(&self.misses),
            evictions: stat_load(&self.evictions),
            resident_bytes: stat_load(&self.resident_bytes),
            peak_resident_bytes: stat_load(&self.peak_resident_bytes),
            fetched_blocks: stat_load(&self.fetched_blocks),
            fetched_bytes: stat_load(&self.fetched_bytes),
            decode_ns: stat_load(&self.decode_ns),
            decoded_postings: stat_load(&self.decoded_postings),
        }
    }

    pub(crate) fn record_fetch(&self, bytes: u64, decode_ns: u64, postings: u64) {
        stat_add(&self.fetched_blocks, 1);
        stat_add(&self.fetched_bytes, bytes);
        stat_add(&self.decode_ns, decode_ns);
        stat_add(&self.decoded_postings, postings);
    }
}

struct Entry {
    block: Arc<IndexBlock>,
    bytes: u64,
    last_used: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    /// Logical clock for LRU recency (bumped on every touch).
    tick: u64,
    next_store: u32,
}

/// An LRU cache of decoded [`IndexBlock`]s under a byte budget, shared
/// across stores.
///
/// Keys are `(store id, block id)`; store ids come from
/// [`BlockCache::register_store`] so independent shard stores sharing one
/// cache can never collide. Eviction is strict LRU by last touch and
/// makes room *before* an insert is charged, so `resident_bytes` (and its
/// peak) stays within the budget — with one documented exception: a
/// single block larger than the whole budget is still cached (the search
/// cannot proceed without it resident), and the peak then records the
/// true overshoot rather than hiding it.
pub struct BlockCache {
    budget: u64,
    counters: CacheCounters,
    inner: Lock<Inner>,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("budget_bytes", &self.budget)
            .field("resident_blocks", &self.len())
            .finish_non_exhaustive()
    }
}

impl BlockCache {
    /// A cache that will keep at most `budget_bytes` of decoded blocks.
    pub fn new(budget_bytes: u64) -> BlockCache {
        BlockCache {
            budget: budget_bytes,
            counters: CacheCounters::default(),
            inner: Lock::new(Inner { map: HashMap::new(), tick: 0, next_store: 0 }),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// The live counters (share via the owning `Arc`).
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Export this cache's counters through a metrics registry: the
    /// registry's `blockstore.cache.*` series are re-bound onto the very
    /// atomics the cache updates, so every scrape reads live values. The
    /// fixed byte budget is published as a gauge. Call once, when the
    /// cache is installed into the serving stack.
    pub fn bind_metrics(&self, reg: &obsv::Registry) {
        use obsv::metrics::names;
        let c = &self.counters;
        reg.bind_counter(names::CACHE_HITS, Arc::clone(&c.hits));
        reg.bind_counter(names::CACHE_MISSES, Arc::clone(&c.misses));
        reg.bind_counter(names::CACHE_EVICTIONS, Arc::clone(&c.evictions));
        reg.bind_counter(names::CACHE_FETCHED_BLOCKS, Arc::clone(&c.fetched_blocks));
        reg.bind_counter(names::CACHE_FETCHED_BYTES, Arc::clone(&c.fetched_bytes));
        reg.bind_counter(names::CACHE_DECODE_NS, Arc::clone(&c.decode_ns));
        reg.bind_counter(names::CACHE_DECODED_POSTINGS, Arc::clone(&c.decoded_postings));
        reg.bind_gauge(names::CACHE_RESIDENT_BYTES, Arc::clone(&c.resident_bytes));
        reg.bind_gauge(names::CACHE_PEAK_RESIDENT_BYTES, Arc::clone(&c.peak_resident_bytes));
        reg.gauge(names::CACHE_BUDGET_BYTES).set(self.budget);
    }

    /// Claim a fresh store-id namespace for one open store.
    pub fn register_store(&self) -> u32 {
        let mut inner = self.inner.lock();
        let id = inner.next_store;
        inner.next_store += 1;
        id
    }

    fn key(store: u32, block: u32) -> u64 {
        (u64::from(store) << 32) | u64::from(block)
    }

    /// Look up a decoded block, refreshing its recency. Counts a hit or
    /// a miss.
    pub(crate) fn get(&self, store: u32, block: u32) -> Option<Arc<IndexBlock>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&Self::key(store, block)) {
            Some(entry) => {
                entry.last_used = tick;
                stat_add(&self.counters.hits, 1);
                Some(Arc::clone(&entry.block))
            }
            None => {
                stat_add(&self.counters.misses, 1);
                None
            }
        }
    }

    /// Whether a block is resident right now, as a pure observation: no
    /// counter moves and the block's recency is not refreshed, so asking
    /// never changes what [`BlockCache::insert`] evicts next. The answer
    /// can be stale as soon as it is returned; callers use it to *order*
    /// fetches ([`engine::BlockSource::resident`]), never to skip one.
    pub(crate) fn contains(&self, store: u32, block: u32) -> bool {
        self.inner.lock().map.contains_key(&Self::key(store, block))
    }

    /// Insert a freshly decoded block, evicting least-recently-used
    /// entries first so the charge fits the budget. Re-inserting a
    /// resident key refreshes the block and recency without double
    /// charging.
    pub fn insert(&self, store: u32, block: u32, decoded: Arc<IndexBlock>) {
        let bytes = decoded.memory_bytes() as u64;
        let key = Self::key(store, block);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.remove(&key) {
            stat_sub(&self.counters.resident_bytes, old.bytes);
        }
        // Make room before charging, so resident never transiently
        // overshoots (except for the single-oversized-block case).
        while stat_load(&self.counters.resident_bytes) + bytes > self.budget {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            let Some(victim) = victim else { break };
            if let Some(evicted) = inner.map.remove(&victim) {
                stat_sub(&self.counters.resident_bytes, evicted.bytes);
                stat_add(&self.counters.evictions, 1);
            }
        }
        inner.map.insert(key, Entry { block: decoded, bytes, last_used: tick });
        let resident = stat_add(&self.counters.resident_bytes, bytes);
        stat_max(&self.counters.peak_resident_bytes, resident);
    }

    /// Number of blocks currently resident.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::{Sequence, SequenceDb};
    use dbindex::{DbIndex, IndexConfig};

    fn blocks() -> Vec<IndexBlock> {
        let db: SequenceDb = (0..12)
            .map(|i| {
                let body = "ARNDCQEGHILKMFPSTWYV".repeat(2 + i % 3);
                Sequence::from_str_checked(format!("s{i}"), &body).unwrap()
            })
            .collect();
        let idx = DbIndex::build(
            &db,
            &IndexConfig { block_bytes: 128, offset_bits: 15, frag_overlap: 8 },
        );
        assert!(idx.blocks().len() >= 4, "want several blocks");
        idx.blocks().to_vec()
    }

    #[test]
    fn hit_miss_and_recency() {
        let blocks = blocks();
        let cache = BlockCache::new(u64::MAX);
        let store = cache.register_store();
        assert!(cache.get(store, 0).is_none());
        cache.insert(store, 0, Arc::new(blocks[0].clone()));
        let got = cache.get(store, 0).expect("resident after insert");
        assert_eq!(&*got, &blocks[0]);
        let snap = cache.counters().snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used_and_respects_budget() {
        let blocks = blocks();
        let per = blocks[0].memory_bytes() as u64;
        // Budget fits two of the first blocks (blocks of this toy index
        // share a size because the offsets array dominates).
        let cache = BlockCache::new(2 * per + per / 2);
        let store = cache.register_store();
        for (i, b) in blocks.iter().take(3).enumerate() {
            cache.get(store, i as u32);
            cache.insert(store, i as u32, Arc::new(b.clone()));
            // Keep block 0 hot so the LRU victim is block 1.
            cache.get(store, 0);
        }
        let snap = cache.counters().snapshot();
        assert!(snap.evictions >= 1, "third insert must evict");
        assert!(snap.resident_bytes <= cache.budget_bytes());
        assert!(snap.peak_resident_bytes <= cache.budget_bytes());
        assert!(cache.get(store, 0).is_some(), "hot block survives");
        assert!(cache.get(store, 1).is_none(), "LRU block evicted");
    }

    /// `contains` observes and nothing else: no counter moves, and the
    /// LRU victim is the one it would have been without the calls.
    #[test]
    fn contains_moves_no_counter_and_refreshes_no_recency() {
        let blocks = blocks();
        let per = blocks[0].memory_bytes() as u64;
        let victim_after = |probe: bool| {
            let cache = BlockCache::new(2 * per + per / 2);
            let store = cache.register_store();
            cache.insert(store, 0, Arc::new(blocks[0].clone()));
            cache.insert(store, 1, Arc::new(blocks[1].clone()));
            let before = cache.counters().snapshot();
            if probe {
                // A refresh of block 0 here would make block 1 the victim.
                for _ in 0..3 {
                    assert!(cache.contains(store, 0));
                    assert!(!cache.contains(store, 2), "absent block");
                    assert!(!cache.contains(store + 1, 0), "other store's id space");
                }
                assert_eq!(cache.counters().snapshot(), before);
            }
            cache.insert(store, 2, Arc::new(blocks[2].clone()));
            (cache.contains(store, 0), cache.contains(store, 1), cache.contains(store, 2))
        };
        assert_eq!(victim_after(false), (false, true, true), "block 0 is the LRU victim");
        assert_eq!(victim_after(true), victim_after(false));
    }

    #[test]
    fn oversized_block_still_caches_and_peak_reports_overshoot() {
        let blocks = blocks();
        let per = blocks[0].memory_bytes() as u64;
        let cache = BlockCache::new(per / 2);
        let store = cache.register_store();
        cache.insert(store, 0, Arc::new(blocks[0].clone()));
        assert!(cache.get(store, 0).is_some());
        let snap = cache.counters().snapshot();
        assert_eq!(snap.resident_bytes, per);
        assert_eq!(snap.peak_resident_bytes, per);
    }

    #[test]
    fn store_namespaces_do_not_collide() {
        let blocks = blocks();
        let cache = BlockCache::new(u64::MAX);
        let a = cache.register_store();
        let b = cache.register_store();
        assert_ne!(a, b);
        cache.insert(a, 7, Arc::new(blocks[0].clone()));
        assert!(cache.get(b, 7).is_none(), "other store's id space");
        assert!(cache.get(a, 7).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn bound_registry_reads_live_cache_counters() {
        use obsv::metrics::names;
        let blocks = blocks();
        let cache = BlockCache::new(4096);
        let store = cache.register_store();
        let reg = obsv::Registry::new(true);
        cache.bind_metrics(&reg);
        assert_eq!(reg.value(names::CACHE_BUDGET_BYTES), 4096);
        cache.get(store, 0); // miss
        cache.insert(store, 0, Arc::new(blocks[0].clone()));
        cache.get(store, 0); // hit
        let snap = cache.counters().snapshot();
        assert_eq!(reg.value(names::CACHE_HITS), snap.hits);
        assert_eq!(reg.value(names::CACHE_MISSES), snap.misses);
        assert_eq!(reg.value(names::CACHE_RESIDENT_BYTES), snap.resident_bytes);
        assert_eq!(
            reg.value(names::CACHE_PEAK_RESIDENT_BYTES),
            snap.peak_resident_bytes
        );
    }

    #[test]
    fn reinsert_does_not_double_charge() {
        let blocks = blocks();
        let cache = BlockCache::new(u64::MAX);
        let store = cache.register_store();
        for _ in 0..3 {
            cache.insert(store, 0, Arc::new(blocks[0].clone()));
        }
        let snap = cache.counters().snapshot();
        assert_eq!(snap.resident_bytes, blocks[0].memory_bytes() as u64);
        assert_eq!(snap.evictions, 0);
        assert_eq!(cache.len(), 1);
    }
}
