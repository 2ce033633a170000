//! Decoded-block cache with admission by reuse.
//!
//! The fetch unit of the block store is a whole [`IndexBlock`] record; the
//! cache holds *decoded* blocks (ready to search) under a byte budget, so
//! out-of-core search touches the disk once per block per working-set
//! turnover instead of once per block per query batch. Accounting uses
//! [`IndexBlock::memory_bytes`] — the same figure the store's footer
//! directory records as `decoded_bytes` — so a budget can be chosen from
//! the directory alone, before anything is decoded.
//!
//! **Admission by reuse.** On a miss for block `b`, `b` may displace
//! resident blocks that have not been used since `b`'s own previous
//! request, least recently used first; a block never requested before
//! takes free space only; and when free space plus those idle blocks
//! cannot hold `b`, the caller gets `b` uncached. Within one search the
//! executor fetches each block at most once, so a resident block used
//! since `b`'s previous request will be needed again at least as soon as
//! `b`: swapping them cannot add a hit, and in a repeated visit order —
//! ascending, or the top-k bound order — it loses every one (strict
//! LRU's loop pathology: each block is the least recently used just
//! before its turn comes round). Under this rule a cache of `c` blocks
//! keeps the first `c` of a repeated order and hits them on every later
//! pass, whatever the order; when the working set changes, the idle
//! blocks are displaced on the second request of each new block. A
//! declined block counts as one eviction — the cache evicted the
//! newcomer to stay under budget — so `evictions` still means "the
//! working set no longer fits".
//!
//! **Stores scanned concurrently.** One store's fetches are one
//! sequential stream (a shard's task), but shards scan their stores side
//! by side at whatever phase their work sets, and that changes two
//! things. First, a block of a store that finished its pass early looks
//! idle to the late blocks of a slower one although the next batch uses
//! it at once; so a block of another store counts as idle only if unused
//! since `b`'s request *before* its previous one — a whole cycle of
//! margin, which a stale block still exceeds. Second, by reuse alone the
//! first pass's interleaving would decide once and for all which store
//! keeps the free space — three blocks to one on a two-shard box, from
//! run to run differently — and a batch waits for the shard with the
//! most misses. So when the idle blocks cannot make room, a block
//! requested before may also displace, least recently used first, blocks
//! of the other store that holds the most bytes, provided its own store
//! then holds no more than that one. Bytes only move to a poorer store
//! and never past the donor, so nothing oscillates: a repeated scan
//! settles after one pass with the stores within about a block of each
//! other, whatever the first pass's order.
//! With one store the rule is the plain admission by reuse.
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
    /// Per block ever requested: the ticks of its last three requests,
    /// oldest first, 0 for none. Bounded by the blocks of the registered
    /// stores.
    requests: HashMap<u64, [u64; 3]>,
    /// Decoded bytes resident per store id.
    held: Vec<u64>,
    /// Logical clock for requests and recency (bumped on every touch).
    tick: u64,
    next_store: u32,
}

fn store_of(key: u64) -> usize {
    (key >> 32) as usize
}

impl Inner {
    fn held_mut(&mut self, store: usize) -> &mut u64 {
        if self.held.len() <= store {
            self.held.resize(store + 1, 0);
        }
        &mut self.held[store]
    }

    fn remove(&mut self, key: u64) -> Option<Entry> {
        let entry = self.map.remove(&key)?;
        *self.held_mut(store_of(key)) -= entry.bytes;
        Some(entry)
    }

    /// Resident blocks that pass `keep`, least recently used first, as
    /// `(last_used, key, bytes)`.
    fn lru(&self, keep: impl Fn(u64, &Entry) -> bool) -> Vec<(u64, u64, u64)> {
        let mut blocks: Vec<(u64, u64, u64)> = self
            .map
            .iter()
            .filter(|(&k, e)| keep(k, e))
            .map(|(&k, e)| (e.last_used, k, e.bytes))
            .collect();
        blocks.sort_unstable();
        blocks
    }

    /// What a block of `store` displaces to fit `bytes` beside `free`
    /// bytes of free space, given the ticks of its request before last
    /// and its previous one (`[.., since, _]`, module docs); `None`
    /// declines it. First idle blocks, least recently used first; then,
    /// least recently used first, blocks of the other store that holds
    /// the most, provided `store` then holds no more than it.
    fn make_room(&self, store: usize, bytes: u64, free: u64, ticks: [u64; 3]) -> Option<Vec<u64>> {
        let [before, since, _] = ticks;
        let mut after = self.held.clone();
        after.resize(after.len().max(store + 1), 0);
        let (mut room, mut victims) = (free, Vec::new());
        let idle = |k, e: &Entry| e.last_used < if store_of(k) == store { since } else { before };
        for (_, k, b) in self.lru(idle) {
            if room >= bytes {
                break;
            }
            room += b;
            after[store_of(k)] -= b;
            victims.push(k);
        }
        if room < bytes {
            let donor = (0..after.len())
                .filter(|&t| t != store)
                .max_by_key(|&t| (after[t], std::cmp::Reverse(t)))?;
            for (_, k, b) in self.lru(|k, e| store_of(k) == donor && !idle(k, e)) {
                if room >= bytes {
                    break;
                }
                room += b;
                after[donor] -= b;
                victims.push(k);
            }
            if room < bytes || after[store] + bytes > after[donor] {
                return None;
            }
        }
        Some(victims)
    }
}

/// A cache of decoded [`IndexBlock`]s under a byte budget, shared across
/// stores, admitting by reuse (see the module docs).
///
/// Keys are `(store id, block id)`; store ids come from
/// [`BlockCache::register_store`] so independent shard stores sharing one
/// cache can never collide. Eviction makes room *before* an insert is
/// charged, so `resident_bytes` (and its peak) stays within the budget —
/// with one documented exception: a single block larger than the whole
/// budget, which no rule could ever fit, is cached alone in place of
/// everything resident, and the peak then records the true overshoot
/// rather than hiding it.
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
            inner: Lock::new(Inner {
                map: HashMap::new(),
                requests: HashMap::new(),
                held: Vec::new(),
                tick: 0,
                next_store: 0,
            }),
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

    /// Request a decoded block: records the request (what a later
    /// [`BlockCache::insert`] of it is admitted by) and, on a hit,
    /// refreshes its recency. Counts a hit or a miss.
    pub(crate) fn get(&self, store: u32, block: u32) -> Option<Arc<IndexBlock>> {
        let key = Self::key(store, block);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let ticks = inner.requests.entry(key).or_default();
        ticks.rotate_left(1);
        ticks[2] = tick;
        match inner.map.get_mut(&key) {
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

    /// Offer a freshly decoded block for caching under admission by
    /// reuse (module docs): it takes free space, else displaces blocks
    /// idle since its previous request, least recently used first, then
    /// blocks of the store that holds the most while its own store stays
    /// the poorer, else is declined and counted as one eviction.
    /// Re-inserting a resident key refreshes the block and recency
    /// without double charging.
    pub fn insert(&self, store: u32, block: u32, decoded: Arc<IndexBlock>) {
        let bytes = decoded.memory_bytes() as u64;
        let key = Self::key(store, block);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.remove(key) {
            stat_sub(&self.counters.resident_bytes, old.bytes);
        }
        let resident = stat_load(&self.counters.resident_bytes);
        let free = self.budget.saturating_sub(resident);
        let victims = if bytes <= free {
            Some(Vec::new())
        } else if bytes > self.budget {
            // Oversized: no rule could ever fit it, so it is cached alone.
            Some(inner.map.keys().copied().collect())
        } else {
            // A block never requested before takes free space only.
            match inner.requests.get(&key) {
                Some(&ticks) if ticks[1] > 0 => inner.make_room(store as usize, bytes, free, ticks),
                _ => None,
            }
        };
        let Some(victims) = victims else {
            // Declined: the newcomer is the block evicted.
            stat_add(&self.counters.evictions, 1);
            return;
        };
        for victim in victims {
            if let Some(evicted) = inner.remove(victim) {
                stat_sub(&self.counters.resident_bytes, evicted.bytes);
                stat_add(&self.counters.evictions, 1);
            }
        }
        inner.map.insert(key, Entry { block: decoded, bytes, last_used: tick });
        *inner.held_mut(store as usize) += bytes;
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

    /// One request as the store makes it: look up, and on a miss offer
    /// the block for caching. Returns whether it hit, and checks the
    /// budget after every step.
    fn request(cache: &BlockCache, store: u32, blocks: &[IndexBlock], i: usize) -> bool {
        let hit = cache.get(store, i as u32).is_some();
        if !hit {
            cache.insert(store, i as u32, Arc::new(blocks[i].clone()));
        }
        let snap = cache.counters().snapshot();
        assert!(snap.resident_bytes <= cache.budget_bytes(), "resident over budget");
        assert!(snap.peak_resident_bytes <= cache.budget_bytes(), "peak over budget");
        hit
    }

    fn resident(cache: &BlockCache, store: u32) -> Vec<u32> {
        let inner = cache.inner.lock();
        let mut ids: Vec<u32> = inner
            .map
            .keys()
            .filter(|&&k| (k >> 32) as u32 == store)
            .map(|&k| k as u32)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// A budget of two and a half blocks of the first four (equal-sized:
    /// the offsets array dominates a toy block).
    fn two_block_cache(blocks: &[IndexBlock]) -> BlockCache {
        let per = blocks[0].memory_bytes() as u64;
        assert!(blocks[..4].iter().all(|b| b.memory_bytes() as u64 == per));
        BlockCache::new(2 * per + per / 2)
    }

    #[test]
    fn never_requested_block_takes_free_space_only() {
        let blocks = blocks();
        let cache = two_block_cache(&blocks);
        let store = cache.register_store();
        assert!(!request(&cache, store, &blocks, 0));
        assert!(!request(&cache, store, &blocks, 1));
        let full = cache.counters().snapshot();
        assert_eq!(full.evictions, 0, "free space admits");
        // Blocks 0 and 1 are idle since forever, but block 2 was never
        // requested before: it is handed back uncached.
        assert!(!request(&cache, store, &blocks, 2));
        let snap = cache.counters().snapshot();
        assert_eq!(snap.evictions, 1, "the declined newcomer counts once");
        assert_eq!(snap.resident_bytes, full.resident_bytes);
        assert_eq!(resident(&cache, store), [0, 1]);
    }

    #[test]
    fn reuse_displaces_only_blocks_idle_since_the_previous_request() {
        let blocks = blocks();
        let cache = two_block_cache(&blocks);
        let store = cache.register_store();
        let evictions = || cache.counters().snapshot().evictions;
        request(&cache, store, &blocks, 0);
        request(&cache, store, &blocks, 1);
        assert!(request(&cache, store, &blocks, 0), "block 1 is now the LRU");
        request(&cache, store, &blocks, 2); // first request: declined
        assert_eq!((resident(&cache, store), evictions()), (vec![0, 1], 1));
        // Both blocks idle since 2's previous request: the least recently
        // used one (1, not the older insert 0) makes room.
        assert!(!request(&cache, store, &blocks, 2));
        assert_eq!((resident(&cache, store), evictions()), (vec![0, 2], 2));
        // Block 1's previous request predates every use of 0 and 2.
        request(&cache, store, &blocks, 1);
        assert_eq!((resident(&cache, store), evictions()), (vec![0, 2], 3));
        // A block used since the newcomer's previous request is needed at
        // least as soon: neither 0 nor 2 gives way, however often 1 asks.
        assert!(request(&cache, store, &blocks, 0));
        assert!(request(&cache, store, &blocks, 2));
        request(&cache, store, &blocks, 1);
        assert_eq!((resident(&cache, store), evictions()), (vec![0, 2], 4));
        // The working set moved on to 1: after one idle round, the LRU
        // of the idle blocks (0) goes.
        request(&cache, store, &blocks, 1);
        assert_eq!((resident(&cache, store), evictions()), (vec![1, 2], 5));
        assert!(request(&cache, store, &blocks, 1));
    }

    /// Two stores scanned cyclically through one cache: however a pass
    /// interleaves them, from the second pass on they hold within one
    /// block of each other and hit three blocks every pass. (By reuse
    /// alone, the store scanned first keeps all three; with another
    /// store's blocks idle one cycle sooner, the late blocks of the slower
    /// store would take the faster one's every pass.)
    #[test]
    fn shared_cache_balances_stores_whatever_the_first_pass_order() {
        let blocks = blocks();
        let per = blocks[0].memory_bytes() as u64;
        let one_then_other = |s: [u32; 2]| -> Vec<(u32, usize)> {
            s.iter()
                .flat_map(|&s| (0..4).map(move |i| (s, i)))
                .collect()
        };
        let interleaved: Vec<(u32, usize)> = (0..4).flat_map(|i| [(0, i), (1, i)]).collect();
        // Store 0 ends its pass well before store 1 ends its own.
        let ahead = vec![
            (0, 0),
            (1, 0),
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 1),
            (1, 2),
            (1, 3),
        ];
        for order in [
            one_then_other([0, 1]),
            one_then_other([1, 0]),
            interleaved,
            ahead,
        ] {
            let cache = BlockCache::new(3 * per + per / 2);
            let stores = [cache.register_store(), cache.register_store()];
            for pass in 0..5 {
                let hits = order
                    .iter()
                    .filter(|&&(s, i)| request(&cache, stores[s as usize], &blocks, i))
                    .count();
                let held = stores.map(|s| resident(&cache, s).len());
                if pass > 0 {
                    assert_eq!(hits, 3, "{order:?} pass {pass}");
                    assert!(
                        held[0].abs_diff(held[1]) <= 1,
                        "{order:?} pass {pass}: {held:?}"
                    );
                }
            }
        }
    }

    /// Two stores whose passes swap phase from one cycle to the next: the
    /// store that ran first last time is not idle to the other, so
    /// neither takes the other's blocks every pass and the split holds.
    #[test]
    fn another_stores_blocks_count_idle_only_after_a_whole_cycle() {
        let blocks = blocks();
        let cache = two_block_cache(&blocks);
        let stores = [cache.register_store(), cache.register_store()];
        for pass in 0..6 {
            let first = pass % 2;
            let hits = [first, 1 - first]
                .iter()
                .flat_map(|&s| [(s, 0), (s, 1)])
                .filter(|&(s, i)| request(&cache, stores[s], &blocks, i))
                .count();
            if pass >= 2 {
                assert_eq!(hits, 2, "pass {pass}");
                assert_eq!(
                    stores.map(|s| resident(&cache, s).len()),
                    [1, 1],
                    "pass {pass}"
                );
            }
        }
    }

    /// A seeded stream of requests over every block keeps residency,
    /// its peak and the byte account within the budget throughout.
    #[test]
    fn residency_stays_within_budget_under_any_request_stream() {
        let blocks = blocks();
        let per = blocks.iter().map(|b| b.memory_bytes() as u64).max().unwrap();
        for budget in [per, 2 * per + per / 2, 3 * per] {
            let cache = BlockCache::new(budget);
            let store = cache.register_store();
            for step in 0..400u64 {
                let i = (faultfn::mix64(budget, step) % blocks.len() as u64) as usize;
                request(&cache, store, &blocks, i);
                let charged: u64 = resident(&cache, store)
                    .iter()
                    .map(|&b| blocks[b as usize].memory_bytes() as u64)
                    .sum();
                assert_eq!(cache.counters().snapshot().resident_bytes, charged);
            }
            let snap = cache.counters().snapshot();
            assert!(snap.hits > 0 && snap.evictions > 0, "budget {budget}: {snap:?}");
        }
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
