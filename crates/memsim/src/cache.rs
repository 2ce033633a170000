//! A set-associative cache (or TLB) with true-LRU replacement.
//!
//! The same structure models both caches (granularity = 64-byte line) and
//! TLBs (granularity = 4 KiB page): a TLB is just a cache of page numbers.

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (for a TLB: entries × page size).
    pub capacity: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Bytes per line (for a TLB: the page size).
    pub line: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero sizes, capacity not a
    /// multiple of `ways × line`, or a non-power-of-two set count).
    pub(crate) fn sets(&self) -> usize {
        assert!(self.capacity > 0 && self.ways > 0 && self.line > 0);
        assert_eq!(
            self.capacity % (self.ways * self.line),
            0,
            "capacity must be a multiple of ways × line"
        );
        // Set counts need not be a power of two (a sliced LLC like
        // Haswell's 12 × 2.5 MB has 24 576 sets); indexing uses modulo.
        self.capacity / (self.ways * self.line)
    }

    /// 32 KiB, 8-way, 64 B lines — Haswell L1D.
    pub(crate) fn l1d_haswell() -> Self {
        CacheConfig { capacity: 32 << 10, ways: 8, line: 64 }
    }

    /// 256 KiB, 8-way, 64 B lines — Haswell L2.
    pub(crate) fn l2_haswell() -> Self {
        CacheConfig { capacity: 256 << 10, ways: 8, line: 64 }
    }

    /// 30 MiB, 20-way, 64 B lines — the shared L3 of the paper's
    /// E5-2680v3 (12 cores × 2.5 MiB).
    pub(crate) fn l3_haswell() -> Self {
        CacheConfig { capacity: 30 << 20, ways: 20, line: 64 }
    }

    /// 64-entry, 4-way data TLB over 4 KiB pages.
    pub(crate) fn dtlb() -> Self {
        CacheConfig { capacity: 64 * 4096, ways: 4, line: 4096 }
    }

    /// 1024-entry, 8-way second-level TLB over 4 KiB pages.
    pub(crate) fn stlb() -> Self {
        CacheConfig { capacity: 1024 * 4096, ways: 8, line: 4096 }
    }
}

/// Hit/miss counters for one level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub accesses: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; zero when no accesses were recorded.
    pub(crate) fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    pub(crate) fn hits(&self) -> u64 {
        self.accesses - self.misses
    }
}

/// A set-associative cache with true-LRU replacement.
#[derive(Clone, Debug)]
pub(crate) struct SetAssocCache {
    config: CacheConfig,
    sets: u64,
    line_shift: u32,
    /// Per-set tag arrays, ordered most-recently-used first. Tag 0 is
    /// represented as `EMPTY` internally so real tag 0 works.
    tags: Vec<u64>,
    stats: CacheStats,
}

const EMPTY: u64 = u64::MAX;

impl SetAssocCache {
    /// Build an empty cache with the given geometry.
    pub(crate) fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(
            config.line.is_power_of_two(),
            "line size must be a power of two"
        );
        SetAssocCache {
            config,
            sets: sets as u64,
            line_shift: config.line.trailing_zeros(),
            tags: vec![EMPTY; sets * config.ways],
            stats: CacheStats::default(),
        }
    }

    /// Access the line containing `addr`; returns `true` on hit. On miss the
    /// line is filled, evicting the LRU way of the set.
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr % self.sets) as usize;
        let tag = line_addr / self.sets;
        let ways = self.config.ways;
        let slot = &mut self.tags[set * ways..(set + 1) * ways];
        self.stats.accesses += 1;
        if let Some(pos) = slot.iter().position(|&t| t == tag) {
            // Move to MRU position.
            slot[..=pos].rotate_right(1);
            true
        } else {
            self.stats.misses += 1;
            slot.rotate_right(1);
            slot[0] = tag;
            false
        }
    }

    /// Accumulated statistics.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Restore a statistics snapshot — used by the prefetcher model to
    /// fill lines without counting them.
    pub(crate) fn set_stats(&mut self, stats: CacheStats) {
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B = 512 B.
        SetAssocCache::new(CacheConfig { capacity: 512, ways: 2, line: 64 })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::l1d_haswell().sets(), 64);
        assert_eq!(CacheConfig::l2_haswell().sets(), 512);
        assert_eq!(CacheConfig::dtlb().sets(), 16);
    }

    #[test]
    fn non_power_of_two_sets_supported() {
        // 3 sets × 2 ways × 64 B — and the Haswell L3 geometry (24 576
        // sets) used by the default hierarchy.
        let mut c = SetAssocCache::new(CacheConfig { capacity: 3 * 64 * 2, ways: 2, line: 64 });
        assert!(!c.access(0));
        assert!(c.access(0));
        assert_eq!(CacheConfig::l3_haswell().sets(), 24_576);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_panics() {
        CacheConfig { capacity: 100, ways: 3, line: 64 }.sets();
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1010)); // same 64-byte line
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three distinct lines mapping to set 0 in a 2-way set: 4 sets → set
        // stride is 4 lines = 256 bytes.
        let (a, b, d) = (0u64, 256, 512);
        c.access(a); // miss; set = [a]
        c.access(b); // miss; set = [b, a]
        c.access(a); // hit;  set = [a, b]
        c.access(d); // miss; evicts b (LRU)
        assert!(c.access(a)); // hit; set = [a, d]
        assert!(c.access(d)); // hit; set = [d, a]
        assert!(!c.access(b)); // b was the one evicted
    }

    #[test]
    fn sequential_scan_miss_rate_is_one_per_line() {
        let mut c = SetAssocCache::new(CacheConfig::l1d_haswell());
        // Touch 64 KB byte-by-byte in 8-byte steps: 8 accesses per line.
        for addr in (0..65536u64).step_by(8) {
            c.access(addr);
        }
        let s = c.stats();
        assert_eq!(s.accesses, 8192);
        assert_eq!(s.misses, 1024); // one per 64-byte line
        assert!((s.miss_rate() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = tiny(); // 512 B
        // Loop over 4 KiB repeatedly: every access should miss after warm-up
        // because each set sees 8 distinct lines with only 2 ways.
        for _ in 0..4 {
            for addr in (0..4096u64).step_by(64) {
                c.access(addr);
            }
        }
        let s = c.stats();
        assert_eq!(s.misses, s.accesses); // LRU + round-robin = 100 % misses
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = tiny();
        for round in 0..4 {
            for addr in (0..512u64).step_by(64) {
                let hit = c.access(addr);
                if round > 0 {
                    assert!(hit, "round {round} addr {addr}");
                }
            }
        }
    }

    #[test]
    fn tag_zero_address_works() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
    }
}
