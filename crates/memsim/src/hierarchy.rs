//! Multi-level cache + TLB hierarchy, single-core and shared-L3 variants.

use crate::cache::{CacheConfig, CacheStats, SetAssocCache};

/// Geometry of a full hierarchy. Defaults model the paper's Haswell
/// E5-2680v3 node: 32 KB L1D / 256 KB L2 per core, 30 MB shared L3,
/// 64-entry DTLB + 1024-entry STLB over 4 KB pages.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    pub l1: CacheConfig,
    pub l2: CacheConfig,
    pub l3: CacheConfig,
    pub dtlb: CacheConfig,
    pub stlb: CacheConfig,
    /// Model the tagged next-line hardware prefetcher: a demand miss
    /// fills the following line (uncounted), and the first demand *hit*
    /// on a prefetched line prefetches one further — so sequential
    /// streams (subject residues, posting lists, the sorted hit buffer)
    /// stay ahead of the demand, while random accesses (the interleaved
    /// engines' last-hit arrays) gain nothing. The paper leans on exactly
    /// this behaviour (Sec. V-B).
    pub prefetch: bool,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheConfig::l1d_haswell(),
            l2: CacheConfig::l2_haswell(),
            l3: CacheConfig::l3_haswell(),
            dtlb: CacheConfig::dtlb(),
            stlb: CacheConfig::stlb(),
            prefetch: true,
        }
    }
}

/// Aggregated statistics of a simulated run.
#[derive(Clone, Copy, Debug, Default)]
pub struct HierarchyStats {
    pub l1: CacheStats,
    pub l2: CacheStats,
    pub l3: CacheStats,
    pub dtlb: CacheStats,
    pub stlb: CacheStats,
}

impl HierarchyStats {
    /// LLC (L3) miss rate — the quantity in the paper's Figs. 2(a) and 8.
    pub fn llc_miss_rate(&self) -> f64 {
        self.l3.miss_rate()
    }

    /// First-level TLB miss rate — Fig. 2(b).
    pub fn tlb_miss_rate(&self) -> f64 {
        self.dtlb.miss_rate()
    }

    fn merge(&mut self, other: &HierarchyStats) {
        for (a, b) in [
            (&mut self.l1, &other.l1),
            (&mut self.l2, &other.l2),
            (&mut self.l3, &other.l3),
            (&mut self.dtlb, &other.dtlb),
            (&mut self.stlb, &other.stlb),
        ] {
            a.accesses += b.accesses;
            a.misses += b.misses;
        }
    }
}

/// Latency model used to derive the stalled-cycle proxy of Fig. 2(c).
#[derive(Clone, Copy, Debug)]
pub struct CycleModel {
    /// Cycles per access that hits each level.
    pub l1_hit: u64,
    pub l2_hit: u64,
    pub l3_hit: u64,
    pub mem: u64,
    /// Extra cycles for a TLB walk on an STLB miss.
    pub tlb_walk: u64,
    /// Nominal busy cycles per memory access issued (models the compute
    /// the kernel does between loads).
    pub busy_per_access: u64,
}

impl Default for CycleModel {
    fn default() -> Self {
        // Approximate Haswell load-to-use latencies.
        CycleModel { l1_hit: 4, l2_hit: 12, l3_hit: 40, mem: 200, tlb_walk: 80, busy_per_access: 2 }
    }
}

impl CycleModel {
    /// Total memory-stall cycles implied by the statistics. Every access
    /// pays at least the L1 latency; misses escalate.
    pub fn stall_cycles(&self, s: &HierarchyStats) -> u64 {
        let l1_hits = s.l1.hits();
        let l2_hits = s.l2.hits();
        let l3_hits = s.l3.hits();
        let mem = s.l3.misses;
        l1_hits * self.l1_hit
            + l2_hits * self.l2_hit
            + l3_hits * self.l3_hit
            + mem * self.mem
            + s.stlb.misses * self.tlb_walk
    }

    /// Fraction of total cycles spent stalled — the Fig. 2(c) proxy.
    pub fn stalled_fraction(&self, s: &HierarchyStats) -> f64 {
        let stall = self.stall_cycles(s);
        let busy = s.l1.accesses * self.busy_per_access;
        if stall + busy == 0 {
            0.0
        } else {
            stall as f64 / (stall + busy) as f64
        }
    }
}


/// Fixed-size direct-mapped store of prefetched-line tags — a real
/// prefetcher has finite tag state, and a direct-mapped table is far
/// faster than a hash set on the replay hot path.
#[derive(Clone, Debug)]
struct TagStore {
    slots: Vec<u64>,
}

const TAG_EMPTY: u64 = u64::MAX;
const TAG_SLOTS: usize = 1 << 15;

impl TagStore {
    fn new() -> TagStore {
        TagStore { slots: vec![TAG_EMPTY; TAG_SLOTS] }
    }

    #[inline]
    fn insert(&mut self, line: u64) {
        let idx = (line.wrapping_mul(0x9E3779B97F4A7C15) >> 49) as usize;
        self.slots[idx] = line;
    }

    #[inline]
    fn remove(&mut self, line: u64) -> bool {
        let idx = (line.wrapping_mul(0x9E3779B97F4A7C15) >> 49) as usize;
        if self.slots[idx] == line {
            self.slots[idx] = TAG_EMPTY;
            true
        } else {
            false
        }
    }
}

/// A single-core hierarchy: private L1/L2/TLBs in front of an L3.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    dtlb: SetAssocCache,
    stlb: SetAssocCache,
    line: u64,
    prefetch: bool,
    /// Lines brought in by the prefetcher that have not yet seen a
    /// demand access (the prefetcher's "tag" bits).
    tagged: TagStore,
}

impl Hierarchy {
    pub fn new(config: HierarchyConfig) -> Self {
        Hierarchy {
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            l3: SetAssocCache::new(config.l3),
            dtlb: SetAssocCache::new(config.dtlb),
            stlb: SetAssocCache::new(config.stlb),
            line: config.l1.line as u64,
            prefetch: config.prefetch,
            tagged: TagStore::new(),
        }
    }

    /// Classify an access of `bytes` bytes at `addr`, splitting across cache
    /// lines. Inclusive hierarchy: L1 miss → L2; L2 miss → L3; misses fill
    /// all levels. The TLB is consulted once per distinct page touched.
    /// With prefetching on, a demand miss fills the next line (uncounted)
    /// and the first demand hit on a prefetched line keeps the stream
    /// running one line ahead.
    pub(crate) fn access(&mut self, addr: u64, bytes: u32) {
        let first = addr / self.line;
        let last = (addr + bytes.max(1) as u64 - 1) / self.line;
        for line in first..=last {
            let a = line * self.line;
            if !self.dtlb.access(a) {
                self.stlb.access(a);
            }
            if !self.l1.access(a) && !self.l2.access(a) {
                self.l3.access(a);
                if self.prefetch {
                    self.prefetch_fill(a + self.line);
                }
            } else if self.prefetch && self.tagged.remove(line) {
                // First demand hit on a prefetched line: stream confirmed,
                // stay one line ahead.
                self.prefetch_fill(a + self.line);
            }
        }
    }

    /// Fill `addr`'s line into every level without counting statistics —
    /// the prefetcher model. The line is tagged so a future demand hit
    /// continues the stream.
    fn prefetch_fill(&mut self, addr: u64) {
        let (al1, al2, al3) =
            (self.l1.stats(), self.l2.stats(), self.l3.stats());
        self.l1.access(addr);
        self.l2.access(addr);
        self.l3.access(addr);
        self.l1.set_stats(al1);
        self.l2.set_stats(al2);
        self.l3.set_stats(al3);
        self.tagged.insert(addr / self.line);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            l3: self.l3.stats(),
            dtlb: self.dtlb.stats(),
            stlb: self.stlb.stats(),
        }
    }
}

/// A multi-core hierarchy: per-core private L1/L2/TLBs sharing one L3 —
/// what the multithreaded block-size experiment (Fig. 8) needs, where `t`
/// threads' last-hit arrays compete for the shared LLC.
pub struct SharedHierarchy {
    cores: Vec<PrivatePart>,
    l3: SetAssocCache,
    line: u64,
    prefetch: bool,
}

struct PrivatePart {
    l1: SetAssocCache,
    l2: SetAssocCache,
    dtlb: SetAssocCache,
    stlb: SetAssocCache,
    tagged: TagStore,
}

impl SharedHierarchy {
    pub fn new(config: HierarchyConfig, cores: usize) -> Self {
        assert!(cores > 0);
        SharedHierarchy {
            cores: (0..cores)
                .map(|_| PrivatePart {
                    l1: SetAssocCache::new(config.l1),
                    l2: SetAssocCache::new(config.l2),
                    dtlb: SetAssocCache::new(config.dtlb),
                    stlb: SetAssocCache::new(config.stlb),
                    tagged: TagStore::new(),
                })
                .collect(),
            l3: SetAssocCache::new(config.l3),
            line: config.l1.line as u64,
            prefetch: config.prefetch,
        }
    }

    /// Number of simulated cores.
    pub(crate) fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Access from core `core`.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub(crate) fn access(&mut self, core: usize, addr: u64, bytes: u32) {
        let first = addr / self.line;
        let last = (addr + bytes.max(1) as u64 - 1) / self.line;
        for line in first..=last {
            let a = line * self.line;
            let part = &mut self.cores[core];
            if !part.dtlb.access(a) {
                part.stlb.access(a);
            }
            let missed = !part.l1.access(a) && {
                let l2_hit = part.l2.access(a);
                if !l2_hit {
                    self.l3.access(a);
                }
                !l2_hit
            };
            let part = &mut self.cores[core];
            let stream_hit = !missed && part.tagged.remove(line);
            if self.prefetch && (missed || stream_hit) {
                let next = a + self.line;
                let part = &mut self.cores[core];
                let (al1, al2) = (part.l1.stats(), part.l2.stats());
                let al3 = self.l3.stats();
                let part = &mut self.cores[core];
                part.l1.access(next);
                part.l2.access(next);
                part.tagged.insert(next / self.line);
                part.l1.set_stats(al1);
                part.l2.set_stats(al2);
                self.l3.access(next);
                self.l3.set_stats(al3);
            }
        }
    }

    /// Combined statistics across all cores (shared L3 counted once).
    pub fn stats(&self) -> HierarchyStats {
        let mut out = HierarchyStats::default();
        for part in &self.cores {
            out.merge(&HierarchyStats {
                l1: part.l1.stats(),
                l2: part.l2.stats(),
                dtlb: part.dtlb.stats(),
                stlb: part.stlb.stats(),
                l3: CacheStats::default(),
            });
        }
        out.l3 = self.l3.stats();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig { capacity: 1 << 10, ways: 2, line: 64 },
            l2: CacheConfig { capacity: 4 << 10, ways: 4, line: 64 },
            l3: CacheConfig { capacity: 16 << 10, ways: 4, line: 64 },
            dtlb: CacheConfig { capacity: 4 * 4096, ways: 2, line: 4096 },
            stlb: CacheConfig { capacity: 16 * 4096, ways: 4, line: 4096 },
            prefetch: false,
        }
    }

    #[test]
    fn l2_sees_only_l1_misses() {
        let mut h = Hierarchy::new(small_config());
        for _ in 0..10 {
            h.access(0, 8);
        }
        let s = h.stats();
        assert_eq!(s.l1.accesses, 10);
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.l2.accesses, 1);
        assert_eq!(s.l3.accesses, 1);
    }

    #[test]
    fn streaming_beyond_l3_misses_in_l3() {
        let mut h = Hierarchy::new(small_config());
        // Stream 1 MB twice: far beyond the 16 KB L3 → second pass still
        // misses everywhere.
        for _ in 0..2 {
            for addr in (0..(1u64 << 20)).step_by(64) {
                h.access(addr, 8);
            }
        }
        let s = h.stats();
        assert!(s.llc_miss_rate() > 0.99, "llc miss rate {}", s.llc_miss_rate());
    }

    #[test]
    fn small_working_set_hits_after_warmup() {
        let mut h = Hierarchy::new(small_config());
        for addr in (0..512u64).step_by(64) {
            h.access(addr, 8);
        }
        let warm = h.stats().l1.misses;
        for addr in (0..512u64).step_by(64) {
            h.access(addr, 8);
        }
        assert_eq!(h.stats().l1.misses, warm);
    }

    #[test]
    fn multi_line_access_touches_each_line() {
        let mut h = Hierarchy::new(small_config());
        h.access(60, 8); // straddles two lines
        let s = h.stats();
        assert_eq!(s.l1.accesses, 2);
    }

    #[test]
    fn tlb_misses_on_page_stride() {
        let mut h = Hierarchy::new(small_config());
        // Touch 64 distinct pages with a 4-entry DTLB → high miss rate.
        for page in 0..64u64 {
            h.access(page * 4096, 8);
        }
        let s = h.stats();
        assert_eq!(s.dtlb.accesses, 64);
        assert_eq!(s.dtlb.misses, 64);
    }

    #[test]
    fn stalled_fraction_monotone_in_misses() {
        let model = CycleModel::default();
        let mut h1 = Hierarchy::new(small_config());
        let mut h2 = Hierarchy::new(small_config());
        // h1: tight loop on one line; h2: streaming.
        for i in 0..10_000u64 {
            h1.access(0, 8);
            h2.access(i * 64, 8);
        }
        let f1 = model.stalled_fraction(&h1.stats());
        let f2 = model.stalled_fraction(&h2.stats());
        assert!(f2 > f1, "streaming {f2} should stall more than resident {f1}");
    }

    #[test]
    fn shared_l3_contention() {
        // One core using 8 KB fits easily; 4 cores × 8 KB overflow a 16 KB
        // L3 and raise its miss rate.
        let run = |cores: usize| -> f64 {
            let mut h = SharedHierarchy::new(small_config(), cores);
            for round in 0..8 {
                for c in 0..cores {
                    // Each core streams its own 8 KB region; region stride
                    // exceeds L2 so L3 sees traffic.
                    let base = (c as u64) << 20;
                    for addr in (0..8192u64).step_by(64) {
                        h.access(c, base + addr, 8);
                    }
                }
                let _ = round;
            }
            h.stats().llc_miss_rate()
        };
        // Note: private L2 (4 KB) already filters some traffic, but the
        // qualitative ordering must hold.
        assert!(run(4) > run(1));
    }

    #[test]
    fn shared_hierarchy_stats_aggregate() {
        let mut h = SharedHierarchy::new(small_config(), 2);
        h.access(0, 0, 8);
        h.access(1, 0, 8);
        let s = h.stats();
        assert_eq!(s.l1.accesses, 2);
        assert_eq!(s.l1.misses, 2); // private L1s: both cold
        assert_eq!(s.l3.accesses, 2);
    }
}
