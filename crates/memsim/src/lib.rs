//! Software cache and TLB simulation.
//!
//! The paper's Figs. 2 and 8 report LLC miss rate, TLB miss rate and
//! stalled-cycle percentages measured with hardware performance counters on
//! a Haswell Xeon. Portable Rust cannot read PMUs, so this crate provides a
//! trace-driven **set-associative cache + TLB model**: the search kernels
//! have instrumented twins that report every data-structure access to a
//! [`Tracer`], and the model classifies each access through a Haswell-like
//! hierarchy (32 KB L1 / 256 KB L2 per core, shared 30 MB L3, 64 B lines,
//! 4 KB pages, two-level TLB).
//!
//! Only *relative* behaviour is claimed — the irregular (interleaved) and
//! regular (decoupled + sorted) access patterns of the two pipelines — which
//! is exactly the quantity the paper uses to explain its speedups.
//!
//! Production kernels are generic over [`Tracer`] and use [`NullTracer`],
//! which compiles to nothing.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_methods
)]

mod cache;
mod hierarchy;
mod space;

pub use cache::CacheConfig;
pub use hierarchy::{CycleModel, Hierarchy, HierarchyConfig, HierarchyStats, SharedHierarchy};
pub use space::AddressSpace;

/// Receives the virtual-address trace of an instrumented kernel.
///
/// `touch` reports an access of `bytes` bytes at `addr`; implementations
/// split it across cache lines as needed.
pub trait Tracer {
    fn touch(&mut self, addr: u64, bytes: u32);
}

/// A tracer that ignores everything; optimizes away entirely, so production
/// kernels instantiated with it pay zero cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline(always)]
    fn touch(&mut self, _addr: u64, _bytes: u32) {}
}

impl Tracer for Hierarchy {
    #[inline]
    fn touch(&mut self, addr: u64, bytes: u32) {
        self.access(addr, bytes);
    }
}

/// A tracer that records the full access trace for later replay — used by
/// the multicore experiments, which capture one trace per simulated core
/// and replay them round-robin into a [`SharedHierarchy`] so cache
/// contention is modelled deterministically.
#[derive(Clone, Debug, Default)]
pub struct CollectingTracer {
    pub trace: Vec<(u64, u32)>,
}

impl Tracer for CollectingTracer {
    #[inline]
    fn touch(&mut self, addr: u64, bytes: u32) {
        self.trace.push((addr, bytes));
    }
}

/// Replay per-core traces round-robin (in `quantum`-access slices) into a
/// shared hierarchy, modelling `traces.len()` cores running concurrently.
pub fn replay_round_robin(
    hierarchy: &mut SharedHierarchy,
    traces: &[Vec<(u64, u32)>],
    quantum: usize,
) {
    assert!(quantum > 0);
    assert!(traces.len() <= hierarchy.cores());
    let mut cursors = vec![0usize; traces.len()];
    loop {
        let mut progressed = false;
        for (core, trace) in traces.iter().enumerate() {
            let start = cursors[core];
            if start >= trace.len() {
                continue;
            }
            progressed = true;
            let end = (start + quantum).min(trace.len());
            for &(addr, bytes) in &trace[start..end] {
                hierarchy.access(core, addr, bytes);
            }
            cursors[core] = end;
        }
        if !progressed {
            break;
        }
    }
}

/// A tracer that simply counts accesses (useful in tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingTracer {
    pub accesses: u64,
    pub bytes: u64,
}

impl Tracer for CountingTracer {
    #[inline]
    fn touch(&mut self, _addr: u64, bytes: u32) {
        self.accesses += 1;
        self.bytes += bytes as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;

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
    fn collecting_tracer_records_in_order() {
        let mut t = CollectingTracer::default();
        t.touch(64, 8);
        t.touch(0, 4);
        assert_eq!(t.trace, vec![(64, 8), (0, 4)]);
    }

    #[test]
    fn replay_is_deterministic_and_covers_all_accesses() {
        let traces: Vec<Vec<(u64, u32)>> = vec![
            (0..100u64).map(|i| (i * 64, 8u32)).collect(),
            (0..37u64).map(|i| ((1 << 20) | (i * 64), 8u32)).collect(),
        ];
        let run = || {
            let mut h = SharedHierarchy::new(small_config(), 2);
            replay_round_robin(&mut h, &traces, 16);
            h.stats()
        };
        let a = run();
        let b = run();
        assert_eq!(a.l1.accesses, 137);
        assert_eq!(a.l1.misses, b.l1.misses);
        assert_eq!(a.l3.misses, b.l3.misses);
    }

    #[test]
    fn replay_handles_uneven_and_empty_traces() {
        let traces: Vec<Vec<(u64, u32)>> =
            vec![vec![], (0..5u64).map(|i| (i * 64, 8u32)).collect()];
        let mut h = SharedHierarchy::new(small_config(), 2);
        replay_round_robin(&mut h, &traces, 3);
        assert_eq!(h.stats().l1.accesses, 5);
    }

    #[test]
    fn stream_prefetcher_eliminates_stream_misses() {
        let mut cfg = small_config();
        cfg.prefetch = true;
        let mut with = Hierarchy::new(cfg);
        let mut without = Hierarchy::new(small_config());
        // A long forward stream, one access per line.
        for i in 0..2000u64 {
            with.access(i * 64, 8);
            without.access(i * 64, 8);
        }
        let (w, wo) = (with.stats(), without.stats());
        assert_eq!(wo.l1.misses, 2000, "no prefetch: every line cold");
        assert!(
            w.l1.misses < 20,
            "stream prefetcher should hide the stream: {} misses",
            w.l1.misses
        );
    }

    #[test]
    fn prefetcher_does_not_help_random_access() {
        let mut cfg = small_config();
        cfg.prefetch = true;
        let mut h = Hierarchy::new(cfg);
        // Pseudo-random lines over a region far beyond L3.
        let mut x = 12345u64;
        let mut addrs = Vec::new();
        for _ in 0..4000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            addrs.push((x >> 20) % (1 << 24));
        }
        for &a in &addrs {
            h.access(a * 64, 8);
        }
        let s = h.stats();
        assert!(
            s.l1.misses as f64 > 0.9 * s.l1.accesses as f64,
            "random accesses must still miss: {} / {}",
            s.l1.misses,
            s.l1.accesses
        );
    }

    #[test]
    fn null_tracer_is_noop() {
        let mut t = NullTracer;
        t.touch(0, 64);
    }

    #[test]
    fn counting_tracer_counts() {
        let mut t = CountingTracer::default();
        t.touch(0, 8);
        t.touch(64, 4);
        assert_eq!(t.accesses, 2);
        assert_eq!(t.bytes, 12);
    }
}
