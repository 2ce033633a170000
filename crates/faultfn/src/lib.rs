//! Deterministic, seedable fault injection for the muBLASTP-rs stack.
//!
//! Production code calls a *site* — a named injection point — at every seam
//! where the real world can fail (a transport read, a shard task, an index
//! load). With no plan installed the check is a single branch on an `Option`
//! discriminant; with the `compiled-off` feature it constant-folds to
//! `false` and disappears entirely. With a plan installed, whether a given
//! call fails is a pure function of `(seed, site, occurrence)` — the same
//! plan replays the same faults, which is what lets the chaos suite assert
//! byte-identical degraded output across runs.
//!
//! Two firing styles, two determinism contracts:
//!
//! * [`Faults::fire`] counts *calls* to the site. Deterministic when the
//!   call order is deterministic (single-threaded seams: transport reads,
//!   queue admission).
//! * [`Faults::fire_at`] keys on a caller-supplied *index* (shard id, rank
//!   id) and ignores call order. Use it wherever a scheduler may reorder
//!   work, so "shard 2 fails" means shard 2 regardless of which worker
//!   picks it up first.
//!
//! The crate also holds the workspace's std-only test support: [`Rng`],
//! the one seeded generator, and [`golden::check_or_bless`], the one
//! golden-file pin the wire, store and metrics suites share.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod golden;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When a site fires, as a function of its occurrence number (0-based).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Schedule {
    /// Never fires (useful to pin a site in a plan without arming it).
    Never,
    /// Fires on every occurrence.
    Always,
    /// Fires exactly once, on occurrence `n` (0-based).
    Nth(u64),
    /// Fires on occurrences `0..n`.
    FirstN(u64),
    /// Fires on every `n`-th occurrence: `n-1`, `2n-1`, … (`n == 0` never
    /// fires).
    EveryNth(u64),
    /// Fires with probability `p`, decided by a hash of
    /// `(seed, site, occurrence)` — deterministic per plan, independent
    /// across occurrences.
    Probability(f64),
}

impl Schedule {
    fn decide(self, seed: u64, site: &str, occurrence: u64) -> bool {
        match self {
            Schedule::Never => false,
            Schedule::Always => true,
            Schedule::Nth(n) => occurrence == n,
            Schedule::FirstN(n) => occurrence < n,
            Schedule::EveryNth(n) => n != 0 && occurrence % n == n - 1,
            Schedule::Probability(p) => {
                if p <= 0.0 {
                    return false;
                }
                if p >= 1.0 {
                    return true;
                }
                let h = mix64(seed ^ site_hash(site), occurrence);
                // Map the top 53 bits to [0, 1): exact in f64.
                let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
                unit < p
            }
        }
    }
}

struct Site {
    name: &'static str,
    schedule: Schedule,
    calls: AtomicU64,
    fired: AtomicU64,
}

/// A seeded set of armed injection sites. Build one with [`FaultPlan::new`]
/// plus [`FaultPlan::with`], then install it via [`FaultPlan::build`] (or
/// `Faults::from`). Immutable once installed; all runtime state is atomic
/// counters, so a plan is safely shared across worker threads.
pub struct FaultPlan {
    seed: u64,
    sites: Vec<Site>,
}

impl FaultPlan {
    /// Start an empty plan with the given seed. The seed feeds every
    /// probabilistic decision and every [`Faults::rand`] stream.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, sites: Vec::new() }
    }

    /// Arm `site` with `schedule`. Re-arming a site replaces its schedule.
    pub fn with(mut self, site: &'static str, schedule: Schedule) -> Self {
        if let Some(s) = self.sites.iter_mut().find(|s| s.name == site) {
            s.schedule = schedule;
        } else {
            self.sites.push(Site {
                name: site,
                schedule,
                calls: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            });
        }
        self
    }

    /// Wrap the plan for installation at injection points.
    pub fn build(self) -> Faults {
        Faults::from(self)
    }

    fn site(&self, name: &str) -> Option<&Site> {
        // Plans hold a handful of sites; linear scan beats hashing.
        self.sites.iter().find(|s| s.name == name)
    }

    fn fire(&self, name: &str) -> bool {
        let Some(site) = self.site(name) else { return false };
        // lint: allow(relaxed-ordering): monotonic occurrence counter —
        // each caller only needs its own unique ticket from fetch_add;
        // no other memory is published under it.
        let occurrence = site.calls.fetch_add(1, Ordering::Relaxed);
        let hit = site.schedule.decide(self.seed, name, occurrence);
        if hit {
            // lint: allow(relaxed-ordering): statistics counter, read
            // only by test assertions after the threads join.
            site.fired.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn fire_at(&self, name: &str, index: u64) -> bool {
        let Some(site) = self.site(name) else { return false };
        // lint: allow(relaxed-ordering): statistics counter, read only
        // by test assertions after the threads join; the decision below
        // is pure in (seed, site, index) and ignores it.
        site.calls.fetch_add(1, Ordering::Relaxed);
        let hit = site.schedule.decide(self.seed, name, index);
        if hit {
            // lint: allow(relaxed-ordering): statistics counter, read
            // only by test assertions after the threads join.
            site.fired.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("FaultPlan");
        d.field("seed", &self.seed);
        for s in &self.sites {
            d.field(s.name, &s.schedule);
        }
        d.finish()
    }
}

/// A cheaply clonable handle threaded through configs and options structs.
/// [`Faults::none`] (the `Default`) injects nothing and costs one branch
/// per site check.
#[derive(Clone, Debug, Default)]
pub struct Faults(Option<Arc<FaultPlan>>);

impl From<FaultPlan> for Faults {
    fn from(plan: FaultPlan) -> Self {
        Faults(Some(Arc::new(plan)))
    }
}

impl Faults {
    /// The inert handle: every `fire*` returns `false`.
    pub fn none() -> Self {
        Faults(None)
    }

    /// Should this call to `site` fail? Counts occurrences per site, so the
    /// result depends on call order — use at single-threaded seams only.
    #[inline]
    pub fn fire(&self, site: &str) -> bool {
        if cfg!(feature = "compiled-off") {
            return false;
        }
        match &self.0 {
            None => false,
            Some(plan) => plan.fire(site),
        }
    }

    /// Should work item `index` at `site` fail? Pure in `(seed, site,
    /// index)` — immune to scheduler reordering, so "shard 2 fails" holds
    /// regardless of which worker reaches shard 2 first.
    #[inline]
    pub fn fire_at(&self, site: &str, index: u64) -> bool {
        if cfg!(feature = "compiled-off") {
            return false;
        }
        match &self.0 {
            None => false,
            Some(plan) => plan.fire_at(site, index),
        }
    }

    /// Deterministic pseudo-random value for `(site, stream)` under the
    /// plan's seed — byte positions to corrupt, injected latencies, jitter.
    /// Returns 0 with no plan installed.
    #[inline]
    pub fn rand(&self, site: &str, stream: u64) -> u64 {
        if cfg!(feature = "compiled-off") {
            return 0;
        }
        match &self.0 {
            None => 0,
            Some(plan) => mix64(plan.seed ^ site_hash(site), stream),
        }
    }

    /// How many times `site` has fired so far (0 with no plan). Test
    /// assertions only; not part of the injection contract.
    pub fn fired(&self, site: &str) -> u64 {
        match &self.0 {
            None => 0,
            Some(plan) => plan
                .site(site)
                // lint: allow(relaxed-ordering): statistics read; tests
                // call this after joining the threads that counted.
                .map(|s| s.fired.load(Ordering::Relaxed))
                .unwrap_or(0),
        }
    }

    /// How many times `site` has been consulted so far (0 with no plan).
    pub fn calls(&self, site: &str) -> u64 {
        match &self.0 {
            None => 0,
            Some(plan) => plan
                .site(site)
                // lint: allow(relaxed-ordering): statistics read; tests
                // call this after joining the threads that counted.
                .map(|s| s.calls.load(Ordering::Relaxed))
                .unwrap_or(0),
        }
    }
}

/// SplitMix64 finalizer over `seed + stream` — the deterministic hash
/// behind probabilistic schedules, jitter, and corruption offsets. Public
/// so retry jitter can share the exact sequence the chaos tests pin.
pub fn mix64(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counter-mode SplitMix64 stream over [`mix64`]: the workspace's one
/// seeded generator, behind the synthetic databases and every seeded test
/// battery. Each draw is a pure function of `(seed, stream, draw index)`,
/// so there is no hidden state to drift across platforms or releases.
pub struct Rng {
    key: u64,
    n: u64,
}

impl Rng {
    /// Stream `stream` of `seed`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng {
            key: mix64(seed, stream),
            n: 0,
        }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.n += 1;
        mix64(self.key, self.n)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`; `n == 0` yields 0). Multiply-shift:
    /// bias below 2^-32 for `n < 2^32`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi` (`lo <= hi`).
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit(); // (0, 1]
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// FNV-1a over the site name, so distinct sites get independent streams
/// from the same seed.
fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in site.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fires_and_reports_inert() {
        let f = Faults::none();
        for _ in 0..100 {
            assert!(!f.fire("x"));
            assert!(!f.fire_at("x", 3));
        }
        assert_eq!(f.rand("x", 0), 0);
        assert_eq!(f.fired("x"), 0);
    }

    #[test]
    fn unarmed_site_never_fires_even_with_plan() {
        let f = FaultPlan::new(1).with("a", Schedule::Always).build();
        assert!(!f.fire("b"));
        assert!(f.fire("a"));
    }

    #[test]
    fn nth_fires_exactly_once_on_the_nth_call() {
        let f = FaultPlan::new(7).with("s", Schedule::Nth(3)).build();
        let hits: Vec<bool> = (0..6).map(|_| f.fire("s")).collect();
        assert_eq!(hits, [false, false, false, true, false, false]);
        assert_eq!(f.fired("s"), 1);
        assert_eq!(f.calls("s"), 6);
    }

    #[test]
    fn first_n_and_every_nth_follow_their_patterns() {
        let f = FaultPlan::new(7)
            .with("f", Schedule::FirstN(2))
            .with("e", Schedule::EveryNth(3))
            .build();
        let first: Vec<bool> = (0..4).map(|_| f.fire("f")).collect();
        assert_eq!(first, [true, true, false, false]);
        let every: Vec<bool> = (0..7).map(|_| f.fire("e")).collect();
        assert_eq!(every, [false, false, true, false, false, true, false]);
    }

    #[test]
    fn every_nth_zero_never_fires() {
        let f = FaultPlan::new(7).with("e", Schedule::EveryNth(0)).build();
        assert!((0..10).all(|_| !f.fire("e")));
    }

    #[test]
    fn fire_at_is_order_independent() {
        let make =
            || FaultPlan::new(9).with("shard", Schedule::Nth(2)).build();
        let a = make();
        let forward: Vec<bool> =
            (0..5).map(|i| a.fire_at("shard", i)).collect();
        let b = make();
        let backward: Vec<bool> =
            (0..5).rev().map(|i| b.fire_at("shard", i)).collect();
        assert_eq!(forward, [false, false, true, false, false]);
        assert_eq!(
            forward,
            backward.into_iter().rev().collect::<Vec<_>>()
        );
    }

    #[test]
    fn probability_is_deterministic_per_seed_and_roughly_calibrated() {
        let sample = |seed: u64| -> Vec<bool> {
            let f = FaultPlan::new(seed)
                .with("p", Schedule::Probability(0.25))
                .build();
            (0..400).map(|_| f.fire("p")).collect()
        };
        assert_eq!(sample(42), sample(42), "same seed, same faults");
        assert_ne!(sample(42), sample(43), "different seed, different faults");
        let hits = sample(42).iter().filter(|&&b| b).count();
        assert!((60..=140).contains(&hits), "p=0.25 over 400: got {hits}");
    }

    #[test]
    fn probability_edges_are_exact() {
        let f = FaultPlan::new(5)
            .with("zero", Schedule::Probability(0.0))
            .with("one", Schedule::Probability(1.0))
            .build();
        assert!((0..50).all(|_| !f.fire("zero")));
        assert!((0..50).all(|_| f.fire("one")));
    }

    #[test]
    fn rand_streams_differ_by_site_and_stream() {
        let f = FaultPlan::new(11).with("a", Schedule::Never).build();
        assert_eq!(f.rand("a", 0), f.rand("a", 0));
        assert_ne!(f.rand("a", 0), f.rand("a", 1));
        assert_ne!(f.rand("a", 0), f.rand("b", 0));
    }

    #[test]
    fn plans_share_state_across_clones() {
        let f = FaultPlan::new(1).with("s", Schedule::Nth(1)).build();
        let g = f.clone();
        assert!(!f.fire("s"));
        assert!(g.fire("s"), "clone sees the first handle's call count");
    }

    #[test]
    fn rng_streams_are_pinned() {
        // Known answers: every synthetic database and seeded battery in
        // the workspace is drawn from these sequences.
        let first2 = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            [r.next_u64(), r.next_u64()]
        };
        assert_eq!(first2(0, 0), [0xB382_A305_F441_4F5E, 0x631A_9154_FBAB_F717]);
        assert_eq!(
            first2(42, 7),
            [0xFF6A_03DD_CC9B_51E2, 0x2A9C_423C_F344_298E]
        );
        assert_ne!(first2(42, 7), first2(42, 8), "streams are independent");
    }

    #[test]
    fn rng_draws_stay_in_range() {
        let mut r = Rng::new(9, 1);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            assert!((3..=5).contains(&r.between(3, 5)));
            assert!((0.0..1.0).contains(&r.unit()));
        }
        assert_eq!(r.between(4, 4), 4);
        assert_eq!(r.below(1), 0);
        // Both ends of a small range are reached.
        let seen: std::collections::BTreeSet<usize> = (0..200).map(|_| r.between(0, 3)).collect();
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert!((0..1_000).all(|_| !r.chance(0.0) && r.chance(1.0)));
    }

    #[test]
    fn rearming_a_site_replaces_its_schedule() {
        let f = FaultPlan::new(1)
            .with("s", Schedule::Always)
            .with("s", Schedule::Never)
            .build();
        assert!(!f.fire("s"));
    }
}
