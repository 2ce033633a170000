//! A miniature deterministic model checker ("mini-loom") for the dynamic
//! scheduler's claim protocol.
//!
//! The hand-rolled `schedule(dynamic)` pool is the one piece of this
//! reproduction whose correctness depends on thread interleavings, and
//! ordinary unit tests only ever observe the handful of interleavings the
//! OS happens to produce. This module explores interleavings *by
//! construction*:
//!
//! * Worker logic runs on real threads, but every atomic operation on the
//!   cursor goes through a [`VirtualCursor`] that parks the worker at a
//!   **turnstile**. The turnstile releases exactly one worker at a time,
//!   and only once every live worker is parked — so an entire run is a
//!   deterministic function of the sequence of scheduling choices.
//! * [`check_exhaustive`] enumerates *all* choice sequences (bounded by
//!   `max_runs`) depth-first, replaying the scenario once per schedule.
//! * [`check_random`] samples schedules from a seeded xorshift generator,
//!   for configurations too large to exhaust.
//!
//! Every run is checked against **shadow state**: the set of claimed
//! ranges must be in-bounds, disjoint, and cover `0..n` exactly once, and
//! the simulated `parallel_map` assembly over those claims must reproduce
//! the expected output in index order. Violations are reported with the
//! offending schedule so a failure is replayable.
//!
//! The checked code is not a transcription: [`crate::cursor::claim_next`]
//! is generic over [`CursorCell`], so the model drives the *same function*
//! the production pool runs, just with virtual atomics. The [`mutations`]
//! module carries intentionally broken claim protocols (the seed
//! scheduler's wrapping `fetch_add`, and a classic lost-update) that the
//! checker must be able to convict — they double as a self-test that the
//! checker actually has the power to see these bugs.

use crate::cursor::CursorCell;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A claim protocol under test: `(cursor, n, chunk) -> Some((start, end))`
/// or `None` when the caller should stop.
pub(crate) type Strategy = fn(&VirtualCursor, usize, usize) -> Option<(usize, usize)>;

/// What went wrong in a run, in shadow-state terms.
#[derive(Clone, Debug, PartialEq, Eq)]
#[expect(
    clippy::enum_variant_names,
    reason = "each variant names the shadow-state check that failed"
)]
pub(crate) enum Violation {
    /// An index was handed to two claims (duplicated work).
    DuplicateIndex { index: usize },
    /// An index was never handed out (lost work).
    LostIndex { index: usize },
    /// A claim escaped `0..n`.
    OutOfBounds { start: usize, end: usize, n: usize },
    /// The simulated `parallel_map` assembly did not reproduce the
    /// expected output in index order.
    OrderViolation { position: usize },
    /// A worker exceeded the claim budget (runaway protocol).
    Runaway { worker: usize },
}

/// A failing schedule: the scheduling choice taken at each turnstile
/// decision, sufficient to replay the run deterministically.
#[derive(Clone, Debug)]
pub(crate) struct Counterexample {
    pub violation: Violation,
    pub schedule: Vec<usize>,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} under schedule {:?}", self.violation, self.schedule)
    }
}

/// Outcome of an exploration that found no violation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ExploreStats {
    /// Schedules executed.
    pub runs: usize,
    /// Whether the schedule space was exhausted (`check_exhaustive` only;
    /// always `false` for random sampling).
    pub complete: bool,
}

// ---------------------------------------------------------------------
// The turnstile scheduler.
// ---------------------------------------------------------------------

enum Chooser {
    /// Replay this choice at each decision; 0 (first waiter) beyond the end.
    Script(Vec<usize>),
    /// Seeded xorshift choices.
    Random(Xorshift),
}

struct Decision {
    chosen: usize,
    options: usize,
}

struct SchedState {
    /// The virtual cursor value all atomic ops act on.
    value: usize,
    /// Worker ids parked at their next atomic op, ascending.
    waiting: Vec<usize>,
    /// Workers that have finished their loop.
    finished: usize,
    /// The worker currently released through the turnstile, if any.
    granted: Option<usize>,
    chooser: Chooser,
    decisions: Vec<Decision>,
    /// Set when a worker panicked; parked workers abort instead of hanging.
    failed: bool,
}

struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
    workers: usize,
}

impl Scheduler {
    fn new(workers: usize, chooser: Chooser) -> Scheduler {
        Scheduler {
            state: Mutex::new(SchedState {
                value: 0,
                waiting: Vec::new(),
                finished: 0,
                granted: None,
                chooser,
                decisions: Vec::new(),
                failed: false,
            }),
            cv: Condvar::new(),
            workers,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// If every live worker is parked and nobody holds the turnstile,
    /// pick the next worker to release.
    fn maybe_select(&self, st: &mut SchedState) {
        if st.granted.is_some() || st.waiting.is_empty() {
            return;
        }
        if st.waiting.len() + st.finished < self.workers {
            return; // someone is still running toward the turnstile
        }
        let options = st.waiting.len();
        let k = st.decisions.len();
        let chosen = match &mut st.chooser {
            Chooser::Script(s) => s.get(k).copied().unwrap_or(0).min(options - 1),
            Chooser::Random(rng) => (rng.next() % options as u64) as usize,
        };
        st.decisions.push(Decision { chosen, options });
        st.granted = Some(st.waiting[chosen]);
        self.cv.notify_all();
    }

    /// Park at the turnstile, and once released perform `op` atomically
    /// (under the state lock) on the virtual cursor value.
    fn step<R>(&self, id: usize, op: impl FnOnce(&mut usize) -> R) -> R {
        let mut st = self.lock();
        let pos = st.waiting.partition_point(|&w| w < id);
        st.waiting.insert(pos, id);
        self.maybe_select(&mut st);
        while st.granted != Some(id) {
            assert!(!st.failed, "model run aborted: another worker panicked");
            let (next, timeout) = match self.cv.wait_timeout(st, Duration::from_secs(10)) {
                Ok(r) => r,
                Err(poisoned) => {
                    let (g, t) = poisoned.into_inner();
                    (g, t)
                }
            };
            st = next;
            assert!(
                !timeout.timed_out() || st.granted == Some(id) || st.failed,
                "model scheduler stalled (worker {id} parked >10s)"
            );
        }
        st.granted = None;
        st.waiting.retain(|&w| w != id);
        op(&mut st.value)
    }

    fn finish(&self) {
        let mut st = self.lock();
        st.finished += 1;
        self.maybe_select(&mut st);
        self.cv.notify_all();
    }

    fn fail(&self) {
        let mut st = self.lock();
        st.failed = true;
        self.cv.notify_all();
    }
}

/// A worker's handle on the model's shared cursor. Each of the
/// [`CursorCell`] operations is one scheduling point: the worker parks at
/// the turnstile and the operation executes atomically when the schedule
/// releases it.
pub(crate) struct VirtualCursor {
    sched: Arc<Scheduler>,
    id: usize,
}

impl CursorCell for VirtualCursor {
    fn load(&self) -> usize {
        self.sched.step(self.id, |v| *v)
    }

    fn compare_exchange(&self, current: usize, new: usize) -> Result<usize, usize> {
        self.sched.step(self.id, |v| {
            if *v == current {
                *v = new;
                Ok(current)
            } else {
                Err(*v)
            }
        })
    }

    fn store_wrapping_add(&self, delta: usize) -> usize {
        self.sched.step(self.id, |v| {
            let old = *v;
            *v = old.wrapping_add(delta);
            old
        })
    }
}

/// Marks the run failed if its worker unwinds, so parked peers abort
/// instead of deadlocking on a quorum that can never re-form.
struct AbortGuard(Arc<Scheduler>);

impl Drop for AbortGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.fail();
        }
    }
}

// ---------------------------------------------------------------------
// One deterministic run + shadow-state checking.
// ---------------------------------------------------------------------

struct RunOutcome {
    /// `(worker, start, end)` in global claim order (the turnstile
    /// serializes workers, so this order is well-defined).
    claims: Vec<(usize, usize, usize)>,
    decisions: Vec<(usize, usize)>, // (chosen, options)
    runaway: Option<usize>,
}

fn run_once(workers: usize, n: usize, chunk: usize, strategy: Strategy, chooser: Chooser) -> RunOutcome {
    let sched = Arc::new(Scheduler::new(workers, chooser));
    let claims: Mutex<Vec<(usize, usize, usize)>> = Mutex::new(Vec::new());
    let runaway: Mutex<Option<usize>> = Mutex::new(None);
    // A correct protocol issues at most ceil(n/chunk)+1 claims per run in
    // total; this budget only exists to terminate runaway mutations.
    let budget = n + 4 * workers + 16;
    std::thread::scope(|scope| {
        for id in 0..workers {
            let sched = Arc::clone(&sched);
            let (claims, runaway) = (&claims, &runaway);
            scope.spawn(move || {
                let guard = AbortGuard(Arc::clone(&sched));
                let cursor = VirtualCursor { sched: Arc::clone(&sched), id };
                while let Some((start, end)) = strategy(&cursor, n, chunk) {
                    let mut c = match claims.lock() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                    c.push((id, start, end));
                    if c.len() > budget {
                        match runaway.lock() {
                            Ok(mut g) => *g = Some(id),
                            Err(p) => *p.into_inner() = Some(id),
                        }
                        break;
                    }
                }
                sched.finish();
                drop(guard);
            });
        }
    });
    let st = sched.lock();
    RunOutcome {
        claims: match claims.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        },
        decisions: st.decisions.iter().map(|d| (d.chosen, d.options)).collect(),
        runaway: match runaway.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        },
    }
}

/// Shadow-state verdict over one run's claims.
fn check_claims(out: &RunOutcome, n: usize) -> Option<Violation> {
    if let Some(worker) = out.runaway {
        return Some(Violation::Runaway { worker });
    }
    let mut count = vec![0u32; n];
    for &(_, start, end) in &out.claims {
        if start > end || end > n {
            return Some(Violation::OutOfBounds { start, end, n });
        }
        for c in &mut count[start..end] {
            *c += 1;
        }
    }
    for (i, &c) in count.iter().enumerate() {
        if c > 1 {
            return Some(Violation::DuplicateIndex { index: i });
        }
        if c == 0 {
            return Some(Violation::LostIndex { index: i });
        }
    }
    // Simulate `parallel_map_dynamic` result assembly over the claims:
    // collect (i, f(i)) in claim order, sort by index, compare.
    let mut assembled: Vec<(usize, usize)> = Vec::with_capacity(n);
    for &(_, start, end) in &out.claims {
        for i in start..end {
            assembled.push((i, i.wrapping_mul(2654435761)));
        }
    }
    assembled.sort_by_key(|&(i, _)| i);
    for (pos, &(i, v)) in assembled.iter().enumerate() {
        if i != pos || v != pos.wrapping_mul(2654435761) {
            return Some(Violation::OrderViolation { position: pos });
        }
    }
    None
}

fn schedule_of(out: &RunOutcome) -> Vec<usize> {
    out.decisions.iter().map(|&(chosen, _)| chosen).collect()
}

// ---------------------------------------------------------------------
// Exploration drivers.
// ---------------------------------------------------------------------

/// Explore *every* schedule of `workers` workers running `strategy` over
/// `0..n` in chunks of `chunk`, depth-first, up to `max_runs` runs.
///
/// Returns the first violation with its replayable schedule, or
/// exploration statistics (`complete == true` iff the whole schedule
/// space fit inside `max_runs`).
pub(crate) fn check_exhaustive(
    workers: usize,
    n: usize,
    chunk: usize,
    strategy: Strategy,
    max_runs: usize,
) -> Result<ExploreStats, Counterexample> {
    let mut script: Vec<usize> = Vec::new();
    let mut runs = 0;
    loop {
        let out = run_once(workers, n, chunk, strategy, Chooser::Script(script.clone()));
        runs += 1;
        if let Some(violation) = check_claims(&out, n) {
            return Err(Counterexample { violation, schedule: schedule_of(&out) });
        }
        // Odometer: advance the deepest decision that still has an
        // unexplored branch, truncating everything after it.
        let mut next = None;
        for (i, &(chosen, options)) in out.decisions.iter().enumerate().rev() {
            if chosen + 1 < options {
                let mut s: Vec<usize> = out.decisions[..i].iter().map(|&(c, _)| c).collect();
                s.push(chosen + 1);
                next = Some(s);
                break;
            }
        }
        match next {
            Some(s) if runs < max_runs => script = s,
            Some(_) => return Ok(ExploreStats { runs, complete: false }),
            None => return Ok(ExploreStats { runs, complete: true }),
        }
    }
}

/// Run `runs` schedules sampled from a seeded xorshift generator —
/// coverage for configurations whose schedule space is too large to
/// exhaust. Deterministic for a given `(seed, runs)`.
pub(crate) fn check_random(
    workers: usize,
    n: usize,
    chunk: usize,
    strategy: Strategy,
    seed: u64,
    runs: usize,
) -> Result<ExploreStats, Counterexample> {
    for r in 0..runs {
        let rng = Xorshift::new(seed ^ (r as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let out = run_once(workers, n, chunk, strategy, Chooser::Random(rng));
        if let Some(violation) = check_claims(&out, n) {
            return Err(Counterexample { violation, schedule: schedule_of(&out) });
        }
    }
    Ok(ExploreStats { runs, complete: false })
}

/// The schedule space of the *fixed* claim protocol, checked exhaustively
/// over a panel of small configurations plus randomly over larger ones.
/// This is the tier-1 entry point (also what CI runs); a `Counterexample`
/// return means the dynamic scheduler is broken.
pub(crate) fn verify_claim_protocol() -> Result<(), Counterexample> {
    let claim: Strategy = crate::cursor::claim_next::<VirtualCursor>;
    // Small configs: exhaustive.
    for (workers, n, chunk) in
        [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 4, 2), (3, 3, 2), (2, 3, usize::MAX)]
    {
        check_exhaustive(workers, n, chunk, claim, 200_000)?;
    }
    // Larger configs: seeded sampling.
    for (workers, n, chunk) in [(4, 16, 3), (4, 32, 5), (3, 17, usize::MAX / 2 + 1)] {
        check_random(workers, n, chunk, claim, 0x5EED_CAFE, 200)?;
    }
    Ok(())
}

struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Xorshift {
        Xorshift(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Intentionally broken claim protocols. The model checker must convict
/// every one of these — that conviction is the checker's own regression
/// suite (a checker that passes a known-broken scheduler is itself
/// broken).
pub(crate) mod mutations {
    use crate::cursor::CursorCell;

    /// The seed scheduler's protocol, pre-fix: a bare wrapping
    /// `fetch_add(chunk)` with a post-hoc bounds check. Every claim
    /// attempt advances the cursor by `chunk` even after the range is
    /// exhausted, so with `chunk` near `usize::MAX` the cursor wraps past
    /// zero and indices are handed out twice.
    pub(crate) fn claim_wrapping_fetch_add<C: CursorCell>(
        cursor: &C,
        n: usize,
        chunk: usize,
    ) -> Option<(usize, usize)> {
        let start = cursor.store_wrapping_add(chunk);
        if start >= n {
            return None;
        }
        Some((start, start.saturating_add(chunk).min(n)))
    }

    /// Classic lost update: read, compute, then *ignore* the CAS result.
    /// Two workers that read the same cursor value both believe they own
    /// the same range.
    pub(crate) fn claim_lost_update<C: CursorCell>(
        cursor: &C,
        n: usize,
        chunk: usize,
    ) -> Option<(usize, usize)> {
        let current = cursor.load();
        if current >= n {
            return None;
        }
        let end = current.saturating_add(chunk).min(n);
        let _ = cursor.compare_exchange(current, end); // result dropped: the bug
        Some((current, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::claim_next;

    const CLAIM: Strategy = claim_next::<VirtualCursor>;

    #[test]
    fn fixed_protocol_passes_exhaustively() {
        for (workers, n, chunk) in [(2, 3, 1), (3, 2, 1), (2, 4, 2)] {
            let stats = check_exhaustive(workers, n, chunk, CLAIM, 200_000)
                .unwrap_or_else(|cx| panic!("violation: {cx}"));
            assert!(stats.complete, "schedule space not exhausted");
            assert!(stats.runs > 1, "expected multiple interleavings");
        }
    }

    #[test]
    fn fixed_protocol_survives_huge_chunk_interleavings() {
        // The overflow regression: pre-fix, chunk near usize::MAX wrapped
        // the cursor and duplicated work. The fixed protocol must pass
        // the *same* configuration the mutation fails below.
        let stats = check_exhaustive(3, 4, usize::MAX / 2 + 1, CLAIM, 200_000)
            .unwrap_or_else(|cx| panic!("violation: {cx}"));
        assert!(stats.complete);
    }

    #[test]
    fn fixed_protocol_passes_random_sampling() {
        check_random(4, 16, 3, CLAIM, 0xDECAF, 150).unwrap_or_else(|cx| panic!("violation: {cx}"));
    }

    #[test]
    fn wrapping_fetch_add_mutation_is_convicted() {
        // The seed scheduler's cursor-overflow bug, reproduced in the
        // model: with chunk = 2^63 the second fetch_add wraps the cursor
        // to 0 and a later claim duplicates the whole range.
        let cx = check_exhaustive(
            3,
            4,
            usize::MAX / 2 + 1,
            mutations::claim_wrapping_fetch_add::<VirtualCursor>,
            200_000,
        )
        .expect_err("model checker failed to detect the cursor-overflow bug");
        assert!(
            matches!(cx.violation, Violation::DuplicateIndex { .. }),
            "expected duplicated work, got {cx}"
        );
    }

    #[test]
    fn lost_update_mutation_is_convicted() {
        let cx = check_exhaustive(2, 2, 1, mutations::claim_lost_update::<VirtualCursor>, 200_000)
            .expect_err("model checker failed to detect the lost update");
        assert!(
            matches!(cx.violation, Violation::DuplicateIndex { .. }),
            "expected duplicated work, got {cx}"
        );
    }

    #[test]
    fn counterexample_schedule_replays() {
        // Replaying a counterexample's schedule must reproduce the
        // violation deterministically.
        let cx = check_exhaustive(2, 2, 1, mutations::claim_lost_update::<VirtualCursor>, 200_000)
            .expect_err("no violation found");
        let out = run_once(
            2,
            2,
            1,
            mutations::claim_lost_update::<VirtualCursor>,
            Chooser::Script(cx.schedule.clone()),
        );
        assert_eq!(check_claims(&out, 2), Some(cx.violation));
    }

    #[test]
    fn tier1_protocol_verification() {
        verify_claim_protocol().unwrap_or_else(|cx| panic!("scheduler violation: {cx}"));
    }
}
