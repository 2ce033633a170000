//! An OpenMP-style `parallel for schedule(dynamic)` on scoped threads.
//!
//! The paper's intra-node parallelisation (Alg. 3) is
//! `#pragma omp parallel for schedule(dynamic)` over the queries of a
//! batch, *inside* a serial loop over index blocks, with per-thread scratch
//! state (last-hit arrays, hit buffers) to avoid contention and
//! synchronisation. This crate reproduces that model:
//!
//! * work items are handed out through an atomic cursor in chunks
//!   (dynamic scheduling — BLAST is input-sensitive, so static partitioning
//!   of queries load-imbalances badly, see paper Sec. IV-D); the claim
//!   protocol lives in [`cursor`] and is model-checked in the test-only
//!   `model` module;
//! * every worker owns a scratch value created by an `init` closure at
//!   spawn time and reused across all its items (the paper's per-thread
//!   last-hit arrays);
//! * threads are scoped ([`std::thread::scope`]), so borrowing shared
//!   read-only data — the index block, the database — needs no `Arc`;
//! * a panicking worker propagates its *original* panic payload to the
//!   caller (via [`std::panic::resume_unwind`]), so a failure inside a
//!   kernel surfaces its own message instead of a generic pool error.
//!
//! We deliberately do not use rayon: the execution structure here *is* the
//! system under study, and owning it keeps the schedule identical to the
//! paper's.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![deny(missing_docs)]

pub mod cursor;
#[cfg(test)]
mod model;

pub(crate) use cursor::claim_next;

use std::sync::atomic::AtomicUsize;
use std::sync::Mutex;

/// Number of worker threads to use by default (the machine's available
/// parallelism, or 1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Join every worker and re-raise the first panic with its original
/// payload. Collecting all handles first means every worker runs to
/// completion (or its own panic) before the first failure is re-raised.
fn join_resuming_first_panic<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) {
    let mut first_panic = None;
    for handle in handles {
        if let Err(payload) = handle.join() {
            first_panic.get_or_insert(payload);
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
}

/// Dynamic-scheduled parallel for: run `body(&mut scratch, i)` for every
/// `i in 0..n` on `threads` workers, handing out indices in chunks of
/// `chunk`. `init` runs once per worker to build its scratch state.
///
/// With `threads == 1` the loop runs inline on the caller's thread (no
/// spawn), which keeps single-threaded benchmarks free of pool overhead.
///
/// Scheduling invariants (see [`cursor`] for the claim protocol and
/// the test-only `model` module for the machine-checked argument): every
/// index in `0..n` is executed exactly once, for any `threads`, `n`, and
/// `chunk` — including `chunk > n` and `chunk == usize::MAX`.
///
/// # Panics
/// Panics if `threads == 0` or `chunk == 0`. A panic from `body` is
/// re-raised on the caller with its original payload.
pub fn parallel_for_dynamic<S, INIT, F>(threads: usize, n: usize, chunk: usize, init: INIT, body: F)
where
    S: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    assert!(threads > 0, "need at least one thread");
    assert!(chunk > 0, "chunk size must be positive");
    if n == 0 {
        return;
    }
    if threads == 1 {
        let mut scratch = init();
        for i in 0..n {
            body(&mut scratch, i);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let (cursor, init, body) = (&cursor, &init, &body);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(move || {
                    let mut scratch = init();
                    while let Some((start, end)) = claim_next(cursor, n, chunk) {
                        for i in start..end {
                            body(&mut scratch, i);
                        }
                    }
                })
            })
            .collect();
        join_resuming_first_panic(handles);
    });
}

/// Static-scheduled parallel for: pre-partitions `0..n` into `threads`
/// contiguous ranges, one per worker — `#pragma omp parallel for
/// schedule(static)`. Kept for the scheduling ablation: BLAST's per-query
/// cost is input-sensitive, so static partitioning load-imbalances where
/// the dynamic schedule does not (paper Sec. IV-D).
pub fn parallel_for_static<S, INIT, F>(threads: usize, n: usize, init: INIT, body: F)
where
    S: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    assert!(threads > 0, "need at least one thread");
    if n == 0 {
        return;
    }
    if threads == 1 {
        let mut scratch = init();
        for i in 0..n {
            body(&mut scratch, i);
        }
        return;
    }
    let per = n.div_ceil(threads);
    let (init, body) = (&init, &body);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n))
            .map(|t| {
                scope.spawn(move || {
                    let mut scratch = init();
                    for i in (t * per)..((t + 1) * per).min(n) {
                        body(&mut scratch, i);
                    }
                })
            })
            .collect();
        join_resuming_first_panic(handles);
    });
}

/// Dynamic-scheduled parallel map: like [`parallel_for_dynamic`] but
/// collects `body`'s return values in index order.
///
/// Completeness is a hard invariant: the call aborts (panics) if the
/// scheduler ever lost or duplicated an index, rather than silently
/// returning a short or misordered result vector.
pub fn parallel_map_dynamic<T, S, INIT, F>(
    threads: usize,
    n: usize,
    chunk: usize,
    init: INIT,
    body: F,
) -> Vec<T>
where
    T: Send,
    S: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if threads == 1 || n <= 1 {
        assert!(threads > 0, "need at least one thread");
        let mut scratch = init();
        return (0..n).map(|i| body(&mut scratch, i)).collect();
    }
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    parallel_for_dynamic(threads, n, chunk, init, |scratch, i| {
        let v = body(scratch, i);
        // One short lock per item; items here are whole-query searches, so
        // the critical section is negligible against the work. Poisoning
        // is recoverable: a payload-carrying panic elsewhere must not be
        // masked by a PoisonError panic here.
        let mut slot = match results.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        slot.push((i, v));
    });
    let mut all = match results.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    };
    all.sort_by_key(|&(i, _)| i);
    assert_eq!(all.len(), n, "dynamic scheduler lost or duplicated results");
    all.into_iter().map(|(_, v)| v).collect()
}

/// Like [`parallel_map_dynamic`], but the per-worker states are the
/// caller's: the pool runs `min(states.len(), n)` workers and worker `w`
/// mutates `states[w]`, so a state outlives the pool and can be lent to
/// the next one. This is what worker-local accumulators need (e.g.
/// `obsv::Recorder` span rings: each worker records into its own ring
/// without synchronisation, the caller merges the rings after the loop)
/// and what lets the engine keep one last-hit array per worker across the
/// serial block loop of Alg. 3 instead of building one per block.
///
/// With one state, or `n <= 1`, the loop runs inline on `states[0]`.
/// Completeness invariants and panic propagation match
/// [`parallel_map_dynamic`].
///
/// # Panics
/// Panics if `states` is empty or `chunk == 0`.
pub fn parallel_map_dynamic_with_state<T, S, F>(
    states: &mut [S],
    n: usize,
    chunk: usize,
    body: F,
) -> Vec<T>
where
    T: Send,
    S: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    assert!(!states.is_empty(), "need at least one thread");
    assert!(chunk > 0, "chunk size must be positive");
    if states.len() == 1 || n <= 1 {
        let state = &mut states[0];
        return (0..n).map(|i| body(state, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let (cursor, body, results_ref) = (&cursor, &body, &results);
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .take(n)
            .map(|state| {
                scope.spawn(move || {
                    while let Some((start, end)) = claim_next(cursor, n, chunk) {
                        for i in start..end {
                            let v = body(state, i);
                            // One short lock per item (see the identical
                            // trade-off note in parallel_map_dynamic);
                            // recover from poisoning so a worker panic
                            // keeps its own payload.
                            let mut slot = match results_ref.lock() {
                                Ok(guard) => guard,
                                Err(poisoned) => poisoned.into_inner(),
                            };
                            slot.push((i, v));
                        }
                    }
                })
            })
            .collect();
        join_resuming_first_panic(handles);
    });
    let mut all = match results.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    };
    all.sort_by_key(|&(i, _)| i);
    assert_eq!(all.len(), n, "dynamic scheduler lost or duplicated results");
    all.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn visits_every_index_exactly_once() {
        let n = 1000;
        let visited: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_dynamic(4, n, 7, || (), |_, i| {
            visited[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(visited.iter().all(|v| v.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_thread_runs_inline() {
        // threads == 1 must preserve index order (inline execution).
        let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        parallel_for_dynamic(1, 5, 2, || (), |_, i| {
            order.lock().unwrap().push(i);
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn scratch_is_per_worker_and_reused() {
        // Each worker counts its own items; the counts must sum to n and
        // every worker that ran processed at least one chunk.
        let n = 256;
        let total = AtomicUsize::new(0);
        parallel_for_dynamic(
            4,
            n,
            8,
            || 0usize,
            |count, _i| {
                *count += 1;
                // Report on every item; idempotent because we add 1 each time.
                total.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(total.load(Ordering::Relaxed), n);
    }

    #[test]
    fn chunk_larger_than_n() {
        let n = 9;
        let visited: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_dynamic(4, n, 1000, || (), |_, i| {
            visited[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(visited.iter().all(|v| v.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn more_threads_than_items() {
        let n = 3;
        let visited: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_dynamic(16, n, 1, || (), |_, i| {
            visited[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(visited.iter().all(|v| v.load(Ordering::Relaxed) == 1));
        let out = parallel_map_dynamic(16, 3, 1, || (), |_, i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn chunk_usize_max_does_not_wrap() {
        // Regression for the cursor-overflow bug: a bare fetch_add(chunk)
        // wrapped the cursor past zero and duplicated work. See
        // model::tests::wrapping_fetch_add_mutation_is_convicted for the
        // model-checked conviction of the old protocol.
        let n = 64;
        let visited: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_dynamic(8, n, usize::MAX, || (), |_, i| {
            visited[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(visited.iter().all(|v| v.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn worker_panic_payload_is_preserved() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for_dynamic(4, 100, 1, || (), |_, i| {
                if i == 37 {
                    panic!("query 37 exploded");
                }
            });
        }))
        .expect_err("pool must propagate the worker panic");
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert_eq!(msg, "query 37 exploded", "original payload must survive the pool");
    }

    #[test]
    fn static_worker_panic_payload_is_preserved() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for_static(4, 100, || (), |_, i| {
                if i == 63 {
                    panic!("static worker {i} failed");
                }
            });
        }))
        .expect_err("pool must propagate the worker panic");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "static worker 63 failed");
    }

    #[test]
    fn map_returns_in_order() {
        let out = parallel_map_dynamic(4, 500, 3, || (), |_, i| i * i);
        let expect: Vec<usize> = (0..500).map(|i| i * i).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn map_complete_under_maximal_interleaving() {
        // chunk == 1 with more workers than a machine has cores maximises
        // claim contention; the map must still be complete and in order.
        for _ in 0..20 {
            let out = parallel_map_dynamic(16, 97, 1, || (), |_, i| i);
            assert_eq!(out, (0..97).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_single_threaded() {
        let out = parallel_map_dynamic(1, 10, 4, || (), |_, i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_items_is_a_noop() {
        parallel_for_dynamic(4, 0, 1, || (), |_, _| panic!("no items"));
        let out: Vec<usize> = parallel_map_dynamic(4, 0, 1, || (), |_, i| i);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        parallel_for_dynamic(0, 10, 1, || (), |_, _| {});
    }

    #[test]
    fn with_state_mutates_the_callers_states() {
        let mut states = vec![0usize; 4];
        let out = parallel_map_dynamic_with_state(&mut states, 100, 3, |count, i| {
            *count += 1;
            i * 2
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(states.iter().sum::<usize>(), 100);
        // The same states serve a second pool: counts keep accumulating.
        parallel_map_dynamic_with_state(&mut states, 50, 1, |count, _| *count += 1);
        assert_eq!(states.iter().sum::<usize>(), 150);
    }

    #[test]
    fn with_state_single_thread_and_empty() {
        let mut one = [0usize];
        let out = parallel_map_dynamic_with_state(&mut one, 5, 2, |count, i| {
            *count += 1;
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(one, [5]);
        let out: Vec<usize> = parallel_map_dynamic_with_state(&mut [(); 8], 0, 1, |_, i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn with_state_more_states_than_items() {
        let mut states = vec![0usize; 16];
        let out = parallel_map_dynamic_with_state(&mut states, 3, 1, |count, i| {
            *count += 1;
            i
        });
        assert_eq!(out, vec![0, 1, 2]);
        // min(states, n) workers: the states past the third are never used.
        assert_eq!(states.iter().sum::<usize>(), 3);
        assert!(states[3..].iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn with_state_no_states_panics() {
        parallel_map_dynamic_with_state(&mut [(); 0], 10, 1, |_, i| i);
    }

    #[test]
    fn with_state_panic_payload_preserved() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map_dynamic_with_state(&mut [(); 4], 50, 1, |_, i| {
                if i == 13 {
                    panic!("item 13 exploded");
                }
                i
            });
        }))
        .expect_err("pool must propagate the worker panic");
        let msg = caught.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "item 13 exploded");
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn static_schedule_visits_every_index_once() {
        let n = 999;
        let visited: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_static(4, n, || (), |_, i| {
            visited[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(visited.iter().all(|v| v.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn static_schedule_partitions_contiguously() {
        // Each worker's scratch records its indices; ranges are contiguous.
        let ranges: Mutex<Vec<Vec<usize>>> = Mutex::new(Vec::new());
        parallel_for_static(
            3,
            30,
            Vec::<usize>::new,
            |local, i| {
                local.push(i);
                if local.len() == 10 {
                    ranges.lock().unwrap().push(local.clone());
                }
            },
        );
        let mut r = ranges.into_inner().unwrap();
        r.sort();
        assert_eq!(r.len(), 3);
        for chunk in &r {
            assert!(chunk.windows(2).all(|w| w[1] == w[0] + 1), "{chunk:?}");
        }
    }
}
