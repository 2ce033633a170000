//! Deterministic retry with exponential backoff for protocol clients.
//!
//! Retrying a search is only safe when the request is known **not** to
//! have been admitted to the batcher: re-running an admitted request
//! would double its work (and, for a non-idempotent deployment, its
//! side effects). Each failed attempt therefore carries an explicit
//! `admitted` verdict ([`AttemptError`]), and the loop retries only
//! refusals that provably happened *before* admission — connection
//! failures and the server's typed `Overloaded` / `ShuttingDown`
//! answers. An I/O error after the request frame was written is
//! ambiguous (the server may have admitted it and died mid-reply), so
//! it is fatal.
//!
//! Backoff is exponential with a hard cap and **deterministic jitter**:
//! the pause for attempt *n* is drawn from `[exp/2, exp]` using
//! [`faultfn::mix64`] keyed by the policy seed, so a chaos run replays
//! the exact same pause sequence every time. A server `Overloaded`
//! back-off hint raises (never lowers) the pause. A wall-clock budget
//! bounds total sleep; when the next pause would exceed it, the loop
//! stops and returns the last underlying error.

use crate::client::{Client, ClientError};
use crate::events::EventLog;
use crate::proto::{ErrorCode, ParamOverrides, SearchResponse};
use engine::EngineKind;
use obsv::metrics::names;
use obsv::{Counter, Registry};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// When and how long to back off between attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (at least one always runs).
    pub max_attempts: u32,
    /// Backoff before the second attempt, doubled each retry.
    pub base: Duration,
    /// Upper bound on any single pause.
    pub cap: Duration,
    /// Upper bound on the *sum* of pauses; exhausting it ends the loop.
    pub budget: Duration,
    /// Seed for the deterministic jitter sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            budget: Duration::from_secs(5),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The pause after failed attempt `attempt` (0-based): exponential
    /// growth capped at [`RetryPolicy::cap`], jittered into the upper
    /// half of the window by a seed-keyed hash — deterministic per
    /// `(seed, attempt)`, decorrelated across seeds.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .checked_mul(1u32 << attempt.min(16))
            .unwrap_or(self.cap)
            .min(self.cap);
        let half = exp / 2;
        let span = (exp - half).as_nanos().min(u128::from(u64::MAX)) as u64;
        let jitter = if span == 0 {
            0
        } else {
            faultfn::mix64(self.seed, u64::from(attempt)) % (span + 1)
        };
        half.saturating_add(Duration::from_nanos(jitter))
    }
}

/// Observability hooks for a retry loop: every attempt bumps
/// `serve.retry.attempts`, every loop that gives up bumps
/// `serve.retry.exhausted` (whatever ended it — attempts, budget, or a
/// non-retriable failure; the event text says which), and an attached
/// [`EventLog`] gets a `retry_exhaustion` line. The default/[disabled]
/// value records nothing, so instrumentation is strictly opt-in.
///
/// [disabled]: RetryObs::disabled
#[derive(Clone, Debug, Default)]
pub struct RetryObs {
    attempts: Counter,
    exhausted: Counter,
    events: Option<Arc<EventLog>>,
}

impl RetryObs {
    /// Hooks that record nothing (the uninstrumented path).
    pub fn disabled() -> RetryObs {
        RetryObs::default()
    }

    /// Bind the attempt/exhaustion counters to `registry`, optionally
    /// appending exhaustion events to `events`.
    pub fn new(registry: &Registry, events: Option<Arc<EventLog>>) -> RetryObs {
        RetryObs {
            attempts: registry.counter(names::RETRY_ATTEMPTS),
            exhausted: registry.counter(names::RETRY_EXHAUSTED),
            events,
        }
    }

    fn on_attempt(&self) {
        self.attempts.inc();
    }

    fn on_exhausted(&self, trace_id: u64, attempts: u32, error: &str) {
        self.exhausted.inc();
        if let Some(log) = &self.events {
            log.retry_exhaustion(trace_id, attempts, error);
        }
    }
}

/// One attempt's failure, classified for the retry decision.
#[derive(Debug)]
pub struct AttemptError<E> {
    /// The underlying failure, returned verbatim if the loop gives up.
    pub error: E,
    /// `true` when the request may have reached the batcher — retrying
    /// could execute it twice, so the loop stops immediately.
    pub admitted: bool,
    /// Server-suggested minimum pause (the `Overloaded` hint); raises
    /// the computed backoff, never lowers it.
    pub retry_after: Option<Duration>,
}

/// What a [`retry`] loop did, alongside its result.
#[derive(Debug)]
pub struct RetryOutcome<T, E> {
    /// `Ok` from the first successful attempt, or the *last* attempt's
    /// underlying error once attempts or budget ran out.
    pub result: Result<T, E>,
    /// Attempts actually made (1-based; at least 1).
    pub attempts: u32,
    /// Total pause time handed to the sleep hook.
    pub slept: Duration,
}

/// Drive `op` under `policy`, pausing via `sleep` between attempts.
///
/// `op` receives the 0-based attempt number. The loop stops on the
/// first success, on a failure marked `admitted`, when `max_attempts`
/// is reached, or when the next pause would blow the budget — in every
/// failure case the **last underlying error** is returned. `sleep` is
/// injectable so tests (and the chaos battery) run without wall-clock
/// waits.
pub fn retry<T, E, F, S>(policy: &RetryPolicy, mut op: F, mut sleep: S) -> RetryOutcome<T, E>
where
    F: FnMut(u32) -> Result<T, AttemptError<E>>,
    S: FnMut(Duration),
{
    let mut slept = Duration::ZERO;
    let mut attempt = 0u32;
    loop {
        match op(attempt) {
            Ok(v) => {
                return RetryOutcome { result: Ok(v), attempts: attempt + 1, slept };
            }
            Err(failed) => {
                if failed.admitted || attempt + 1 >= policy.max_attempts {
                    return RetryOutcome {
                        result: Err(failed.error),
                        attempts: attempt + 1,
                        slept,
                    };
                }
                let mut pause = policy.backoff(attempt);
                if let Some(hint) = failed.retry_after {
                    pause = pause.max(hint);
                }
                if slept + pause > policy.budget {
                    return RetryOutcome {
                        result: Err(failed.error),
                        attempts: attempt + 1,
                        slept,
                    };
                }
                sleep(pause);
                slept += pause;
                attempt += 1;
            }
        }
    }
}

/// [`retry`] with metrics: each attempt and each exhausted loop is
/// recorded through `obs`. Retries happen before admission, so the
/// request usually has no trace ID yet; pass 0 when that is the case
/// (the event is still joinable by timestamp and error text).
pub fn retry_observed<T, E, F, S>(
    policy: &RetryPolicy,
    obs: &RetryObs,
    trace_id: u64,
    mut op: F,
    sleep: S,
) -> RetryOutcome<T, E>
where
    E: std::fmt::Display,
    F: FnMut(u32) -> Result<T, AttemptError<E>>,
    S: FnMut(Duration),
{
    let out = retry(
        policy,
        |attempt| {
            obs.on_attempt();
            op(attempt)
        },
        sleep,
    );
    if let Err(e) = &out.result {
        obs.on_exhausted(trace_id, out.attempts, &e.to_string());
    }
    out
}

/// Classify a [`ClientError`] from a completed round-trip: only the
/// server's pre-admission refusals are retriable; everything after the
/// request frame left the client may already be running.
pub fn classify_response_error(error: ClientError) -> AttemptError<ClientError> {
    let (admitted, retry_after) = match &error {
        ClientError::Server(e) if e.code == ErrorCode::Overloaded => {
            (false, Some(Duration::from_millis(u64::from(e.retry_after_ms))))
        }
        ClientError::Server(e) if e.code == ErrorCode::ShuttingDown => (false, None),
        _ => (true, None),
    };
    AttemptError { error, admitted, retry_after }
}

/// Run one search with retries, dialing a fresh connection per attempt.
///
/// `connect` failures are always retriable (nothing was sent); failures
/// after the round-trip are classified by [`classify_response_error`].
/// Sleeps on the real clock — use [`retry`] directly to inject a fake.
pub fn search_with_retry<C, F>(
    policy: &RetryPolicy,
    connect: F,
    fasta: &str,
    engine: EngineKind,
    overrides: ParamOverrides,
    deadline_ms: u32,
    want_trace: bool,
) -> RetryOutcome<SearchResponse, ClientError>
where
    C: Read + Write,
    F: FnMut() -> Result<Client<C>, ClientError>,
{
    search_with_retry_observed(
        policy,
        &RetryObs::disabled(),
        connect,
        fasta,
        engine,
        overrides,
        deadline_ms,
        want_trace,
    )
}

/// [`search_with_retry`] with metrics: attempts and exhaustion are
/// recorded through `obs` (the loop runs before admission, so
/// exhaustion events carry trace ID 0).
#[allow(
    clippy::too_many_arguments,
    reason = "the observed variant adds its observers to search_with_retry's arguments"
)]
pub fn search_with_retry_observed<C, F>(
    policy: &RetryPolicy,
    obs: &RetryObs,
    mut connect: F,
    fasta: &str,
    engine: EngineKind,
    overrides: ParamOverrides,
    deadline_ms: u32,
    want_trace: bool,
) -> RetryOutcome<SearchResponse, ClientError>
where
    C: Read + Write,
    F: FnMut() -> Result<Client<C>, ClientError>,
{
    retry_observed(
        policy,
        obs,
        0,
        |_| {
            let mut client = connect().map_err(|error| AttemptError {
                error,
                admitted: false,
                retry_after: None,
            })?;
            client
                .search_traced(fasta, engine, overrides, deadline_ms, want_trace)
                .map_err(classify_response_error)
        },
        std::thread::sleep,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::WireError;

    fn policy(seed: u64) -> RetryPolicy {
        RetryPolicy { seed, ..RetryPolicy::default() }
    }

    fn refused(code: ErrorCode, hint_ms: u32) -> AttemptError<ClientError> {
        classify_response_error(ClientError::Server(WireError {
            code,
            message: "refused".to_string(),
            retry_after_ms: hint_ms,
        }))
    }

    #[test]
    fn backoff_sequence_is_pinned_by_seed() {
        let p = policy(42);
        let first: Vec<Duration> = (0..4).map(|a| p.backoff(a)).collect();
        let again: Vec<Duration> = (0..4).map(|a| p.backoff(a)).collect();
        assert_eq!(first, again, "same seed, same sequence");
        let other: Vec<Duration> = (0..4).map(|a| policy(43).backoff(a)).collect();
        assert_ne!(first, other, "different seed, different jitter");
        for (a, d) in first.iter().enumerate() {
            let exp = p.base.checked_mul(1 << a).expect("small").min(p.cap);
            assert!(*d >= exp / 2 && *d <= exp, "attempt {a}: {d:?} outside [{:?}, {exp:?}]", exp / 2);
        }
    }

    #[test]
    fn backoff_never_exceeds_cap_even_far_out() {
        let p = policy(7);
        for a in [10, 16, 31, u32::MAX] {
            assert!(p.backoff(a) <= p.cap);
        }
    }

    #[test]
    fn retries_refusals_then_succeeds() {
        let p = policy(1);
        let mut calls = 0u32;
        let mut pauses = Vec::new();
        let out = retry(
            &p,
            |attempt| {
                calls += 1;
                assert_eq!(attempt + 1, calls);
                if attempt < 2 {
                    Err(refused(ErrorCode::Overloaded, 40))
                } else {
                    Ok("done")
                }
            },
            |d| pauses.push(d),
        );
        assert_eq!(out.result.expect("third attempt wins"), "done");
        assert_eq!(out.attempts, 3);
        assert_eq!(pauses.len(), 2);
        // The Overloaded hint is a floor under the computed backoff.
        for (a, d) in pauses.iter().enumerate() {
            let want = p.backoff(a as u32).max(Duration::from_millis(40));
            assert_eq!(*d, want);
        }
        assert_eq!(out.slept, pauses.iter().sum());
    }

    #[test]
    fn budget_exhaustion_returns_last_error_without_sleeping_past_it() {
        let p = RetryPolicy {
            max_attempts: 10,
            budget: Duration::from_millis(30),
            ..policy(2)
        };
        let mut calls = 0u32;
        let out: RetryOutcome<(), ClientError> = retry(
            &p,
            |_| {
                calls += 1;
                Err(refused(ErrorCode::Overloaded, 25))
            },
            |_| {},
        );
        assert!(calls < p.max_attempts, "budget cut the loop short");
        assert_eq!(out.attempts, calls);
        assert!(out.slept <= p.budget);
        match out.result {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Overloaded),
            other => panic!("wanted the last Overloaded refusal, got {other:?}"),
        }
    }

    #[test]
    fn attempts_exhaustion_returns_last_error() {
        let p = RetryPolicy { max_attempts: 3, ..policy(3) };
        let mut calls = 0u32;
        let out: RetryOutcome<(), ClientError> = retry(
            &p,
            |_| {
                calls += 1;
                Err(refused(ErrorCode::ShuttingDown, 0))
            },
            |_| {},
        );
        assert_eq!(calls, 3);
        match out.result {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::ShuttingDown),
            other => panic!("wanted ShuttingDown, got {other:?}"),
        }
    }

    #[test]
    fn admitted_failure_is_never_retried() {
        // Conviction test for the "retry everything" mutant: an I/O error
        // after the request frame was written may mean the server is
        // already running the search — a second attempt would run it
        // twice. The loop must stop after exactly one execution.
        let p = RetryPolicy { max_attempts: 8, ..policy(4) };
        let mut executions = 0u32;
        let out: RetryOutcome<(), ClientError> = retry(
            &p,
            |_| {
                executions += 1;
                Err(classify_response_error(ClientError::Io(
                    std::io::ErrorKind::ConnectionReset.into(),
                )))
            },
            |_| panic!("must not sleep before a fatal error"),
        );
        assert_eq!(executions, 1, "admitted request executed more than once");
        assert_eq!(out.attempts, 1);
        assert_eq!(out.slept, Duration::ZERO);
        assert!(matches!(out.result, Err(ClientError::Io(_))));
    }

    #[test]
    fn observed_retries_feed_the_registry() {
        let reg = Registry::new(true);
        let obs = RetryObs::new(&reg, None);
        let out = retry_observed(
            &policy(5),
            &obs,
            0,
            |a| {
                if a < 2 {
                    Err(refused(ErrorCode::Overloaded, 0))
                } else {
                    Ok(())
                }
            },
            |_| {},
        );
        assert!(out.result.is_ok());
        assert_eq!(reg.value(names::RETRY_ATTEMPTS), 3);
        assert_eq!(reg.value(names::RETRY_EXHAUSTED), 0, "success is not exhaustion");
        let out: RetryOutcome<(), ClientError> = retry_observed(
            &RetryPolicy { max_attempts: 2, ..policy(6) },
            &obs,
            0,
            |_| Err(refused(ErrorCode::Overloaded, 0)),
            |_| {},
        );
        assert!(out.result.is_err());
        assert_eq!(reg.value(names::RETRY_ATTEMPTS), 5);
        assert_eq!(reg.value(names::RETRY_EXHAUSTED), 1);
    }

    #[test]
    fn classification_matches_admission_semantics() {
        assert!(!refused(ErrorCode::Overloaded, 10).admitted);
        assert_eq!(
            refused(ErrorCode::Overloaded, 10).retry_after,
            Some(Duration::from_millis(10))
        );
        assert!(!refused(ErrorCode::ShuttingDown, 0).admitted);
        assert!(refused(ErrorCode::DeadlineExceeded, 0).admitted);
        assert!(refused(ErrorCode::Internal, 0).admitted);
        assert!(refused(ErrorCode::BadRequest, 0).admitted);
        assert!(
            classify_response_error(ClientError::Proto(crate::proto::ProtoError::BadMagic))
                .admitted
        );
    }
}
