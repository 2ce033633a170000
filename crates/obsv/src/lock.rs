//! The workspace's one mutex, with its lock rules checked at run time.
//!
//! The kernels take no lock at all (paper Sec. IV-D); what locks remain
//! guard the daemon's queues, caches and registry. Every one of them is a
//! [`Lock`], so they share one poison policy and three rules:
//!
//! * **lock-order** — a thread holds at most one `Lock` at a time, so no
//!   two paths can take a pair of locks in opposite orders;
//! * **lock-across-send** — no channel send while a `Lock` is held, so a
//!   receiver that reacts at once never contends with its sender
//!   ([`send`]);
//! * **lock-across-fire** — no injected fault delay while a `Lock` is
//!   held, so a fault plan never stretches a lock's hold time
//!   ([`assert_unlocked`] before the sleep).
//!
//! In debug builds a thread-local records the call site that holds a lock;
//! breaking a rule panics with both sites. Release builds compile the
//! record out: [`Lock::lock`] is then `Mutex::lock` with poisoning
//! recovered. A run-time check sees only the paths that run, so these
//! rules hold for the paths the tier-1 tests drive.

use std::ops::{Deref, DerefMut};
#[cfg(debug_assertions)]
use std::panic::Location;
use std::sync::mpsc::{SendError, Sender};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A mutex that recovers from poisoning and, in debug builds, panics when
/// a thread takes it while already holding a `Lock`.
///
/// Poisoning is recovered rather than propagated: every `Lock` guards
/// plain data, and a worker's panic must surface with its own payload,
/// not as a `PoisonError` on the next thread to lock.
#[derive(Debug)]
pub struct Lock<T> {
    inner: Mutex<T>,
}

impl<T> Lock<T> {
    /// A new, unlocked `Lock` holding `value`.
    pub const fn new(value: T) -> Lock<T> {
        Lock {
            inner: Mutex::new(value),
        }
    }

    /// Block until the lock is free, then take it.
    ///
    /// # Panics
    /// In debug builds, if this thread already holds a `Lock`; the message
    /// names both call sites.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> LockGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = held::take(Location::caller());
        #[expect(
            clippy::disallowed_methods,
            reason = "the wrapper is the one place a raw mutex is locked"
        )]
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        LockGuard {
            guard,
            #[cfg(debug_assertions)]
            held,
        }
    }
}

/// A held [`Lock`]; dropping it releases the lock.
pub struct LockGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    held: held::Held,
}

impl<'a, T> LockGuard<'a, T> {
    /// Release the lock, block until `cv` is notified, and take the lock
    /// again. While it waits the thread holds no lock.
    pub fn wait(self, cv: &Condvar) -> LockGuard<'a, T> {
        self.rewait(|g| {
            #[expect(
                clippy::disallowed_methods,
                reason = "the wrapper is the one place a raw condvar is waited on"
            )]
            cv.wait(g).unwrap_or_else(PoisonError::into_inner)
        })
    }

    /// [`LockGuard::wait`] for at most `dur`. Whether the wait timed out
    /// is not reported: callers re-check the condition they wait for.
    pub fn wait_timeout(self, cv: &Condvar, dur: Duration) -> LockGuard<'a, T> {
        self.rewait(|g| {
            #[expect(
                clippy::disallowed_methods,
                reason = "the wrapper is the one place a raw condvar is waited on"
            )]
            cv.wait_timeout(g, dur)
                .unwrap_or_else(PoisonError::into_inner)
                .0
        })
    }

    fn rewait(self, wait: impl FnOnce(MutexGuard<'a, T>) -> MutexGuard<'a, T>) -> LockGuard<'a, T> {
        #[cfg(debug_assertions)]
        let LockGuard { guard, held } = self;
        #[cfg(not(debug_assertions))]
        let LockGuard { guard } = self;
        #[cfg(debug_assertions)]
        let site = held.release();
        let guard = wait(guard);
        LockGuard {
            guard,
            #[cfg(debug_assertions)]
            held: held::take(site),
        }
    }
}

impl<T> Deref for LockGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for LockGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Panic, in debug builds, if this thread holds a [`Lock`]. `what` names
/// the operation that must not run under a lock, e.g. "an injected fault
/// delay". Compiled out of release builds.
#[inline]
#[cfg_attr(debug_assertions, track_caller)]
pub fn assert_unlocked(what: &str) {
    #[cfg(debug_assertions)]
    held::assert_none(what, Location::caller());
    #[cfg(not(debug_assertions))]
    let _ = what;
}

/// Send `value` on `tx`, which must not happen while this thread holds a
/// [`Lock`] (checked in debug builds).
#[inline]
#[cfg_attr(debug_assertions, track_caller)]
pub fn send<T>(tx: &Sender<T>, value: T) -> Result<(), SendError<T>> {
    assert_unlocked("a channel send");
    #[expect(
        clippy::disallowed_methods,
        reason = "the checked send is the one place a raw channel send happens"
    )]
    tx.send(value)
}

/// The debug-build record of which call site holds this thread's lock.
/// The lock-order rule keeps it to one entry, so it is one cell.
#[cfg(debug_assertions)]
mod held {
    use std::cell::Cell;
    use std::panic::Location;

    type Site = &'static Location<'static>;

    thread_local! {
        static HELD: Cell<Option<Site>> = const { Cell::new(None) };
    }

    /// This thread's mark on the lock it holds; dropping it clears the
    /// mark.
    pub(super) struct Held(Site);

    impl Held {
        /// Clear the mark, by dropping it, before the lock is released for
        /// a condvar wait; returns the site that took the lock.
        pub(super) fn release(self) -> Site {
            self.0
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.set(None);
        }
    }

    /// Mark `site` as holding this thread's lock.
    #[expect(clippy::panic, reason = "a broken lock rule is a bug in the caller")]
    pub(super) fn take(site: Site) -> Held {
        if let Some(holder) = HELD.get() {
            panic!(
                "lock-order: {site} takes a lock while this thread holds the lock \
                 taken at {holder}; hold one lock at a time"
            );
        }
        HELD.set(Some(site));
        Held(site)
    }

    #[expect(clippy::panic, reason = "a broken lock rule is a bug in the caller")]
    pub(super) fn assert_none(what: &str, at: Site) {
        if let Some(holder) = HELD.get() {
            panic!(
                "lock held across {what}: {at} runs while this thread holds the lock \
                 taken at {holder}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};

    #[cfg(debug_assertions)]
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("the lock rule must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// Two `Lock`s nested: the second acquisition panics and names both
    /// sites (the old `lock_order.rs` fixture).
    #[test]
    #[cfg(debug_assertions)]
    fn nested_locks_break_lock_order() {
        let (index, stats) = (Lock::new(vec![1u32]), Lock::new(0u64));
        let first_line = line!() + 2;
        let msg = panic_message(|| {
            let _index = index.lock();
            let _stats = stats.lock();
        });
        assert!(msg.starts_with("lock-order: "), "{msg}");
        assert!(
            msg.contains(&format!("lock.rs:{}:", first_line + 1)),
            "{msg}"
        );
        assert!(msg.contains(&format!("lock.rs:{first_line}:")), "{msg}");
        // The unwound guard released its mark: the thread may lock again.
        drop(stats.lock());
    }

    /// An `obsv::send` under a held `Lock` (the old `lock_across_send.rs`
    /// fixture).
    #[test]
    #[cfg(debug_assertions)]
    fn send_under_a_lock_is_refused() {
        let jobs = Lock::new(Vec::<u64>::new());
        let (tx, rx) = mpsc::channel();
        let msg = panic_message(|| {
            let mut jobs = jobs.lock();
            jobs.push(7);
            let _ = send(&tx, 7u64);
        });
        assert!(
            msg.starts_with("lock held across a channel send: "),
            "{msg}"
        );
        assert!(rx.try_recv().is_err(), "the send must not happen");
        send(&tx, 8).unwrap();
        assert_eq!(rx.recv().unwrap(), 8);
    }

    /// An injected fault delay under a held `Lock`.
    #[test]
    #[cfg(debug_assertions)]
    fn fault_delay_under_a_lock_is_refused() {
        let reader = Lock::new(());
        let msg = panic_message(|| {
            let _reader = reader.lock();
            assert_unlocked("an injected fault delay");
        });
        assert!(
            msg.starts_with("lock held across an injected fault delay: "),
            "{msg}"
        );
        assert_unlocked("an injected fault delay");
    }

    /// The one poison policy: a `Lock` whose holder panicked still yields
    /// its data.
    #[test]
    fn poisoned_lock_yields_its_data() {
        let lock = Lock::new(5);
        let _ = std::panic::catch_unwind(|| {
            let mut g = lock.lock();
            *g = 6;
            panic!("holder dies");
        });
        assert!(lock.inner.is_poisoned());
        assert_eq!(*lock.lock(), 6);
    }

    /// A guard parked in `wait_timeout` has released the lock, so another
    /// thread can take it; once the wait returns the guard is held again.
    #[test]
    #[cfg(debug_assertions)]
    fn condvar_wait_releases_and_retakes() {
        let shared = Arc::new((Lock::new(false), Condvar::new()));
        let peer = Arc::clone(&shared);
        let mut ready = shared.0.lock();
        let notifier = std::thread::spawn(move || {
            *peer.0.lock() = true;
            peer.1.notify_all();
        });
        while !*ready {
            ready = ready.wait_timeout(&shared.1, Duration::from_secs(10));
        }
        notifier.join().unwrap();
        let msg = panic_message(|| assert_unlocked("an injected fault delay"));
        assert!(
            msg.starts_with("lock held across an injected fault delay: "),
            "{msg}"
        );
        drop(ready);
        assert_unlocked("an injected fault delay");
    }
}
