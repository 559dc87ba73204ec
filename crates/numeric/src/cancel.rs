//! Cooperative cancellation: shared tokens with deadlines, polled from the
//! solver hot loops.
//!
//! A [`CancelToken`] is a cheap, clonable handle (one `Arc`) carrying a
//! cancellation flag, an optional deadline, a first-cause reason, and a
//! progress heartbeat. Cancellation is *cooperative*: nothing is interrupted
//! pre-emptively; instead the long-running loops in this workspace — the
//! Newton iteration loop, the transient step loop, the DC rescue ladder, and
//! the sparse factorisation column loop — poll [`checkpoint`] and unwind
//! with a typed outcome when the installed token has fired.
//!
//! # Scoping
//!
//! Tokens reach the solver loops through a thread-local scope rather than
//! through every function signature: [`with_token`] installs a token for the
//! duration of a closure (panic-safe, restores the previous token on exit),
//! and [`checkpoint`]/[`cancelled`] poll whatever is installed. When no
//! token is installed a poll is a single thread-local read — effectively
//! free — so code that never uses cancellation pays nothing. This mirrors
//! the thread-scoped fault-injection plan in `nvpg-circuit`.
//!
//! Because the token itself is shared (`Arc`), another thread — a server
//! watchdog, a client-disconnect monitor — can hold a clone and fire
//! [`CancelToken::cancel`] while the solve thread polls. The deadline is
//! checked lazily at each poll, so an expired deadline latches the cancelled
//! flag with the reason `"deadline exceeded"` on the next checkpoint.
//!
//! # Heartbeats
//!
//! Every [`checkpoint`] bumps the token's progress counter. A watchdog can
//! sample [`CancelToken::progress`] and fire cancellation when the counter
//! stops advancing: a solve that is merely *slow* keeps beating, one that is
//! wedged (or starved) does not.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sentinel for "no deadline" in `deadline_ns`.
const NO_DEADLINE: u64 = u64::MAX;

struct Inner {
    cancelled: AtomicBool,
    /// Deadline as nanoseconds after `started`; `NO_DEADLINE` when unarmed.
    deadline_ns: AtomicU64,
    /// Monotone progress heartbeat, bumped by every solver checkpoint.
    progress: AtomicU64,
    /// First cancellation cause; later causes are ignored.
    reason: Mutex<Option<String>>,
    started: Instant,
}

/// A shared cancellation token. Clones refer to the same underlying state.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.inner.cancelled.load(Ordering::Relaxed))
            .field("elapsed", &self.elapsed())
            .finish()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A fresh token with no deadline.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline_ns: AtomicU64::new(NO_DEADLINE),
                progress: AtomicU64::new(0),
                reason: Mutex::new(None),
                started: Instant::now(),
            }),
        }
    }

    /// A fresh token that auto-cancels `deadline` after creation.
    pub fn with_deadline(deadline: Duration) -> Self {
        let t = Self::new();
        t.set_deadline(deadline);
        t
    }

    /// Arms (or tightens) the deadline, measured from token creation. A
    /// later call can only move the deadline earlier, never extend it.
    pub fn set_deadline(&self, deadline: Duration) {
        let ns = u64::try_from(deadline.as_nanos()).unwrap_or(NO_DEADLINE - 1);
        self.inner.deadline_ns.fetch_min(ns, Ordering::Relaxed);
    }

    /// The armed deadline measured from token creation, if any.
    pub fn deadline(&self) -> Option<Duration> {
        match self.inner.deadline_ns.load(Ordering::Relaxed) {
            NO_DEADLINE => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// Fires cancellation with `reason`. The first reason wins; subsequent
    /// calls are no-ops. Safe to call from any thread.
    pub fn cancel(&self, reason: &str) {
        {
            let mut slot = self.inner.reason.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(reason.to_owned());
            }
        }
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// `true` once the token has been cancelled or its deadline has passed.
    /// An expired deadline latches the flag with reason `"deadline
    /// exceeded"` so later polls are flag-only.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        let deadline = self.inner.deadline_ns.load(Ordering::Relaxed);
        if deadline != NO_DEADLINE {
            let elapsed = self.inner.started.elapsed().as_nanos();
            if elapsed >= u128::from(deadline) {
                self.cancel("deadline exceeded");
                return true;
            }
        }
        false
    }

    /// The recorded cancellation cause (empty-cause tokens report
    /// `"cancelled"`).
    pub fn reason(&self) -> String {
        self.inner
            .reason
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .unwrap_or_else(|| "cancelled".to_owned())
    }

    /// Wall-clock time since the token was created.
    pub fn elapsed(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// Bumps the progress heartbeat (one solver checkpoint).
    pub fn heartbeat(&self) {
        self.inner.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// The heartbeat counter. Monotone; a stalled solve stops advancing it.
    pub fn progress(&self) -> u64 {
        self.inner.progress.load(Ordering::Relaxed)
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Installs `token` as the current thread's cancellation scope for the
/// duration of `f`. Nests: the previous token (if any) is restored on exit,
/// including on panic.
pub fn with_token<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<CancelToken>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            ACTIVE.with(|a| *a.borrow_mut() = prev);
        }
    }
    let prev = ACTIVE.with(|a| a.borrow_mut().replace(token.clone()));
    let _restore = Restore(prev);
    f()
}

/// Runs `f` with *no* active token, shielding work that must not inherit
/// the caller's cancellation — e.g. process-wide one-time initialisation
/// whose result outlives any single request (a half-cancelled
/// initialisation would poison every later caller). Restores the previous
/// scope on exit, including on panic.
pub fn shielded<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(Option<CancelToken>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            ACTIVE.with(|a| *a.borrow_mut() = prev);
        }
    }
    let prev = ACTIVE.with(|a| a.borrow_mut().take());
    let _restore = Restore(prev);
    f()
}

/// One solver checkpoint: bumps the installed token's heartbeat and reports
/// whether it has been cancelled. A single thread-local read when no token
/// is installed.
pub fn checkpoint() -> bool {
    ACTIVE.with(|a| match a.borrow().as_ref() {
        None => false,
        Some(t) => {
            t.heartbeat();
            t.is_cancelled()
        }
    })
}

/// Polls the installed token without beating the heart. Used by watchers
/// that must not mask a stall by registering progress themselves.
pub fn cancelled() -> bool {
    ACTIVE.with(|a| a.borrow().as_ref().is_some_and(CancelToken::is_cancelled))
}

/// The token installed on the current thread, if any: what a fan-out
/// hands to its workers so their solves cancel with the caller's.
pub fn current() -> Option<CancelToken> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// Cause and elapsed time of the installed token, for error construction
/// after a checkpoint fired. `None` when no token is installed.
pub fn details() -> Option<(String, Duration)> {
    ACTIVE.with(|a| a.borrow().as_ref().map(|t| (t.reason(), t.elapsed())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled_and_polls_are_false() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.deadline(), None);
        assert!(!checkpoint(), "no installed token");
        assert!(!cancelled());
        assert_eq!(details(), None);
        assert!(current().is_none());
    }

    #[test]
    fn cancel_latches_first_reason() {
        let t = CancelToken::new();
        t.cancel("client disconnected");
        t.cancel("deadline exceeded");
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), "client disconnected");
    }

    #[test]
    fn deadline_fires_and_latches() {
        let t = CancelToken::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), "deadline exceeded");
    }

    #[test]
    fn set_deadline_only_tightens() {
        let t = CancelToken::with_deadline(Duration::from_secs(1));
        t.set_deadline(Duration::from_secs(30));
        assert_eq!(t.deadline(), Some(Duration::from_secs(1)));
        t.set_deadline(Duration::from_millis(10));
        assert_eq!(t.deadline(), Some(Duration::from_millis(10)));
    }

    #[test]
    fn scope_installs_restores_and_nests() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        with_token(&outer, || {
            assert!(!checkpoint());
            with_token(&inner, || {
                inner.cancel("inner");
                assert!(checkpoint());
            });
            // Outer scope restored: outer token is still live.
            assert!(!cancelled());
            current().expect("outer token installed").cancel("outer");
            assert!(checkpoint());
            assert_eq!(details().unwrap().0, "outer");
        });
        assert!(!checkpoint(), "scope removed on exit");
    }

    #[test]
    fn scope_restores_on_panic() {
        let t = CancelToken::new();
        let caught = std::panic::catch_unwind(|| with_token(&t, || panic!("boom")));
        assert!(caught.is_err());
        assert!(!checkpoint(), "panic unwound the scope");
    }

    #[test]
    fn checkpoints_beat_the_heart_cross_thread() {
        let t = CancelToken::new();
        let watcher = t.clone();
        with_token(&t, || {
            for _ in 0..5 {
                assert!(!checkpoint());
            }
        });
        assert_eq!(watcher.progress(), 5);
        watcher.cancel("watchdog: progress stalled");
        with_token(&t, || assert!(checkpoint()));
        assert_eq!(t.reason(), "watchdog: progress stalled");
    }
}
