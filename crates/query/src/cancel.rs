//! Cooperative query cancellation and deadline propagation.
//!
//! A [`CancelToken`] is a cheap, cloneable handle combining an explicit
//! cancel flag with an optional hard deadline. The morsel executor checks
//! it at every **morsel claim point** ([`crate::parallel`]): a worker about
//! to claim its next morsel first asks the token, and if the query has been
//! cancelled — or its deadline has passed — the worker stops claiming and
//! returns. Cancellation is therefore bounded by one morsel of work
//! (`DEFAULT_MORSEL_ROWS` rows) per worker, which is what lets a serving
//! front-end enforce per-query deadlines without stranding executor
//! threads on a doomed scan.
//!
//! Cancellation is an all-or-nothing contract: a cancelled scan never
//! returns a partial answer (partial morsel coverage would make results
//! depend on the OS schedule, breaking the executor's bit-identical
//! determinism guarantee). Instead [`crate::execute`] reports
//! [`crate::QueryError::Cancelled`], and the caller decides what to do —
//! the resilience ladder falls to a cheaper tier, a server surfaces a
//! timeout.
//!
//! Tokens reach the executor one way, ambiently, via [`install`]: a
//! thread-local token picked up by every `execute` call on the installing
//! thread until the guard drops. This is how a serving layer bounds *all*
//! scans a query triggers (sample plans build their own `ExecOptions`
//! internally) without threading a token through every call signature.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a token is cancelled. Explicit cancellation wins when both
/// conditions hold: a caller who cancelled a deadline-carrying token
/// asked for cancellation semantics (an error), not timeout semantics
/// (a degraded answer / timeout frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called.
    Explicit,
    /// The token's deadline passed.
    Deadline,
}

/// A cooperative cancellation handle: an explicit flag plus an optional
/// deadline. Clones share the flag; checking is one atomic load (plus a
/// monotonic-clock read when a deadline is set), cheap enough for every
/// morsel claim.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`Self::cancel`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally trips once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// A token tripping `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Trip the token. All clones observe the cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been cancelled or its deadline has passed.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Why the token is cancelled, or `None` if it is not. An explicit
    /// [`Self::cancel`] takes precedence over an expired deadline, so a
    /// cancelled deadline-carrying token reports [`CancelCause::Explicit`]
    /// — callers use this to report cancellation vs. timeout correctly.
    pub fn cause(&self) -> Option<CancelCause> {
        if self.flag.load(Ordering::Relaxed) {
            return Some(CancelCause::Explicit);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(CancelCause::Deadline);
        }
        None
    }

    /// The hard deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left until the deadline (`None` when no deadline is set;
    /// zero once it has passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// The ambient token installed on this thread, if any (innermost wins).
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Install `token` as this thread's ambient cancellation token until the
/// returned guard drops. Nested installs stack; the innermost token is
/// the one [`current`] (and hence [`crate::execute`]) sees. The guard is
/// `!Send` by construction, so install/uninstall always pair on one
/// thread.
pub fn install(token: CancelToken) -> CancelGuard {
    CURRENT.with(|c| c.borrow_mut().push(token));
    CancelGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// Keeps an [`install`]ed ambient token active; dropping restores the
/// previously installed token (or none).
#[derive(Debug)]
pub struct CancelGuard {
    // Raw pointers are !Send: the guard must drop on the installing thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_cancellation_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.deadline(), None);
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn deadline_trips_token() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled(), "past deadline is already cancelled");
        assert_eq!(t.remaining(), Some(Duration::ZERO));

        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cause_distinguishes_explicit_from_deadline() {
        let t = CancelToken::new();
        assert_eq!(t.cause(), None);
        t.cancel();
        assert_eq!(t.cause(), Some(CancelCause::Explicit));

        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(t.cause(), Some(CancelCause::Deadline));

        // Explicit cancel on a deadline-carrying token reports Explicit
        // even once the deadline has also passed.
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        t.cancel();
        assert_eq!(t.cause(), Some(CancelCause::Explicit));

        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert_eq!(t.cause(), None, "live deadline is not a cause");
    }

    #[test]
    fn ambient_install_stacks_and_restores() {
        assert!(current().is_none());
        let outer = CancelToken::new();
        let g1 = install(outer.clone());
        assert!(current().is_some());
        {
            let inner = CancelToken::with_timeout(Duration::from_secs(60));
            let _g2 = install(inner);
            assert!(current().unwrap().deadline().is_some(), "innermost wins");
        }
        assert!(current().unwrap().deadline().is_none(), "outer restored");
        drop(g1);
        assert!(current().is_none());
    }
}
