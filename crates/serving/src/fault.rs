//! Deterministic fault injection for the serving path.
//!
//! The storage layer injects disk faults (`aqp_storage::fault`); this
//! module injects the *network and scheduling* faults a server meets in
//! production: connections dropped at accept time, responses stalling
//! mid-write, clients that trickle their request bytes, and executions
//! that hang until the deadline reaps them. Faults are armed per server
//! through [`ServerConfig::faults`](crate::ServerConfig::faults), and each
//! server counts its own occurrences, so two servers in one process never
//! fire each other's faults. ([`install`] is the one process-wide entry
//! point left: it adds a plan to servers bound while its guard lives,
//! for callers that cannot set the config.) The spec grammar is shared
//! with the storage layer's `AQP_FAULTS` — each layer's parser ignores
//! the other's kinds, so one comma-separated list can arm either or both
//! (the CLI reads `AQP_FAULTS` when it binds a server):
//!
//! | spec | effect |
//! |---|---|
//! | `accept-drop@N` | the (N+1)-th accepted connection is dropped before any read |
//! | `write-stall@N` | the (N+1)-th response write stalls ~250ms first |
//! | `slow-read@N` | the (N+1)-th request read stalls ~250ms (a slow client) |
//! | `exec-stall@N` | the (N+1)-th query execution blocks until its cancel token trips (or a 2s cap) |
//!
//! `exec-stall` is the CI recipe for a *forced, deterministic timeout*:
//! a stalled execution with a deadline-carrying token returns as a
//! timeout exactly when the deadline trips, regardless of machine speed.
//! Faults that fire are tallied in `aqp_fault_injected_total{kind=...}`
//! — the same metric the storage faults use — plus a warn event.

use aqp_query::CancelToken;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long `write-stall` and `slow-read` pause.
pub const STALL: Duration = Duration::from_millis(250);

/// Upper bound on an `exec-stall` with no (or an un-tripped) token.
pub const EXEC_STALL_CAP: Duration = Duration::from_secs(2);

/// One class of injected serving fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingFault {
    /// Drop the (nth+1)-th accepted connection before reading anything.
    AcceptDrop {
        /// 0-based index of the dropped connection.
        nth: usize,
    },
    /// Stall ~[`STALL`] before the (nth+1)-th response write.
    WriteStall {
        /// 0-based index of the stalled write.
        nth: usize,
    },
    /// Stall ~[`STALL`] during the (nth+1)-th request read.
    SlowRead {
        /// 0-based index of the stalled read.
        nth: usize,
    },
    /// Block the (nth+1)-th query execution until its token cancels
    /// (capped at [`EXEC_STALL_CAP`]).
    ExecStall {
        /// 0-based index of the stalled execution.
        nth: usize,
    },
}

impl ServingFault {
    /// The spec keyword for this fault (as accepted by [`parse_spec`]).
    pub fn kind(&self) -> &'static str {
        match self {
            ServingFault::AcceptDrop { .. } => "accept-drop",
            ServingFault::WriteStall { .. } => "write-stall",
            ServingFault::SlowRead { .. } => "slow-read",
            ServingFault::ExecStall { .. } => "exec-stall",
        }
    }
}

/// Parse one `kind@N` spec. Unknown kinds (including every storage
/// fault kind) return `None`.
pub fn parse_spec(spec: &str) -> Option<ServingFault> {
    // Strip an optional `:substr` scope for grammar compatibility with
    // the storage specs; serving faults are scoped by server, not path.
    let body = spec.split_once(':').map_or(spec, |(b, _)| b);
    let (kind, arg) = body.split_once('@')?;
    let nth = arg.parse::<usize>().ok()?;
    match kind {
        "accept-drop" => Some(ServingFault::AcceptDrop { nth }),
        "write-stall" => Some(ServingFault::WriteStall { nth }),
        "slow-read" => Some(ServingFault::SlowRead { nth }),
        "exec-stall" => Some(ServingFault::ExecStall { nth }),
        _ => None,
    }
}

/// Parse a comma-separated spec list (the `AQP_FAULTS` format),
/// skipping every non-serving kind.
pub fn parse_specs(specs: &str) -> Vec<ServingFault> {
    specs.split(',').filter_map(parse_spec).collect()
}

/// Faults added to every server bound while an [`install`] guard lives.
static INSTALLED: Mutex<Vec<ServingFault>> = Mutex::new(Vec::new());
/// Serializes [`install`] holders.
static HOLDERS: Mutex<()> = Mutex::new(());

/// Keeps an [`install`]ed plan in force; dropping it empties the plan
/// and lets the next holder in.
pub struct FaultGuard {
    _holder: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        INSTALLED.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }
}

/// Add `faults` to every server bound (not every server running) until
/// the guard drops; holders are serialized. A server reads this plan
/// once, in `Server::bind`, and counts occurrences itself. This exists
/// for callers that bind a server from a `ServerConfig` they do not
/// build — the benchmark's self-test arms its servers this way.
/// Everything else sets [`ServerConfig::faults`](crate::ServerConfig::faults).
pub fn install(faults: Vec<ServingFault>) -> FaultGuard {
    let holder = HOLDERS.lock().unwrap_or_else(PoisonError::into_inner);
    *INSTALLED.lock().unwrap_or_else(PoisonError::into_inner) = faults;
    FaultGuard { _holder: holder }
}

/// The plan a server bound now adds to its configured faults.
pub(crate) fn installed() -> Vec<ServingFault> {
    INSTALLED.lock().unwrap_or_else(PoisonError::into_inner).clone()
}

fn fault_hit(kind: &'static str) {
    aqp_obs::counter("aqp_fault_injected_total", &[("kind", kind)]).inc();
    aqp_obs::event::warn("serving::fault", "injected serving fault fired", &[("kind", kind)]);
}

/// One server's armed faults and its per-hook occurrence counters.
#[derive(Debug, Default)]
pub(crate) struct Faults {
    plan: Vec<ServingFault>,
    accepts: AtomicUsize,
    writes: AtomicUsize,
    reads: AtomicUsize,
    execs: AtomicUsize,
}

impl Faults {
    pub(crate) fn new(plan: Vec<ServingFault>) -> Faults {
        Faults { plan, ..Faults::default() }
    }

    /// Count one occurrence at a hook and report whether a planned fault
    /// targets it; an empty plan costs one branch.
    fn check(
        &self,
        counter: &AtomicUsize,
        select: impl Fn(&ServingFault) -> Option<usize>,
    ) -> bool {
        if self.plan.is_empty() {
            return false;
        }
        let seen = counter.fetch_add(1, Ordering::Relaxed);
        self.plan.iter().any(|f| select(f) == Some(seen))
    }

    /// Accept-time hook: `true` means drop this connection now.
    pub(crate) fn accept_drop(&self) -> bool {
        let hit = self.check(&self.accepts, |f| match f {
            ServingFault::AcceptDrop { nth } => Some(*nth),
            _ => None,
        });
        if hit {
            fault_hit("accept-drop");
        }
        hit
    }

    /// Response-write hook: stalls [`STALL`] when the fault fires.
    pub(crate) fn write_stall(&self) {
        let hit = self.check(&self.writes, |f| match f {
            ServingFault::WriteStall { nth } => Some(*nth),
            _ => None,
        });
        if hit {
            fault_hit("write-stall");
            std::thread::sleep(STALL);
        }
    }

    /// Request-read hook: stalls [`STALL`] when the fault fires.
    pub(crate) fn slow_read(&self) {
        let hit = self.check(&self.reads, |f| match f {
            ServingFault::SlowRead { nth } => Some(*nth),
            _ => None,
        });
        if hit {
            fault_hit("slow-read");
            std::thread::sleep(STALL);
        }
    }

    /// Execution hook: blocks until `token` trips (or [`EXEC_STALL_CAP`])
    /// when the fault fires. Placed before the ladder walk, it simulates
    /// a scan that will not finish in time.
    pub(crate) fn exec_stall(&self, token: &CancelToken) {
        let hit = self.check(&self.execs, |f| match f {
            ServingFault::ExecStall { nth } => Some(*nth),
            _ => None,
        });
        if !hit {
            return;
        }
        fault_hit("exec-stall");
        let cap = Instant::now() + EXEC_STALL_CAP;
        while Instant::now() < cap && !token.is_cancelled() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_ignores_foreign_kinds() {
        assert_eq!(parse_spec("accept-drop@0"), Some(ServingFault::AcceptDrop { nth: 0 }));
        assert_eq!(parse_spec("write-stall@2"), Some(ServingFault::WriteStall { nth: 2 }));
        assert_eq!(parse_spec("slow-read@1"), Some(ServingFault::SlowRead { nth: 1 }));
        assert_eq!(parse_spec("exec-stall@0:scope"), Some(ServingFault::ExecStall { nth: 0 }));
        assert_eq!(parse_spec("bitflip@700"), None, "storage kind skipped");
        assert_eq!(parse_spec("missing"), None, "no @arg");
        assert_eq!(parse_spec("exec-stall@x"), None, "bad arg");
        assert_eq!(
            parse_specs("bitflip@700:family,exec-stall@0,missing,slow-read@2"),
            vec![ServingFault::ExecStall { nth: 0 }, ServingFault::SlowRead { nth: 2 }]
        );
        assert!(parse_specs("").is_empty());
    }

    #[test]
    fn nth_occurrence_fires_once() {
        let faults = Faults::new(vec![ServingFault::AcceptDrop { nth: 1 }]);
        assert!(!faults.accept_drop(), "occurrence 0 passes");
        assert!(faults.accept_drop(), "occurrence 1 drops");
        assert!(!faults.accept_drop(), "occurrence 2 passes");
        // Another plan counts its own occurrences from zero.
        let other = Faults::new(vec![ServingFault::AcceptDrop { nth: 0 }]);
        assert!(other.accept_drop());
    }

    #[test]
    fn installed_plan_lasts_as_long_as_its_guard() {
        // A plan that can never fire: servers other tests bind meanwhile
        // pick it up harmlessly.
        let never = vec![ServingFault::AcceptDrop { nth: usize::MAX }];
        let guard = install(never.clone());
        assert_eq!(installed(), never);
        drop(guard);
        assert!(installed().is_empty());
    }

    #[test]
    fn exec_stall_releases_on_cancel() {
        let faults = Faults::new(vec![ServingFault::ExecStall { nth: 0 }]);
        let token = CancelToken::new();
        token.cancel();
        let t0 = Instant::now();
        faults.exec_stall(&token);
        assert!(t0.elapsed() < Duration::from_millis(500), "released by tripped token");
        // Subsequent executions unaffected.
        let t0 = Instant::now();
        faults.exec_stall(&token);
        assert!(t0.elapsed() < Duration::from_millis(50));
    }
}
