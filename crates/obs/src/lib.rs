//! Zero-dependency observability runtime for the dynamic-sample-selection
//! AQP system.
//!
//! The workspace is registry-less (no crates.io access), so this crate
//! reimplements the small slice of `tracing`/`prometheus` the runtime
//! actually needs, on top of `std` alone:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic scalars.
//! * [`Histogram`] — log-linear latency histogram (16 linear buckets then
//!   4 sub-buckets per power of two, ≤12.5% relative error) with
//!   p50/p95/p99 extraction.
//! * [`span()`] — scoped stage timers that record into the global registry
//!   and the thread-local active [`QueryTrace`]. Spans are created and
//!   dropped on the control thread only, so they are safe under the
//!   scoped-thread morsel executor (workers touch nothing but atomics).
//! * [`event`] — structured events (level + key/value fields) in a capped
//!   ring buffer, replacing ad-hoc `eprintln!` warnings.
//! * [`Registry`] — named-metric registry with consistent [`Snapshot`]s,
//!   exported as Prometheus text-exposition format or JSON.
//! * [`flight`] — an always-on flight recorder: a fixed-size ring of
//!   per-request records (trace id, outcome, contiguous stage timeline)
//!   dumped as JSONL on anomaly or on demand.
//! * [`slo`] — sliding-window SLO watchdog: per-class availability and
//!   latency percentiles over 10s/1m/5m rings with edge-triggered
//!   burn-rate breach detection, exported as `aqp_slo_*` gauges.
//! * [`QueryTrace`] — one record per query: plan chosen, sample tables
//!   consulted, rows scanned vs. base rows, serving tier, per-stage wall
//!   time. Serializes to one JSON line and parses back losslessly.
//!
//! Collection is controlled two ways: at runtime via [`set_enabled`]
//! (default on), and at compile time via the default `metrics` cargo
//! feature — with `--no-default-features` every record path is a no-op
//! the optimizer deletes. Neither mode may perturb query answers; the
//! statistical regression asserts bit-identical results either way.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod dashboard;
pub mod event;
pub mod export;
pub mod flight;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod profile;
pub mod registry;
pub mod slo;
pub mod span;
pub mod trace;

pub use event::{Event, Level};
pub use flight::{FlightRecorder, RequestRecord, Stage, Timeline};
pub use export::{to_json, to_prometheus};
pub use metrics::{Counter, Gauge, Histogram};
pub use profile::{OpProfile, ScanContext, ScanStats};
pub use registry::{
    counter, gauge, global, histogram, HistogramValue, MetricValue, Registry, Snapshot,
};
pub use slo::{Breach, SloConfig, SloOutcome, SloWindows, WindowStats};
pub use span::{span, Span};
pub use trace::{QueryTrace, StageTime};

#[cfg(feature = "metrics")]
mod flag {
    use std::sync::atomic::{AtomicBool, Ordering};

    static ENABLED: AtomicBool = AtomicBool::new(true);

    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }
}

#[cfg(not(feature = "metrics"))]
mod flag {
    pub const fn enabled() -> bool {
        false
    }

    pub fn set_enabled(_on: bool) {}
}

/// Whether metric collection is currently active.
///
/// `false` either because [`set_enabled`]`(false)` was called or because
/// the crate was built with `--no-default-features` (in which case this
/// is `const false` and instrumented call sites compile to nothing).
pub fn enabled() -> bool {
    flag::enabled()
}

/// Turn metric collection on or off at runtime. No-op without the
/// `metrics` feature. Disabling never changes query answers — only
/// whether telemetry is recorded.
pub fn set_enabled(on: bool) {
    flag::set_enabled(on);
}
