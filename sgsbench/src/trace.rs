//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! the program's crates; the program itself is not instrumented. Every
//! span of one request carries that request's id, and the recorder is
//! written out once, after the measured run.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The request (and trace id suffix) the span belongs to.
    pub request: u64,
    /// Span name, e.g. `wait` or `answer`.
    pub name: &'static str,
    /// Name of the enclosing span (`None` for a root).
    pub parent: Option<&'static str>,
    /// Start, nanoseconds after the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the recorder's origin.
    pub end_ns: u64,
}

/// Collects spans in memory. A disabled recorder records nothing, so the
/// untraced run pays only a branch per call site.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Recorder {
        Recorder {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Record `[start, end]` as span `name` of `request`.
    pub fn record(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.spans.push(Span {
                request,
                name,
                parent,
                start_ns: ns_since(self.origin, start),
                end_ns: ns_since(self.origin, end),
            });
        }
    }

    /// Move every span of `other` into this recorder.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// One JSON object per line, in recording order.
    pub fn to_jsonl(&self, trace_prefix: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"trace_id\":\"{trace_prefix}-{}\",\"span\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.request,
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start_ns,
                s.end_ns,
            );
        }
        out
    }
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// Cost of recording one span, in nanoseconds, measured on a scratch
/// recorder (the figure behind `bench.trace_overhead_pct`).
pub fn span_cost_ns() -> f64 {
    const N: u64 = 200_000;
    let origin = Instant::now();
    let mut scratch = Recorder::new(origin, true);
    let t0 = Instant::now();
    for i in 0..N {
        let now = Instant::now();
        scratch.record(i, "probe", None, now, now);
    }
    let ns = t0.elapsed().as_nanos() as f64 / N as f64;
    std::hint::black_box(&scratch);
    ns
}
