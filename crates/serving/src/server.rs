//! The TCP query server: accept loop, per-connection workers, deadline
//! enforcement, and graceful shutdown.
//!
//! Threading model: one OS thread per connection (connections are
//! long-lived and few; the *scan* parallelism comes from the morsel pool
//! each query fans out to, not from connection count), all multiplexed
//! over one shared [`ResilientSystem`]. Admission control is the
//! concurrency limiter: at most `max_inflight` queries per class execute
//! at once, so connection count never translates into unbounded executor
//! pressure.
//!
//! Deadline path: a query with `deadline_ms` gets a deadline-carrying
//! [`CancelToken`]. Before execution the deadline's remaining time is
//! converted to a row budget ([`crate::throughput`]) and handed to
//! [`ResilientSystem::answer_bounded`] — so a tight deadline *downgrades
//! the serving tier up front* (tallied as
//! `aqp_tier_fallback_total{reason="deadline"}`) instead of being
//! discovered mid-scan. The token is the backstop: if the estimate was
//! wrong and the deadline trips anyway, every in-flight scan stops
//! claiming morsels within one morsel and the client gets a `timeout`
//! frame. Either way the executor threads are freed; a doomed query
//! cannot strand them.
//!
//! Shutdown: SIGTERM/ctrl-c (or a `shutdown` request) flips one flag.
//! The accept loop stops, in-flight requests finish (their responses are
//! written), idle connections are closed, and new requests on draining
//! connections receive a `draining` frame. The process exits once every
//! connection thread has been joined — no response is ever torn by
//! shutdown.

use crate::admission::{AdmissionConfig, AdmissionController, AdmitOutcome};
use crate::cache::{CacheConfig, CacheDecision, SemanticCache};
use crate::fault::{self, Faults, ServingFault};
use crate::protocol::{
    write_frame, ContractClass, FrameRead, FrameReader, Request, Response, WireAnswer,
};
use crate::shadow::{ShadowAuditor, ShadowConfig};
use crate::throughput::Throughput;
use aqp_core::{AnswerContract, AqpError, QueryBound, ResilientSystem, ServingTier};
use aqp_obs::flight::{FlightRecorder, RequestRecord, Timeline, DEFAULT_FLIGHT_CAPACITY};
use aqp_obs::json::Value;
use aqp_obs::slo::{SloConfig, SloOutcome, SloWindows, WINDOWS};
use aqp_query::CancelToken;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Signal shim: the only unsafe code in the crate. Registers a handler
/// for SIGTERM and SIGINT that flips one atomic; the server's accept
/// loop polls it. The handler body is async-signal-safe (a single
/// relaxed store).
#[allow(unsafe_code)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the signal handler; read by the accept loop.
    pub static SIGNALLED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" fn handler(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    /// Install the handlers (idempotent; best-effort on non-unix).
    pub fn install() {
        #[cfg(unix)]
        {
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            unsafe {
                signal(SIGTERM, handler as *const () as usize);
                signal(SIGINT, handler as *const () as usize);
            }
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Admission limits per contract class.
    pub admission: AdmissionConfig,
    /// Deadline applied to queries that do not carry their own, if any.
    pub default_deadline: Option<Duration>,
    /// Confidence level for queries that do not carry their own.
    pub default_confidence: f64,
    /// Pin the throughput estimator (deterministic deadline→budget
    /// conversion for tests/CI). `None` = learn from observations.
    pub fixed_rows_per_ms: Option<f64>,
    /// How long to wait for in-flight connections at shutdown before
    /// abandoning the join.
    pub drain_timeout: Duration,
    /// Semantic answer cache configuration (capacity 0 disables).
    pub cache: CacheConfig,
    /// Write a Prometheus metrics snapshot to this file at exit.
    pub metrics_out: Option<std::path::PathBuf>,
    /// Whether to install SIGTERM/SIGINT handlers (CLI yes, tests no —
    /// handlers are process-global).
    pub install_signal_handlers: bool,
    /// Flight-recorder ring capacity (last N request records).
    pub flight_recorder_cap: usize,
    /// Dump the flight recorder to this JSONL file on anomaly (shed,
    /// timeout, serving error, SLO breach) and at exit. `None` keeps the
    /// ring in memory only (still served by the `dump` wire verb).
    pub flight_dump: Option<std::path::PathBuf>,
    /// Shadow accuracy auditor (rate 0 disables the worker entirely).
    pub shadow: ShadowConfig,
    /// SLO watchdog thresholds.
    pub slo: SloConfig,
    /// Serving faults armed on this server only; each fires at its
    /// (N+1)-th occurrence counted from this server's start.
    pub faults: Vec<ServingFault>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            admission: AdmissionConfig::default(),
            default_deadline: None,
            default_confidence: 0.95,
            fixed_rows_per_ms: None,
            drain_timeout: Duration::from_secs(10),
            cache: CacheConfig::default(),
            metrics_out: None,
            install_signal_handlers: false,
            flight_recorder_cap: DEFAULT_FLIGHT_CAPACITY,
            flight_dump: None,
            shadow: ShadowConfig::default(),
            slo: SloConfig::default(),
            faults: Vec::new(),
        }
    }
}

/// What one server run did, for operator logs and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Total requests that received a terminal response.
    pub requests: u64,
    /// Queries answered (any tier).
    pub answered: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Deadline timeouts (queue or mid-scan).
    pub timeouts: u64,
    /// Requests refused because the server was draining.
    pub drained_rejects: u64,
    /// Errors (parse, planning, …).
    pub errors: u64,
    /// Connections served over the lifetime.
    pub connections: u64,
    /// Queries answered straight from the semantic cache.
    pub cache_hits: u64,
    /// Queries that missed the cache and executed (includes single-flight
    /// leaders and deadline-expired followers).
    pub cache_misses: u64,
    /// Queries that skipped the cache entirely (cache disabled).
    pub cache_bypass: u64,
}

#[derive(Debug, Default)]
struct Tallies {
    requests: AtomicU64,
    answered: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    drained_rejects: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_bypass: AtomicU64,
}

/// Handle for asking a running server to shut down gracefully from
/// another thread (tests, embedding).
#[derive(Clone)]
pub struct ShutdownHandle {
    inner: Arc<Inner>,
}

impl ShutdownHandle {
    /// Request graceful shutdown: drain in-flight work, then return.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for ShutdownHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShutdownHandle")
            .field("shutdown", &self.inner.shutdown.load(Ordering::SeqCst))
            .finish()
    }
}

struct Inner {
    system: ResilientSystem,
    config: ServerConfig,
    admission: AdmissionController,
    throughput: Throughput,
    cache: SemanticCache,
    shutdown: AtomicBool,
    draining: AtomicBool,
    tallies: Tallies,
    /// Per-instance (not global) so concurrent test servers never see
    /// each other's requests.
    flight: FlightRecorder,
    slo: Mutex<SloWindows>,
    /// Taken (and drained) exactly once at server drain.
    shadow: Mutex<Option<ShadowAuditor>>,
    trace_counter: AtomicU64,
    faults: Faults,
}

/// A bound, ready-to-run query server.
pub struct Server {
    inner: Arc<Inner>,
    listener: TcpListener,
}

impl Server {
    /// Bind the listen socket. The server does not accept until
    /// [`Server::run`].
    pub fn bind(system: ResilientSystem, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let throughput = match config.fixed_rows_per_ms {
            Some(rate) => Throughput::fixed(rate),
            None => Throughput::new(),
        };
        let admission = AdmissionController::new(config.admission);
        let cache = SemanticCache::new(config.cache.clone());
        let flight = FlightRecorder::new(config.flight_recorder_cap);
        let slo = Mutex::new(SloWindows::new(
            config.slo.clone(),
            &[
                ContractClass::Interactive.as_str(),
                ContractClass::Batch.as_str(),
            ],
        ));
        // The auditor gets its own clone of the system (shared Arcs
        // inside): exact re-execution runs beside serving, never through
        // admission.
        let shadow = Mutex::new(if config.shadow.rate > 0.0 {
            Some(ShadowAuditor::start(config.shadow.clone(), system.clone()))
        } else {
            None
        });
        let faults = Faults::new([config.faults.clone(), fault::installed()].concat());
        Ok(Server {
            inner: Arc::new(Inner {
                system,
                config,
                admission,
                throughput,
                cache,
                shutdown: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                tallies: Tallies::default(),
                flight,
                slo,
                shadow,
                trace_counter: AtomicU64::new(1),
                faults,
            }),
            listener,
        })
    }

    /// The bound address (useful with `:0`).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can request shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { inner: Arc::clone(&self.inner) }
    }

    /// Run the accept loop until shutdown is requested (signal, handle,
    /// or `shutdown` request), then drain and return the report.
    pub fn run(self) -> io::Result<ServerReport> {
        if self.inner.config.install_signal_handlers {
            sig::install();
        }
        aqp_obs::event::info(
            "serving::server",
            "server listening",
            &[("addr", &self.local_addr()?.to_string())],
        );
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.stop_requested() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.inner.tallies.connections.fetch_add(1, Ordering::Relaxed);
                    if self.inner.faults.accept_drop() {
                        // Injected accept-time drop: close without a byte.
                        drop(stream);
                        continue;
                    }
                    let inner = Arc::clone(&self.inner);
                    workers.push(std::thread::spawn(move || handle_connection(inner, stream)));
                    workers.retain(|w| !w.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }

        // Drain: reject new requests, finish in-flight ones, join workers.
        // The join is bounded: poll `is_finished` against the drain
        // deadline rather than blocking in `join()`, so one stuck
        // connection (e.g. a peer applying TCP backpressure mid-write)
        // cannot stall shutdown past `drain_timeout`.
        self.inner.draining.store(true, Ordering::SeqCst);
        aqp_obs::counter("aqp_server_drain_total", &[]).inc();
        let drain_deadline = Instant::now() + self.inner.config.drain_timeout;
        let mut workers = workers;
        loop {
            let (done, pending): (Vec<_>, Vec<_>) =
                workers.into_iter().partition(|w| w.is_finished());
            for w in done {
                let _ = w.join();
            }
            workers = pending;
            if workers.is_empty() {
                break;
            }
            if Instant::now() >= drain_deadline {
                aqp_obs::event::warn(
                    "serving::server",
                    "drain timeout; detaching workers",
                    &[("workers", &workers.len().to_string())],
                );
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(self.listener);

        // Drain the shadow auditor BEFORE the final metrics snapshot:
        // every accepted audit job finishes, so `aqp_shadow_*` totals in
        // the exit snapshot are complete.
        if let Some(shadow) = self.inner.shadow.lock().expect("shadow slot poisoned").take() {
            shadow.shutdown();
        }
        self.inner.slo.lock().expect("slo poisoned").export_to_registry();
        if let Some(path) = &self.inner.config.flight_dump {
            if !self.inner.flight.is_empty() {
                if let Ok(records) = self.inner.flight.dump_to(path) {
                    aqp_obs::counter("aqp_flight_dump_total", &[("trigger", "exit")]).inc();
                    aqp_obs::event::info(
                        "serving::server",
                        "flight recorder dumped at exit",
                        &[("path", &path.display().to_string()), ("records", &records.to_string())],
                    );
                }
            }
        }
        if let Some(path) = &self.inner.config.metrics_out {
            let text = aqp_obs::to_prometheus(&aqp_obs::global().snapshot());
            std::fs::write(path, text)?;
        }
        let t = &self.inner.tallies;
        let report = ServerReport {
            requests: t.requests.load(Ordering::Relaxed),
            answered: t.answered.load(Ordering::Relaxed),
            shed: t.shed.load(Ordering::Relaxed),
            timeouts: t.timeouts.load(Ordering::Relaxed),
            drained_rejects: t.drained_rejects.load(Ordering::Relaxed),
            errors: t.errors.load(Ordering::Relaxed),
            connections: t.connections.load(Ordering::Relaxed),
            cache_hits: t.cache_hits.load(Ordering::Relaxed),
            cache_misses: t.cache_misses.load(Ordering::Relaxed),
            cache_bypass: t.cache_bypass.load(Ordering::Relaxed),
        };
        aqp_obs::event::info(
            "serving::server",
            "server drained and stopped",
            &[
                ("requests", &report.requests.to_string()),
                ("answered", &report.answered.to_string()),
                ("shed", &report.shed.to_string()),
                ("timeouts", &report.timeouts.to_string()),
            ],
        );
        Ok(report)
    }

    fn stop_requested(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst) || sig::SIGNALLED.load(Ordering::SeqCst)
    }
}

/// A client that starts a frame but cannot finish it within this window
/// is treated as dead (slow-loris guard). Generous compared to the 100ms
/// poll tick: legitimate slow clients get many ticks to finish.
const MID_FRAME_STALL_LIMIT: Duration = Duration::from_secs(30);

/// Cap on any single blocking write. A peer that stops reading cannot
/// hold a connection thread (and hence drain) hostage through TCP
/// backpressure forever — the write errors out and the thread exits.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

fn handle_connection(inner: Arc<Inner>, stream: TcpStream) {
    // Short read timeouts keep drain responsive: an idle connection is
    // noticed within one tick, not held open by a silent client. Framing
    // survives the ticks: `FrameReader` keeps partial header/payload
    // bytes across timeouts, so a frame split over several 100ms windows
    // is reassembled rather than desyncing the wire position.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = stream;
    let mut framer = FrameReader::new();
    // Set when the current frame's first bytes arrived; bounds how long
    // a mid-frame connection may stall before being dropped.
    let mut frame_started: Option<Instant> = None;

    loop {
        match framer.read(&mut reader) {
            Ok(FrameRead::Frame(payload)) => {
                // Anchor the timeline at the first observed byte of the
                // frame (set when a read timed out mid-frame) so the
                // `read` stage covers the whole reassembly; a frame that
                // arrived within one tick reads as ~0.
                let mut timeline = Timeline::start_at(frame_started.take().unwrap_or_else(Instant::now));
                inner.faults.slow_read();
                timeline.mark("read");
                let (response, meta) = match Request::from_json(&payload) {
                    Ok(request) => dispatch(&inner, request, &mut timeline),
                    Err(e) => {
                        inner.tallies.errors.fetch_add(1, Ordering::Relaxed);
                        tally_request(&inner, ContractClass::Interactive, "error");
                        (
                            Response::Error {
                                message: format!("bad request: {e}"),
                                trace_id: String::new(),
                            },
                            None,
                        )
                    }
                };
                inner.faults.write_stall();
                let json = response.to_json();
                timeline.mark("serialize");
                let wrote = write_frame(&mut writer, &json);
                timeline.mark("write");
                if let Some(meta) = meta {
                    commit_request(&inner, meta, timeline);
                }
                if wrote.is_err() {
                    // Peer gone mid-response; nothing more to say to it.
                    return;
                }
                if matches!(response, Response::ShuttingDown | Response::Draining) {
                    return;
                }
            }
            Ok(FrameRead::Eof) => return, // clean close
            Ok(FrameRead::Idle) => {
                // Frame boundary, nothing buffered: safe to close idle
                // connections once draining.
                if inner.draining.load(Ordering::SeqCst)
                    || inner.shutdown.load(Ordering::SeqCst)
                    || sig::SIGNALLED.load(Ordering::SeqCst)
                {
                    return;
                }
            }
            Ok(FrameRead::MidFrame) => {
                // A frame is in flight; keep reading (even while
                // draining — the request deserves its response), but
                // not forever.
                let started = *frame_started.get_or_insert_with(Instant::now);
                if started.elapsed() >= MID_FRAME_STALL_LIMIT {
                    aqp_obs::counter("aqp_server_stalled_conn_total", &[]).inc();
                    return;
                }
            }
            Err(_) => return, // torn frame or transport error
        }
    }
}

fn tally_request(inner: &Inner, class: ContractClass, outcome: &'static str) {
    inner.tallies.requests.fetch_add(1, Ordering::Relaxed);
    aqp_obs::counter(
        "aqp_server_requests_total",
        &[("class", class.as_str()), ("outcome", outcome)],
    )
    .inc();
}

/// Per-query facts the connection loop needs after the response is
/// written: the flight record's identity fields plus how to classify the
/// outcome for the SLO watchdog.
struct RequestMeta {
    trace_id: String,
    class: ContractClass,
    outcome: &'static str,
    tier: String,
    cache_hit: bool,
    rows_scanned: u64,
}

/// Server-generated trace id: a per-process counter (uniqueness within
/// the run) salted with wall-clock nanos (distinguishes runs in merged
/// logs).
fn gen_trace_id(inner: &Inner) -> String {
    let n = inner.trace_counter.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0);
    format!("aqp-{:08x}-{n:x}", nanos ^ (n << 20))
}

/// Finish one query request: push its flight record, feed the SLO
/// watchdog, and dump the flight ring on anomaly or breach. Runs after
/// the response frame was written so the `write` stage is on the record.
fn commit_request(inner: &Inner, meta: RequestMeta, timeline: Timeline) {
    let total_micros = timeline.total_micros();
    inner.flight.record(RequestRecord {
        trace_id: meta.trace_id.clone(),
        class: meta.class.as_str().to_string(),
        outcome: meta.outcome.to_string(),
        tier: meta.tier,
        cache_hit: meta.cache_hit,
        rows_scanned: meta.rows_scanned,
        total_micros,
        stages: timeline.into_stages(),
    });

    let slo_outcome = match meta.outcome {
        "answer" => Some(SloOutcome::Answered { cache_hit: meta.cache_hit }),
        "shed" => Some(SloOutcome::Shed),
        "timeout" => Some(SloOutcome::Timeout),
        "error" => Some(SloOutcome::Error),
        // Draining rejects are shutdown noise, not SLO signal.
        _ => None,
    };
    let breach = slo_outcome.and_then(|outcome| {
        inner.slo.lock().expect("slo poisoned").record(
            meta.class.as_str(),
            outcome,
            Duration::from_micros(total_micros),
        )
    });
    if let Some(breach) = &breach {
        aqp_obs::counter("aqp_slo_breach_total", &[("class", &breach.class), ("rule", breach.rule)])
            .inc();
        aqp_obs::event::warn(
            "serving::slo",
            "SLO burn-rate breach",
            &[
                ("class", &breach.class),
                ("rule", breach.rule),
                ("trace_id", &meta.trace_id),
                ("fast_availability", &format!("{:.3}", breach.fast_availability)),
                ("slow_availability", &format!("{:.3}", breach.slow_availability)),
            ],
        );
    }

    // Anomalies flush the ring to disk — the record that just went in
    // (and the N before it) are on disk before the next request runs.
    let anomaly = matches!(meta.outcome, "shed" | "timeout" | "error");
    if anomaly || breach.is_some() {
        let trigger = if breach.is_some() { "slo-breach" } else { meta.outcome };
        if let Some(path) = &inner.config.flight_dump {
            if inner.flight.dump_to(path).is_ok() {
                aqp_obs::counter("aqp_flight_dump_total", &[("trigger", trigger)]).inc();
            }
        }
    }
}

/// Render the SLO watchdog's view (plus lifetime tallies) as the JSON
/// document behind the `stats` verb and `aqp top`.
fn render_stats(inner: &Inner) -> String {
    let slo = inner.slo.lock().expect("slo poisoned");
    let classes = [ContractClass::Interactive, ContractClass::Batch]
        .iter()
        .map(|class| {
            let windows = WINDOWS
                .iter()
                .map(|(name, seconds)| {
                    let w = slo.window(class.as_str(), *seconds);
                    Value::Obj(vec![
                        ("window".into(), (*name).into()),
                        ("requests".into(), w.requests.into()),
                        ("answered".into(), w.answered.into()),
                        ("availability".into(), w.availability.into()),
                        ("shed_rate".into(), w.shed_rate().into()),
                        ("timeout_rate".into(), w.timeout_rate().into()),
                        ("cache_hit_rate".into(), w.cache_hit_rate().into()),
                        ("p50_ms".into(), (w.p50_micros as f64 / 1e3).into()),
                        ("p95_ms".into(), (w.p95_micros as f64 / 1e3).into()),
                        ("p99_ms".into(), (w.p99_micros as f64 / 1e3).into()),
                    ])
                })
                .collect();
            Value::Obj(vec![
                ("class".into(), class.as_str().into()),
                ("in_breach".into(), slo.in_breach(class.as_str()).into()),
                ("windows".into(), Value::Arr(windows)),
            ])
        })
        .collect();
    drop(slo);
    let t = &inner.tallies;
    let tallies = Value::Obj(vec![
        ("requests".into(), t.requests.load(Ordering::Relaxed).into()),
        ("answered".into(), t.answered.load(Ordering::Relaxed).into()),
        ("shed".into(), t.shed.load(Ordering::Relaxed).into()),
        ("timeouts".into(), t.timeouts.load(Ordering::Relaxed).into()),
        ("errors".into(), t.errors.load(Ordering::Relaxed).into()),
        ("cache_hits".into(), t.cache_hits.load(Ordering::Relaxed).into()),
        ("connections".into(), t.connections.load(Ordering::Relaxed).into()),
    ]);
    Value::Obj(vec![
        ("classes".into(), Value::Arr(classes)),
        ("tallies".into(), tallies),
        ("flight_records".into(), inner.flight.len().into()),
    ])
    .to_json()
}

fn dispatch(inner: &Inner, request: Request, timeline: &mut Timeline) -> (Response, Option<RequestMeta>) {
    match request {
        Request::Ping => {
            tally_request(inner, ContractClass::Interactive, "ping");
            (Response::Pong, None)
        }
        Request::Metrics => {
            tally_request(inner, ContractClass::Interactive, "metrics");
            // Refresh the aqp_slo_* gauges so every metrics pull carries
            // the watchdog's current windows.
            inner.slo.lock().expect("slo poisoned").export_to_registry();
            (
                Response::Metrics(aqp_obs::to_prometheus(&aqp_obs::global().snapshot())),
                None,
            )
        }
        Request::Stats => {
            tally_request(inner, ContractClass::Interactive, "stats");
            inner.slo.lock().expect("slo poisoned").export_to_registry();
            (Response::Stats(render_stats(inner)), None)
        }
        Request::Dump => {
            tally_request(inner, ContractClass::Interactive, "dump");
            aqp_obs::counter("aqp_flight_dump_total", &[("trigger", "request")]).inc();
            (Response::Dump(inner.flight.to_jsonl()), None)
        }
        Request::Shutdown => {
            tally_request(inner, ContractClass::Interactive, "shutdown");
            inner.shutdown.store(true, Ordering::SeqCst);
            (Response::ShuttingDown, None)
        }
        Request::Invalidate => {
            tally_request(inner, ContractClass::Interactive, "invalidate");
            (Response::Invalidated { epoch: inner.cache.invalidate() }, None)
        }
        Request::Query {
            sql,
            class,
            deadline_ms,
            row_budget,
            confidence,
            max_rel_error,
            trace_id,
        } => {
            let trace_id = trace_id
                .filter(|t| !t.is_empty())
                .unwrap_or_else(|| gen_trace_id(inner));
            serve_query(
                inner, timeline, trace_id, sql, class, deadline_ms, row_budget, confidence,
                max_rel_error,
            )
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_query(
    inner: &Inner,
    timeline: &mut Timeline,
    trace_id: String,
    sql: String,
    class: ContractClass,
    deadline_ms: Option<u64>,
    row_budget: Option<usize>,
    confidence: Option<f64>,
    max_rel_error: Option<f64>,
) -> (Response, Option<RequestMeta>) {
    // Builds the meta alongside each terminal response so every exit of
    // this function leaves one flight record with a consistent outcome.
    let meta = |outcome: &'static str, tier: &str, cache_hit: bool, rows: u64| {
        Some(RequestMeta {
            trace_id: trace_id.clone(),
            class,
            outcome,
            tier: tier.to_string(),
            cache_hit,
            rows_scanned: rows,
        })
    };

    if inner.draining.load(Ordering::SeqCst) || inner.shutdown.load(Ordering::SeqCst) {
        inner.tallies.drained_rejects.fetch_add(1, Ordering::Relaxed);
        tally_request(inner, class, "draining");
        return (Response::Draining, meta("draining", "", false, 0));
    }

    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(inner.config.default_deadline)
        .map(|d| Instant::now() + d);

    let t0 = Instant::now();
    // Parse before admission: the cache key is the canonicalized plan,
    // and a cache hit must not consume an executor slot at all.
    let parsed = match aqp_sql::parse_query(&sql) {
        Ok(p) => p,
        Err(e) => {
            timeline.mark("parse");
            inner.tallies.errors.fetch_add(1, Ordering::Relaxed);
            tally_request(inner, class, "error");
            return (
                Response::Error {
                    message: format!("parse error: {e}"),
                    trace_id: trace_id.clone(),
                },
                meta("error", "", false, 0),
            );
        }
    };
    timeline.mark("parse");
    let conf = confidence.unwrap_or(inner.config.default_confidence);
    let contract = AnswerContract { confidence: conf, max_rel_error };

    // Cache consultation AHEAD of admission. A hit is served without a
    // permit, a token, or a single morsel. A miss returns a single-flight
    // guard: concurrent misses on the same key park here (bounded by
    // their own deadline) while one leader executes; when the leader
    // completes they re-check and hit.
    let decision = inner.cache.decide(&parsed.table, &parsed.query, &contract, deadline);
    timeline.mark("cache");
    let flight = match decision {
        CacheDecision::Hit(answer, _) => {
            inner.tallies.cache_hits.fetch_add(1, Ordering::Relaxed);
            inner.tallies.answered.fetch_add(1, Ordering::Relaxed);
            tally_request(inner, class, "answer");
            let elapsed = t0.elapsed();
            aqp_obs::histogram("aqp_server_latency_seconds", &[("class", class.as_str())])
                .observe(elapsed.as_nanos() as u64);
            let wire = WireAnswer::from_answer(
                &answer,
                false,
                None,
                elapsed.as_secs_f64() * 1e3,
                true,
                trace_id.clone(),
            );
            let m = meta("answer", &wire.tier, true, wire.rows_scanned);
            return (Response::Answer(wire), m);
        }
        CacheDecision::Bypass => {
            inner.tallies.cache_bypass.fetch_add(1, Ordering::Relaxed);
            None
        }
        CacheDecision::Execute(guard) => {
            inner.tallies.cache_misses.fetch_add(1, Ordering::Relaxed);
            Some(guard)
        }
    };

    // Admission: the queue wait is bounded by the query's own deadline —
    // time spent queueing is time the scan no longer has.
    let admitted = inner.admission.admit(class, deadline);
    timeline.mark("admission");
    let permit = match admitted {
        AdmitOutcome::Admitted(p) => p,
        AdmitOutcome::Shed { retry_after_ms } => {
            inner.tallies.shed.fetch_add(1, Ordering::Relaxed);
            tally_request(inner, class, "shed");
            return (
                Response::Shed {
                    retry_after_ms,
                    class: class.as_str().to_string(),
                    trace_id: trace_id.clone(),
                },
                meta("shed", "", false, 0),
            );
        }
        AdmitOutcome::QueueTimeout => {
            inner.tallies.timeouts.fetch_add(1, Ordering::Relaxed);
            aqp_obs::counter("aqp_server_timeout_total", &[("class", class.as_str())]).inc();
            tally_request(inner, class, "timeout");
            return (
                Response::Timeout {
                    message: "deadline expired in admission queue".into(),
                    trace_id: trace_id.clone(),
                },
                meta("timeout", "", false, 0),
            );
        }
    };

    let token = match deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };
    // Injected execution stall (CI's deterministic forced timeout).
    inner.faults.exec_stall(&token);

    // A deadline that expired before execution even began (queue wait,
    // an injected stall) is a miss, not a degradation opportunity — a
    // 0-row "answer" would be vacuous. Report the timeout honestly.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        timeline.mark("execute");
        inner.tallies.timeouts.fetch_add(1, Ordering::Relaxed);
        aqp_obs::counter("aqp_server_timeout_total", &[("class", class.as_str())]).inc();
        tally_request(inner, class, "timeout");
        drop(permit);
        return (
            Response::Timeout {
                message: "deadline expired before execution".into(),
                trace_id: trace_id.clone(),
            },
            meta("timeout", "", false, 0),
        );
    }

    let deadline_budget = deadline
        .and_then(|d| d.checked_duration_since(Instant::now()))
        .and_then(|left| inner.throughput.budget_for(left));

    let bound = QueryBound {
        row_budget,
        deadline_budget,
        cancel: Some(token.clone()),
    };
    let executed = inner.system.answer_bounded(&parsed.query, conf, &bound);
    timeline.mark("execute");
    let (response, meta) = match executed {
        Ok(bounded) => {
            let elapsed = t0.elapsed();
            // Teach the estimator only from exact-tier scans:
            // sample-tier answers scan few rows yet pay the same
            // parse/ladder overhead, so feeding them in would
            // drag the rows/ms EWMA far below true scan speed
            // and make deadline→budget conversion needlessly
            // pessimistic.
            if bounded.answer.tier == ServingTier::Exact {
                inner.throughput.observe(bounded.answer.rows_scanned, elapsed);
            }
            inner.tallies.answered.fetch_add(1, Ordering::Relaxed);
            tally_request(inner, class, "answer");
            aqp_obs::histogram(
                "aqp_server_latency_seconds",
                &[("class", class.as_str())],
            )
            .observe(elapsed.as_nanos() as u64);
            // Publish to the cache: deadline-shaped answers are an
            // artifact of this request's time budget, not a reusable
            // statement about the data — complete() skips them (and any
            // partial answer) while still releasing the flight.
            if let Some(guard) = flight {
                guard.complete(&bounded.answer, conf, !bounded.deadline_limited);
            }
            // Offer the freshly executed sampled-tier answer to the
            // shadow auditor (bounded non-blocking push on its queue —
            // never an admission slot, never a stall here).
            if let Some(shadow) = inner.shadow.lock().expect("shadow slot poisoned").as_ref() {
                shadow.maybe_submit(&parsed.query, &bounded.answer, conf, &trace_id);
            }
            let wire = WireAnswer::from_answer(
                &bounded.answer,
                bounded.deadline_limited,
                bounded.effective_budget,
                elapsed.as_secs_f64() * 1e3,
                false,
                trace_id.clone(),
            );
            let m = meta("answer", &wire.tier, false, wire.rows_scanned);
            (Response::Answer(wire), m)
        }
        Err(AqpError::Cancelled { deadline: true }) => {
            inner.tallies.timeouts.fetch_add(1, Ordering::Relaxed);
            aqp_obs::counter("aqp_server_timeout_total", &[("class", class.as_str())])
                .inc();
            tally_request(inner, class, "timeout");
            (
                Response::Timeout {
                    message: "deadline exceeded mid-scan; no tier could finish".into(),
                    trace_id: trace_id.clone(),
                },
                meta("timeout", "", false, 0),
            )
        }
        Err(AqpError::Cancelled { deadline: false }) => {
            inner.tallies.errors.fetch_add(1, Ordering::Relaxed);
            tally_request(inner, class, "error");
            (
                Response::Error {
                    message: "query cancelled".into(),
                    trace_id: trace_id.clone(),
                },
                meta("error", "", false, 0),
            )
        }
        Err(e) => {
            inner.tallies.errors.fetch_add(1, Ordering::Relaxed);
            tally_request(inner, class, "error");
            (
                Response::Error { message: e.to_string(), trace_id: trace_id.clone() },
                meta("error", "", false, 0),
            )
        }
    };
    drop(permit);
    (response, meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, RetryPolicy};
    use crate::protocol::{read_frame, Request};
    use aqp_storage::{DataType, SchemaBuilder, Table};

    fn view(rows: usize) -> Table {
        let schema = SchemaBuilder::new()
            .field("g", DataType::Utf8)
            .field("x", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("v", schema);
        for i in 0..rows {
            let g = if i % 20 == 0 { "rare" } else { "common" };
            t.push_row(&[g.into(), (i as f64).into()]).unwrap();
        }
        t
    }

    fn start(config: ServerConfig) -> (std::net::SocketAddr, ShutdownHandle, std::thread::JoinHandle<ServerReport>) {
        let system = ResilientSystem::exact_only(view(2_000));
        let server = Server::bind(system, config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        (addr, handle, join)
    }

    #[test]
    fn answers_queries_and_drains_cleanly() {
        let (addr, handle, join) = start(ServerConfig::default());
        let mut client = Client::new(addr.to_string(), RetryPolicy::default());

        match client.request(&Request::Ping).unwrap() {
            Response::Pong => {}
            other => panic!("{other:?}"),
        }
        let answer = match client
            .request(&Request::query("SELECT g, COUNT(*) AS c FROM v GROUP BY g"))
            .unwrap()
        {
            Response::Answer(a) => a,
            other => panic!("{other:?}"),
        };
        assert_eq!(answer.tier, "exact");
        assert_eq!(answer.groups.len(), 2);
        let total: f64 = answer.groups.iter().map(|g| g.values[0].estimate).sum();
        assert_eq!(total, 2_000.0);

        handle.shutdown();
        let report = join.join().unwrap();
        assert_eq!(report.answered, 1);
        assert_eq!(report.requests, 2);
    }

    #[test]
    fn draining_rejects_new_queries() {
        let (addr, handle, join) = start(ServerConfig::default());
        let mut client = Client::new(addr.to_string(), RetryPolicy::no_retry());
        // Ensure server is up.
        client.request(&Request::Ping).unwrap();
        handle.shutdown();
        // The accept loop exits and draining begins; an in-flight
        // connection's next query gets a draining frame (or the
        // connection closes, which surfaces as an error — both are
        // acceptable terminal outcomes).
        std::thread::sleep(Duration::from_millis(50));
        match client.request(&Request::query("SELECT COUNT(*) FROM v")) {
            Ok(Response::Draining) | Err(_) => {}
            Ok(other) => panic!("expected draining, got {other:?}"),
        }
        join.join().unwrap();
    }

    #[test]
    fn shutdown_request_stops_server() {
        let (addr, _handle, join) = start(ServerConfig::default());
        let mut client = Client::new(addr.to_string(), RetryPolicy::no_retry());
        match client.request(&Request::Shutdown).unwrap() {
            Response::ShuttingDown => {}
            other => panic!("{other:?}"),
        }
        let report = join.join().unwrap();
        assert!(report.requests >= 1);
    }

    #[test]
    fn deadline_with_zero_budget_degrades_not_dies() {
        // Pin throughput so the deadline converts deterministically:
        // 1 row/ms and an (almost elapsed) deadline → tiny budget →
        // budget-capped exact scan, flagged deadline_limited.
        let config = ServerConfig {
            fixed_rows_per_ms: Some(1.0),
            ..ServerConfig::default()
        };
        let (addr, handle, join) = start(config);
        let mut client = Client::new(addr.to_string(), RetryPolicy::no_retry());
        let resp = client
            .request(&Request::Query {
                sql: "SELECT COUNT(*) AS c FROM v".into(),
                class: ContractClass::Interactive,
                deadline_ms: Some(125),
                row_budget: None,
                confidence: None,
                max_rel_error: None,
                trace_id: None,
            })
            .unwrap();
        match resp {
            Response::Answer(a) => {
                assert!(a.deadline_limited, "deadline shaped the answer: {a:?}");
                assert!(a.partial, "scan was truncated to fit the deadline");
                assert!(a.rows_scanned < 2_000, "scanned {} rows", a.rows_scanned);
            }
            other => panic!("expected degraded answer, got {other:?}"),
        }
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn slow_client_frame_split_across_read_timeouts_still_answers() {
        // Dribble one request frame in three bursts separated by pauses
        // longer than the server's 100ms read timeout. The frame spans
        // several timeout windows; a server that discarded partial reads
        // on WouldBlock would desync and never answer.
        let (addr, handle, join) = start(ServerConfig::default());
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let payload = Request::Ping.to_json();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        use std::io::Write as _;
        let cuts = [2, wire.len() / 2, wire.len()];
        let mut sent = 0;
        for cut in cuts {
            stream.write_all(&wire[sent..cut]).unwrap();
            stream.flush().unwrap();
            sent = cut;
            if sent < wire.len() {
                std::thread::sleep(Duration::from_millis(250));
            }
        }
        let resp = read_frame(&mut stream).unwrap().expect("server answered");
        match Response::from_json(&resp).unwrap() {
            Response::Pong => {}
            other => panic!("{other:?}"),
        }
        drop(stream);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn bad_sql_gets_error_response() {
        let (addr, handle, join) = start(ServerConfig::default());
        let mut client = Client::new(addr.to_string(), RetryPolicy::no_retry());
        match client.request(&Request::query("SELEKT garbage")).unwrap() {
            Response::Error { message, .. } => assert!(message.contains("parse"), "{message}"),
            other => panic!("{other:?}"),
        }
        handle.shutdown();
        let report = join.join().unwrap();
        assert_eq!(report.errors, 1);
    }
}
