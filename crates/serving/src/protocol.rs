//! Wire protocol: length-prefixed JSON frames.
//!
//! Each message is one *frame*: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. Framing keeps the parser
//! trivial and makes partial reads explicit; JSON keeps the protocol
//! inspectable with nothing but `nc` and eyeballs. The codec reuses
//! [`aqp_obs::json`] — the same hand-rolled writer/parser the trace
//! pipeline uses — so the serving layer stays zero-dependency. Responses
//! are written field by field into one buffer, with no intermediate
//! tree, and decoded by moving strings out of the parsed tree; both are
//! linear in the frame size.
//!
//! Degradation is a *first-class wire concept*: an `ok` response carries
//! the [`aqp_core::ServingTier`] that produced the answer, whether the
//! scan was truncated (`partial`), and whether the deadline forced a
//! cheaper tier (`deadline_limited`); an overloaded server answers
//! `shed` with a `retry_after_ms` hint instead of stalling the client; a
//! missed deadline answers `timeout`. Clients can react to load without
//! any out-of-band channel.

use aqp_core::ApproxAnswer;
use aqp_obs::json::{self, Value};
use aqp_storage::Value as Datum;
use std::io::{self, Read, Write};

/// Frames larger than this are rejected before allocation — a corrupt
/// or hostile length prefix must not OOM the server.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Write one frame: 4-byte big-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::other("frame exceeds MAX_FRAME_BYTES"));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one frame from a blocking stream. Returns `Ok(None)` on clean
/// EOF at a frame boundary (the peer closed between messages); mid-frame
/// EOF is an error. On a stream with a read timeout, use [`FrameReader`]
/// instead — this function discards partial progress on `WouldBlock`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut reader = FrameReader::new();
    loop {
        match reader.read(r)? {
            FrameRead::Frame(payload) => return Ok(Some(payload)),
            FrameRead::Eof => return Ok(None),
            // No timeout on a blocking stream should reach here; if one
            // does (caller set a timeout anyway), keep accumulating.
            FrameRead::Idle | FrameRead::MidFrame => {}
        }
    }
}

/// Outcome of one [`FrameReader::read`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(String),
    /// Clean EOF at a frame boundary (the peer closed between messages).
    Eof,
    /// The read timed out with **zero** bytes of the next frame consumed
    /// — a genuine idle tick; the stream is still at a frame boundary.
    Idle,
    /// The read timed out **mid-frame**: bytes of the current frame are
    /// already buffered in the reader. Call `read` again to resume —
    /// treating this as idle (or abandoning the reader) would desync the
    /// protocol, because the wire position is inside a frame.
    MidFrame,
}

/// Incremental frame reader that survives read timeouts.
///
/// A server polls its sockets with a short read timeout so drain is
/// responsive, but a frame can legitimately arrive split across several
/// timeout windows (slow client, large frame, TCP fragmentation). This
/// reader keeps the partially-read header and payload across
/// `WouldBlock`/`TimedOut` returns, so a timeout never discards consumed
/// bytes: the caller learns whether the connection is truly idle
/// ([`FrameRead::Idle`]) or mid-frame ([`FrameRead::MidFrame`]) and the
/// next call resumes exactly where the stream left off.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Length-prefix bytes accumulated so far.
    header: [u8; 4],
    /// How many of the 4 header bytes are filled.
    header_filled: usize,
    /// Payload buffer, allocated once the header completes.
    payload: Option<Vec<u8>>,
    /// Payload bytes accumulated so far.
    payload_filled: usize,
}

impl FrameReader {
    /// A reader positioned at a frame boundary.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Whether bytes of an incomplete frame are buffered.
    pub fn mid_frame(&self) -> bool {
        self.header_filled > 0 || self.payload.is_some()
    }

    /// Advance the frame state machine by reading from `r`. Never
    /// discards consumed bytes: timeouts return [`FrameRead::Idle`] or
    /// [`FrameRead::MidFrame`] and leave the partial frame buffered.
    pub fn read(&mut self, r: &mut impl Read) -> io::Result<FrameRead> {
        // Phase 1: the 4-byte length prefix.
        while self.payload.is_none() {
            if self.header_filled == 4 {
                let len = u32::from_be_bytes(self.header) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(io::Error::other(format!("frame length {len} exceeds limit")));
                }
                self.payload = Some(vec![0u8; len]);
                self.payload_filled = 0;
                break;
            }
            match r.read(&mut self.header[self.header_filled..]) {
                Ok(0) if self.header_filled == 0 => return Ok(FrameRead::Eof),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "torn frame header",
                    ))
                }
                Ok(n) => self.header_filled += n,
                Err(e) if timed_out(&e) => {
                    return Ok(if self.header_filled == 0 {
                        FrameRead::Idle
                    } else {
                        FrameRead::MidFrame
                    })
                }
                Err(e) => return Err(e),
            }
        }

        // Phase 2: the payload.
        let payload = self.payload.as_mut().expect("payload allocated in phase 1");
        while self.payload_filled < payload.len() {
            match r.read(&mut payload[self.payload_filled..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "torn frame payload",
                    ))
                }
                Ok(n) => self.payload_filled += n,
                Err(e) if timed_out(&e) => return Ok(FrameRead::MidFrame),
                Err(e) => return Err(e),
            }
        }

        let bytes = self.payload.take().expect("payload present");
        self.header_filled = 0;
        self.payload_filled = 0;
        String::from_utf8(bytes)
            .map(FrameRead::Frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Whether an I/O error is a read-timeout tick rather than a real
/// transport failure (`WouldBlock` on unix, `TimedOut` on some
/// platforms). `Interrupted` reads are also safe to resume.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Service class a request is admitted under. Interactive requests get
/// the larger concurrency share and the tighter default deadline; batch
/// requests queue behind them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ContractClass {
    /// Latency-sensitive: dashboards, humans, REPLs.
    #[default]
    Interactive,
    /// Throughput-oriented: reports, backfills.
    Batch,
}

impl ContractClass {
    /// Stable wire/metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            ContractClass::Interactive => "interactive",
            ContractClass::Batch => "batch",
        }
    }

    /// Parse a wire label (unknown strings default to interactive, the
    /// class with the stricter limits — misdeclared traffic must not
    /// escape admission control by typo).
    pub fn parse(s: &str) -> ContractClass {
        match s {
            "batch" => ContractClass::Batch,
            _ => ContractClass::Interactive,
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Answer a SQL query under the given constraints.
    Query {
        /// The SQL text (the supported SPJA fragment).
        sql: String,
        /// Admission class.
        class: ContractClass,
        /// Per-query deadline in milliseconds, if any.
        deadline_ms: Option<u64>,
        /// Client-requested row-scan cap, if any.
        row_budget: Option<usize>,
        /// Confidence level for intervals (default 0.95).
        confidence: Option<f64>,
        /// Optional relative-error bound on every interval's half-width
        /// (`half_width <= bound * |estimate|`). Part of the answer
        /// contract: a cached answer is only reused if it fits.
        max_rel_error: Option<f64>,
        /// Client-supplied trace id. When absent the server generates
        /// one; either way the id rides every response frame and every
        /// flight-recorder record for this request.
        trace_id: Option<String>,
    },
    /// Liveness probe.
    Ping,
    /// Fetch the server's metrics registry as Prometheus text.
    Metrics,
    /// Fetch the SLO watchdog's windowed statistics as a JSON document
    /// (drives `aqp top`).
    Stats,
    /// Fetch the flight recorder's retained request records as JSONL.
    Dump,
    /// Drop every cached answer and bump the cache epoch (issued after a
    /// table/sample rebuild so stale answers can never be re-served).
    Invalidate,
    /// Ask the server to shut down gracefully (drain, then exit).
    Shutdown,
}

impl Request {
    /// A query request with defaults (interactive, no deadline, no cap).
    pub fn query(sql: impl Into<String>) -> Request {
        Request::Query {
            sql: sql.into(),
            class: ContractClass::Interactive,
            deadline_ms: None,
            row_budget: None,
            confidence: None,
            max_rel_error: None,
            trace_id: None,
        }
    }

    /// Encode as a JSON frame payload.
    pub fn to_json(&self) -> String {
        let v = match self {
            Request::Ping => Value::Obj(vec![("op".into(), "ping".into())]),
            Request::Metrics => Value::Obj(vec![("op".into(), "metrics".into())]),
            Request::Stats => Value::Obj(vec![("op".into(), "stats".into())]),
            Request::Dump => Value::Obj(vec![("op".into(), "dump".into())]),
            Request::Shutdown => Value::Obj(vec![("op".into(), "shutdown".into())]),
            Request::Invalidate => Value::Obj(vec![("op".into(), "invalidate".into())]),
            Request::Query {
                sql,
                class,
                deadline_ms,
                row_budget,
                confidence,
                max_rel_error,
                trace_id,
            } => {
                let mut m: Vec<(String, Value)> = vec![
                    ("op".into(), "query".into()),
                    ("sql".into(), sql.as_str().into()),
                    ("class".into(), class.as_str().into()),
                ];
                if let Some(d) = deadline_ms {
                    m.push(("deadline_ms".into(), (*d).into()));
                }
                if let Some(b) = row_budget {
                    m.push(("row_budget".into(), (*b).into()));
                }
                if let Some(c) = confidence {
                    m.push(("confidence".into(), (*c).into()));
                }
                if let Some(e) = max_rel_error {
                    m.push(("max_rel_error".into(), (*e).into()));
                }
                if let Some(t) = trace_id {
                    m.push(("trace_id".into(), t.as_str().into()));
                }
                Value::Obj(m)
            }
        };
        v.to_json()
    }

    /// Decode a JSON frame payload.
    pub fn from_json(payload: &str) -> Result<Request, String> {
        let v = json::parse(payload)?;
        let op = v.get("op").and_then(Value::as_str).ok_or("missing op")?;
        match op {
            "ping" => Ok(Request::Ping),
            "metrics" => Ok(Request::Metrics),
            "stats" => Ok(Request::Stats),
            "dump" => Ok(Request::Dump),
            "shutdown" => Ok(Request::Shutdown),
            "invalidate" => Ok(Request::Invalidate),
            "query" => Ok(Request::Query {
                sql: v.get("sql").and_then(Value::as_str).ok_or("query needs sql")?.to_string(),
                class: ContractClass::parse(
                    v.get("class").and_then(Value::as_str).unwrap_or("interactive"),
                ),
                deadline_ms: v.get("deadline_ms").and_then(Value::as_u64),
                row_budget: v.get("row_budget").and_then(Value::as_u64).map(|n| n as usize),
                confidence: v.get("confidence").and_then(Value::as_f64),
                max_rel_error: v.get("max_rel_error").and_then(Value::as_f64),
                trace_id: v.get("trace_id").and_then(Value::as_str).map(str::to_string),
            }),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// An approximate answer flattened for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAnswer {
    /// The request's trace id, echoed back so the client can correlate
    /// the answer with its own records (empty from pre-trace servers).
    pub trace_id: String,
    /// The ladder rung that served the answer (`primary`, `degraded`,
    /// `overall`, `exact`).
    pub tier: String,
    /// True when a row budget truncated the scan.
    pub partial: bool,
    /// True when the deadline forced a cheaper tier or truncated the
    /// exact rung — the client traded accuracy for its own deadline.
    pub deadline_limited: bool,
    /// True when the answer was re-served from the semantic cache
    /// (no scan at all; `rows_scanned` reports the original execution).
    pub cache_hit: bool,
    /// Rows the answer actually scanned.
    pub rows_scanned: u64,
    /// The row cap the ladder walked under, if any.
    pub effective_budget: Option<u64>,
    /// Server-side wall time, milliseconds.
    pub elapsed_ms: f64,
    /// Group-by column names.
    pub group_names: Vec<String>,
    /// Aggregate output aliases.
    pub agg_aliases: Vec<String>,
    /// One entry per group: key values and per-aggregate estimates.
    pub groups: Vec<WireGroup>,
}

/// One result group on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireGroup {
    /// Group key (one JSON scalar per group-by column).
    pub key: Vec<Value>,
    /// Per-aggregate `[estimate, lo, hi, exact]` tuples.
    pub values: Vec<WireValue>,
}

/// One estimate with its confidence interval.
#[derive(Debug, Clone, PartialEq)]
pub struct WireValue {
    /// Point estimate.
    pub estimate: f64,
    /// Interval lower bound.
    pub lo: f64,
    /// Interval upper bound.
    pub hi: f64,
    /// Whether the value is exact (interval collapses).
    pub exact: bool,
}

fn datum_to_json(d: &Datum) -> Value {
    match d {
        Datum::Null => Value::Null,
        Datum::Int64(i) => Value::Num(*i as f64),
        Datum::Float64(f) => Value::Num(*f),
        Datum::Utf8(s) => Value::Str(s.clone()),
        Datum::Bool(b) => Value::Bool(*b),
    }
}

impl WireAnswer {
    /// Flatten an [`ApproxAnswer`] (plus bound metadata) for the wire.
    /// Groups are key-sorted first so the wire order is deterministic —
    /// the in-memory merge order is not a protocol guarantee.
    pub fn from_answer(
        answer: &ApproxAnswer,
        deadline_limited: bool,
        effective_budget: Option<usize>,
        elapsed_ms: f64,
        cache_hit: bool,
        trace_id: String,
    ) -> WireAnswer {
        WireAnswer {
            trace_id,
            tier: answer.tier.to_string(),
            partial: answer.partial,
            deadline_limited,
            cache_hit,
            rows_scanned: answer.rows_scanned as u64,
            effective_budget: effective_budget.map(|b| b as u64),
            elapsed_ms,
            group_names: answer.group_names.clone(),
            agg_aliases: answer.agg_aliases.clone(),
            groups: answer
                .groups_by_key()
                .into_iter()
                .map(|g| WireGroup {
                    key: g.key.iter().map(datum_to_json).collect(),
                    values: g
                        .values
                        .iter()
                        .map(|v| WireValue {
                            estimate: v.value(),
                            lo: v.ci.lo,
                            hi: v.ci.hi,
                            exact: v.is_exact(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Append this answer's `ok` response object to `out`. Member order
    /// is part of the wire format.
    fn write_json(&self, out: &mut String) {
        out.push_str(r#"{"status":"ok","trace_id":"#);
        json::write_escaped(out, &self.trace_id);
        out.push_str(r#","tier":"#);
        json::write_escaped(out, &self.tier);
        out.push_str(r#","partial":"#);
        out.push_str(bool_str(self.partial));
        out.push_str(r#","deadline_limited":"#);
        out.push_str(bool_str(self.deadline_limited));
        out.push_str(r#","cache_hit":"#);
        out.push_str(bool_str(self.cache_hit));
        if let Some(b) = self.effective_budget {
            out.push_str(r#","effective_budget":"#);
            write_u64(out, b);
        }
        out.push_str(r#","rows_scanned":"#);
        write_u64(out, self.rows_scanned);
        out.push_str(r#","elapsed_ms":"#);
        json::write_f64(out, self.elapsed_ms);
        out.push_str(r#","group_names":"#);
        write_str_array(out, &self.group_names);
        out.push_str(r#","agg_aliases":"#);
        write_str_array(out, &self.agg_aliases);
        out.push_str(r#","groups":["#);
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(r#"{"key":["#);
            for (j, k) in g.key.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                k.write(out);
            }
            out.push_str(r#"],"values":["#);
            for (j, v) in g.values.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(r#"{"estimate":"#);
                json::write_f64(out, v.estimate);
                out.push_str(r#","lo":"#);
                json::write_f64(out, v.lo);
                out.push_str(r#","hi":"#);
                json::write_f64(out, v.hi);
                out.push_str(r#","exact":"#);
                out.push_str(bool_str(v.exact));
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }

    /// A size to pre-allocate for [`WireAnswer::write_json`]: the fixed
    /// members plus about 24 bytes per key and 112 per value object.
    fn json_len_hint(&self) -> usize {
        let per_group = 32 + 24 * self.group_names.len() + 112 * self.agg_aliases.len();
        256 + per_group * self.groups.len()
    }
}

fn bool_str(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

/// Integers travel as JSON numbers, formatted as the `f64` they decode to.
fn write_u64(out: &mut String, n: u64) {
    json::write_f64(out, n as f64);
}

fn write_str_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(out, s);
    }
    out.push(']');
}

/// Move the first member named `key` out of an object, leaving `null` in
/// its place, so decoding hands over strings and arrays without copying.
fn take(obj: &mut Value, key: &str) -> Option<Value> {
    match obj {
        Value::Obj(members) => members
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| std::mem::replace(v, Value::Null)),
        _ => None,
    }
}

fn take_str(obj: &mut Value, key: &str) -> Option<String> {
    match take(obj, key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn take_arr(obj: &mut Value, key: &str) -> Option<Vec<Value>> {
    match take(obj, key)? {
        Value::Arr(items) => Some(items),
        _ => None,
    }
}

/// One server response. Every request receives exactly one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The query was answered (possibly at a degraded tier).
    Answer(WireAnswer),
    /// Liveness reply.
    Pong,
    /// Prometheus text-format metrics snapshot.
    Metrics(String),
    /// SLO watchdog windowed statistics, pre-rendered as a JSON document.
    Stats(String),
    /// Flight-recorder contents, rendered as JSONL (one request record
    /// per line, oldest first).
    Dump(String),
    /// The server accepted a shutdown request and is draining.
    ShuttingDown,
    /// The semantic cache was cleared; `epoch` is the new cache epoch.
    Invalidated {
        /// Cache epoch after the bump.
        epoch: u64,
    },
    /// Admission control refused the request: the class's queue is full.
    /// Retry after the hinted back-off.
    Shed {
        /// Suggested back-off before retrying, milliseconds.
        retry_after_ms: u64,
        /// The class whose queue was full.
        class: String,
        /// The request's trace id (empty from pre-trace servers).
        trace_id: String,
    },
    /// The server is draining for shutdown; no new queries are accepted.
    Draining,
    /// The query's deadline expired (in queue or mid-scan) before any
    /// tier could finish.
    Timeout {
        /// Human-readable cause.
        message: String,
        /// The request's trace id (empty from pre-trace servers).
        trace_id: String,
    },
    /// The request failed (parse error, unsupported query, …).
    Error {
        /// Human-readable cause.
        message: String,
        /// The request's trace id (empty for non-query failures).
        trace_id: String,
    },
}

impl Response {
    /// Encode as a JSON frame payload, written straight into one
    /// pre-sized buffer: time is linear in the frame size.
    pub fn to_json(&self) -> String {
        let hint = match self {
            Response::Answer(a) => a.json_len_hint(),
            Response::Metrics(text) | Response::Stats(text) | Response::Dump(text) => {
                64 + text.len() + text.len() / 8
            }
            _ => 128,
        };
        let mut out = String::with_capacity(hint);
        match self {
            Response::Answer(a) => a.write_json(&mut out),
            Response::Pong => out.push_str(r#"{"status":"ok","pong":true}"#),
            Response::Metrics(text) => write_ok_text(&mut out, "metrics", text),
            Response::Stats(text) => write_ok_text(&mut out, "stats", text),
            Response::Dump(text) => write_ok_text(&mut out, "dump", text),
            Response::ShuttingDown => out.push_str(r#"{"status":"ok","shutting_down":true}"#),
            Response::Invalidated { epoch } => {
                out.push_str(r#"{"status":"ok","invalidated":true,"epoch":"#);
                write_u64(&mut out, *epoch);
                out.push('}');
            }
            Response::Shed {
                retry_after_ms,
                class,
                trace_id,
            } => {
                out.push_str(r#"{"status":"shed","retry_after_ms":"#);
                write_u64(&mut out, *retry_after_ms);
                out.push_str(r#","class":"#);
                json::write_escaped(&mut out, class);
                out.push_str(r#","trace_id":"#);
                json::write_escaped(&mut out, trace_id);
                out.push('}');
            }
            Response::Draining => out.push_str(r#"{"status":"draining"}"#),
            Response::Timeout { message, trace_id } => {
                write_failure(&mut out, "timeout", message, trace_id)
            }
            Response::Error { message, trace_id } => {
                write_failure(&mut out, "error", message, trace_id)
            }
        }
        out
    }

    /// Decode a JSON frame payload. Strings and arrays are moved out of the
    /// parsed tree, never copied.
    pub fn from_json(payload: &str) -> Result<Response, String> {
        let mut v = json::parse(payload)?;
        let status = take_str(&mut v, "status").ok_or("missing status")?;
        match status.as_str() {
            "shed" => Ok(Response::Shed {
                retry_after_ms: v.get("retry_after_ms").and_then(Value::as_u64).unwrap_or(0),
                class: take_str(&mut v, "class").unwrap_or_else(|| "interactive".into()),
                trace_id: take_str(&mut v, "trace_id").unwrap_or_default(),
            }),
            "draining" => Ok(Response::Draining),
            "timeout" => Ok(Response::Timeout {
                message: take_str(&mut v, "message").unwrap_or_default(),
                trace_id: take_str(&mut v, "trace_id").unwrap_or_default(),
            }),
            "error" => Ok(Response::Error {
                message: take_str(&mut v, "message").unwrap_or_default(),
                trace_id: take_str(&mut v, "trace_id").unwrap_or_default(),
            }),
            "ok" => {
                if v.get("pong").and_then(Value::as_bool) == Some(true) {
                    return Ok(Response::Pong);
                }
                if v.get("shutting_down").and_then(Value::as_bool) == Some(true) {
                    return Ok(Response::ShuttingDown);
                }
                if v.get("invalidated").and_then(Value::as_bool) == Some(true) {
                    return Ok(Response::Invalidated {
                        epoch: v.get("epoch").and_then(Value::as_u64).unwrap_or(0),
                    });
                }
                if let Some(text) = take_str(&mut v, "metrics") {
                    return Ok(Response::Metrics(text));
                }
                if let Some(text) = take_str(&mut v, "stats") {
                    return Ok(Response::Stats(text));
                }
                if let Some(text) = take_str(&mut v, "dump") {
                    return Ok(Response::Dump(text));
                }
                let groups = take_arr(&mut v, "groups")
                    .ok_or("ok response needs groups")?
                    .into_iter()
                    .map(|mut g| WireGroup {
                        key: take_arr(&mut g, "key").unwrap_or_default(),
                        values: take_arr(&mut g, "values")
                            .unwrap_or_default()
                            .iter()
                            .map(|w| WireValue {
                                estimate: w.get("estimate").and_then(Value::as_f64).unwrap_or(0.0),
                                lo: w.get("lo").and_then(Value::as_f64).unwrap_or(f64::NAN),
                                hi: w.get("hi").and_then(Value::as_f64).unwrap_or(f64::NAN),
                                exact: w.get("exact").and_then(Value::as_bool).unwrap_or(false),
                            })
                            .collect(),
                    })
                    .collect();
                let strings = |v: &mut Value, k: &str| -> Vec<String> {
                    take_arr(v, k)
                        .unwrap_or_default()
                        .into_iter()
                        .filter_map(|s| match s {
                            Value::Str(s) => Some(s),
                            _ => None,
                        })
                        .collect()
                };
                Ok(Response::Answer(WireAnswer {
                    trace_id: take_str(&mut v, "trace_id").unwrap_or_default(),
                    tier: take_str(&mut v, "tier").unwrap_or_default(),
                    partial: v.get("partial").and_then(Value::as_bool).unwrap_or(false),
                    deadline_limited: v
                        .get("deadline_limited")
                        .and_then(Value::as_bool)
                        .unwrap_or(false),
                    cache_hit: v.get("cache_hit").and_then(Value::as_bool).unwrap_or(false),
                    rows_scanned: v.get("rows_scanned").and_then(Value::as_u64).unwrap_or(0),
                    effective_budget: v.get("effective_budget").and_then(Value::as_u64),
                    elapsed_ms: v.get("elapsed_ms").and_then(Value::as_f64).unwrap_or(0.0),
                    group_names: strings(&mut v, "group_names"),
                    agg_aliases: strings(&mut v, "agg_aliases"),
                    groups,
                }))
            }
            other => Err(format!("unknown status {other:?}")),
        }
    }

    /// Whether this response ends the request (all current variants do;
    /// the method exists so streaming extensions keep the invariant
    /// explicit).
    pub fn is_terminal(&self) -> bool {
        true
    }
}

/// `{"status":"ok","<key>":"<text>"}` — the one-string `ok` responses.
fn write_ok_text(out: &mut String, key: &str, text: &str) {
    out.push_str(r#"{"status":"ok",""#);
    out.push_str(key);
    out.push_str(r#"":"#);
    json::write_escaped(out, text);
    out.push('}');
}

/// `{"status":"<status>","message":...,"trace_id":...}`.
fn write_failure(out: &mut String, status: &str, message: &str, trace_id: &str) {
    out.push_str(r#"{"status":""#);
    out.push_str(status);
    out.push_str(r#"","message":"#);
    json::write_escaped(out, message);
    out.push_str(r#","trace_id":"#);
    json::write_escaped(out, trace_id);
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "wörld").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some("hello".into()));
        assert_eq!(read_frame(&mut r).unwrap(), Some("".into()));
        assert_eq!(read_frame(&mut r).unwrap(), Some("wörld".into()));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    /// Yields scripted chunks, returning `WouldBlock` between them —
    /// a stream whose frames arrive split across read-timeout windows.
    struct StutterReader {
        chunks: Vec<Vec<u8>>,
        next: usize,
        ready: bool,
    }

    impl StutterReader {
        fn new(bytes: &[u8], chunk: usize) -> StutterReader {
            StutterReader {
                chunks: bytes.chunks(chunk.max(1)).map(<[u8]>::to_vec).collect(),
                next: 0,
                ready: false,
            }
        }
    }

    impl Read for StutterReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            self.ready = false;
            match self.chunks.get(self.next) {
                None => Ok(0),
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n == chunk.len() {
                        self.next += 1;
                    } else {
                        self.chunks[self.next].drain(..n);
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, "split me").unwrap();
        write_frame(&mut wire, "second").unwrap();
        // One byte per window: every read times out at least once, both
        // inside the header and inside the payload.
        let mut r = StutterReader::new(&wire, 1);
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.read(&mut r).unwrap() {
                FrameRead::Frame(p) => {
                    assert!(!reader.mid_frame(), "boundary after a full frame");
                    frames.push(p);
                }
                FrameRead::Eof => break,
                FrameRead::Idle => assert!(!reader.mid_frame()),
                FrameRead::MidFrame => assert!(reader.mid_frame()),
            }
        }
        assert_eq!(frames, vec!["split me".to_string(), "second".to_string()]);
    }

    #[test]
    fn frame_reader_distinguishes_idle_from_mid_frame() {
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, "x").unwrap();
        let mut reader = FrameReader::new();

        // Timeout with nothing consumed: idle, still at a boundary.
        let mut empty = StutterReader::new(&[], 1);
        empty.ready = false; // force a WouldBlock first
        assert_eq!(reader.read(&mut empty).unwrap(), FrameRead::Idle);
        assert!(!reader.mid_frame());

        // Feed exactly two header bytes, then a timeout: mid-frame.
        let mut partial = StutterReader::new(&wire[..2], 2);
        partial.ready = true; // deliver the chunk immediately
        assert_eq!(reader.read(&mut partial).unwrap(), FrameRead::MidFrame);
        assert!(reader.mid_frame());

        // The rest of the frame arrives (still stuttering): the reader
        // resumes across further timeouts, no desync.
        let mut rest = StutterReader::new(&wire[2..], 16);
        rest.ready = true;
        let got = loop {
            match reader.read(&mut rest).unwrap() {
                FrameRead::Frame(p) => break p,
                FrameRead::MidFrame => {}
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(got, "x");
        assert!(!reader.mid_frame());
    }

    #[test]
    fn torn_and_oversized_frames_error() {
        let mut r: &[u8] = &[0, 0];
        assert!(read_frame(&mut r).is_err(), "torn header");
        let mut r: &[u8] = &[0, 0, 0, 5, b'a'];
        assert!(read_frame(&mut r).is_err(), "torn payload");
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        let mut r: &[u8] = &huge;
        assert!(read_frame(&mut r).is_err(), "oversized length prefix");
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Metrics,
            Request::Stats,
            Request::Dump,
            Request::Shutdown,
            Request::Invalidate,
            Request::Query {
                sql: "SELECT COUNT(*) FROM v GROUP BY g".into(),
                class: ContractClass::Batch,
                deadline_ms: Some(250),
                row_budget: Some(10_000),
                confidence: Some(0.99),
                max_rel_error: Some(0.05),
                trace_id: Some("cli-7f3a".into()),
            },
            Request::query("SELECT SUM(x) FROM v"),
        ];
        for req in reqs {
            let back = Request::from_json(&req.to_json()).unwrap();
            assert_eq!(back, req);
        }
        assert!(Request::from_json("{}").is_err());
        assert!(Request::from_json("{\"op\":\"dance\"}").is_err());
        assert!(Request::from_json("not json").is_err());
    }

    #[test]
    fn responses_round_trip() {
        let answer = WireAnswer {
            trace_id: "aqp-deadbeef".into(),
            tier: "overall".into(),
            partial: true,
            deadline_limited: true,
            cache_hit: true,
            rows_scanned: 123,
            effective_budget: Some(1000),
            elapsed_ms: 4.25,
            group_names: vec!["g".into()],
            agg_aliases: vec!["cnt".into()],
            groups: vec![WireGroup {
                key: vec![Value::Str("rare".into())],
                values: vec![WireValue { estimate: 10.0, lo: 8.0, hi: 12.0, exact: false }],
            }],
        };
        let resps = [
            Response::Answer(answer),
            Response::Pong,
            Response::Metrics("# HELP x\n".into()),
            Response::Stats("{\"classes\":[]}".into()),
            Response::Dump("{\"trace_id\":\"t-1\"}\n{\"trace_id\":\"t-2\"}\n".into()),
            Response::ShuttingDown,
            Response::Invalidated { epoch: 3 },
            Response::Shed {
                retry_after_ms: 40,
                class: "interactive".into(),
                trace_id: "aqp-1".into(),
            },
            Response::Draining,
            Response::Timeout { message: "deadline exceeded".into(), trace_id: "aqp-2".into() },
            Response::Error { message: "unknown column".into(), trace_id: String::new() },
        ];
        for resp in resps {
            let back = Response::from_json(&resp.to_json()).unwrap();
            assert_eq!(back, resp);
            assert!(resp.is_terminal());
        }
    }

    /// The encoder as it stood before the direct writer: every response
    /// built as a `Value` tree, then serialized. The wire format is pinned
    /// to its output byte for byte.
    fn reference_to_json(resp: &Response) -> String {
        let ok =
            |k: &str, v: Value| Value::Obj(vec![("status".into(), "ok".into()), (k.into(), v)]);
        let v = match resp {
            Response::Pong => ok("pong", true.into()),
            Response::Metrics(text) => ok("metrics", text.as_str().into()),
            Response::Stats(text) => ok("stats", text.as_str().into()),
            Response::Dump(text) => ok("dump", text.as_str().into()),
            Response::ShuttingDown => ok("shutting_down", true.into()),
            Response::Invalidated { epoch } => Value::Obj(vec![
                ("status".into(), "ok".into()),
                ("invalidated".into(), true.into()),
                ("epoch".into(), (*epoch).into()),
            ]),
            Response::Shed {
                retry_after_ms,
                class,
                trace_id,
            } => Value::Obj(vec![
                ("status".into(), "shed".into()),
                ("retry_after_ms".into(), (*retry_after_ms).into()),
                ("class".into(), class.as_str().into()),
                ("trace_id".into(), trace_id.as_str().into()),
            ]),
            Response::Draining => Value::Obj(vec![("status".into(), "draining".into())]),
            Response::Timeout { message, trace_id } => Value::Obj(vec![
                ("status".into(), "timeout".into()),
                ("message".into(), message.as_str().into()),
                ("trace_id".into(), trace_id.as_str().into()),
            ]),
            Response::Error { message, trace_id } => Value::Obj(vec![
                ("status".into(), "error".into()),
                ("message".into(), message.as_str().into()),
                ("trace_id".into(), trace_id.as_str().into()),
            ]),
            Response::Answer(a) => {
                let groups = a
                    .groups
                    .iter()
                    .map(|g| {
                        let values = g
                            .values
                            .iter()
                            .map(|v| {
                                Value::Obj(vec![
                                    ("estimate".into(), v.estimate.into()),
                                    ("lo".into(), v.lo.into()),
                                    ("hi".into(), v.hi.into()),
                                    ("exact".into(), v.exact.into()),
                                ])
                            })
                            .collect();
                        Value::Obj(vec![
                            ("key".into(), Value::Arr(g.key.clone())),
                            ("values".into(), Value::Arr(values)),
                        ])
                    })
                    .collect();
                let strs =
                    |xs: &[String]| Value::Arr(xs.iter().map(|s| s.as_str().into()).collect());
                let mut m: Vec<(String, Value)> = vec![
                    ("status".into(), "ok".into()),
                    ("trace_id".into(), a.trace_id.as_str().into()),
                    ("tier".into(), a.tier.as_str().into()),
                    ("partial".into(), a.partial.into()),
                    ("deadline_limited".into(), a.deadline_limited.into()),
                    ("cache_hit".into(), a.cache_hit.into()),
                    ("rows_scanned".into(), a.rows_scanned.into()),
                    ("elapsed_ms".into(), a.elapsed_ms.into()),
                    ("group_names".into(), strs(&a.group_names)),
                    ("agg_aliases".into(), strs(&a.agg_aliases)),
                    ("groups".into(), Value::Arr(groups)),
                ];
                if let Some(b) = a.effective_budget {
                    m.insert(6, ("effective_budget".into(), b.into()));
                }
                Value::Obj(m)
            }
        };
        v.to_json()
    }

    /// Strings that exercise every escape the writer emits, plus
    /// multi-byte characters next to them.
    const TRICKY: &str = "é\"≈\\\n\r\t\u{1}\u{1f}😀/ok";

    fn tricky_answer(effective_budget: Option<u64>) -> WireAnswer {
        WireAnswer {
            trace_id: format!("tid-{TRICKY}"),
            tier: "degraded".into(),
            partial: effective_budget.is_some(),
            deadline_limited: true,
            cache_hit: false,
            rows_scanned: 9_007_199_254_740_993,
            effective_budget,
            elapsed_ms: 0.1 + 0.2,
            group_names: vec!["store.région".into(), format!("g{TRICKY}"), String::new()],
            agg_aliases: vec!["SUM(\"rev\")".into(), "avg\\x".into()],
            groups: vec![
                WireGroup {
                    key: vec![Value::Str(TRICKY.into()), Value::Num(-0.0), Value::Null],
                    values: vec![
                        WireValue {
                            estimate: f64::NAN,
                            lo: f64::NEG_INFINITY,
                            hi: f64::INFINITY,
                            exact: false,
                        },
                        WireValue {
                            estimate: 1e300,
                            lo: -5e-324,
                            hi: 123456.789,
                            exact: true,
                        },
                    ],
                },
                WireGroup {
                    key: vec![
                        Value::Bool(true),
                        Value::Num(42.0),
                        Value::Str(String::new()),
                    ],
                    values: vec![],
                },
                WireGroup {
                    key: vec![],
                    values: vec![],
                },
            ],
        }
    }

    #[test]
    fn direct_writer_matches_value_tree_reference() {
        let empty = WireAnswer {
            groups: vec![],
            group_names: vec![],
            agg_aliases: vec![],
            ..tricky_answer(None)
        };
        let resps = [
            Response::Answer(tricky_answer(Some(50_000))),
            Response::Answer(tricky_answer(None)),
            Response::Answer(empty),
            Response::Pong,
            Response::Metrics(format!("# HELP {TRICKY}\nx 1\n")),
            Response::Stats(format!("{{\"classes\":[\"{TRICKY}\"]}}")),
            Response::Dump(String::new()),
            Response::ShuttingDown,
            Response::Invalidated { epoch: 0 },
            Response::Invalidated { epoch: u64::MAX },
            Response::Shed {
                retry_after_ms: 40,
                class: TRICKY.into(),
                trace_id: TRICKY.into(),
            },
            Response::Draining,
            Response::Timeout {
                message: TRICKY.into(),
                trace_id: String::new(),
            },
            Response::Error {
                message: String::new(),
                trace_id: TRICKY.into(),
            },
        ];
        for resp in &resps {
            assert_eq!(resp.to_json(), reference_to_json(resp), "{resp:?}");
        }
        // Non-finite bounds travel as `null` and decode to NaN.
        let json = resps[0].to_json();
        assert!(
            json.contains(r#"{"estimate":null,"lo":null,"hi":null,"exact":false}"#),
            "{json}"
        );
        let Response::Answer(back) = Response::from_json(&json).unwrap() else {
            panic!("{json}")
        };
        let v = &back.groups[0].values[0];
        assert!(v.lo.is_nan() && v.hi.is_nan());
        assert_eq!(
            v.estimate, 0.0,
            "a null estimate decodes to the 0.0 default"
        );
        assert_eq!(back.group_names, tricky_answer(None).group_names);
        assert_eq!(back.groups[0].key[0], Value::Str(TRICKY.into()));
    }

    #[test]
    fn decodes_large_frames_in_linear_time() {
        // A quadratic decode takes minutes on each of these; linear takes
        // milliseconds even in a debug build.
        let bound = std::time::Duration::from_secs(2);
        let line = "{\"trace_id\":\"aqp-1\",\"stage\":\"≈ scan\",\"ms\":0.25}\n";
        let text = line.repeat((1 << 20) / line.len() + 1);
        let answer = WireAnswer {
            group_names: vec!["a".into(), "b".into(), "c".into()],
            agg_aliases: vec!["cnt".into(), "rev".into()],
            groups: (0..3_000)
                .map(|i| WireGroup {
                    key: vec![
                        Value::Str(format!("region-{}", i % 7)),
                        Value::Str(format!("product-{i}")),
                        Value::Num(f64::from(i % 13)),
                    ],
                    values: vec![
                        WireValue {
                            estimate: 10.5 * f64::from(i),
                            lo: 9.0,
                            hi: 12.25,
                            exact: false,
                        },
                        WireValue {
                            estimate: 3.0,
                            lo: 3.0,
                            hi: 3.0,
                            exact: true,
                        },
                    ],
                })
                .collect(),
            ..tricky_answer(None)
        };
        for resp in [
            Response::Dump(text.clone()),
            Response::Metrics(text),
            Response::Answer(answer),
        ] {
            let json = resp.to_json();
            let t = std::time::Instant::now();
            let back = Response::from_json(&json).unwrap();
            let took = t.elapsed();
            assert!(
                took < bound,
                "{} KiB frame took {took:?}",
                json.len() / 1024
            );
            assert_eq!(back.to_json(), json);
        }
    }

    #[test]
    fn from_answer_orders_groups_like_sort_by_key() {
        use aqp_core::{ApproxGroup, ApproxValue, ServingTier};
        use aqp_sampling::{ConfidenceInterval, Estimate};
        let group = |k: &str, n: i64, v: f64| ApproxGroup {
            key: vec![Datum::Utf8(k.into()), Datum::Int64(n)],
            values: vec![ApproxValue {
                estimate: Estimate {
                    value: v,
                    variance: 1.0,
                    exact: false,
                },
                ci: ConfidenceInterval {
                    lo: v - 1.0,
                    hi: v + 1.0,
                    confidence: 0.95,
                },
            }],
        };
        let answer = ApproxAnswer {
            group_names: vec!["s".into(), "n".into()],
            agg_aliases: vec!["cnt".into()],
            groups: vec![
                group("b", 1, 1.0),
                group("a", 2, 2.0),
                group("b", 1, 3.0),
                group("a", 1, 4.0),
                group("b", 0, 5.0),
            ],
            rows_scanned: 77,
            tier: ServingTier::Overall,
            partial: true,
        };
        let wire = WireAnswer::from_answer(&answer, true, Some(100), 1.5, false, "t".into());
        let mut sorted = answer.clone();
        sorted.sort_by_key();
        let estimates: Vec<f64> = wire.groups.iter().map(|g| g.values[0].estimate).collect();
        let expected: Vec<f64> = sorted.groups.iter().map(|g| g.values[0].value()).collect();
        assert_eq!(estimates, expected);
        assert_eq!(estimates, vec![4.0, 2.0, 5.0, 1.0, 3.0]);
        assert_eq!(wire.tier, "overall");
        assert_eq!(
            (wire.partial, wire.rows_scanned, wire.effective_budget),
            (true, 77, Some(100))
        );
        assert_eq!(
            wire.groups[0].key,
            vec![Value::Str("a".into()), Value::Num(1.0)]
        );
    }

    #[test]
    fn class_parse_defaults_to_interactive() {
        assert_eq!(ContractClass::parse("batch"), ContractClass::Batch);
        assert_eq!(ContractClass::parse("interactive"), ContractClass::Interactive);
        assert_eq!(ContractClass::parse("vip"), ContractClass::Interactive);
    }
}
