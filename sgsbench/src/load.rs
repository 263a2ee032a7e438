//! Load generation over the wire.
//!
//! Requests go through the protocol functions `aqp_serving::Client` uses
//! (`write_frame`, a `FrameReader`, `Response::from_json`) on a
//! TCP_NODELAY socket, without the client's retries: a shed or timed-out
//! request is a failure here, not something to hide behind a back-off.

use crate::check::fingerprint;
use crate::trace::Recorder;
use aqp_serving::protocol::{write_frame, FrameRead, FrameReader};
use aqp_serving::{Request, Response};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// An answer arrived (its correctness is checked later).
    Answered,
    /// Admission control refused it.
    Shed,
    /// The server answered `timeout`, or no reply came within the
    /// client's limit.
    TimedOut,
    /// Anything else: a server error, a transport or protocol failure,
    /// or (after checking) a wrong answer.
    Failed(String),
}

/// One query request as the load generator saw it.
#[derive(Debug, Clone)]
pub struct Record {
    /// Request id; the wire trace id is derived from it.
    pub id: u64,
    /// Index of the query in the workload's query list.
    pub query: usize,
    /// When encoding and writing the request began.
    pub send_start: Instant,
    /// When the request frame was written.
    pub send_end: Instant,
    /// When the whole reply frame had arrived.
    pub recv_end: Instant,
    /// When the reply was decoded.
    pub decode_end: Instant,
    /// How the request ended.
    pub outcome: Outcome,
    /// The answer's `elapsed_ms` (server-side wall time).
    pub server_ms: f64,
    /// The answer's `cache_hit` flag.
    pub cache_hit: bool,
    /// The answer's serving tier.
    pub tier: String,
    /// [`fingerprint`] of the answer.
    pub fingerprint: u64,
}

impl Record {
    /// Client latency, from encoding the request to the decoded reply.
    pub fn latency_ms(&self) -> f64 {
        ms(self.decode_end - self.send_start)
    }

    /// Wait for the reply, excluding the server's own time.
    pub fn wire_ms(&self) -> f64 {
        (ms(self.recv_end - self.send_end) - self.server_ms).max(0.0)
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The wire trace id of request `id`.
fn trace_id(prefix: &str, id: u64) -> String {
    format!("{prefix}-{id}")
}

/// One connection to the server.
pub struct Conn {
    addr: String,
    timeout: Duration,
    stream: Option<(TcpStream, FrameReader)>,
}

/// Read-timeout tick: how often a waiting client checks its own limit.
const TICK: Duration = Duration::from_millis(20);

impl Conn {
    /// A connection to `addr` that gives up on a reply after `timeout`.
    pub fn new(addr: &str, timeout: Duration) -> Conn {
        Conn {
            addr: addr.to_string(),
            timeout,
            stream: None,
        }
    }

    fn stream(&mut self) -> std::io::Result<&mut (TcpStream, FrameReader)> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(TICK))?;
            self.stream = Some((s, FrameReader::new()));
        }
        Ok(self.stream.as_mut().expect("connection just opened"))
    }

    /// Send `request`; return the decoded reply (or why there is none)
    /// with the instants that split the call into send, wait and decode.
    fn call(&mut self, request: &Request) -> (Result<Response, Outcome>, [Instant; 4]) {
        let send_start = Instant::now();
        let payload = request.to_json();
        let timeout = self.timeout;
        let sent = self.stream().and_then(|(s, _)| write_frame(s, &payload));
        let send_end = Instant::now();
        if let Err(e) = sent {
            self.stream = None;
            return (
                Err(Outcome::Failed(format!("send: {e}"))),
                [send_start, send_end, send_end, send_end],
            );
        }
        let (stream, framer) = self.stream.as_mut().expect("connection open after a send");
        let frame = loop {
            match framer.read(stream) {
                Ok(FrameRead::Frame(payload)) => break Ok(payload),
                Ok(FrameRead::Eof) => {
                    break Err(Outcome::Failed("server closed the connection".into()))
                }
                Ok(FrameRead::Idle | FrameRead::MidFrame) => {
                    if send_end.elapsed() >= timeout {
                        break Err(Outcome::TimedOut);
                    }
                }
                Err(e) => break Err(Outcome::Failed(format!("receive: {e}"))),
            }
        };
        let recv_end = Instant::now();
        let result = match frame {
            Ok(payload) => {
                Response::from_json(&payload).map_err(|e| Outcome::Failed(format!("decode: {e}")))
            }
            Err(outcome) => {
                // The reply, if it ever comes, would desync this stream.
                self.stream = None;
                Err(outcome)
            }
        };
        (result, [send_start, send_end, recv_end, Instant::now()])
    }

    /// Send one query request and record it (and, when tracing, its
    /// spans: the request, send, wait and decode).
    pub fn query(
        &mut self,
        id: u64,
        query: usize,
        sql: &str,
        prefix: &str,
        spans: &mut Recorder,
    ) -> Record {
        let mut request = Request::query(sql);
        if let Request::Query { trace_id: t, .. } = &mut request {
            *t = Some(trace_id(prefix, id));
        }
        let (reply, [send_start, send_end, recv_end, decode_end]) = self.call(&request);
        let mut record = Record {
            id,
            query,
            send_start,
            send_end,
            recv_end,
            decode_end,
            outcome: Outcome::Answered,
            server_ms: 0.0,
            cache_hit: false,
            tier: String::new(),
            fingerprint: 0,
        };
        match reply {
            Ok(Response::Answer(a)) => {
                record.server_ms = a.elapsed_ms;
                record.cache_hit = a.cache_hit;
                record.fingerprint = fingerprint(&a);
                record.tier = a.tier;
            }
            Ok(Response::Shed { .. }) => record.outcome = Outcome::Shed,
            Ok(Response::Timeout { .. }) => record.outcome = Outcome::TimedOut,
            Ok(Response::Error { message, .. }) => record.outcome = Outcome::Failed(message),
            Ok(other) => record.outcome = Outcome::Failed(format!("unexpected reply {other:?}")),
            Err(outcome) => record.outcome = outcome,
        }
        spans.record(id, "request", None, send_start, decode_end);
        spans.record(id, "send", Some("request"), send_start, send_end);
        spans.record(id, "wait", Some("request"), send_end, recv_end);
        spans.record(id, "decode", Some("request"), recv_end, decode_end);
        record
    }

    /// Send the cache-invalidation signal; `Err` says why it failed.
    pub fn invalidate(&mut self) -> Result<(), String> {
        match self.call(&Request::Invalidate).0 {
            Ok(Response::Invalidated { .. }) => Ok(()),
            Ok(other) => Err(format!("invalidate answered {other:?}")),
            Err(outcome) => Err(format!("invalidate: {outcome:?}")),
        }
    }
}

/// Where load goes and how its requests are named and traced.
#[derive(Debug, Clone, Copy)]
pub struct Target<'a> {
    /// Server address.
    pub addr: &'a str,
    /// Client-side reply limit.
    pub timeout: Duration,
    /// SQL of every query, by query index.
    pub sql: &'a [String],
    /// Trace-id prefix.
    pub prefix: &'a str,
    /// Origin of span timestamps.
    pub origin: Instant,
    /// Whether to record spans.
    pub trace: bool,
}

/// What a load produced.
#[derive(Debug)]
pub struct Loaded {
    /// Every query request, ordered by id.
    pub records: Vec<Record>,
    /// Spans of those requests (empty unless tracing).
    pub spans: Recorder,
    /// Invalidation requests sent.
    pub invalidations: u64,
    /// Why invalidation requests failed, if any did.
    pub errors: Vec<String>,
}

impl Loaded {
    fn new(target: &Target<'_>) -> Loaded {
        Loaded {
            records: Vec::new(),
            spans: Recorder::new(target.origin, target.trace),
            invalidations: 0,
            errors: Vec::new(),
        }
    }

    fn merge(target: &Target<'_>, parts: Vec<Loaded>) -> Loaded {
        let mut all = Loaded::new(target);
        for part in parts {
            all.records.extend(part.records);
            all.spans.absorb(part.spans);
            all.invalidations += part.invalidations;
            all.errors.extend(part.errors);
        }
        all.records.sort_by_key(|r| r.id);
        all
    }
}

/// What a closed-loop client sends next.
pub trait Script: Sync {
    /// The query index client `client` sends as its `n`-th request,
    /// which is global request number `global` (counted across clients).
    fn next(&self, client: usize, n: usize, global: u64) -> usize;
    /// Whether to send the cache-invalidation signal before global
    /// request number `global`.
    fn invalidate_before(&self, global: u64) -> bool;
}

/// Drive `clients` closed-loop clients for `seconds`: each sends its next
/// request as soon as the previous reply is decoded. A client takes the
/// next global request number and, when the script asks, sends the
/// invalidation under one lock, so no later request can reach the server
/// before the invalidation has been answered.
pub fn closed_loop(
    target: &Target<'_>,
    clients: usize,
    seconds: f64,
    script: &dyn Script,
) -> Loaded {
    let ids = Mutex::new(0u64);
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let ids = &ids;
                scope.spawn(move || {
                    let mut conn = Conn::new(target.addr, target.timeout);
                    let mut out = Loaded::new(target);
                    let mut n = 0;
                    while Instant::now() < stop {
                        let id = {
                            let mut next = ids.lock().expect("request counter");
                            let id = *next;
                            *next += 1;
                            if script.invalidate_before(id) {
                                out.invalidations += 1;
                                if let Err(e) = conn.invalidate() {
                                    out.errors.push(e);
                                }
                            }
                            id
                        };
                        let query = script.next(c, n, id);
                        n += 1;
                        let sql = &target.sql[query];
                        out.records
                            .push(conn.query(id, query, sql, target.prefix, &mut out.spans));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    Loaded::merge(target, parts)
}
