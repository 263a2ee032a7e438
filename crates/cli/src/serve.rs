//! `serve`, `client`, `top`, and `bench serving` subcommands.
//!
//! `serve` turns the CLI into a long-running concurrent query server on
//! the wire protocol from [`aqp::serving`]; `client` is the matching
//! cooperative client (bounded retry with backoff on shed); `top` is a
//! live terminal view over the server's `stats` verb (per-class SLO
//! windows); `bench serving` measures end-to-end serving latency and
//! overload behaviour against an in-process server and writes
//! `BENCH_serving.json` (including per-stage timeline medians pulled
//! from the flight recorder over the `dump` verb).

use crate::args::Args;
use crate::commands::{
    at_path, boxed, open_family, opt_usize, threads_arg, write_metrics_snapshot, CliError,
};
use aqp::obs::json::Value;
use aqp::obs::SloConfig;
use aqp::prelude::*;
use aqp::serving::{
    fault, AdmissionConfig, CacheConfig, Client, ClassLimits, ClientError, ContractClass,
    Request, Response, RetryPolicy, Server, ServerConfig, ServingFault, ShadowConfig, WireAnswer,
};
use aqp::storage::read_table_file;
use std::io::Write;
use std::time::{Duration, Instant};

/// The serving faults named in `AQP_FAULTS` (storage kinds skipped),
/// read once per command and armed on every server it binds.
fn env_serving_faults() -> Vec<ServingFault> {
    std::env::var("AQP_FAULTS").map(|s| fault::parse_specs(&s)).unwrap_or_default()
}

/// `serve` — run the concurrent query server until SIGTERM/SIGINT (or a
/// `shutdown` request) drains it.
pub fn serve_command(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let family = args.required("family")?;
    let view_path = args.optional("view");
    let addr = args.optional("addr").unwrap_or_else(|| "127.0.0.1:7878".to_owned());
    let threads = threads_arg(args)?;
    let confidence = args.get_or("confidence", 0.95f64)?;
    let row_budget = opt_usize(args, "row-budget")?;
    let default_deadline = opt_usize(args, "default-deadline-ms")?;
    let fixed_rate = args.optional("fixed-rate").map(|v| {
        v.parse::<f64>()
            .map_err(|_| CliError(format!("invalid value {v:?} for --fixed-rate")))
    });
    let drain_ms = args.get_or("drain-timeout-ms", 10_000u64)?;
    let metrics_out = args.optional("metrics-out");
    // Semantic answer cache: --cache-capacity 0 disables it;
    // --cache-ttl-ms 0 means no TTL.
    let cache_capacity = args.get_or("cache-capacity", 256usize)?;
    let cache_ttl_ms = args.get_or("cache-ttl-ms", 0u64)?;
    // Observability: flight-recorder ring size and anomaly-dump path,
    // shadow-audit sampling, SLO watchdog thresholds.
    let flight_cap =
        args.get_or("flight-recorder-cap", aqp::obs::flight::DEFAULT_FLIGHT_CAPACITY)?;
    let flight_dump = args.optional("flight-dump");
    let shadow_rate = args.get_or("shadow-rate", 0.0f64)?;
    let shadow_seed = args.get_or("shadow-seed", 0x5eed_5eed_u64)?;
    let slo_availability = args.get_or("slo-availability", 0.99f64)?;
    let slo_p99_ms = opt_usize(args, "slo-p99-ms")?;
    let slo_min_requests = args.get_or("slo-min-requests", 10u64)?;
    let admission = AdmissionConfig {
        interactive: ClassLimits {
            max_inflight: args.get_or("interactive-inflight", 4usize)?.max(1),
            max_queue: args.get_or("interactive-queue", 8usize)?,
        },
        batch: ClassLimits {
            max_inflight: args.get_or("batch-inflight", 2usize)?.max(1),
            max_queue: args.get_or("batch-queue", 2usize)?,
        },
    };
    args.finish()?;

    let mut system = open_family(&family, out)?.with_threads(threads);
    if let Some(p) = view_path {
        let view = read_table_file(&p).map_err(at_path(&p))?;
        system = system.with_view(view);
    }
    if let Some(budget) = row_budget {
        system = system.with_row_budget(budget);
    }

    let config = ServerConfig {
        addr,
        admission,
        default_deadline: default_deadline.map(|ms| Duration::from_millis(ms as u64)),
        default_confidence: confidence,
        fixed_rows_per_ms: fixed_rate.transpose()?,
        drain_timeout: Duration::from_millis(drain_ms),
        cache: CacheConfig {
            capacity: cache_capacity,
            ttl: (cache_ttl_ms > 0).then(|| Duration::from_millis(cache_ttl_ms)),
        },
        metrics_out: metrics_out.map(Into::into),
        install_signal_handlers: true,
        flight_recorder_cap: flight_cap,
        flight_dump: flight_dump.map(Into::into),
        shadow: ShadowConfig {
            rate: shadow_rate.clamp(0.0, 1.0),
            seed: shadow_seed,
            ..ShadowConfig::default()
        },
        slo: SloConfig {
            availability_target: slo_availability,
            p99_limit: slo_p99_ms.map(|ms| Duration::from_millis(ms as u64)),
            min_requests: slo_min_requests,
        },
        faults: env_serving_faults(),
    };
    let shadow_on = config.shadow.rate > 0.0;
    let server = Server::bind(system, config).map_err(boxed)?;
    writeln!(
        out,
        "serving on {} (interactive {}x{}, batch {}x{}, flight ring {flight_cap}{}); SIGTERM or a shutdown request drains",
        server.local_addr().map_err(boxed)?,
        admission.interactive.max_inflight,
        admission.interactive.max_queue,
        admission.batch.max_inflight,
        admission.batch.max_queue,
        if shadow_on {
            format!(", shadow audit {:.0}%", shadow_rate.clamp(0.0, 1.0) * 100.0)
        } else {
            String::new()
        },
    )?;
    out.flush()?;
    let report = server.run().map_err(boxed)?;
    writeln!(
        out,
        "drained: {} requests ({} answered, {} shed, {} timeouts, {} draining rejects, {} errors) over {} connections; cache {} hits / {} misses / {} bypass",
        report.requests,
        report.answered,
        report.shed,
        report.timeouts,
        report.drained_rejects,
        report.errors,
        report.connections,
        report.cache_hits,
        report.cache_misses,
        report.cache_bypass,
    )?;
    Ok(())
}

/// `client` — send one request (`ping`, `metrics`, `stats`, `dump`,
/// `shutdown`, `invalidate`, or SQL) to a running server and print the
/// response.
pub fn client_command(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args.optional("addr").unwrap_or_else(|| "127.0.0.1:7878".to_owned());
    let class = ContractClass::parse(&args.optional("class").unwrap_or_default());
    let deadline_ms = opt_usize(args, "deadline-ms")?.map(|n| n as u64);
    let row_budget = opt_usize(args, "row-budget")?;
    let trace_id = args.optional("trace-id");
    let stats = args.flag("stats");
    let confidence = args
        .optional("confidence")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| CliError(format!("invalid value {v:?} for --confidence")))
        })
        .transpose()?;
    let max_rel_error = args
        .optional("max-rel-error")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| CliError(format!("invalid value {v:?} for --max-rel-error")))
        })
        .transpose()?;
    let attempts = args.get_or("attempts", 4u32)?.max(1);
    let seed = args.get_or("seed", 0x5eed_u64)?;
    let body = args.positionals()[1..].join(" ");
    args.finish()?;
    if body.is_empty() {
        return Err(CliError(
            "client needs a request: ping | metrics | stats | dump | shutdown | invalidate | SQL"
                .into(),
        ));
    }

    let request = match body.as_str() {
        "ping" => Request::Ping,
        "metrics" => Request::Metrics,
        "stats" => Request::Stats,
        "dump" => Request::Dump,
        "shutdown" => Request::Shutdown,
        "invalidate" => Request::Invalidate,
        sql => Request::Query {
            sql: sql.to_owned(),
            class,
            deadline_ms,
            row_budget,
            confidence,
            max_rel_error,
            trace_id,
        },
    };
    let policy = RetryPolicy { max_attempts: attempts, ..RetryPolicy::with_seed(seed) };
    let mut client = Client::new(addr, policy);
    let t0 = Instant::now();
    let outcome = match client.request(&request) {
        Ok(Response::Answer(answer)) => print_wire_answer(&answer, out),
        Ok(Response::Pong) => writeln!(out, "pong ({:?})", t0.elapsed()).map_err(boxed),
        Ok(Response::Metrics(text)) => write!(out, "{text}").map_err(boxed),
        Ok(Response::Stats(text)) => writeln!(out, "{text}").map_err(boxed),
        Ok(Response::Dump(text)) => write!(out, "{text}").map_err(boxed),
        Ok(Response::ShuttingDown) => writeln!(out, "server is shutting down").map_err(boxed),
        Ok(Response::Invalidated { epoch }) => {
            writeln!(out, "cache invalidated (epoch {epoch})").map_err(boxed)
        }
        Ok(Response::Draining) => {
            Err(CliError("server is draining; request not accepted".into()))
        }
        Ok(Response::Timeout { message, trace_id }) => Err(CliError(trace_note(
            format!("timeout: {message}"),
            &trace_id,
        ))),
        Ok(Response::Error { message, trace_id }) => Err(CliError(trace_note(
            format!("server: {message}"),
            &trace_id,
        ))),
        Ok(Response::Shed { retry_after_ms, .. }) => Err(CliError(format!(
            "shed (unretried); server suggests retrying in {retry_after_ms} ms"
        ))),
        Err(e @ ClientError::Shed { .. }) => Err(CliError(e.to_string())),
        Err(e) => Err(CliError(e.to_string())),
    };
    if stats {
        writeln!(out, "client: {}", client.stats().summary())?;
    }
    outcome
}

/// Append a `(trace <id>)` suffix when the server attached a trace id.
fn trace_note(message: String, trace_id: &str) -> String {
    if trace_id.is_empty() {
        message
    } else {
        format!("{message} (trace {trace_id})")
    }
}

/// Render a wire answer like the local `query` command renders a local
/// one: header row, group rows, then a tier/cost footer.
fn print_wire_answer(answer: &WireAnswer, out: &mut dyn Write) -> Result<(), CliError> {
    for name in &answer.group_names {
        write!(out, "{name}\t")?;
    }
    for alias in &answer.agg_aliases {
        write!(out, "{alias}\t")?;
    }
    writeln!(out)?;
    for group in &answer.groups {
        for key in &group.key {
            match key {
                aqp::obs::json::Value::Str(s) => write!(out, "{s}\t")?,
                other => write!(out, "{}\t", other.to_json())?,
            }
        }
        for v in &group.values {
            if v.exact {
                write!(out, "{:.2} (exact)\t", v.estimate)?;
            } else {
                write!(out, "{:.2} [{:.2}, {:.2}]\t", v.estimate, v.lo, v.hi)?;
            }
        }
        writeln!(out)?;
    }
    let mut notes = vec![format!("tier {}", answer.tier)];
    if answer.cache_hit {
        notes.push("cache-hit".into());
    }
    if answer.partial {
        notes.push("partial".into());
    }
    if answer.deadline_limited {
        notes.push("deadline-limited".into());
    }
    if let Some(b) = answer.effective_budget {
        notes.push(format!("budget {b}"));
    }
    if !answer.trace_id.is_empty() {
        notes.push(format!("trace {}", answer.trace_id));
    }
    writeln!(
        out,
        "-- {} | {} rows scanned | server {:.1} ms",
        notes.join(", "),
        answer.rows_scanned,
        answer.elapsed_ms
    )?;
    Ok(())
}

/// Median wall time per timeline stage across a flight-recorder JSONL
/// dump, answered requests only, in first-seen stage order.
fn stage_medians(jsonl: &str) -> Vec<(String, f64)> {
    let mut by_stage: Vec<(String, Vec<u64>)> = Vec::new();
    for line in jsonl.lines() {
        let Ok(record) = aqp::obs::RequestRecord::from_json(line) else { continue };
        if record.outcome != "answer" {
            continue;
        }
        for stage in &record.stages {
            match by_stage.iter_mut().find(|(n, _)| *n == stage.name) {
                Some((_, v)) => v.push(stage.micros),
                None => by_stage.push((stage.name.clone(), vec![stage.micros])),
            }
        }
    }
    by_stage
        .into_iter()
        .map(|(name, mut v)| {
            v.sort_unstable();
            (name, v[v.len() / 2] as f64)
        })
        .collect()
}

/// `top` — poll a running server's `stats` verb and render the SLO
/// windows as a live table. `--iterations 0` polls until interrupted.
pub fn top_command(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args.optional("addr").unwrap_or_else(|| "127.0.0.1:7878".to_owned());
    let interval_ms = args.get_or("interval-ms", 1000u64)?;
    let iterations = args.get_or("iterations", 0usize)?;
    args.finish()?;

    let mut client = Client::new(addr.clone(), RetryPolicy::no_retry());
    let mut polls = 0usize;
    loop {
        match client.request(&Request::Stats) {
            Ok(Response::Stats(text)) => render_top(&text, &addr, out)?,
            Ok(Response::Draining) | Ok(Response::ShuttingDown) => {
                writeln!(out, "server is draining")?;
                return Ok(());
            }
            Ok(other) => {
                return Err(CliError(format!("unexpected response to stats: {other:?}")))
            }
            Err(e) => return Err(CliError(format!("stats poll failed: {e}"))),
        }
        out.flush()?;
        polls += 1;
        if iterations > 0 && polls >= iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms.max(100)));
    }
}

/// Render one `stats` payload as the `top` table.
fn render_top(text: &str, addr: &str, out: &mut dyn Write) -> Result<(), CliError> {
    let v = aqp::obs::json::parse(text)
        .map_err(|e| CliError(format!("malformed stats payload: {e}")))?;
    let tallies = v.get("tallies");
    let field = |k: &str| {
        tallies
            .and_then(|t| t.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    writeln!(
        out,
        "aqp top — {addr} | requests {} answered {} shed {} timeouts {} errors {} cache-hits {} connections {} | flight {} records",
        field("requests"),
        field("answered"),
        field("shed"),
        field("timeouts"),
        field("errors"),
        field("cache_hits"),
        field("connections"),
        v.get("flight_records").and_then(Value::as_u64).unwrap_or(0),
    )?;
    writeln!(
        out,
        "{:<12} {:<4} {:>8} {:>7} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9}",
        "class", "win", "reqs", "avail%", "shed%", "tmo%", "hit%", "p50ms", "p95ms", "p99ms"
    )?;
    let pct = |w: &Value, k: &str| w.get(k).and_then(Value::as_f64).unwrap_or(0.0) * 100.0;
    for class in v.get("classes").and_then(Value::as_arr).unwrap_or(&[]) {
        let label = class.get("class").and_then(Value::as_str).unwrap_or("?");
        let breach = class.get("in_breach").and_then(Value::as_bool).unwrap_or(false);
        for w in class.get("windows").and_then(Value::as_arr).unwrap_or(&[]) {
            writeln!(
                out,
                "{:<12} {:<4} {:>8} {:>7.1} {:>6.1} {:>6.1} {:>6.1} {:>9.2} {:>9.2} {:>9.2}{}",
                label,
                w.get("window").and_then(Value::as_str).unwrap_or("?"),
                w.get("requests").and_then(Value::as_u64).unwrap_or(0),
                pct(w, "availability"),
                pct(w, "shed_rate"),
                pct(w, "timeout_rate"),
                pct(w, "cache_hit_rate"),
                w.get("p50_ms").and_then(Value::as_f64).unwrap_or(0.0),
                w.get("p95_ms").and_then(Value::as_f64).unwrap_or(0.0),
                w.get("p99_ms").and_then(Value::as_f64).unwrap_or(0.0),
                if breach { "  << BREACH" } else { "" },
            )?;
        }
    }
    Ok(())
}

/// Latency percentile from a sorted sample (nearest-rank).
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil().max(1.0) as usize;
    sorted_ms[rank.min(sorted_ms.len()) - 1]
}

/// `bench serving` — end-to-end serving benchmark against an in-process
/// server: latency quantiles and throughput at 1/4/16 concurrent
/// clients, then shed behaviour at 2x admission overload. Writes
/// `BENCH_serving.json`.
pub fn bench_serving_command(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let rows = args.get_or("rows", 100_000usize)?;
    let per_client = args.get_or("requests", 20usize)?.max(1);
    let threads = threads_arg(args)?;
    let stats = args.flag("stats");
    let out_path = args
        .optional("out")
        .unwrap_or_else(|| "BENCH_serving.json".to_owned());
    args.finish()?;
    let faults = env_serving_faults();

    let star = gen_sales(&SalesConfig { fact_rows: rows, zipf_z: 1.5, seed: 42 }).map_err(boxed)?;
    let view = star.denormalize("bench_view").map_err(boxed)?;
    writeln!(out, "bench serving: sales view {} rows, {} executor threads", view.num_rows(), threads)?;
    let sql = "SELECT store.region, COUNT(*) AS cnt, SUM(sales.revenue) AS rev \
               FROM v GROUP BY store.region";

    // Latency/throughput phase: admission opened wide so concurrency,
    // not shedding, is what's being measured — and the cache disabled,
    // so every request pays for a real scan (the cache gets its own
    // phase below).
    let mut level_rows = Vec::new();
    let mut stage_dump = String::new();
    for &clients in &[1usize, 4, 16] {
        let system = ResilientSystem::exact_only(view.clone()).with_threads(threads);
        let config = ServerConfig {
            admission: AdmissionConfig {
                interactive: ClassLimits { max_inflight: 16, max_queue: 64 },
                batch: ClassLimits { max_inflight: 2, max_queue: 2 },
            },
            cache: CacheConfig::disabled(),
            faults: faults.clone(),
            ..ServerConfig::default()
        };
        let server = Server::bind(system, config).map_err(boxed)?;
        let addr = server.local_addr().map_err(boxed)?.to_string();
        let handle = server.shutdown_handle();
        let run = std::thread::spawn(move || server.run());

        let t0 = Instant::now();
        let mut results: Vec<(f64, String)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..clients)
                .map(|c| {
                    let addr = addr.clone();
                    s.spawn(move || {
                        let mut client =
                            Client::new(addr, RetryPolicy::with_seed(0xbe11c + c as u64));
                        let mut got = Vec::with_capacity(per_client);
                        for _ in 0..per_client {
                            let t = Instant::now();
                            if let Ok(Response::Answer(a)) = client.request(&Request::query(sql)) {
                                got.push((t.elapsed().as_secs_f64() * 1e3, a.tier));
                            }
                        }
                        got
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().unwrap_or_default()).collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        // Pull the flight recorder before shutdown: the per-stage
        // timeline medians of the most recent requests at this level.
        let mut dump_client = Client::new(addr.clone(), RetryPolicy::no_retry());
        if let Ok(Response::Dump(text)) = dump_client.request(&Request::Dump) {
            stage_dump = text;
        }
        handle.shutdown();
        run.join().map_err(|_| CliError("server thread panicked".into()))?.map_err(boxed)?;

        results.sort_by(|a, b| a.0.total_cmp(&b.0));
        let latencies: Vec<f64> = results.iter().map(|(ms, _)| *ms).collect();
        let mut tier_counts: Vec<(String, usize)> = Vec::new();
        for (_, tier) in &results {
            match tier_counts.iter_mut().find(|(t, _)| t == tier) {
                Some((_, n)) => *n += 1,
                None => tier_counts.push((tier.clone(), 1)),
            }
        }
        tier_counts.sort();
        let completed = latencies.len();
        let qps = if wall > 0.0 { completed as f64 / wall } else { 0.0 };
        let (p50, p95, p99) = (
            percentile(&latencies, 50.0),
            percentile(&latencies, 95.0),
            percentile(&latencies, 99.0),
        );
        let tiers_text = tier_counts
            .iter()
            .map(|(t, n)| format!("{t} {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        writeln!(
            out,
            "clients {clients}: {completed}/{} ok, {qps:.1} req/s, p50 {p50:.1} ms, p95 {p95:.1} ms, p99 {p99:.1} ms (tiers: {tiers_text})",
            clients * per_client
        )?;
        let tiers_json = tier_counts
            .iter()
            .map(|(t, n)| format!("\"{t}\": {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        level_rows.push(format!(
            "    {{\"clients\": {clients}, \"requests\": {}, \"completed\": {completed}, \"throughput_rps\": {qps:.2}, \"p50_ms\": {p50:.3}, \"p95_ms\": {p95:.3}, \"p99_ms\": {p99:.3}, \"tiers\": {{{tiers_json}}}}}",
            clients * per_client
        ));
    }

    // Per-stage timeline medians over the flight-recorder dump of the
    // last (most concurrent) level: where a served request's wall time
    // actually goes (read → parse → cache → admission → execute →
    // serialize → write).
    let stages = stage_medians(&stage_dump);
    let stages_text = stages
        .iter()
        .map(|(name, us)| format!("{name} {:.0}us", us))
        .collect::<Vec<_>>()
        .join(", ");
    writeln!(out, "stage medians (answered requests): {stages_text}")?;
    let stages_json = stages
        .iter()
        .map(|(name, us)| format!("\"{name}\": {us:.1}"))
        .collect::<Vec<_>>()
        .join(", ");

    // Cache phase: one server with the semantic cache on. Cold misses
    // are forced by invalidating before each timed request (every scan
    // is real); warm hits repeat the same query against a warmed cache.
    // The probe is a dashboard-shaped query (predicate + several
    // aggregates) so the cold side measures a representative scan, not
    // the cheapest possible one; the warm side is scan-independent.
    let cache_sql = "SELECT store.region, COUNT(*) AS cnt, SUM(sales.revenue) AS rev, \
                     AVG(sales.revenue) AS avg_rev, SUM(sales.cost) AS cost, \
                     MIN(sales.revenue) AS lo, MAX(sales.revenue) AS hi \
                     FROM v WHERE sales.revenue > 10 AND sales.units >= 1 \
                     AND sales.cost >= 0 GROUP BY store.region";
    let cache_iters = per_client.max(10);
    let system = ResilientSystem::exact_only(view.clone()).with_threads(threads);
    let config = ServerConfig {
        admission: AdmissionConfig {
            interactive: ClassLimits { max_inflight: 16, max_queue: 64 },
            batch: ClassLimits { max_inflight: 2, max_queue: 2 },
        },
        faults: faults.clone(),
        ..ServerConfig::default()
    };
    let server = Server::bind(system, config).map_err(boxed)?;
    let addr = server.local_addr().map_err(boxed)?.to_string();
    let handle = server.shutdown_handle();
    let run = std::thread::spawn(move || server.run());
    let mut client = Client::new(addr, RetryPolicy::with_seed(0xcac4e));
    let mut cold_ms: Vec<f64> = Vec::with_capacity(cache_iters);
    let mut warm_ms: Vec<f64> = Vec::with_capacity(cache_iters);
    let mut hits = 0usize;
    let mut misses = 0usize;
    for _ in 0..cache_iters {
        client.request(&Request::Invalidate).map_err(boxed)?;
        let t = Instant::now();
        match client.request(&Request::query(cache_sql)) {
            Ok(Response::Answer(a)) => {
                cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if a.cache_hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            other => return Err(CliError(format!("cache bench cold request failed: {other:?}"))),
        }
    }
    // Warm the cache once, then time pure hits.
    client.request(&Request::query(cache_sql)).map_err(boxed)?;
    for _ in 0..cache_iters {
        let t = Instant::now();
        match client.request(&Request::query(cache_sql)) {
            Ok(Response::Answer(a)) => {
                warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if a.cache_hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            other => return Err(CliError(format!("cache bench warm request failed: {other:?}"))),
        }
    }
    handle.shutdown();
    run.join().map_err(|_| CliError("server thread panicked".into()))?.map_err(boxed)?;
    cold_ms.sort_by(|a, b| a.total_cmp(b));
    warm_ms.sort_by(|a, b| a.total_cmp(b));
    let cold_p50 = percentile(&cold_ms, 50.0);
    let warm_p50 = percentile(&warm_ms, 50.0);
    let speedup = if warm_p50 > 0.0 { cold_p50 / warm_p50 } else { f64::INFINITY };
    writeln!(
        out,
        "cache: cold-miss p50 {cold_p50:.2} ms, warm-hit p50 {warm_p50:.3} ms ({speedup:.0}x), {hits} hits / {misses} misses"
    )?;

    // Overload phase: 2x the admission capacity (inflight + queue) in
    // simultaneous no-retry clients; the excess must shed, everything
    // must get exactly one terminal response.
    let cap = ClassLimits { max_inflight: 2, max_queue: 2 };
    let overload_clients = 2 * (cap.max_inflight + cap.max_queue);
    let system = ResilientSystem::exact_only(view.clone()).with_threads(threads);
    let config = ServerConfig {
        admission: AdmissionConfig { interactive: cap, batch: cap },
        // Cache off: with it on, one leader would execute and everyone
        // else would hit, and shedding would never be exercised.
        cache: CacheConfig::disabled(),
        faults: faults.clone(),
        ..ServerConfig::default()
    };
    let server = Server::bind(system, config).map_err(boxed)?;
    let addr = server.local_addr().map_err(boxed)?.to_string();
    let handle = server.shutdown_handle();
    let run = std::thread::spawn(move || server.run());

    let outcomes: Vec<&'static str> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..overload_clients)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = Client::new(addr, RetryPolicy::no_retry());
                    match client.request(&Request::query(cache_sql)) {
                        Ok(Response::Answer(_)) => "answered",
                        Ok(Response::Timeout { .. }) => "timeout",
                        Ok(_) => "other",
                        Err(ClientError::Shed { .. }) => "shed",
                        Err(_) => "transport",
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap_or("transport")).collect()
    });
    handle.shutdown();
    run.join().map_err(|_| CliError("server thread panicked".into()))?.map_err(boxed)?;
    let count = |kind: &str| outcomes.iter().filter(|o| **o == kind).count();
    let (answered, shed) = (count("answered"), count("shed"));
    let shed_rate = shed as f64 / overload_clients as f64;
    writeln!(
        out,
        "overload 2x (cap {}+{}, {overload_clients} clients): {answered} answered, {shed} shed ({:.0}% shed rate)",
        cap.max_inflight,
        cap.max_queue,
        shed_rate * 100.0
    )?;

    let finite_speedup = if speedup.is_finite() { speedup } else { 0.0 };
    let json = format!(
        "{{\n  \"dataset\": {{\"kind\": \"sales\", \"rows\": {}, \"zipf_z\": 1.5, \"seed\": 42}},\n  \"executor_threads\": {threads},\n  \"requests_per_client\": {per_client},\n  \"levels\": [\n{}\n  ],\n  \"stage_medians_us\": {{{stages_json}}},\n  \"cache\": {{\"iterations\": {cache_iters}, \"cold_miss_p50_ms\": {cold_p50:.3}, \"warm_hit_p50_ms\": {warm_p50:.4}, \"speedup\": {finite_speedup:.1}, \"hits\": {hits}, \"misses\": {misses}}},\n  \"overload\": {{\"capacity\": {}, \"clients\": {overload_clients}, \"answered\": {answered}, \"shed\": {shed}, \"shed_rate\": {shed_rate:.3}}}\n}}\n",
        view.num_rows(),
        level_rows.join(",\n"),
        cap.max_inflight + cap.max_queue,
    );
    std::fs::write(&out_path, json).map_err(at_path(&out_path))?;
    writeln!(out, "wrote {out_path}")?;
    if stats {
        write_metrics_snapshot(out)?;
    }
    Ok(())
}
