//! End-to-end and per-layer benchmark of the served small-group-sampling
//! (SGS) path.
//!
//! One run stands up the paper's serving path from a generated SALES view:
//! it loads the view, builds and persists the SGS family, reopens it
//! through the degradation ladder and binds an in-process server with
//! `ServerConfig::default()`. It then drives one named workload over TCP,
//! checks every answer, and reports end-to-end metrics (untraced run) or
//! per-layer metrics (traced run). Layers are timed from outside, by
//! calling each crate's public functions; the program is not instrumented.
//! `README.md` says why each workload exists and which layer metric should
//! move which end-to-end metric.

mod check;
mod family;
mod load;
mod sql;
mod trace;

use aqp_core::{ApproxAnswer, AqpSystem, ResilientSystem, SmallGroupConfig, SmallGroupSampler};
use aqp_datagen::sales::{gen_sales, SalesConfig, SALES_EXCLUDED_GROUPING};
use aqp_query::{DataSource, ExecOptions, Query};
use aqp_serving::{CacheConfig, Response, SemanticCache, Server, ServerConfig, WireAnswer};
use aqp_storage::{read_table_file, write_table_file, Table};
use aqp_workload::{generate_queries, DatasetProfile, QueryGenConfig, WorkloadAggregate};
use check::{assess, fingerprint, oracle, Accuracy, Truth};
use load::{ms, Loaded, Outcome, Record, Script};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Recorder;

/// Skew of the SALES view's categorical attributes (the generator's and
/// the paper's SALES setting).
const ZIPF_Z: f64 = 1.5;
/// Seed of the SALES view. The view is the fixed database of the paper's
/// experiments; `--seed` varies the traffic over it.
const DATASET_SEED: u64 = 42;
/// Seed of the query pools. The pools are fixed and `--seed` draws the
/// traffic over them (the order of `sgs-paper`'s queries, the sequence of
/// dashboard requests). Pools drawn per seed moved the latency median and
/// tail by 20–60% between seeds: answer sizes are heavy-tailed and set
/// both, and a run can send only a few hundred `sgs-paper` queries.
const POOL_SEED: u64 = 42;
/// The measure SUM and AVG queries aggregate.
const MEASURE: &str = "sales.revenue";
/// Columns with more distinct values than this are not grouped or
/// filtered on (the generator's "almost every value unique" cut-off).
const DISTINCT_CAP: usize = 100;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's random group-by workload, closed loop in passes.
    SgsPaper,
    /// A hot set of narrow dashboard queries beside cache invalidations.
    SgsDashboard,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::SgsPaper, Workload::SgsDashboard];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SgsPaper => "sgs-paper",
            Workload::SgsDashboard => "sgs-dashboard",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The latency limit `slo_attainment` counts against, ms.
    fn slo_ms(self) -> f64 {
        match self {
            Workload::SgsPaper => 250.0,
            Workload::SgsDashboard => 25.0,
        }
    }
}

/// Connections, and generator threads, of the load: `nproc` on the
/// 2-vCPU hosts the benchmark targets.
const CONNECTIONS: usize = 2;
/// Zipf exponent of the dashboard hot set's popularity.
const HOT_ZIPF: f64 = 1.0;
/// Upper bound on dashboard requests per second per client; it sizes the
/// pre-drawn request sequences, which cycle if a client outruns it.
const DASHBOARD_RPS_CAP: f64 = 5_000.0;
/// The same bound for `sgs-paper`'s requests (both clients together).
const PAPER_RPS_CAP: f64 = 1_000.0;

/// The tier every answer must carry: both workloads run on the intact
/// family, so the ladder's first rung answers.
const TIER: &str = "primary";

/// Sizes and limits of a run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// SALES fact rows.
    pub rows: usize,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Queries with a lower index than this (the first of the pool, or
    /// the hot set and first drill-downs) are checked against the oracle.
    pub oracle_queries: usize,
    /// `sgs-paper` pool size: distinct queries, each sent once per pass.
    pub paper_queries: usize,
    /// `sgs-dashboard` hot-set size (below the default 256-entry cache).
    pub hot_set: usize,
    /// Every `drill_every`-th dashboard request is a one-off drill-down.
    pub drill_every: usize,
    /// An `Invalidate` request precedes every `invalidate_every`-th
    /// dashboard request.
    pub invalidate_every: u64,
    /// A reply later than this is a client-side timeout.
    pub timeout: Duration,
}

impl Scale {
    /// The benchmark's scale: the paper-sized SALES view.
    pub fn paper() -> Scale {
        Scale {
            rows: 1_000_000,
            setup_reps: 2,
            oracle_queries: 120,
            paper_queries: 100,
            hot_set: 96,
            drill_every: 100,
            invalidate_every: 300,
            timeout: Duration::from_secs(5),
        }
    }

    /// A seconds-long scale for self-tests.
    pub fn toy() -> Scale {
        Scale {
            rows: 20_000,
            setup_reps: 1,
            oracle_queries: 24,
            paper_queries: 24,
            hot_set: 12,
            drill_every: 10,
            invalidate_every: 50,
            timeout: Duration::from_secs(1),
        }
    }
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to drive.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured load, seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics and write spans.
    pub trace: bool,
    /// Sizes and limits.
    pub scale: Scale,
    /// The server's configuration (`ServerConfig::default()` in the
    /// benchmark proper).
    pub server: ServerConfig,
    /// Directory for the cached view, the run's family file and spans.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed and no request failed.
    pub correct: bool,
    /// Query requests sent.
    pub attempted: u64,
    /// Query requests that failed, were shed or timed out, or failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Seed, sizes, catalog, threads and request counts, as JSON.
    pub provenance: String,
    /// The first few failure reasons.
    pub failures: Vec<String>,
}

/// The SGS configuration `aqp-cli preprocess` uses by default.
fn sgs_config() -> SmallGroupConfig {
    SmallGroupConfig {
        tau: 5000,
        seed: 42,
        ..SmallGroupConfig::with_rates(0.01, 0.5)
    }
}

/// Executor threads as the CLI defaults them: available parallelism.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of this process, all threads, in clock ticks
/// (Linux `/proc/self/stat`).
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// CPU time stolen by the hypervisor and total CPU time, in clock ticks
/// (Linux `/proc/stat`), to report how contended the host was.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Nearest-rank percentile of unsorted `values` (`q` in 0..=1).
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values`.
fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Every answered request's base latency: the lower quartile of the
/// latencies of all answered requests for the same query. Host contention
/// (steal, neighbours, the other client's decode) comes in bursts that
/// slow some sends of a query; the lower quartile keeps the query's cost
/// without them, and one value per request keeps the workload's mix.
fn base_latencies(answered: &[&Record]) -> Vec<f64> {
    let mut by_query: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for r in answered {
        by_query.entry(r.query).or_default().push(r.latency_ms());
    }
    let base: BTreeMap<usize, f64> = by_query
        .into_iter()
        .map(|(q, latencies)| (q, percentile(&latencies, 0.25)))
        .collect();
    answered.iter().map(|r| base[&r.query]).collect()
}

/// Write the view file unless it is there. It depends only on the fixed
/// dataset settings, so runs in one checkout share it. (A corrupt file
/// fails the run's first load, which quarantines it, so the next run
/// writes it afresh.)
fn ensure_view_file(path: &Path, rows: usize) -> Result<(), String> {
    if path.exists() {
        return Ok(());
    }
    let star = gen_sales(&SalesConfig {
        fact_rows: rows,
        zipf_z: ZIPF_Z,
        seed: DATASET_SEED,
    })
    .map_err(|e| format!("generate: {e}"))?;
    let view = star
        .denormalize(sql::VIEW_NAME)
        .map_err(|e| format!("denormalize: {e}"))?;
    std::fs::create_dir_all(path.parent().expect("view path has a parent"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    write_table_file(&view, path).map_err(|e| format!("write view: {e}"))
}

/// Times of one complete set-up, seconds.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    load: f64,
    build: f64,
    save: f64,
    open: f64,
    bind: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.load + self.build + self.save + self.open + self.bind
    }
}

/// The measured server and what setting it up took.
struct Setup {
    server: Server,
    /// The benchmark's own copy of the view, for queries and the oracle.
    view: Table,
    times: Vec<SetupTimes>,
    catalog: String,
    family_bytes: u64,
}

/// Set up `scale.setup_reps` times: load the view, build and save the
/// family, reopen it, and bind a server. The last server is measured.
fn set_up(
    opts: &Options,
    view_path: &Path,
    family_path: &Path,
    threads: usize,
) -> Result<Setup, String> {
    let mut times = Vec::new();
    let mut kept: Option<(Server, Table, String, u64)> = None;
    for _ in 0..opts.scale.setup_reps.max(1) {
        // Free the previous set-up's server, and its view, first.
        let own_view = kept.take().map(|(_, view, ..)| view);
        let mut t = SetupTimes::default();
        let t0 = Instant::now();
        let loaded = read_table_file(view_path).map_err(|e| format!("load view: {e}"))?;
        t.load = secs(t0.elapsed());
        let own_view = match own_view {
            Some(v) => v,
            None => loaded.clone(),
        };
        let t0 = Instant::now();
        let sampler =
            SmallGroupSampler::build(&loaded, sgs_config()).map_err(|e| format!("build: {e}"))?;
        t.build = secs(t0.elapsed());
        let t0 = Instant::now();
        sampler
            .save(family_path)
            .map_err(|e| format!("save: {e}"))?;
        t.save = secs(t0.elapsed());
        let c = sampler.catalog();
        let catalog = format!(
            "{{\"small_group_tables\":{},\"overall_rows\":{},\"sample_bytes\":{}}}",
            c.num_tables(),
            c.overall_rows,
            c.total_bytes
        );
        drop(sampler);
        let family_bytes = std::fs::metadata(family_path).map(|m| m.len()).unwrap_or(0);
        let t0 = Instant::now();
        let (opened, report) = ResilientSystem::open(family_path);
        t.open = secs(t0.elapsed());
        if !report.primary_intact {
            return Err(format!(
                "family reopened degraded: {:?}",
                report.primary_error
            ));
        }
        let t0 = Instant::now();
        let system = opened.with_view(loaded).with_threads(threads);
        let server = Server::bind(system, opts.server.clone()).map_err(|e| format!("bind: {e}"))?;
        t.bind = secs(t0.elapsed());
        times.push(t);
        kept = Some((server, own_view, catalog, family_bytes));
    }
    let (server, view, catalog, family_bytes) = kept.expect("at least one set-up ran");
    Ok(Setup {
        server,
        view,
        times,
        catalog,
        family_bytes,
    })
}

fn generate(
    profile: &DatasetProfile,
    seed: u64,
    groups: usize,
    agg: WorkloadAggregate,
    n: usize,
) -> Vec<Query> {
    let cfg = QueryGenConfig {
        grouping_columns: groups,
        num_predicates: 1,
        predicate_fraction: (0.05, 0.3),
        aggregate: agg,
        seed,
    };
    generate_queries(profile, &cfg, n)
}

/// The Sec. 5.2.3 mix: 1–3 grouping columns, one IN-list predicate over
/// 5–30% of a column's values, COUNT and SUM(revenue) in equal shares.
fn paper_pool(profile: &DatasetProfile, n: usize) -> Vec<Query> {
    let per = n.div_ceil(6);
    let mut pool = Vec::with_capacity(per * 6);
    for groups in 1..=3 {
        for (k, agg) in [WorkloadAggregate::Count, WorkloadAggregate::Sum]
            .into_iter()
            .enumerate()
        {
            let seed = POOL_SEED
                .wrapping_mul(1000)
                .wrapping_add((groups * 2 + k) as u64);
            pool.extend(generate(profile, seed, groups, agg, per));
        }
    }
    pool.shuffle(&mut StdRng::seed_from_u64(POOL_SEED));
    pool.truncate(n);
    pool
}

/// Dashboard queries: the hot set (1 grouping column, COUNT/SUM/AVG in
/// equal shares, so at most `DISTINCT_CAP` groups) followed by a pool of
/// 2-column drill-downs.
fn dashboard_pool(profile: &DatasetProfile, hot: usize, drills: usize) -> Vec<Query> {
    let seed = POOL_SEED;
    let per = hot.div_ceil(3);
    let mut list = Vec::with_capacity(hot + drills);
    for (k, agg) in [
        WorkloadAggregate::Count,
        WorkloadAggregate::Sum,
        WorkloadAggregate::Avg,
    ]
    .into_iter()
    .enumerate()
    {
        list.extend(generate(
            profile,
            seed.wrapping_mul(1000).wrapping_add(k as u64),
            1,
            agg,
            per,
        ));
    }
    list.shuffle(&mut StdRng::seed_from_u64(seed));
    list.truncate(hot);
    let half = drills.div_ceil(2);
    let mut drill = generate(
        profile,
        seed.wrapping_mul(1000).wrapping_add(10),
        2,
        WorkloadAggregate::Count,
        half,
    );
    drill.extend(generate(
        profile,
        seed.wrapping_mul(1000).wrapping_add(11),
        2,
        WorkloadAggregate::Sum,
        half,
    ));
    drill.shuffle(&mut StdRng::seed_from_u64(seed));
    list.extend(drill);
    list
}

/// A workload's queries with their SQL.
struct Queries {
    list: Vec<Query>,
    sql: Vec<String>,
    /// Why a query's SQL does not parse back to its plan, if it does not.
    sql_error: Vec<Option<String>>,
}

impl Queries {
    fn new(list: Vec<Query>) -> Queries {
        let sql: Vec<String> = list.iter().map(sql::render).collect();
        let sql_error = list
            .iter()
            .zip(&sql)
            .map(|(q, s)| sql::check_round_trip(q, s).err())
            .collect();
        Queries {
            list,
            sql,
            sql_error,
        }
    }
}

/// Closed-loop dashboard traffic: Zipf-popular hot queries, a one-off
/// drill-down every `drill_every` requests, and periodic invalidation.
struct Dashboard {
    /// Per client, its request sequence (cycled if exhausted).
    sequences: Vec<Vec<usize>>,
    invalidate_every: u64,
}

impl Dashboard {
    fn new(scale: &Scale, seed: u64, length: usize) -> Dashboard {
        let hot = scale.hot_set;
        let clients = CONNECTIONS;
        // Popularity by rank, over a fixed assignment of ranks to queries.
        let weights: Vec<f64> = (1..=hot).map(|r| 1.0 / (r as f64).powf(HOT_ZIPF)).collect();
        let total: f64 = weights.iter().sum();
        let cdf: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        let mut rank_to_query: Vec<usize> = (0..hot).collect();
        rank_to_query.shuffle(&mut StdRng::seed_from_u64(POOL_SEED));
        let sequences = (0..clients)
            .map(|c| {
                let mut rng = StdRng::seed_from_u64(seed ^ ((c as u64 + 1) << 48));
                (0..length)
                    .map(|n| {
                        if n % scale.drill_every == scale.drill_every - 1 {
                            // Drill-downs come from the pool in order,
                            // interleaved across clients, each used once.
                            hot + (n / scale.drill_every) * clients + c
                        } else {
                            let u: f64 = rng.random();
                            rank_to_query[cdf.partition_point(|&p| p < u).min(hot - 1)]
                        }
                    })
                    .collect()
            })
            .collect();
        Dashboard {
            sequences,
            invalidate_every: scale.invalidate_every,
        }
    }

    fn drills_needed(scale: &Scale, length: usize) -> usize {
        (length / scale.drill_every + 1) * CONNECTIONS
    }
}

impl Script for Dashboard {
    fn next(&self, client: usize, n: usize, _global: u64) -> usize {
        let seq = &self.sequences[client];
        seq[n % seq.len()]
    }
    fn invalidate_before(&self, global: u64) -> bool {
        global > 0 && global.is_multiple_of(self.invalidate_every)
    }
}

/// Closed-loop `sgs-paper` traffic: passes over the pool, each in a fresh
/// seeded order and sending every query once, with the cache invalidated
/// before each pass after the first, so no request hits it.
struct Passes {
    /// The passes, back to back (cycled if the clients outrun them).
    sequence: Vec<usize>,
    pool: u64,
}

impl Passes {
    fn new(pool: usize, seed: u64, length: usize) -> Passes {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sequence = Vec::with_capacity(length + pool);
        while sequence.len() < length.max(1) {
            let mut order: Vec<usize> = (0..pool).collect();
            order.shuffle(&mut rng);
            sequence.extend(order);
        }
        Passes {
            sequence,
            pool: pool as u64,
        }
    }
}

impl Script for Passes {
    fn next(&self, _client: usize, _n: usize, global: u64) -> usize {
        self.sequence[(global % self.sequence.len() as u64) as usize]
    }
    fn invalidate_before(&self, global: u64) -> bool {
        global > 0 && global.is_multiple_of(self.pool)
    }
}

/// In-process results for one query.
#[derive(Default)]
struct Replay {
    answer: Option<ApproxAnswer>,
    fingerprint: u64,
    error: Option<String>,
    parse_us: f64,
    key_us: f64,
    answer_ms: f64,
    encode_ms: f64,
    /// `execute` over the tables the plan names (traced runs only).
    scan: Option<(f64, usize)>,
}

/// Replay each query in process, on a system opened from the same family:
/// parse → cache key → answer → encode, plus (traced) `execute` over the
/// plan's tables. Spans carry the id of the first request that sent it.
fn replay(
    queries: &Queries,
    sent: &BTreeMap<usize, u64>,
    family_path: &Path,
    confidence: f64,
    threads: usize,
    trace: bool,
    spans: &mut Recorder,
) -> Result<BTreeMap<usize, Replay>, String> {
    let system = ResilientSystem::open(family_path).0.with_threads(threads);
    let tables = if trace {
        Some(family::read_tables(family_path)?)
    } else {
        None
    };
    let cache = SemanticCache::new(CacheConfig::default());
    let mut replays = BTreeMap::new();
    for (&q, &id) in sent {
        let query = &queries.list[q];
        let mut rp = Replay::default();
        let t0 = Instant::now();
        let parsed = aqp_sql::parse_query(&queries.sql[q]);
        let t1 = Instant::now();
        let key = cache.key(sql::VIEW_NAME, query);
        let t2 = Instant::now();
        std::hint::black_box((&parsed, key.hash()));
        let answer = system.answer(query, confidence);
        let t3 = Instant::now();
        rp.parse_us = secs(t1 - t0) * 1e6;
        rp.key_us = secs(t2 - t1) * 1e6;
        rp.answer_ms = ms(t3 - t2);
        spans.record(id, "replay", None, t0, t3);
        spans.record(id, "parse", Some("replay"), t0, t1);
        spans.record(id, "cache_key", Some("replay"), t1, t2);
        spans.record(id, "answer", Some("replay"), t2, t3);
        match answer {
            Ok(answer) => {
                let t4 = Instant::now();
                let wire = WireAnswer::from_answer(
                    &answer,
                    false,
                    None,
                    rp.answer_ms,
                    false,
                    String::new(),
                );
                let json = Response::Answer(wire.clone()).to_json();
                let t5 = Instant::now();
                std::hint::black_box(json.len());
                rp.encode_ms = ms(t5 - t4);
                spans.record(id, "encode", Some("replay"), t4, t5);
                rp.fingerprint = fingerprint(&wire);
                if let Some(tables) = &tables {
                    let t6 = Instant::now();
                    rp.scan = Some(family::scan(tables, system.primary(), query, threads)?);
                    spans.record(id, "scan", Some("replay"), t6, Instant::now());
                }
                rp.answer = Some(answer);
            }
            Err(e) => rp.error = Some(format!("in-process answer: {e}")),
        }
        replays.insert(q, rp);
    }
    Ok(replays)
}

/// Run one workload end to end.
pub fn run(opts: &Options) -> Result<Report, String> {
    let view_path = opts.work_dir.join("cache").join(format!(
        "sales-{}-z{ZIPF_Z}-s{DATASET_SEED}.aqpt",
        opts.scale.rows
    ));
    ensure_view_file(&view_path, opts.scale.rows)?;
    let run_dir = opts.work_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = run_in(opts, &view_path, &run_dir.join("family.aqps"));
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn run_in(opts: &Options, view_path: &Path, family_path: &Path) -> Result<Report, String> {
    let origin = Instant::now();
    let progress = |what: &str| eprintln!("sgsbench: {:>7.2}s {what}", secs(origin.elapsed()));
    let scale = &opts.scale;
    let (workload, seed, threads) = (opts.workload, opts.seed, nproc());
    let clients = CONNECTIONS;

    let Setup {
        server,
        view,
        times: setups,
        catalog,
        family_bytes,
    } = set_up(opts, view_path, family_path, threads)?;
    progress("set up");

    // The workload's query pool, drawn over the view.
    let profile = DatasetProfile::new(&view, &[MEASURE], SALES_EXCLUDED_GROUPING, DISTINCT_CAP);
    let dashboard_len = (opts.seconds * DASHBOARD_RPS_CAP).ceil() as usize;
    let queries = Queries::new(match workload {
        Workload::SgsPaper => paper_pool(&profile, scale.paper_queries),
        Workload::SgsDashboard => dashboard_pool(
            &profile,
            scale.hot_set,
            Dashboard::drills_needed(scale, dashboard_len),
        ),
    });
    progress("queries generated");

    // The measured load.
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());
    let prefix = format!("sgsb-{}-{seed}", workload.name());
    let steal_start = cpu_steal();
    let cpu_start = process_cpu_ticks();
    let load_start = Instant::now();
    let target = load::Target {
        addr: &addr,
        timeout: scale.timeout,
        sql: &queries.sql,
        prefix: &prefix,
        origin,
        trace: opts.trace,
    };
    let Loaded {
        mut records,
        mut spans,
        invalidations,
        errors,
    } = match workload {
        Workload::SgsPaper => load::closed_loop(
            &target,
            clients,
            opts.seconds,
            &Passes::new(
                queries.list.len(),
                seed,
                (opts.seconds * PAPER_RPS_CAP).ceil() as usize,
            ),
        ),
        Workload::SgsDashboard => load::closed_loop(
            &target,
            clients,
            opts.seconds,
            &Dashboard::new(scale, seed, dashboard_len),
        ),
    };
    let load_s = secs(load_start.elapsed());
    // CPU time of this process (client and server) over the load.
    let cpu_s = match (cpu_start, process_cpu_ticks()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / CLOCK_TICKS_PER_S,
        _ => 0.0,
    };
    let host_steal_pct = match (steal_start, cpu_steal()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    shutdown.shutdown();
    let server_report = server_thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    progress("load done");

    // Oracle for the lowest-numbered queries sent; in-process replay of all.
    let sent: BTreeMap<usize, u64> = records.iter().rev().map(|r| (r.query, r.id)).collect();
    let oracle_set: BTreeSet<usize> = sent
        .keys()
        .copied()
        .filter(|&q| q < scale.oracle_queries)
        .collect();
    let truths: BTreeMap<usize, Result<Truth, String>> = oracle_set
        .iter()
        .map(|&q| (q, oracle(&view, &queries.list[q], threads)))
        .collect();
    drop(view);
    let replays = replay(
        &queries,
        &sent,
        family_path,
        opts.server.default_confidence,
        threads,
        opts.trace,
        &mut spans,
    )?;
    let accuracy: BTreeMap<usize, Accuracy> = oracle_set
        .iter()
        .filter_map(|&q| {
            let answer = replays[&q].answer.as_ref()?;
            Some(match &truths[&q] {
                Ok(truth) => (q, assess(answer, truth)),
                Err(e) => (
                    q,
                    Accuracy {
                        failure: Some(e.clone()),
                        ..Accuracy::default()
                    },
                ),
            })
        })
        .collect();
    progress("oracle and replay done");

    // Judge every answered request; a failed check makes it a failure.
    let mut failures: Vec<String> = errors;
    for r in records
        .iter_mut()
        .filter(|r| r.outcome == Outcome::Answered)
    {
        let rp = &replays[&r.query];
        let verdict = if let Some(e) = &queries.sql_error[r.query] {
            Some(format!("SQL does not round-trip: {e}"))
        } else if let Some(e) = &rp.error {
            Some(e.clone())
        } else if r.tier != TIER {
            Some(format!("tier {} where {TIER} was expected", r.tier))
        } else if r.fingerprint != rp.fingerprint {
            Some("served answer differs from the in-process answer".to_string())
        } else {
            accuracy.get(&r.query).and_then(|a| a.failure.clone())
        };
        if let Some(v) = verdict {
            r.outcome = Outcome::Failed(format!("query {}: {v}", r.query));
        }
    }
    for r in &records {
        if let Outcome::Failed(why) = &r.outcome {
            if failures.len() < 5 {
                failures.push(why.clone());
            }
        }
    }

    let attempted = records.len() as u64;
    let answered: Vec<&Record> = records
        .iter()
        .filter(|r| r.outcome == Outcome::Answered)
        .collect();
    let failed = attempted - answered.len() as u64;
    let count = |o: &Outcome| records.iter().filter(|r| &r.outcome == o).count();
    let (shed, timed_out) = (count(&Outcome::Shed), count(&Outcome::TimedOut));
    let share = |n: usize| n as f64 / attempted.max(1) as f64;
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let mut metrics = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit })
    };
    if !opts.trace {
        let latency: Vec<f64> = answered.iter().map(|r| r.latency_ms()).collect();
        let limit = workload.slo_ms();
        let per_request: Vec<&Accuracy> = answered
            .iter()
            .filter_map(|r| accuracy.get(&r.query))
            .collect();
        let n = per_request.len().max(1) as f64;
        let cells: usize = per_request.iter().map(|a| a.cells).sum();
        let covered: usize = per_request.iter().map(|a| a.covered).sum();
        put("setup_s", setup_median(SetupTimes::total), "s");
        put(
            "base_latency_p50_ms",
            median(&base_latencies(&answered)),
            "ms",
        );
        put(
            "requests_per_cpu_s",
            answered.len() as f64 / cpu_s.max(1e-9),
            "1/s",
        );
        put(
            "slo_attainment",
            share(latency.iter().filter(|&&l| l <= limit).count()),
            "frac",
        );
        put("success_frac", share(answered.len()), "frac");
        put(
            "value_accuracy",
            1.0 - per_request.iter().map(|a| a.rel_err).sum::<f64>() / n,
            "frac",
        );
        put(
            "group_recall",
            1.0 - per_request.iter().map(|a| a.pct_groups_missed).sum::<f64>() / n / 100.0,
            "frac",
        );
        put("ci_coverage", covered as f64 / cells.max(1) as f64, "frac");
        put("peak_rss_mb", peak_rss_mb(), "MiB");
    } else {
        let from_replays = |f: &dyn Fn(&Replay) -> Option<f64>| -> Vec<f64> {
            replays.values().filter_map(f).collect()
        };
        let from_answers =
            |f: &dyn Fn(&Record) -> f64| -> Vec<f64> { answered.iter().map(|r| f(r)).collect() };
        let answer_ms = from_replays(&|r| r.answer.as_ref().map(|_| r.answer_ms));
        let encode_ms = from_replays(&|r| r.answer.as_ref().map(|_| r.encode_ms));
        let scanned: Vec<&Replay> = replays.values().filter(|r| r.scan.is_some()).collect();
        let scan_ms: Vec<f64> = scanned.iter().filter_map(|r| r.scan.map(|s| s.0)).collect();
        let scan_total_ms: f64 = scan_ms.iter().sum();
        let scan_rows: usize = scanned.iter().filter_map(|r| r.scan.map(|s| s.1)).sum();
        let scanned_answer_ms: f64 = scanned.iter().map(|r| r.answer_ms).sum();
        let view_scans: Vec<&Truth> = truths.values().filter_map(|t| t.as_ref().ok()).collect();
        let view_scan_ms: Vec<f64> = view_scans.iter().map(|t| t.execute_ms).collect();
        let view_rows: usize = view_scans.iter().map(|t| t.rows).sum();
        let decode_ms = from_answers(&|r| ms(r.decode_end - r.recv_end));
        let wire_ms = from_answers(&Record::wire_ms);
        let latency_total: f64 = answered
            .iter()
            .map(|r| r.latency_ms())
            .sum::<f64>()
            .max(1e-9);
        let checked = oracle_set.iter().filter_map(|q| replays[q].answer.as_ref());
        let accs: Vec<&Accuracy> = accuracy.values().collect();
        let sum = |f: fn(&Accuracy) -> f64| accs.iter().map(|a| f(a)).sum::<f64>();
        let n_accs = accs.len().max(1) as f64;
        put(
            "sql.parse_us",
            median(&from_replays(&|r| Some(r.parse_us))),
            "us",
        );
        put(
            "serving.cache_key_us",
            median(&from_replays(&|r| Some(r.key_us))),
            "us",
        );
        put(
            "serving.cache_hit_rate",
            answered.iter().filter(|r| r.cache_hit).count() as f64 / answered.len().max(1) as f64,
            "frac",
        );
        put("serving.encode_ms", median(&encode_ms), "ms");
        put("serving.encode_p99_ms", percentile(&encode_ms, 0.99), "ms");
        put("serving.decode_ms", median(&decode_ms), "ms");
        put("serving.decode_p99_ms", percentile(&decode_ms, 0.99), "ms");
        put(
            "serving.server_ms",
            median(&from_answers(&|r| r.server_ms)),
            "ms",
        );
        put(
            "serving.server_p99_ms",
            percentile(&from_answers(&|r| r.server_ms), 0.99),
            "ms",
        );
        put("serving.wire_ms", median(&wire_ms), "ms");
        put("serving.wire_p99_ms", percentile(&wire_ms, 0.99), "ms");
        put("serving.shed_frac", share(shed), "frac");
        put("core.answer_ms", median(&answer_ms), "ms");
        put("core.answer_p99_ms", percentile(&answer_ms, 0.99), "ms");
        put("query.scan_ms", median(&scan_ms), "ms");
        put("query.scan_p99_ms", percentile(&scan_ms, 0.99), "ms");
        put(
            "query.scan_rows_per_s",
            scan_rows as f64 / (scan_total_ms / 1e3).max(1e-9),
            "rows/s",
        );
        put(
            "core.outside_scan_share",
            (scanned_answer_ms - scan_total_ms) / scanned_answer_ms.max(1e-9),
            "frac",
        );
        put("query.view_scan_ms", median(&view_scan_ms), "ms");
        put(
            "query.view_scan_rows_per_s",
            view_rows as f64 / (view_scan_ms.iter().sum::<f64>() / 1e3).max(1e-9),
            "rows/s",
        );
        put(
            "query.rows_scanned",
            checked.clone().map(|a| a.rows_scanned).sum::<usize>() as f64,
            "rows",
        );
        put(
            "core.exact_group_frac",
            sum(|a| a.exact_groups as f64) / sum(|a| a.groups as f64).max(1.0),
            "frac",
        );
        put(
            "sampling.ci_halfwidth_rel",
            sum(|a| a.halfwidth_rel_sum) / sum(|a| a.halfwidth_cells as f64).max(1.0),
            "frac",
        );
        put("sampling.build_s", setup_median(|s| s.build), "s");
        put("sampling.family_bytes", family_bytes as f64, "bytes");
        put("storage.view_load_s", setup_median(|s| s.load), "s");
        put("core.family_open_s", setup_median(|s| s.open), "s");
        put(
            "bench.throughput_rps",
            answered.len() as f64 / load_s,
            "1/s",
        );
        let latency = from_answers(&Record::latency_ms);
        put("bench.latency_p50_ms", percentile(&latency, 0.50), "ms");
        put("bench.latency_p95_ms", percentile(&latency, 0.95), "ms");
        put("bench.latency_p99_ms", percentile(&latency, 0.99), "ms");
        // Four spans per request are recorded on the client's clock.
        put(
            "bench.trace_overhead_pct",
            100.0 * answered.len() as f64 * 4.0 * trace::span_cost_ns() / 1e6 / latency_total,
            "%",
        );
        put(
            "bench.unattributed_pct",
            100.0 * wire_ms.iter().sum::<f64>() / latency_total,
            "%",
        );
        put("bench.failed_frac", share(failed as usize), "frac");
        put("bench.rel_err", sum(|a| a.rel_err) / n_accs, "frac");
        put(
            "bench.pct_groups_missed",
            sum(|a| a.pct_groups_missed) / n_accs,
            "%",
        );
        let spans_path = opts
            .work_dir
            .join(format!("spans-{}.jsonl", workload.name()));
        std::fs::write(&spans_path, spans.to_jsonl(&prefix))
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    }

    let provenance = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{},\"trace\":{},\"rows\":{},\"zipf_z\":{ZIPF_Z},\
         \"dataset_seed\":{DATASET_SEED},\"family\":{catalog},\"family_bytes\":{family_bytes},\
         \"executor_threads\":{threads},\"nproc\":{},\"connections\":{clients},\"commit\":\"{}\",\
         \"host_steal_pct\":{host_steal_pct:.1},\"setup_reps\":{},\"distinct_queries\":{},\"oracle_queries\":{},\
         \"requests\":{{\"attempted\":{attempted},\"answered\":{},\"failed\":{failed},\"shed\":{shed},\
         \"timed_out\":{timed_out},\"invalidations\":{invalidations}}},\
         \"server\":{{\"requests\":{},\"answered\":{},\"shed\":{},\"timeouts\":{},\"errors\":{},\
         \"cache_hits\":{},\"cache_misses\":{}}}}}",
        workload.name(),
        opts.seconds,
        opts.trace,
        scale.rows,
        nproc(),
        commit(),
        setups.len(),
        sent.len(),
        oracle_set.len(),
        answered.len(),
        server_report.requests,
        server_report.answered,
        server_report.shed,
        server_report.timeouts,
        server_report.errors,
        server_report.cache_hits,
        server_report.cache_misses,
    );
    Ok(Report {
        correct: failed == 0 && failures.is_empty(),
        attempted,
        failed,
        metrics,
        provenance,
        failures,
    })
}

/// The checked-out commit, read from `.git` beside the benchmark when
/// there is one; `unknown` in an export without history.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `execute` over one table with the server's thread count, timed;
/// returns milliseconds and rows scanned.
fn timed_execute(table: &Table, query: &Query, threads: usize) -> Result<(f64, usize), String> {
    let opts = ExecOptions {
        parallelism: threads,
        ..ExecOptions::default()
    };
    let t0 = Instant::now();
    let out = aqp_query::execute(&DataSource::Wide(table), query, &opts)
        .map_err(|e| format!("scan {}: {e}", table.name()))?;
    Ok((ms(t0.elapsed()), out.rows_scanned))
}
