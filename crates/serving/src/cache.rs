//! Semantic answer cache with CI-aware reuse and single-flight execution.
//!
//! The paper's premise is that one pre-built sample answers many future
//! queries; this module closes the loop at the serving layer: an answer
//! already computed for a *semantically equal* plan is re-served without
//! touching the morsel pool at all — provided its confidence intervals
//! satisfy the new request's [`AnswerContract`] at **equal-or-tighter**
//! bounds (BlinkDB-style bounded-error contracts; VerdictDB-style reuse
//! of sample-derived estimates across queries).
//!
//! * **Keys** are canonicalized plans ([`aqp_sql::plan_key_text`]):
//!   whitespace, literal formatting, predicate commutation, and aggregate
//!   aliases are erased; table name, predicate set, group columns,
//!   aggregate list, and the cache **epoch** (bumped on table rebuild)
//!   are folded in. The full key text is the map key — a fixed-width
//!   hash ([`aqp_query::FxHasher`], deterministic and platform-stable)
//!   is carried only as a fingerprint for logs and metrics.
//! * **Hits** are contract-checked, never key-only: a cached approximate
//!   answer serves a request at equal-or-lower confidence (its intervals
//!   cover with at least the demanded probability) and within any
//!   relative-error bound; exact answers satisfy any contract; partial
//!   answers are never cached. Aliases are re-skinned from the incoming
//!   query, so `COUNT(*) AS n` hits an answer cached as `COUNT(*) AS c`
//!   yet comes back labelled `n`.
//! * **Single-flight**: N concurrent misses on one key execute once. The
//!   first miss becomes the *leader* (returns [`CacheDecision::Execute`]
//!   with a [`FlightGuard`]); followers block — bounded by their own
//!   deadline — until the leader completes or abandons, then re-check
//!   the cache. A leader that dies releases its flight on drop, so a
//!   panicked or errored execution can never wedge its followers.
//! * **Bounds**: capacity-capped with LRU eviction, optional TTL expiry
//!   (checked at lookup), and explicit [`SemanticCache::invalidate`] for
//!   table rebuilds (bumps the epoch so stale keys can never match, and
//!   clears the map).
//!
//! Observability: `aqp_cache_{hit,miss,insert,evict,bypass}_total`
//! counters (`evict` labelled by reason: `lru`, `ttl`, `invalidate`) and
//! an `aqp_cache_size` gauge.

use aqp_core::{AnswerContract, ApproxAnswer};
use aqp_query::{FxHashMap, Query};
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often a waiting follower re-checks its deadline while parked on
/// the flight condvar (wakeups also arrive via notify on completion).
const FLIGHT_WAIT_TICK: Duration = Duration::from_millis(50);

/// Cache configuration (server flags map onto this).
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum number of cached answers; `0` disables the cache (every
    /// query bypasses).
    pub capacity: usize,
    /// Entry time-to-live; `None` = entries live until evicted or
    /// invalidated.
    pub ttl: Option<Duration>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 256, ttl: None }
    }
}

impl CacheConfig {
    /// A configuration with the cache fully off (capacity 0).
    pub fn disabled() -> CacheConfig {
        CacheConfig { capacity: 0, ttl: None }
    }
}

/// A canonicalized, epoch-stamped cache key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    text: String,
    hash: u64,
}

impl PlanKey {
    /// The full canonical key text (injective over plans + epoch).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Stable 64-bit fingerprint of the key text ([`aqp_query::FxHasher`]
    /// — seedless and platform-independent, so the same plan hashes
    /// identically in every process).
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

struct Entry {
    answer: ApproxAnswer,
    confidence: f64,
    inserted: Instant,
    /// LRU clock value at last touch.
    used: u64,
}

/// What the cache decided for one incoming query.
pub enum CacheDecision<'a> {
    /// Caching is disabled for this request; execute normally, do not
    /// insert.
    Bypass,
    /// Contract-satisfying answer served from cache (aliases already
    /// re-skinned to the incoming query). The `f64` is the confidence
    /// the cached intervals were computed at.
    Hit(Box<ApproxAnswer>, f64),
    /// Miss: the caller must execute and then [`FlightGuard::complete`]
    /// (or drop the guard to abandon the flight).
    Execute(FlightGuard<'a>),
}

/// Leader token for one in-flight execution. Dropping it without
/// [`FlightGuard::complete`] releases any waiting followers (who then
/// elect a new leader), so error paths need no special handling.
pub struct FlightGuard<'a> {
    cache: &'a SemanticCache,
    key: PlanKey,
    /// Whether this guard owns a registered flight (a deadline-expired
    /// follower executes unregistered and must not release someone
    /// else's flight).
    owns_flight: bool,
}

impl FlightGuard<'_> {
    /// The key this flight executes for.
    pub fn key(&self) -> &PlanKey {
        &self.key
    }

    /// Record the executed answer. Complete (non-partial) answers
    /// computed at `confidence` are inserted for reuse; partial or
    /// deadline-shaped answers are released without caching when
    /// `insertable` is false — they describe the request's budget, not
    /// the data.
    pub fn complete(self, answer: &ApproxAnswer, confidence: f64, insertable: bool) {
        if insertable && !answer.partial {
            self.cache.insert(&self.key, answer.clone(), confidence);
        }
        // Drop releases the flight and wakes followers.
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.owns_flight {
            let mut flights = self.cache.flights.lock().expect("cache flights poisoned");
            flights.remove(&self.key.text);
            drop(flights);
            self.cache.flight_done.notify_all();
        }
    }
}

/// The semantic answer cache. One per server; shared by every connection
/// thread.
pub struct SemanticCache {
    config: CacheConfig,
    epoch: AtomicU64,
    clock: AtomicU64,
    state: Mutex<FxHashMap<String, Entry>>,
    flights: Mutex<std::collections::HashSet<String>>,
    flight_done: Condvar,
}

impl std::fmt::Debug for SemanticCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemanticCache")
            .field("enabled", &self.enabled())
            .field("capacity", &self.config.capacity)
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("len", &self.len())
            .finish()
    }
}

impl SemanticCache {
    /// Build a cache; capacity 0 disables it.
    pub fn new(config: CacheConfig) -> SemanticCache {
        SemanticCache {
            config,
            epoch: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            state: Mutex::new(HashMap::default()),
            flights: Mutex::new(std::collections::HashSet::new()),
            flight_done: Condvar::new(),
        }
    }

    /// Whether lookups/inserts are active (capacity above 0).
    pub fn enabled(&self) -> bool {
        self.config.capacity > 0
    }

    /// Current epoch (bumped by [`SemanticCache::invalidate`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache state poisoned").len()
    }

    /// Whether the cache holds no answers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The epoch-stamped canonical key for `query` against `table`.
    pub fn key(&self, table: &str, query: &Query) -> PlanKey {
        let text = format!(
            "e{}|{}",
            self.epoch.load(Ordering::SeqCst),
            aqp_sql::plan_key_text(table, query)
        );
        let mut h = aqp_query::FxHasher::default();
        h.write(text.as_bytes());
        let hash = h.finish();
        PlanKey { text, hash }
    }

    /// Route one query: serve a contract-satisfying cached answer, join
    /// or lead a single-flight execution, or bypass when disabled. A
    /// follower waits at most until `deadline` (forever if `None` —
    /// safe because leaders release on drop, even on panic).
    pub fn decide<'a>(
        &'a self,
        table: &str,
        query: &Query,
        contract: &AnswerContract,
        deadline: Option<Instant>,
    ) -> CacheDecision<'a> {
        if !self.enabled() {
            aqp_obs::counter("aqp_cache_bypass_total", &[]).inc();
            return CacheDecision::Bypass;
        }
        let key = self.key(table, query);
        let hit = |(answer, confidence)| {
            aqp_obs::counter("aqp_cache_hit_total", &[]).inc();
            CacheDecision::Hit(Box::new(answer), confidence)
        };
        loop {
            if let Some(found) = self.lookup(&key, contract, query) {
                return hit(found);
            }
            let mut flights = self.flights.lock().expect("cache flights poisoned");
            if !flights.contains(&key.text) {
                // A leader inserts its answer before it releases its
                // flight, so one that finished after the lookup above
                // left the answer behind: look again before leading, or
                // this request would execute the key a second time.
                if let Some(found) = self.lookup(&key, contract, query) {
                    return hit(found);
                }
                flights.insert(key.text.clone());
                drop(flights);
                aqp_obs::counter("aqp_cache_miss_total", &[]).inc();
                return CacheDecision::Execute(FlightGuard { cache: self, key, owns_flight: true });
            }
            // Follower: park until the leader finishes or our deadline
            // nears, then re-check the cache from the top.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                drop(flights);
                aqp_obs::counter("aqp_cache_miss_total", &[]).inc();
                return CacheDecision::Execute(FlightGuard {
                    cache: self,
                    key,
                    owns_flight: false,
                });
            }
            let tick = match deadline {
                Some(d) => d
                    .saturating_duration_since(Instant::now())
                    .min(FLIGHT_WAIT_TICK),
                None => FLIGHT_WAIT_TICK,
            };
            let (guard, _) = self
                .flight_done
                .wait_timeout(flights, tick)
                .expect("cache flights poisoned");
            drop(guard);
        }
    }

    /// Contract-checked lookup. Expired entries are evicted on the way.
    fn lookup(
        &self,
        key: &PlanKey,
        contract: &AnswerContract,
        query: &Query,
    ) -> Option<(ApproxAnswer, f64)> {
        let mut state = self.state.lock().expect("cache state poisoned");
        let entry = state.get_mut(&key.text)?;
        if self.config.ttl.is_some_and(|ttl| entry.inserted.elapsed() >= ttl) {
            state.remove(&key.text);
            aqp_obs::counter("aqp_cache_evict_total", &[("reason", "ttl")]).inc();
            aqp_obs::gauge("aqp_cache_size", &[]).set(state.len() as i64);
            return None;
        }
        if !contract.satisfied_by(&entry.answer, entry.confidence) {
            return None;
        }
        entry.used = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut answer = entry.answer.clone();
        let confidence = entry.confidence;
        drop(state);
        // Re-skin output names from the incoming query: the key erases
        // aliases, so the cached ones may differ.
        answer.agg_aliases = query.aggregates.iter().map(|a| a.alias.clone()).collect();
        answer.group_names = query.group_by.clone();
        Some((answer, confidence))
    }

    /// Insert an answer (used by [`FlightGuard::complete`]). Evicts LRU
    /// entries down to capacity.
    fn insert(&self, key: &PlanKey, answer: ApproxAnswer, confidence: f64) {
        if answer.partial || !self.enabled() {
            return;
        }
        let mut state = self.state.lock().expect("cache state poisoned");
        let used = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        state.insert(
            key.text.clone(),
            Entry { answer, confidence, inserted: Instant::now(), used },
        );
        aqp_obs::counter("aqp_cache_insert_total", &[]).inc();
        while state.len() > self.config.capacity {
            let coldest = state
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity map");
            state.remove(&coldest);
            aqp_obs::counter("aqp_cache_evict_total", &[("reason", "lru")]).inc();
        }
        aqp_obs::gauge("aqp_cache_size", &[]).set(state.len() as i64);
    }

    /// Explicit invalidation on table rebuild: bump the epoch (so a key
    /// computed before the bump can never match one computed after) and
    /// drop every cached answer. In-flight executions keyed under the
    /// old epoch may still insert; their entries are unreachable by new
    /// lookups and age out via LRU/TTL. Returns the new epoch.
    pub fn invalidate(&self) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let mut state = self.state.lock().expect("cache state poisoned");
        let dropped = state.len();
        state.clear();
        if dropped > 0 {
            aqp_obs::counter("aqp_cache_evict_total", &[("reason", "invalidate")])
                .inc_by(dropped as u64);
        }
        aqp_obs::gauge("aqp_cache_size", &[]).set(0);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_core::{ApproxAnswer, ApproxGroup, ApproxValue, ServingTier};
    use aqp_query::{AggExpr, Query};
    use aqp_sampling::{ConfidenceInterval, Estimate};
    use aqp_storage::Value;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn query(alias: &str) -> Query {
        Query::builder()
            .aggregate(AggExpr::count(alias))
            .group_by("g")
            .build()
            .unwrap()
    }

    fn answer(value: f64, half: f64, partial: bool) -> ApproxAnswer {
        ApproxAnswer {
            group_names: vec!["g".into()],
            agg_aliases: vec!["cached_name".into()],
            groups: vec![ApproxGroup {
                key: vec![Value::Utf8("x".into())],
                values: vec![ApproxValue {
                    estimate: Estimate { value, variance: 1.0, exact: false },
                    ci: ConfidenceInterval {
                        lo: value - half,
                        hi: value + half,
                        confidence: 0.95,
                    },
                }],
            }],
            rows_scanned: 10,
            tier: ServingTier::Primary,
            partial,
        }
    }

    fn cache(capacity: usize) -> SemanticCache {
        SemanticCache::new(CacheConfig { capacity, ttl: None })
    }

    fn run_miss(c: &SemanticCache, table: &str, q: &Query, a: &ApproxAnswer) {
        match c.decide(table, q, &AnswerContract::at_confidence(0.95), None) {
            CacheDecision::Execute(guard) => guard.complete(a, 0.95, true),
            _ => panic!("expected a miss"),
        }
    }

    #[test]
    fn miss_then_hit_with_alias_reskin() {
        let c = cache(8);
        run_miss(&c, "v", &query("cached_name"), &answer(100.0, 5.0, false));
        assert_eq!(c.len(), 1);
        // Same plan, different alias: key matches, output re-skinned.
        match c.decide("v", &query("fresh_name"), &AnswerContract::at_confidence(0.95), None) {
            CacheDecision::Hit(a, conf) => {
                assert_eq!(a.agg_aliases, vec!["fresh_name".to_owned()]);
                assert!((conf - 0.95).abs() < 1e-12);
            }
            _ => panic!("expected a hit"),
        };
    }

    #[test]
    fn tighter_contract_misses_looser_hits() {
        let c = cache(8);
        run_miss(&c, "v", &query("n"), &answer(100.0, 5.0, false));
        // Demanding higher confidence than the cached 0.95: must re-execute.
        match c.decide("v", &query("n"), &AnswerContract::at_confidence(0.99), None) {
            CacheDecision::Execute(_) => {}
            _ => panic!("tighter contract must not reuse"),
        }
        // Looser confidence is satisfied.
        assert!(matches!(
            c.decide("v", &query("n"), &AnswerContract::at_confidence(0.90), None),
            CacheDecision::Hit(..)
        ));
        // A relative-error bound tighter than the cached 5% half-width misses.
        let tight = AnswerContract { confidence: 0.95, max_rel_error: Some(0.01) };
        assert!(matches!(c.decide("v", &query("n"), &tight, None), CacheDecision::Execute(_)));
    }

    #[test]
    fn partial_answers_are_never_cached() {
        let c = cache(8);
        run_miss(&c, "v", &query("n"), &answer(100.0, 5.0, true));
        assert!(c.is_empty());
        // Deadline-shaped answers (insertable = false) are not cached either.
        match c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None) {
            CacheDecision::Execute(guard) => guard.complete(&answer(100.0, 5.0, false), 0.95, false),
            _ => panic!("expected a miss"),
        }
        assert!(c.is_empty());
    }

    #[test]
    fn different_tables_and_plans_do_not_collide() {
        let c = cache(8);
        run_miss(&c, "v1", &query("n"), &answer(1.0, 0.1, false));
        assert!(matches!(
            c.decide("v2", &query("n"), &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Execute(_)
        ));
        let other = Query::builder()
            .aggregate(AggExpr::count("n"))
            .group_by("h")
            .build()
            .unwrap();
        assert!(matches!(
            c.decide("v1", &other, &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Execute(_)
        ));
    }

    #[test]
    fn lru_evicts_coldest_at_capacity() {
        let c = cache(2);
        let q1 = query("a");
        let mut q2 = query("a");
        q2.group_by = vec!["h".into()];
        let mut q3 = query("a");
        q3.group_by = vec!["k".into()];
        run_miss(&c, "v", &q1, &answer(1.0, 0.1, false));
        run_miss(&c, "v", &q2, &answer(2.0, 0.1, false));
        // Touch q1 so q2 is the LRU victim.
        assert!(matches!(
            c.decide("v", &q1, &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Hit(..)
        ));
        run_miss(&c, "v", &q3, &answer(3.0, 0.1, false));
        assert_eq!(c.len(), 2);
        assert!(matches!(
            c.decide("v", &q1, &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Hit(..)
        ));
        assert!(matches!(
            c.decide("v", &q2, &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Execute(_)
        ));
    }

    #[test]
    fn ttl_expires_entries() {
        let c = SemanticCache::new(CacheConfig {
            capacity: 8,
            ttl: Some(Duration::from_millis(1)),
        });
        run_miss(&c, "v", &query("n"), &answer(1.0, 0.1, false));
        std::thread::sleep(Duration::from_millis(5));
        assert!(matches!(
            c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Execute(_)
        ));
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_bumps_epoch_and_clears() {
        let c = cache(8);
        let q = query("n");
        let key_before = c.key("v", &q);
        run_miss(&c, "v", &q, &answer(1.0, 0.1, false));
        assert_eq!(c.invalidate(), 1);
        assert!(c.is_empty());
        let key_after = c.key("v", &q);
        assert_ne!(key_before.text(), key_after.text());
        assert!(matches!(
            c.decide("v", &q, &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Execute(_)
        ));
    }

    #[test]
    fn disabled_cache_bypasses() {
        let c = SemanticCache::new(CacheConfig::disabled());
        assert!(!c.enabled());
        assert!(matches!(
            c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Bypass
        ));
        let zero =
            SemanticCache::new(CacheConfig { capacity: 0, ttl: Some(Duration::from_secs(1)) });
        assert!(!zero.enabled(), "capacity 0 disables the cache whatever the ttl");
    }

    #[test]
    fn key_hash_is_deterministic() {
        let c = cache(8);
        let k1 = c.key("v", &query("a"));
        let k2 = c.key("v", &query("b"));
        assert_eq!(k1.text(), k2.text());
        assert_eq!(k1.hash(), k2.hash());
    }

    #[test]
    fn single_flight_executes_once_for_concurrent_misses() {
        let c = Arc::new(cache(8));
        let executions = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            let executions = Arc::clone(&executions);
            handles.push(std::thread::spawn(move || {
                match c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None) {
                    CacheDecision::Hit(..) => false,
                    CacheDecision::Execute(guard) => {
                        executions.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight long enough that the others pile up.
                        std::thread::sleep(Duration::from_millis(20));
                        guard.complete(&answer(1.0, 0.1, false), 0.95, true);
                        true
                    }
                    CacheDecision::Bypass => panic!("cache is enabled"),
                }
            }));
        }
        let leaders = handles
            .into_iter()
            .map(|h| h.join().expect("thread panicked"))
            .filter(|led| *led)
            .count();
        assert_eq!(executions.load(Ordering::SeqCst), 1, "exactly one execution per key");
        assert_eq!(leaders, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn abandoned_flight_releases_followers() {
        let c = Arc::new(cache(8));
        // Leader registers a flight, then drops the guard without completing.
        match c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None) {
            CacheDecision::Execute(guard) => drop(guard),
            _ => panic!("expected a miss"),
        }
        // A follower must now become a leader rather than hang.
        assert!(matches!(
            c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Execute(_)
        ));
    }

    #[test]
    fn deadline_expired_follower_executes_unregistered() {
        let c = cache(8);
        // Register a flight that never completes.
        let leader = match c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None) {
            CacheDecision::Execute(guard) => guard,
            _ => panic!("expected a miss"),
        };
        // A second caller with an already-expired deadline falls through.
        let past = Instant::now();
        match c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), Some(past)) {
            CacheDecision::Execute(guard) => guard.complete(&answer(1.0, 0.1, false), 0.95, true),
            _ => panic!("expired follower must execute"),
        }
        assert_eq!(c.len(), 1);
        // The original leader's completion still works (overwrites).
        leader.complete(&answer(1.0, 0.1, false), 0.95, true);
        assert_eq!(c.len(), 1);
    }
}
