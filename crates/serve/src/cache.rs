//! Single-flight LRU caches behind the serving layer.
//!
//! Two instances of one generic core ([`FlightCache`]):
//!
//! * [`DesignCache`] — built [`CaseStudy`] instances keyed by
//!   `(scale, seed)`. Building one — generate the SOC, insert scan,
//!   extract timing, synthesize the clock tree, calibrate the grid — is
//!   the expensive prefix of every endpoint.
//! * [`ResponseCache`] — rendered 200 responses keyed by the full
//!   canonical parameter tuple. Every analysis endpoint is a pure
//!   function of its parameters (the determinism contract), so a
//!   repeat request can be answered from the rendered bytes without
//!   recomputing the flow. This is the cache that makes a worker "own"
//!   its shard in the cluster tier: requests for resident keys are
//!   wire-speed, requests outside the shard pay the full recompute.
//!
//! **Single-flight:** when N requests miss on the same key at once,
//! exactly one thread builds while the other N−1 block on a condvar and
//! receive the same `Arc` — never N redundant builds saturating the
//! machine. The `serve.design_builds` counter proves this property in
//! the integration tests.
//!
//! Each instance owns its counter family (`serve.cache.*` for designs,
//! `serve.respcache.*` for responses: `hits` / `misses` / `waits` /
//! `evictions`, plus a `…capacity` gauge), pre-interned at construction
//! so `/metrics` echoes the whole family — zeros included — from the
//! first scrape. The coordinator reads shard-cache pressure off these.

use crate::http::Response;
use scap::CaseStudy;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The counter family one [`FlightCache`] instance reports into.
/// Handles are interned eagerly so the names exist in `/metrics`
/// before the first request touches the cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheMetrics {
    hits: &'static scap_obs::Counter,
    misses: &'static scap_obs::Counter,
    waits: &'static scap_obs::Counter,
    evictions: &'static scap_obs::Counter,
}

impl CacheMetrics {
    /// Interns (and thereby registers) the four counters of a family.
    pub fn new(
        hits: &'static str,
        misses: &'static str,
        waits: &'static str,
        evictions: &'static str,
    ) -> Self {
        CacheMetrics {
            hits: scap_obs::counter(hits),
            misses: scap_obs::counter(misses),
            waits: scap_obs::counter(waits),
            evictions: scap_obs::counter(evictions),
        }
    }
}

enum Slot<V> {
    /// A build is in flight on some thread; wait on the condvar.
    Building,
    /// The value is resident.
    Ready(Arc<V>),
}

// Manual impl: `V` itself need not be `Clone` — only the `Arc` is.
impl<V> Clone for Slot<V> {
    fn clone(&self) -> Self {
        match self {
            Slot::Building => Slot::Building,
            Slot::Ready(v) => Slot::Ready(Arc::clone(v)),
        }
    }
}

struct Entry<K, V> {
    key: K,
    slot: Slot<V>,
    last_used: u64,
}

struct CacheState<K, V> {
    entries: Vec<Entry<K, V>>,
    tick: u64,
}

/// Generic LRU cache with single-flight build deduplication (see the
/// module docs). Lookup is a linear scan — capacities are single-digit
/// to low-double-digit, where a scan beats hashing.
pub struct FlightCache<K, V> {
    capacity: usize,
    metrics: CacheMetrics,
    state: Mutex<CacheState<K, V>>,
    ready: Condvar,
}

impl<K, V> std::fmt::Debug for FlightCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightCache")
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<K: Clone + Eq, V> FlightCache<K, V> {
    /// A cache holding at most `capacity` ready values (clamped to at
    /// least 1), reporting into `metrics`.
    pub fn new(capacity: usize, metrics: CacheMetrics) -> Self {
        FlightCache {
            capacity: capacity.max(1),
            metrics,
            state: Mutex::new(CacheState {
                entries: Vec::new(),
                tick: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Locks the state, recovering from poison. A builder that panics
    /// poisons the mutex: `BuildGuard::drop` takes the lock during the
    /// unwind, and releasing a guard while panicking marks the mutex
    /// poisoned. The guard only ever removes its own `Building` entry,
    /// so the state is never left half-mutated and is safe to reuse.
    fn lock(&self) -> MutexGuard<'_, CacheState<K, V>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of resident (fully built) values.
    pub fn len(&self) -> usize {
        self.lock()
            .entries
            .iter()
            .filter(|e| matches!(e.slot, Slot::Ready(_)))
            .count()
    }

    /// Whether no value is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the value for `key`, building it at most once regardless
    /// of how many threads ask concurrently.
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        self.get_or_build_filtered(key, build, |_| true)
    }

    /// [`FlightCache::get_or_build`] with an admission filter: the
    /// freshly built value is returned either way, but only stored when
    /// `cacheable(&v)` holds (the response cache admits only 200s).
    /// Waiters on a non-admitted build retry and rebuild — correct, and
    /// rare enough not to matter.
    pub fn get_or_build_filtered(
        &self,
        key: K,
        build: impl FnOnce() -> V,
        cacheable: impl FnOnce(&V) -> bool,
    ) -> Arc<V> {
        let mut s = self.lock();
        while let Some(i) = s.entries.iter().position(|e| e.key == key) {
            match s.entries[i].slot.clone() {
                Slot::Ready(value) => {
                    s.tick += 1;
                    let tick = s.tick;
                    s.entries[i].last_used = tick;
                    self.metrics.hits.incr();
                    return value;
                }
                Slot::Building => {
                    self.metrics.waits.incr();
                    s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
        // Miss: claim the build under the lock, run it outside.
        self.metrics.misses.incr();
        self.evict_if_full(&mut s);
        s.tick += 1;
        let tick = s.tick;
        s.entries.push(Entry {
            key: key.clone(),
            slot: Slot::Building,
            last_used: tick,
        });
        drop(s);

        // If the build panics, the guard removes the Building entry and
        // wakes waiters so they retry instead of hanging forever.
        let mut guard = BuildGuard {
            cache: self,
            key: key.clone(),
            armed: true,
        };
        let value = Arc::new(build());
        guard.armed = false;

        let mut s = self.lock();
        if cacheable(&value) {
            if let Some(e) = s.entries.iter_mut().find(|e| e.key == key) {
                e.slot = Slot::Ready(value.clone());
            }
        } else {
            s.entries.retain(|e| e.key != key);
        }
        drop(s);
        self.ready.notify_all();
        value
    }

    /// Evicts the least-recently-used *ready* entry while at capacity.
    /// In-flight builds are never evicted (their waiters hold no
    /// reference yet).
    fn evict_if_full(&self, s: &mut MutexGuard<'_, CacheState<K, V>>) {
        while s.entries.len() >= self.capacity {
            let victim = s
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| matches!(e.slot, Slot::Ready(_)))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    s.entries.remove(i);
                    self.metrics.evictions.incr();
                }
                // Every entry is Building: allow a temporary overshoot
                // (bounded by the job pool's worker count).
                None => break,
            }
        }
    }
}

struct BuildGuard<'a, K: Clone + Eq, V> {
    cache: &'a FlightCache<K, V>,
    key: K,
    armed: bool,
}

impl<K: Clone + Eq, V> Drop for BuildGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut s = self.cache.lock();
        s.entries.retain(|e| e.key != self.key);
        drop(s);
        self.cache.ready.notify_all();
    }
}

// ---------------------------------------------------------------------
// Design cache
// ---------------------------------------------------------------------

/// Cache key: the exact bits of the scale plus the generator seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheKey {
    scale_bits: u64,
    seed: u64,
}

impl CacheKey {
    /// Key for a `(scale, seed)` pair.
    pub fn new(scale: f64, seed: u64) -> Self {
        CacheKey {
            scale_bits: scale.to_bits(),
            seed,
        }
    }
}

/// The process-wide design cache (see the module docs).
#[derive(Debug)]
pub struct DesignCache {
    inner: FlightCache<CacheKey, CaseStudy>,
}

impl DesignCache {
    /// A cache holding at most `capacity` built designs (clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> Self {
        let inner = FlightCache::new(
            capacity,
            CacheMetrics::new(
                "serve.cache.hits",
                "serve.cache.misses",
                "serve.cache.waits",
                "serve.cache.evictions",
            ),
        );
        scap_obs::gauge("serve.cache.capacity").set(inner.capacity() as u64);
        DesignCache { inner }
    }

    /// Number of resident (fully built) designs.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no design is resident.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Returns the design for `(scale, seed)`, building it at most once
    /// regardless of how many threads ask concurrently.
    ///
    /// `scale` must already be validated to `[MIN_SCALE, 1]` (see
    /// [`scap::soc::MIN_SCALE`]) — the underlying generator panics
    /// outside that range.
    pub fn get_or_build(&self, scale: f64, seed: u64) -> Arc<CaseStudy> {
        self.inner.get_or_build(CacheKey::new(scale, seed), || {
            let _span = scap_obs::span!("serve.design_build");
            scap_obs::counter!("serve.design_builds").incr();
            CaseStudy::with_seed(scale, seed)
        })
    }
}

// ---------------------------------------------------------------------
// Response cache
// ---------------------------------------------------------------------

/// LRU over rendered 200 responses, keyed by the canonical parameter
/// string each handler's params expose (see
/// [`crate::handlers::DesignParams::cache_key`] and siblings). Error
/// responses are never admitted. Capacity is `--cache-cap`.
#[derive(Debug)]
pub struct ResponseCache {
    inner: FlightCache<String, Response>,
}

impl ResponseCache {
    /// A cache holding at most `capacity` rendered responses (clamped
    /// to at least 1).
    pub fn new(capacity: usize) -> Self {
        let inner = FlightCache::new(
            capacity,
            CacheMetrics::new(
                "serve.respcache.hits",
                "serve.respcache.misses",
                "serve.respcache.waits",
                "serve.respcache.evictions",
            ),
        );
        scap_obs::gauge("serve.respcache.capacity").set(inner.capacity() as u64);
        ResponseCache { inner }
    }

    /// Number of resident responses.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no response is resident.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Returns the response for `key`, computing it (single-flight) on
    /// a miss. Only 200s are stored; anything else passes through
    /// uncached.
    pub fn get_or_respond(&self, key: String, build: impl FnOnce() -> Response) -> Response {
        let arc = self
            .inner
            .get_or_build_filtered(key, build, |r| r.status == 200);
        (*arc).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tiny scale: each build is well under a second.
    const SCALE: f64 = 0.003;

    /// Serializes the module's tests: the build counter is process-wide,
    /// so concurrent cache tests would pollute each other's deltas.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let _guard = serial();
        let cache = DesignCache::new(2);
        let a = cache.get_or_build(SCALE, 1);
        let b = cache.get_or_build(SCALE, 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_build_distinct_designs() {
        let _guard = serial();
        let cache = DesignCache::new(4);
        let a = cache.get_or_build(SCALE, 1);
        let b = cache.get_or_build(SCALE, 2);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_eviction_prefers_the_stalest_entry() {
        let _guard = serial();
        let cache = DesignCache::new(2);
        let a = cache.get_or_build(SCALE, 1);
        let _b = cache.get_or_build(SCALE, 2);
        // Touch seed 1 so seed 2 is the LRU victim.
        let a2 = cache.get_or_build(SCALE, 1);
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = cache.get_or_build(SCALE, 3);
        assert_eq!(cache.len(), 2);
        // Seed 1 must still be resident (same Arc), seed 2 evicted.
        let a3 = cache.get_or_build(SCALE, 1);
        assert!(Arc::ptr_eq(&a, &a3));
    }

    #[test]
    fn concurrent_misses_build_once() {
        let _guard = serial();
        scap_obs::set_enabled(true);
        let cache = Arc::new(DesignCache::new(2));
        let seed = 0xC0FFEE; // unique to this test: counters are global
        let before = scap_obs::snapshot()
            .counter("serve.design_builds")
            .unwrap_or(0);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || cache.get_or_build(SCALE, seed))
            })
            .collect();
        let designs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for d in &designs[1..] {
            assert!(Arc::ptr_eq(&designs[0], d));
        }
        let after = scap_obs::snapshot()
            .counter("serve.design_builds")
            .unwrap_or(0);
        assert_eq!(after - before, 1, "single-flight must build exactly once");
    }

    #[test]
    fn panicking_builder_does_not_poison_the_cache() {
        let _guard = serial();
        let cache = Arc::new(DesignCache::new(2));
        // Scale 0 violates the generator's contract; the build panics
        // outside the lock, and BuildGuard poisons the mutex while
        // cleaning up its Building entry during the unwind.
        let c = Arc::clone(&cache);
        let joined = std::thread::Builder::new()
            .name("panicking-builder".into())
            .spawn(move || c.get_or_build(0.0, 7))
            .unwrap()
            .join();
        assert!(joined.is_err(), "invalid scale must panic the builder");
        // Every entry point must recover instead of propagating the
        // poison: the aborted build left no entry behind, and a fresh
        // build on the same cache succeeds.
        assert_eq!(cache.len(), 0);
        let a = cache.get_or_build(SCALE, 7);
        let b = cache.get_or_build(SCALE, 7);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn constructing_the_caches_registers_their_counter_families() {
        let _guard = serial();
        scap_obs::set_enabled(true);
        let _design = DesignCache::new(3);
        let _resp = ResponseCache::new(5);
        let snap = scap_obs::snapshot();
        for name in [
            "serve.cache.hits",
            "serve.cache.misses",
            "serve.cache.waits",
            "serve.cache.evictions",
            "serve.respcache.hits",
            "serve.respcache.misses",
            "serve.respcache.waits",
            "serve.respcache.evictions",
        ] {
            assert!(
                snap.counter(name).is_some(),
                "{name} must be registered at construction"
            );
        }
        assert_eq!(snap.gauge("serve.cache.capacity"), Some(3));
        assert_eq!(snap.gauge("serve.respcache.capacity"), Some(5));
    }

    #[test]
    fn response_cache_serves_hits_and_never_stores_errors() {
        let _guard = serial();
        let cache = ResponseCache::new(2);
        let mut builds = 0;
        for _ in 0..3 {
            let r = cache.get_or_respond("design|k1".to_owned(), || {
                builds += 1;
                Response::json(200, "{\"ok\":true}")
            });
            assert_eq!(r.status, 200);
        }
        assert_eq!(builds, 1, "two hits after the first build");
        assert_eq!(cache.len(), 1);

        // Errors pass through uncached: every lookup rebuilds.
        let mut error_builds = 0;
        for _ in 0..3 {
            let r = cache.get_or_respond("design|bad".to_owned(), || {
                error_builds += 1;
                Response::error(400, "no such block")
            });
            assert_eq!(r.status, 400);
        }
        assert_eq!(error_builds, 3, "non-200s are never admitted");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn response_cache_evicts_lru_and_counts_it() {
        let _guard = serial();
        scap_obs::set_enabled(true);
        let before = scap_obs::snapshot()
            .counter("serve.respcache.evictions")
            .unwrap_or(0);
        let cache = ResponseCache::new(2);
        for key in ["a", "b", "c"] {
            cache.get_or_respond(key.to_owned(), || Response::json(200, "{}"));
        }
        assert_eq!(cache.len(), 2);
        let after = scap_obs::snapshot()
            .counter("serve.respcache.evictions")
            .unwrap_or(0);
        assert_eq!(after - before, 1, "third insert evicts the LRU entry");
        // "a" was the victim; "b" and "c" are still hits.
        let mut rebuilt = 0;
        cache.get_or_respond("b".to_owned(), || {
            rebuilt += 1;
            Response::json(200, "{}")
        });
        cache.get_or_respond("c".to_owned(), || {
            rebuilt += 1;
            Response::json(200, "{}")
        });
        assert_eq!(rebuilt, 0);
    }
}
