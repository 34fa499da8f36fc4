//! Zero-dependency structured metrics and tracing.
//!
//! The SCAP pipeline's wall-clock numbers (`BENCH_evaluation.json`) say
//! *where* the time goes only at stage granularity; this crate collects
//! the counters underneath — grid solves, fault-sim detections,
//! patterns screened, work-stealing chunk claims — so a slow stage can
//! be attributed to its actual kernel. Like `scap-exec` it is
//! std-only (the build environment is offline; see `vendor/`).
//!
//! # Model
//!
//! Four metric kinds, all process-wide, interned by name in a global
//! registry and updated with relaxed atomics:
//!
//! * [`Counter`] — monotonic `u64` (events, iterations, items),
//! * [`Gauge`] — last/max-written `u64` (effective thread count,
//!   per-worker item peaks),
//! * [`FloatGauge`] — last/max-written `f64` values,
//! * [`SpanStats`] — call count + total wall-clock of a scoped region,
//!   fed by the RAII [`Span`] guard.
//!
//! Call sites cache the interned handle in a site-local `OnceLock` via
//! the [`counter!`], [`gauge!`], [`float_gauge!`] and [`span!`] macros,
//! so the steady-state cost of a disabled metric is one atomic load and
//! a predictable branch — unmeasurable next to any kernel worth
//! instrumenting.
//!
//! # Enabling
//!
//! Collection is **off by default**. Turn it on with [`set_enabled`].
//!
//! # Reading
//!
//! [`snapshot`] returns a point-in-time copy of every registered metric,
//! sorted by name; [`Snapshot::counter_deltas`] and
//! [`Snapshot::span_deltas`] subtract an earlier snapshot for per-stage
//! attribution (what `evaluation.rs` writes into
//! `BENCH_evaluation.json`); [`render`] formats a snapshot as the
//! human-readable table behind `scap profile --metrics`.
//!
//! # Determinism
//!
//! Metrics never feed back into computation: enabling collection cannot
//! change any result, only record what happened. Counter updates are
//! relaxed atomics, so values are exact under any interleaving (they are
//! sums), while gauges hold the last/max write.
//!
//! # Name registry
//!
//! Names are `layer.metric` (dots separate, snake_case within); the
//! prefix is the crate/subsystem that owns the call site. The load-bearing
//! families — the ones `BENCH_evaluation.json`, `scripts/check.sh` and the
//! serve `/metrics` endpoint assert on, and which therefore must not be
//! renamed casually:
//!
//! * `sim.*` — fault-simulation kernel, all counted by the one fault
//!   simulator with dropping (`scap_sim::FaultGrader`).
//!   `sim.fault_sim_checks` counts the (class representative, block)
//!   pairs actually simulated — a class stops at the first block of a
//!   round that detects it — and is the denominator of the
//!   `fault_sim_checks_per_sec` throughput `evaluation.rs` derives per
//!   stage; `sim.faults_skipped_unobservable` counts the unobservable
//!   classes the static prune never simulates, once per grader;
//!   `sim.faults_collapsed` counts faults folded into an equivalence-class
//!   representative; `sim.fault_detections` counts classes detected.
//!   `sim.block_evals` counts the 64-lane pattern blocks simulated (each
//!   against many faults) and `sim.patterns_per_block` the real patterns
//!   across those blocks — `patterns_per_block / (64 * block_evals)` is
//!   the lane utilization `scap profile --metrics` reports. The event-driven
//!   timing kernel counts `sim.event_runs`, one per simulated toggle
//!   trace (the external benchmark multiplies its per-trace cost by
//!   it), and `sim.toggle_events`, the transitions those traces hold;
//!   the `sim.event` span times each run.
//! * `grade.*` — post-hoc pattern grading only (`grade_patterns`, which
//!   compaction runs on the reversed set, and the noise-aware flow's
//!   step grading; ATPG drop simulation counts only `sim.*`).
//!   `grade.rounds` counts rounds of up to one block per worker,
//!   `grade.fault_shards` the fault-parallel shards they dispatched, and
//!   `grade.faults_dropped`/`grade.fault_sim_targets` size the shrinking
//!   remaining-fault working set across rounds. The `grade.run` span
//!   times each grading pass.
//! * `atpg.*` — spans around the PODEM primary/secondary passes, the
//!   fill of each closed pattern (`atpg.fill`) and its drop simulation
//!   (`atpg.drop_sim`). Like every span, `atpg.fill` and `grade.run`
//!   are inert while collection is off. At two or more threads the
//!   generator's speculator threads run the primary searches:
//!   `atpg.speculated` counts the searches they finished and
//!   `atpg.speculation_used` the verdicts the targeting loop took (the
//!   difference is wasted work: faults drop simulation detected first),
//!   and the `atpg.commit_wait` span times the loop blocked on a verdict
//!   not stored yet. At that width the `atpg.podem_primary` and `sat.*`
//!   totals include the wasted searches and depend on timing; at one
//!   thread all of these are deterministic and the three speculation
//!   metrics stay unregistered. `atpg.sat_rescued_tests` and
//!   `atpg.reclassified_untestable` count committed verdicts only, so
//!   they do not depend on the width.
//! * `cg.*` — `cg.solves` counts power-grid solves, each a forward and
//!   a back substitution through the grid's Cholesky factor. The `cg`
//!   prefix is historical. It stays because the external benchmark
//!   (`perfbench/`) scales its per-layer `power.irdrop_s` by this
//!   counter; rename it to `grid.solves` only together with that
//!   benchmark.
//! * `power.*` — spans around the grid factor (`power.grid_factor`,
//!   once per grid built) and each grid solve (`power.grid_solve`), so
//!   factor time and solve time split.
//! * `exec.*` — the work-stealing executor (`exec.effective_threads` is
//!   the high-water worker count `evaluation.rs` reports).
//! * `sta.*` — noise-aware static timing analysis. `sta.runs` /
//!   `sta.derated_runs` count nominal and IR-drop-derated slack passes;
//!   `sta.endpoints` and `sta.negative_slack_endpoints` size them;
//!   `sta.risk.{critical,high,moderate,low}` is the fault risk-tier
//!   histogram ATPG prioritization consumes; `sta.screen.patterns` /
//!   `sta.screen.invalidated` count patterns pushed through the derated
//!   launch-to-capture timing screen and those exceeding the cycle.
//! * `compact.*`, `screen.*`, `flow.*`, `ablation.*`, `lint.*`,
//!   `serve.*` — per-layer event counts named after what they count.
//! * `cluster.*` — the crash-isolated serving tier (`scap-cluster`).
//!   `cluster.route.requests` / `.handoffs` count proxied requests and
//!   those whose owner was dead (served by the next live slot);
//!   `cluster.failover.reroutes` / `.shed_retries` / `.recovered`
//!   count transport-error reroutes, worker 5xx retries and requests a
//!   non-primary ultimately answered; `cluster.probe.ok` / `.failures`
//!   / `.marked_dead` / `.recovered` track the health prober, and
//!   `cluster.worker.spawned` / `.exited` / `.restarts` the process
//!   supervisor. `cluster.workers.total` / `.alive` are gauges the
//!   aggregated `/metrics` snapshot echoes.

pub mod json;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether collection is currently enabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Metric types
// ---------------------------------------------------------------------

/// A monotonic event counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` (no-op while collection is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if is_enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 (no-op while collection is disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The interned metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// An integer gauge (last or max written value).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
}

impl Gauge {
    /// Stores `v` (no-op while collection is disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if is_enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if larger (no-op while disabled).
    #[inline]
    pub fn set_max(&self, v: u64) {
        if is_enabled() {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The interned metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A floating-point gauge (last or max written value), stored as bits.
#[derive(Debug)]
pub struct FloatGauge {
    name: &'static str,
    bits: AtomicU64,
}

impl FloatGauge {
    /// Stores `v` (no-op while collection is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if is_enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if larger (no-op while disabled; NaN is
    /// ignored).
    pub fn set_max(&self, v: f64) {
        if !is_enabled() || v.is_nan() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        while f64::from_bits(cur) < v {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// The interned metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Accumulated statistics of one named span: call count and total
/// wall-clock.
#[derive(Debug)]
pub struct SpanStats {
    name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl SpanStats {
    /// Records one completed span of `wall_ns`.
    pub fn record(&self, wall_ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(wall_ns, Ordering::Relaxed);
    }

    /// `(count, total nanoseconds)`.
    pub fn get(&self) -> (u64, u64) {
        (
            self.count.load(Ordering::Relaxed),
            self.total_ns.load(Ordering::Relaxed),
        )
    }

    /// The interned span name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// RAII timer for one [`SpanStats`] region. While collection is disabled
/// the guard is inert (no clock read).
#[must_use = "a span measures until it is dropped"]
#[derive(Debug)]
pub struct Span {
    active: Option<(&'static SpanStats, Instant)>,
}

impl Span {
    /// Starts timing `stats` (inert while collection is disabled).
    pub fn enter(stats: &'static SpanStats) -> Span {
        Span {
            active: is_enabled().then(|| (stats, Instant::now())),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((stats, start)) = self.active.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            stats.record(ns);
        }
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    gauges: Mutex<Vec<&'static Gauge>>,
    float_gauges: Mutex<Vec<&'static FloatGauge>>,
    spans: Mutex<Vec<&'static SpanStats>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

macro_rules! intern_fn {
    ($fn_name:ident, $ty:ident, $field:ident, $make:expr) => {
        /// Returns the process-wide metric of this name, creating and
        /// registering it on first use. Call sites should cache the
        /// handle (see the corresponding macro).
        pub fn $fn_name(name: &'static str) -> &'static $ty {
            let mut list = registry().$field.lock().expect("metrics registry poisoned");
            if let Some(found) = list.iter().find(|m| m.name == name) {
                return found;
            }
            let made: &'static $ty = Box::leak(Box::new($make(name)));
            list.push(made);
            made
        }
    };
}

intern_fn!(counter, Counter, counters, |name| Counter {
    name,
    value: AtomicU64::new(0),
});
intern_fn!(gauge, Gauge, gauges, |name| Gauge {
    name,
    value: AtomicU64::new(0),
});
intern_fn!(float_gauge, FloatGauge, float_gauges, |name| FloatGauge {
    name,
    bits: AtomicU64::new(0),
});
intern_fn!(span_stats, SpanStats, spans, |name| SpanStats {
    name,
    count: AtomicU64::new(0),
    total_ns: AtomicU64::new(0),
});

/// Interns a [`Counter`] once per call site and returns the handle.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::counter($name))
    }};
}

/// Interns a [`Gauge`] once per call site and returns the handle.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::gauge($name))
    }};
}

/// Interns a [`FloatGauge`] once per call site and returns the handle.
#[macro_export]
macro_rules! float_gauge {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::FloatGauge> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::float_gauge($name))
    }};
}

/// Opens a [`Span`] over an interned [`SpanStats`]; bind the result to
/// keep it alive for the region being timed:
///
/// ```
/// let _span = scap_obs::span!("grade.round");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::SpanStats> =
            ::std::sync::OnceLock::new();
        $crate::Span::enter(SITE.get_or_init(|| $crate::span_stats($name)))
    }};
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

/// `(count, total_ns)` of one span name at snapshot time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Completed span count.
    pub count: u64,
    /// Total wall-clock, nanoseconds.
    pub total_ns: u64,
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(&'static str, u64)>,
    /// Integer gauge values.
    pub gauges: Vec<(&'static str, u64)>,
    /// Float gauge values.
    pub float_gauges: Vec<(&'static str, f64)>,
    /// Span statistics.
    pub spans: Vec<(&'static str, SpanSnapshot)>,
}

impl Snapshot {
    /// Value of one counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Value of one integer gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Counters that advanced since `earlier`, as `(name, delta)`;
    /// counters absent from `earlier` count from zero. Zero deltas are
    /// omitted.
    pub fn counter_deltas(&self, earlier: &Snapshot) -> Vec<(&'static str, u64)> {
        self.counters
            .iter()
            .filter_map(|&(name, now)| {
                let before = earlier.counter(name).unwrap_or(0);
                let delta = now.saturating_sub(before);
                (delta > 0).then_some((name, delta))
            })
            .collect()
    }

    /// Spans that completed since `earlier`, as `(name, delta)` of count
    /// and total time; spans absent from `earlier` count from zero.
    /// Spans with no new completion are omitted.
    pub fn span_deltas(&self, earlier: &Snapshot) -> Vec<(&'static str, SpanSnapshot)> {
        self.spans
            .iter()
            .filter_map(|&(name, now)| {
                let before = earlier
                    .spans
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(SpanSnapshot::default(), |&(_, s)| s);
                let count = now.count.saturating_sub(before.count);
                (count > 0).then_some((
                    name,
                    SpanSnapshot {
                        count,
                        total_ns: now.total_ns.saturating_sub(before.total_ns),
                    },
                ))
            })
            .collect()
    }
}

/// Captures every registered metric, sorted by name.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let mut counters: Vec<_> = reg
        .counters
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|c| (c.name(), c.get()))
        .collect();
    let mut gauges: Vec<_> = reg
        .gauges
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|g| (g.name(), g.get()))
        .collect();
    let mut float_gauges: Vec<_> = reg
        .float_gauges
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|g| (g.name(), g.get()))
        .collect();
    let mut spans: Vec<_> = reg
        .spans
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|s| {
            let (count, total_ns) = s.get();
            (s.name(), SpanSnapshot { count, total_ns })
        })
        .collect();
    counters.sort_by_key(|&(n, _)| n);
    gauges.sort_by_key(|&(n, _)| n);
    float_gauges.sort_by_key(|&(n, _)| n);
    spans.sort_by_key(|&(n, _)| n);
    Snapshot {
        counters,
        gauges,
        float_gauges,
        spans,
    }
}

/// Zeroes every registered metric (counters, gauges and spans). Intended
/// for test isolation and fresh measurement windows; racing updates may
/// land on either side of the reset.
pub fn reset() {
    let reg = registry();
    for c in reg
        .counters
        .lock()
        .expect("metrics registry poisoned")
        .iter()
    {
        c.value.store(0, Ordering::Relaxed);
    }
    for g in reg.gauges.lock().expect("metrics registry poisoned").iter() {
        g.value.store(0, Ordering::Relaxed);
    }
    for g in reg
        .float_gauges
        .lock()
        .expect("metrics registry poisoned")
        .iter()
    {
        g.bits.store(0, Ordering::Relaxed);
    }
    for s in reg.spans.lock().expect("metrics registry poisoned").iter() {
        s.count.store(0, Ordering::Relaxed);
        s.total_ns.store(0, Ordering::Relaxed);
    }
}

/// Formats a snapshot as a human-readable table (the body of
/// `scap profile --metrics`). Zero-valued metrics are skipped.
pub fn render(snap: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let live_counters: Vec<_> = snap.counters.iter().filter(|&&(_, v)| v > 0).collect();
    if !live_counters.is_empty() {
        out.push_str("counters:\n");
        for &&(name, v) in &live_counters {
            let _ = writeln!(out, "  {name:<32} {v:>14}");
        }
    }
    let live_gauges: Vec<_> = snap.gauges.iter().filter(|&&(_, v)| v > 0).collect();
    if !live_gauges.is_empty() {
        out.push_str("gauges:\n");
        for &&(name, v) in &live_gauges {
            let _ = writeln!(out, "  {name:<32} {v:>14}");
        }
    }
    let live_floats: Vec<_> = snap
        .float_gauges
        .iter()
        .filter(|&&(_, v)| v != 0.0)
        .collect();
    if !live_floats.is_empty() {
        out.push_str("float gauges:\n");
        for &&(name, v) in &live_floats {
            let _ = writeln!(out, "  {name:<32} {v:>14.3e}");
        }
    }
    let live_spans: Vec<_> = snap.spans.iter().filter(|(_, s)| s.count > 0).collect();
    if !live_spans.is_empty() {
        out.push_str("spans:                                    count      total ms\n");
        for (name, s) in live_spans {
            let _ = writeln!(
                out,
                "  {name:<32} {:>12} {:>13.3}",
                s.count,
                s.total_ns as f64 / 1e6
            );
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded — was collection enabled?)\n");
    }
    out
}

/// Renders a snapshot as one compact JSON object (the body of the
/// server's `GET /metrics`). Schema:
///
/// ```json
/// {"counters": {"exec.items": 12},
///  "gauges": {"exec.effective_threads": 3},
///  "float_gauges": {"demo.ratio": 0.5},
///  "spans": {"grade.round": {"count": 4, "total_ns": 1200}}}
/// ```
///
/// Zero-valued metrics are included: the full instrumentation surface
/// is part of the contract, not just what happened to fire.
pub fn render_json(snap: &Snapshot) -> String {
    let mut counters = json::Obj::new();
    for &(name, v) in &snap.counters {
        counters.u64(name, v);
    }
    let mut gauges = json::Obj::new();
    for &(name, v) in &snap.gauges {
        gauges.u64(name, v);
    }
    let mut float_gauges = json::Obj::new();
    for &(name, v) in &snap.float_gauges {
        float_gauges.f64(name, v);
    }
    let mut spans = json::Obj::new();
    for &(name, s) in &snap.spans {
        let mut span = json::Obj::new();
        span.u64("count", s.count).u64("total_ns", s.total_ns);
        spans.raw(name, &span.finish());
    }
    let mut root = json::Obj::new();
    root.raw("counters", &counters.finish())
        .raw("gauges", &gauges.finish())
        .raw("float_gauges", &float_gauges.finish())
        .raw("spans", &spans.finish());
    root.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the global enabled flag.
    fn enabled_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_accumulate_when_enabled() {
        let _guard = enabled_lock();
        set_enabled(true);
        let c = counter("test.counter_accumulates");
        let before = c.get();
        c.add(3);
        c.incr();
        assert_eq!(c.get(), before + 4);
        set_enabled(false);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _guard = enabled_lock();
        set_enabled(false);
        let c = counter("test.disabled_counter");
        let g = gauge("test.disabled_gauge");
        let f = float_gauge("test.disabled_float");
        let before = c.get();
        c.add(10);
        g.set(7);
        g.set_max(9);
        f.set(1.5);
        f.set_max(2.5);
        assert_eq!(c.get(), before);
        assert_eq!(g.get(), 0);
        assert_eq!(f.get(), 0.0);
        // Spans opened while disabled are inert.
        {
            let _span = span!("test.disabled_span");
        }
        let (count, _) = span_stats("test.disabled_span").get();
        assert_eq!(count, 0);
    }

    #[test]
    fn interning_returns_the_same_metric() {
        let a = counter("test.interned") as *const Counter;
        let b = counter("test.interned") as *const Counter;
        assert_eq!(a, b);
        assert_ne!(a, counter("test.interned_other") as *const Counter);
    }

    #[test]
    fn gauge_set_max_is_monotone() {
        let _guard = enabled_lock();
        set_enabled(true);
        let g = gauge("test.gauge_max");
        g.set(0);
        g.set_max(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        let f = float_gauge("test.float_max");
        f.set(0.0);
        f.set_max(2.5);
        f.set_max(1.0);
        f.set_max(f64::NAN); // ignored
        assert_eq!(f.get(), 2.5);
        set_enabled(false);
    }

    #[test]
    fn spans_accumulate_and_snapshot_deltas_work() {
        let _guard = enabled_lock();
        set_enabled(true);
        let before = snapshot();
        counter("test.delta").add(2);
        {
            let _span = span!("test.span");
            std::hint::black_box(0u64);
        }
        let after = snapshot();
        let deltas = after.counter_deltas(&before);
        assert!(deltas.iter().any(|&(n, d)| n == "test.delta" && d >= 2));
        let (count, _total) = span_stats("test.span").get();
        assert!(count >= 1);
        let spans = after.span_deltas(&before);
        assert!(spans.iter().any(|&(n, s)| n == "test.span" && s.count >= 1));
        assert!(spans.iter().all(|(_, s)| s.count > 0));
        // Snapshot is sorted by name.
        for w in after.counters.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        set_enabled(false);
    }

    #[test]
    fn render_json_covers_every_metric_kind() {
        let _guard = enabled_lock();
        set_enabled(true);
        counter("test.json_counter").incr();
        gauge("test.json_gauge").set(4);
        float_gauge("test.json_float").set(0.5);
        {
            let _span = span!("test.json_span");
        }
        let text = render_json(&snapshot());
        for needle in [
            "\"counters\":{",
            "\"test.json_counter\":",
            "\"test.json_gauge\":4",
            "\"test.json_float\":0.5",
            "\"test.json_span\":{\"count\":",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
        set_enabled(false);
    }

    #[test]
    fn render_lists_live_metrics_only() {
        let _guard = enabled_lock();
        set_enabled(true);
        counter("test.render_live").incr();
        let text = render(&snapshot());
        assert!(text.contains("test.render_live"));
        set_enabled(false);
        let empty = render(&Snapshot::default());
        assert!(empty.contains("no metrics recorded"));
    }
}
