//! Deterministic, zero-dependency parallel execution layer.
//!
//! The SCAP hot loops — per-pattern power profiling, per-pattern dynamic
//! IR-drop solves, and batch fault simulation — are embarrassingly
//! parallel, but this workspace deliberately carries no thread-pool
//! dependency (the build environment is offline; see `vendor/`). This
//! crate provides the small slice of a thread pool those loops actually
//! need, built on [`std::thread::scope`]:
//!
//! * [`Executor::parallel_map`] — order-stable map over a slice. Results
//!   land at the same index the input had, so output is **bit-identical
//!   to the serial loop** regardless of thread count or scheduling.
//! * [`Executor::parallel_map_with`] — the same, with one mutable scratch
//!   state per worker (reusable solver/simulation buffers).
//!
//! # Determinism contract
//!
//! `parallel_map(items, f)[i] == f(&items[i])` for every `i`, provided
//! `f` is a pure function of its argument (and of the per-worker state's
//! initial value, for [`Executor::parallel_map_with`]). Work is handed
//! out in contiguous chunks via an atomic cursor, and every result is
//! written to its input's slot; no merge order, reduction order, or
//! floating-point reassociation depends on the schedule. With one worker
//! the implementation degenerates to a plain serial `for` loop on the
//! calling thread.
//!
//! # Thread-count selection
//!
//! [`Executor::new`] picks the worker count from, in order:
//! 1. the process-wide override installed by [`set_default_threads`]
//!    (the CLI's `--threads N`),
//! 2. the `SCAP_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! [`set_default_threads`] is **last-write-wins**: the CLI parses
//! `--threads` at the top of `main`, after any library or test-harness
//! initialization, so the user's flag always takes effect even when a
//! library installed a default first. (It used to be first-write-wins,
//! which silently turned the CLI flag into a no-op whenever a library
//! call got in before argument parsing.)
//!
//! # Metrics
//!
//! When `scap-obs` collection is enabled, the executor records
//! `exec.parallel_maps`, `exec.items` and `exec.chunk_claims` counters
//! plus `exec.effective_threads` and `exec.worker_items_max` gauges
//! (high-water marks), so load imbalance and the *actual* worker count —
//! not the requested one — are visible in profiles.

pub mod queue;

pub use queue::{BoundedQueue, PushError};

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default worker count; 0 means "not installed".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Installs the process-wide default worker count used by
/// [`Executor::new`]. **Last write wins** — the CLI's `--threads`,
/// parsed at the top of `main`, overrides anything a library installed
/// earlier. Returns the previously installed value, or `None` if this is
/// the first install. `n` is clamped to at least 1.
pub fn set_default_threads(n: usize) -> Option<usize> {
    let prev = DEFAULT_THREADS.swap(n.max(1), Ordering::SeqCst);
    (prev != 0).then_some(prev)
}

/// The currently installed process-wide default, if any.
pub fn default_threads() -> Option<usize> {
    let n = DEFAULT_THREADS.load(Ordering::SeqCst);
    (n != 0).then_some(n)
}

/// Reads `SCAP_THREADS`, ignoring unset, empty, or unparsable values.
fn threads_from_env() -> Option<usize> {
    let raw = std::env::var("SCAP_THREADS").ok()?;
    let n: usize = raw.trim().parse().ok()?;
    (n >= 1).then_some(n)
}

/// A fixed-width worker pool. Cheap to construct (threads are scoped to
/// each call, not kept alive), so it is typically built on the fly.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// An executor with the configured default width (see the crate docs
    /// for the selection order).
    pub fn new() -> Self {
        let threads = default_threads()
            .or_else(threads_from_env)
            .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// An executor with exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// The worker count this executor uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, in parallel, preserving order: slot `i` of
    /// the result is `f(&items[i])`. Bit-identical to the serial loop for
    /// pure `f`.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.parallel_map_with(|| (), items, |(), item| f(item))
    }

    /// [`Executor::parallel_map`] with a per-worker scratch state: each
    /// worker calls `init` once, then threads its state through every item
    /// it processes. Results stay order-stable; determinism additionally
    /// requires that `f`'s output not depend on the state's history (use
    /// the state for buffer reuse, not for carrying values across items).
    pub fn parallel_map_with<S, T, R, I, F>(&self, init: I, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n.max(1));
        scap_obs::counter!("exec.parallel_maps").incr();
        scap_obs::counter!("exec.items").add(n as u64);
        scap_obs::gauge!("exec.effective_threads").set_max(workers as u64);
        if workers <= 1 {
            scap_obs::gauge!("exec.worker_items_max").set_max(n as u64);
            let mut state = init();
            return items.iter().map(|item| f(&mut state, item)).collect();
        }

        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        // Chunks are contiguous index ranges claimed from an atomic
        // cursor. Small enough to balance uneven per-item cost, large
        // enough to amortize the claim.
        let chunk = (n / (workers * 8)).max(1);
        let cursor = AtomicUsize::new(0);
        // Finished chunks land here tagged with their start index; the
        // merge below puts every value back at its input's slot, so the
        // output is independent of completion order. One short lock per
        // chunk (~8 chunks per worker), never held while `f` runs.
        let done: std::sync::Mutex<Vec<(usize, Vec<R>)>> =
            std::sync::Mutex::new(Vec::with_capacity(n.div_ceil(chunk)));
        let metrics_on = scap_obs::is_enabled();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut state = init();
                    let mut claims = 0u64;
                    let mut handled = 0u64;
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        claims += 1;
                        handled += (end - start) as u64;
                        let values: Vec<R> = items[start..end]
                            .iter()
                            .map(|item| f(&mut state, item))
                            .collect();
                        done.lock()
                            .expect("result sink poisoned")
                            .push((start, values));
                    }
                    if metrics_on {
                        scap_obs::counter!("exec.chunk_claims").add(claims);
                        scap_obs::gauge!("exec.worker_items_max").set_max(handled);
                    }
                });
            }
        });

        for (start, values) in done.into_inner().expect("result sink poisoned") {
            for (i, value) in values.into_iter().enumerate() {
                results[start + i] = Some(value);
            }
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every index claimed exactly once"))
            .collect()
    }
}

/// Splits `0..n` into at most `shards` contiguous near-equal ranges
/// (longer ranges first). Used to shard a work list across workers when
/// single items are too cheap to schedule individually — e.g. one fault
/// check. Deterministic for a given `(n, shards)`; callers that must be
/// bit-identical across thread counts need an order-independent
/// per-item merge (min/max/OR into per-item slots), not a
/// shard-boundary-dependent one.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 || shards == 0 {
        return Vec::new();
    }
    let k = shards.min(n);
    let base = n / k;
    let rem = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for s in 0..k {
        let len = base + usize::from(s < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Exponential backoff schedule: each [`Backoff::advance`] returns the
/// current delay and doubles it up to a cap. Used wherever a retry loop
/// must not hammer a failing resource — the cluster supervisor's worker
/// respawn is the canonical caller. Deterministic (no jitter): retry
/// *timing* never feeds into any computed result, and reproducible
/// schedules are easier to assert on.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    base: std::time::Duration,
    cap: std::time::Duration,
    cur: std::time::Duration,
}

impl Backoff {
    /// A schedule starting at `base` and doubling up to `cap` (both
    /// clamped to at least 1 ms so the schedule always advances).
    pub fn new(base: std::time::Duration, cap: std::time::Duration) -> Self {
        let floor = std::time::Duration::from_millis(1);
        let base = base.max(floor);
        Backoff {
            base,
            cap: cap.max(base),
            cur: base,
        }
    }

    /// The delay to wait now; doubles the next one (saturating at the
    /// cap).
    pub fn advance(&mut self) -> std::time::Duration {
        let d = self.cur;
        self.cur = self.cur.saturating_mul(2).min(self.cap);
        d
    }

    /// The delay [`Backoff::advance`] would return, without advancing.
    pub fn peek(&self) -> std::time::Duration {
        self.cur
    }

    /// Resets the schedule to its base delay — call after the resource
    /// has proven healthy again.
    pub fn reset(&mut self) {
        self.cur = self.base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        for threads in [1, 2, 3, 8, 64] {
            let items: Vec<u64> = (0..1000).collect();
            let exec = Executor::with_threads(threads);
            let out = exec.parallel_map(&items, |&x| x * x);
            let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, serial, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_map_handles_degenerate_sizes() {
        let exec = Executor::with_threads(4);
        assert_eq!(exec.parallel_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(exec.parallel_map(&[7u32], |&x| x + 1), vec![8]);
        assert_eq!(
            exec.parallel_map(&[1u32, 2], |&x| x * 10),
            vec![10, 20],
            "fewer items than workers"
        );
    }

    #[test]
    fn parallel_map_with_reuses_worker_state() {
        let exec = Executor::with_threads(4);
        let items: Vec<usize> = (0..500).collect();
        // The scratch buffer is reused across items; its *contents* never
        // leak into results, so output matches the pure map.
        let out = exec.parallel_map_with(
            || Vec::with_capacity(64),
            &items,
            |scratch: &mut Vec<usize>, &x| {
                scratch.clear();
                scratch.extend(0..x % 7);
                x + scratch.len()
            },
        );
        let serial: Vec<usize> = items.iter().map(|&x| x + x % 7).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn executor_clamps_to_one_thread() {
        assert_eq!(Executor::with_threads(0).threads(), 1);
        assert!(Executor::new().threads() >= 1);
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for shards in [1usize, 2, 3, 8, 1001] {
                let ranges = shard_ranges(n, shards);
                assert!(ranges.len() <= shards);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} shards={shards}");
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(!r.is_empty(), "no empty shards");
                    next = r.end;
                }
                if !ranges.is_empty() {
                    let (min, max) = ranges.iter().fold((usize::MAX, 0), |(lo, hi), r| {
                        (lo.min(r.len()), hi.max(r.len()))
                    });
                    assert!(max - min <= 1, "near-equal split");
                }
            }
        }
        assert!(shard_ranges(10, 0).is_empty());
    }

    #[test]
    fn backoff_doubles_to_cap_and_resets() {
        use std::time::Duration;
        let mut b = Backoff::new(Duration::from_millis(250), Duration::from_secs(2));
        assert_eq!(b.advance(), Duration::from_millis(250));
        assert_eq!(b.advance(), Duration::from_millis(500));
        assert_eq!(b.advance(), Duration::from_millis(1000));
        assert_eq!(b.advance(), Duration::from_millis(2000));
        assert_eq!(b.advance(), Duration::from_millis(2000), "saturates at cap");
        b.reset();
        assert_eq!(b.peek(), Duration::from_millis(250));
        // Degenerate inputs clamp instead of stalling at zero.
        let mut z = Backoff::new(Duration::ZERO, Duration::ZERO);
        assert_eq!(z.advance(), Duration::from_millis(1));
        assert_eq!(z.advance(), Duration::from_millis(1));
    }

    #[test]
    fn float_sums_are_bit_identical_across_widths() {
        // Each item's result is internally reassociation-free, so equality
        // is exact, not approximate.
        let items: Vec<f64> = (0..300).map(|i| (i as f64).sin()).collect();
        let work = |&x: &f64| (0..100).fold(x, |acc, i| acc + (i as f64 * x).cos());
        let serial: Vec<f64> = items.iter().map(work).collect();
        for threads in [2, 5, 16] {
            let out = Executor::with_threads(threads).parallel_map(&items, work);
            assert!(
                out.iter()
                    .zip(&serial)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads = {threads}"
            );
        }
    }
}
