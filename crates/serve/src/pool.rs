//! Bounded job pool: fixed workers, fixed-depth queue, per-request
//! deadlines, and load shedding.
//!
//! Layered on [`scap_exec::BoundedQueue`]: admission control is the
//! queue's non-blocking `try_push` — when the queue is full the job is
//! refused immediately ([`Busy`]) and the server answers `503` with
//! `Retry-After` instead of buffering unbounded work. A caller that
//! stops waiting ([`JobHandle::wait_timeout`] elapsing) abandons its
//! job: if the job has not started yet the workers skip it entirely;
//! if it is mid-run its result is dropped on completion. A job that
//! panics is caught on the worker thread: its caller gets
//! [`JobError::Panicked`] at once and the worker goes on to the next
//! job, so one bad request cannot shrink the pool. Shutdown is
//! graceful by construction — closing the queue lets workers drain
//! everything already admitted before exiting.

use scap_exec::{BoundedQueue, PushError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool refused a job because the queue is at capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Busy;

/// Why a submitted job produced no value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The caller's timeout elapsed first; the job was abandoned.
    TimedOut,
    /// The job panicked; the worker caught the unwind and lives on.
    Panicked,
}

struct HandleCell<T> {
    result: Mutex<Option<Result<T, JobError>>>,
    done: Condvar,
    abandoned: AtomicBool,
}

impl<T> HandleCell<T> {
    /// Locks the result slot, recovering from poison the way
    /// `DesignCache` does: the slot is only ever replaced whole, so a
    /// poisoned guard never exposes a half-written value.
    fn lock(&self) -> MutexGuard<'_, Option<Result<T, JobError>>> {
        self.result.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The submitting side's receipt for one job.
pub struct JobHandle<T> {
    cell: Arc<HandleCell<T>>,
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("abandoned", &self.cell.abandoned.load(Ordering::Relaxed))
            .finish()
    }
}

impl<T> JobHandle<T> {
    /// Blocks until the job finishes or `timeout` elapses. On timeout
    /// the job is marked abandoned — a still-queued job will be skipped,
    /// a running one finishes but its result is dropped — and
    /// [`JobError::TimedOut`] is returned. A job that panicked returns
    /// [`JobError::Panicked`] as soon as the worker catches it.
    pub fn wait_timeout(self, timeout: Duration) -> Result<T, JobError> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.cell.lock();
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            let now = Instant::now();
            if now >= deadline {
                self.cell.abandoned.store(true, Ordering::Release);
                scap_obs::counter!("serve.jobs.timed_out").incr();
                return Err(JobError::TimedOut);
            }
            // The loop re-checks the slot even on timeout: the worker
            // may have finished right at the boundary.
            slot = match self.cell.done.wait_timeout(slot, deadline - now) {
                Ok((next, _)) => next,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

/// A fixed set of worker threads consuming a bounded queue (see the
/// module docs).
pub struct JobPool {
    queue: Arc<BoundedQueue<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for JobPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPool")
            .field("workers", &self.workers.len())
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl JobPool {
    /// A pool of `workers` threads over a queue admitting `queue_depth`
    /// jobs (both clamped to at least 1).
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(queue_depth));
        let workers = (0..workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("scap-serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            scap_obs::gauge!("serve.queue_depth").set(queue.len() as u64);
                            scap_obs::counter!("serve.jobs.started").incr();
                            job();
                        }
                    })
                    .expect("spawning pool worker")
            })
            .collect();
        JobPool { queue, workers }
    }

    /// Jobs currently queued (not yet started).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Submits `f` without blocking. Returns [`Busy`] when the queue is
    /// full or the pool is shutting down — the caller sheds the load.
    pub fn try_submit<T, F>(&self, f: F) -> Result<JobHandle<T>, Busy>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let cell = Arc::new(HandleCell {
            result: Mutex::new(None),
            done: Condvar::new(),
            abandoned: AtomicBool::new(false),
        });
        let worker_cell = Arc::clone(&cell);
        let job: Job = Box::new(move || {
            if worker_cell.abandoned.load(Ordering::Acquire) {
                scap_obs::counter!("serve.jobs.abandoned").incr();
                return;
            }
            let outcome = catch_unwind(AssertUnwindSafe(f)).map_err(|_| JobError::Panicked);
            if outcome.is_ok() {
                scap_obs::counter!("serve.jobs.completed").incr();
            } else {
                scap_obs::counter!("serve.jobs.panicked").incr();
            }
            *worker_cell.lock() = Some(outcome);
            worker_cell.done.notify_all();
        });
        match self.queue.try_push(job) {
            Ok(()) => {
                scap_obs::counter!("serve.jobs.submitted").incr();
                scap_obs::gauge!("serve.queue_depth").set_max(self.queue.len() as u64);
                Ok(JobHandle { cell })
            }
            Err(PushError::Full(_)) | Err(PushError::Closed(_)) => {
                scap_obs::counter!("serve.jobs.rejected").incr();
                Err(Busy)
            }
        }
    }

    /// Graceful shutdown: refuse new jobs, drain everything already
    /// queued, join the workers.
    pub fn shutdown(self) {
        self.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submitted_jobs_complete_with_results() {
        let pool = JobPool::new(2, 8);
        let handles: Vec<_> = (0..6u64)
            .map(|i| pool.try_submit(move || i * i).unwrap())
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.wait_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25]);
        pool.shutdown();
    }

    #[test]
    fn full_queue_refuses_without_blocking() {
        let pool = JobPool::new(1, 1);
        // One job occupies the worker, one fills the queue.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g1 = Arc::clone(&gate);
        let running = pool
            .try_submit(move || {
                let (lock, cv) = &*g1;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
            .unwrap();
        // Give the worker a moment to pick the first job up.
        std::thread::sleep(Duration::from_millis(50));
        let queued = pool.try_submit(|| ()).unwrap();
        let t = Instant::now();
        assert_eq!(pool.try_submit(|| ()).unwrap_err(), Busy);
        assert!(t.elapsed() < Duration::from_millis(100), "must not block");
        // Open the gate; everything drains.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        assert!(running.wait_timeout(Duration::from_secs(5)).is_ok());
        assert!(queued.wait_timeout(Duration::from_secs(5)).is_ok());
        pool.shutdown();
    }

    #[test]
    fn timed_out_job_is_abandoned() {
        let pool = JobPool::new(1, 4);
        // Occupy the worker long enough for the second job to time out
        // while still queued.
        let _slow = pool
            .try_submit(|| std::thread::sleep(Duration::from_millis(300)))
            .unwrap();
        let fast = pool.try_submit(|| 42u32).unwrap();
        assert_eq!(
            fast.wait_timeout(Duration::from_millis(50)),
            Err(JobError::TimedOut)
        );
        pool.shutdown(); // drains: the abandoned job must be skipped, not run
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = JobPool::new(1, 8);
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = (0..5)
            .map(|_| {
                let c = Arc::clone(&counter);
                pool.try_submit(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    c.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap()
            })
            .collect();
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 5);
        for h in handles {
            assert!(h.wait_timeout(Duration::from_millis(1)).is_ok());
        }
    }

    #[test]
    fn panicking_job_fails_promptly_and_the_worker_survives() {
        let pool = JobPool::new(1, 4);
        let t = Instant::now();
        let bad = pool
            .try_submit(|| -> u32 { panic!("handler bug") })
            .unwrap();
        assert_eq!(
            bad.wait_timeout(Duration::from_secs(10)),
            Err(JobError::Panicked)
        );
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "a panic must answer promptly, not at the deadline"
        );
        // The pool's only worker caught the unwind and takes new jobs.
        let next = pool.try_submit(|| 7u32).unwrap();
        assert_eq!(next.wait_timeout(Duration::from_secs(5)), Ok(7));
        pool.shutdown();
    }
}
