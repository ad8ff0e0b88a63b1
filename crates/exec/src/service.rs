//! Long-lived bounded worker pool for non-batch callers.
//!
//! The batch entry points in the crate root ([`crate::par_tasks`] and its
//! adapters) own the full task set up front, fan it out over scoped
//! threads, and join before returning — the right shape for pipeline
//! stages, and the wrong shape for a server that receives work one
//! request at a time and must bound how much of it is admitted.
//!
//! [`ServicePool`] fills that gap with three deliberate properties:
//!
//! - **Bounded admission.** [`ServicePool::try_submit`] never blocks:
//!   when every worker is busy and the queue already holds `queue_limit`
//!   jobs, submission fails with [`SubmitError::QueueFull`] and the
//!   caller sheds load (the serving layer turns this into `503` +
//!   `Retry-After`). Backpressure is explicit, not an unbounded buffer.
//! - **Graceful drain.** [`ServicePool::shutdown`] stops admission,
//!   lets workers finish every job already accepted, then joins them —
//!   so an in-flight request is never abandoned mid-response.
//! - **Panic containment.** A panicking job is caught, counted
//!   (`service/<label>/panics`), and the worker keeps serving. One bad
//!   request must not take the daemon down.
//!
//! Per-pool counters live under `service/<label>/…` in the global
//! metrics registry: `submitted`, `rejected`, `completed`, `panics`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use wikistale_obs::MetricsRegistry;

/// A unit of work accepted by the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`ServicePool::try_submit`] rejected a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue already holds `limit` jobs; the caller should shed load.
    QueueFull {
        /// Queue depth observed at rejection time.
        depth: usize,
        /// The configured admission limit.
        limit: usize,
    },
    /// The pool is draining; no new work is admitted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { depth, limit } => {
                write!(f, "queue full ({depth} queued, limit {limit})")
            }
            SubmitError::ShuttingDown => write!(f, "pool is shutting down"),
        }
    }
}

#[derive(Default)]
struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_available: Condvar,
}

/// A fixed-size pool of long-lived workers with a bounded submission
/// queue. See the module docs for the admission/drain/panic contract.
pub struct ServicePool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    queue_limit: usize,
    label: String,
}

impl ServicePool {
    /// Spawn `workers` threads (floored at 1) with an admission queue
    /// bounded at `queue_limit` pending jobs (floored at 1). `label`
    /// namespaces the pool's metrics.
    pub fn new(label: &str, workers: usize, queue_limit: usize) -> ServicePool {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work_available: Condvar::new(),
        });
        let workers = workers.max(1);
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let worker_label = label.to_string();
                std::thread::Builder::new()
                    .name(format!("{label}-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &worker_label))
                    .unwrap_or_else(|e| panic!("failed to spawn {label} worker: {e}"))
            })
            .collect();
        ServicePool {
            shared,
            workers: handles,
            queue_limit: queue_limit.max(1),
            label: label.to_string(),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The configured admission limit.
    pub fn queue_limit(&self) -> usize {
        self.queue_limit
    }

    /// Jobs accepted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .len()
    }

    /// Admit `job` if the queue has room; never blocks. On rejection the
    /// job is returned to the caller untouched inside the error path
    /// semantics (it is simply dropped — the caller still owns the
    /// response channel and writes the shed reply itself).
    pub fn try_submit<F>(&self, job: F) -> Result<(), SubmitError>
    where
        F: FnOnce() + Send + 'static,
    {
        let metrics = MetricsRegistry::global();
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if state.shutdown {
            metrics
                .counter(&format!("service/{}/rejected", self.label))
                .incr();
            return Err(SubmitError::ShuttingDown);
        }
        let depth = state.queue.len();
        if depth >= self.queue_limit {
            metrics
                .counter(&format!("service/{}/rejected", self.label))
                .incr();
            return Err(SubmitError::QueueFull {
                depth,
                limit: self.queue_limit,
            });
        }
        state.queue.push_back(Box::new(job));
        metrics
            .counter(&format!("service/{}/submitted", self.label))
            .incr();
        drop(state);
        self.shared.work_available.notify_one();
        Ok(())
    }

    /// Stop admission, run every already-accepted job to completion, and
    /// join the workers. Idempotent via `Drop` (calling `shutdown` then
    /// dropping is fine).
    pub fn shutdown(mut self) {
        self.drain_and_join();
    }

    fn drain_and_join(&mut self) {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.shutdown = true;
        }
        self.shared.work_available.notify_all();
        for handle in self.workers.drain(..) {
            // A worker can only "fail" here by panicking outside
            // catch_unwind, which the loop structure does not allow;
            // still, a poisoned join must not panic the drain path.
            let _ = handle.join();
        }
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

fn worker_loop(shared: &Shared, label: &str) {
    let metrics = MetricsRegistry::global();
    let completed = metrics.counter(&format!("service/{label}/completed"));
    let panics = metrics.counter(&format!("service/{label}/panics"));
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_available
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if catch_unwind(AssertUnwindSafe(job)).is_ok() {
            completed.incr();
        } else {
            panics.incr();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_drain_on_shutdown() {
        let pool = ServicePool::new("t_drain", 2, 64);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let ran = Arc::clone(&ran);
            pool.try_submit(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .expect("queue has room");
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn queue_limit_sheds_excess_load() {
        let pool = ServicePool::new("t_shed", 1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        // Occupy the single worker until released.
        pool.try_submit(move || {
            started_tx.send(()).ok();
            release_rx.recv().ok();
        })
        .expect("first job admitted");
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("worker picked up the blocking job");
        // Worker busy, queue empty: one more job fits.
        pool.try_submit(|| {}).expect("queue slot available");
        // Queue now at the limit: the next submission is shed.
        match pool.try_submit(|| {}) {
            Err(SubmitError::QueueFull { depth, limit }) => {
                assert_eq!(depth, 1);
                assert_eq!(limit, 1);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        release_tx.send(()).ok();
        pool.shutdown();
    }

    #[test]
    fn panicking_job_does_not_kill_workers() {
        let pool = ServicePool::new("t_panic", 1, 8);
        pool.try_submit(|| panic!("boom")).expect("admitted");
        let (tx, rx) = mpsc::channel::<()>();
        pool.try_submit(move || {
            tx.send(()).ok();
        })
        .expect("admitted after panic");
        rx.recv_timeout(Duration::from_secs(5))
            .expect("worker survived the panicking job");
        pool.shutdown();
    }

    #[test]
    fn submit_after_shutdown_flag_is_rejected() {
        let pool = ServicePool::new("t_reject", 1, 8);
        {
            let mut state = pool
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.shutdown = true;
        }
        assert_eq!(pool.try_submit(|| {}), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn workers_and_limits_are_floored_at_one() {
        let pool = ServicePool::new("t_floor", 0, 0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.queue_limit(), 1);
        assert_eq!(pool.queue_depth(), 0);
        pool.shutdown();
    }
}
