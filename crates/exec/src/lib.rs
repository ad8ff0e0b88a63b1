//! # wikistale-exec
//!
//! Deterministic parallel execution layer for the wikistale pipeline.
//!
//! Every hot pipeline stage (day-list building, field-correlation pairing,
//! Apriori support counting, the evaluation sweep) runs through this crate
//! so that one determinism contract covers them all:
//!
//! **The bytes of every artifact are a pure function of the input and the
//! per-call-site chunk size — never of the worker count or the scheduling
//! order.**
//!
//! The contract is enforced structurally:
//!
//! 1. **Fixed chunking.** Work is split into chunks whose boundaries
//!    derive only from the input length and a fixed per-call-site chunk
//!    size (adjustable globally for tests via [`override_scope`]). The
//!    worker count never influences chunk boundaries — this is the key
//!    difference from the classic `len / num_threads` split, which would
//!    move floating-point merge order around as threads vary.
//! 2. **Slot merge.** Each chunk's result is written to a slot indexed by
//!    its chunk number; the caller receives results in chunk order no
//!    matter which worker ran which chunk or in what order.
//! 3. **Serial first-class.** With one worker (or one chunk) the same
//!    worker loop runs on the caller thread — same chunking, same merge —
//!    so `--threads 1` exercises the identical code path that the
//!    differential suite compares `--threads N` against, and `obs` span
//!    nesting is preserved for serial metric attribution.
//!
//! Scheduling is one shared task cursor over scoped threads: every worker
//! claims the next task index with an atomic `fetch_add` until the cursor
//! passes the last task, so a worker stuck on a slow chunk never holds up
//! the rest. Per-worker task counts and per-chunk latency are reported
//! under the `parallel/<label>/…` metric tree via
//! [`wikistale_obs::parallel`].
//!
//! Worker-count resolution, in priority order: [`set_threads`] (the CLI
//! `--threads` flag) → the `WIKISTALE_THREADS` environment variable →
//! [`std::thread::available_parallelism`]. The resolved count is *not*
//! part of any checkpoint fingerprint: artifacts produced at one thread
//! count resume cleanly at any other.

pub mod service;

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use wikistale_obs::parallel::record_pool;

/// Explicit worker-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Global chunk-size override for differential tests; 0 means "not set".
static CHUNK_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set the worker count explicitly (the CLI `--threads` flag). `0`
/// restores automatic resolution (env var, then available parallelism).
pub fn set_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::SeqCst);
}

/// The resolved worker count: explicit override, else `WIKISTALE_THREADS`,
/// else [`std::thread::available_parallelism`], else 1.
pub fn threads() -> usize {
    let explicit = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(value) = std::env::var("WIKISTALE_THREADS") {
        if let Ok(parsed) = value.trim().parse::<usize>() {
            if parsed > 0 {
                return parsed;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The effective chunk size for a call site requesting `requested`:
/// the global override if one is active, else `requested`, floored at 1.
pub fn chunk_size(requested: usize) -> usize {
    let forced = CHUNK_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        forced
    } else {
        requested.max(1)
    }
}

/// Serializes tests that mutate the global overrides.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// RAII scope that pins the worker count (and optionally the chunk size)
/// and restores the previous configuration on drop.
///
/// Holding the guard also holds a global lock, serializing concurrent
/// tests that would otherwise race on the process-wide configuration —
/// required because `cargo test` runs tests of one binary concurrently.
pub struct OverrideGuard {
    prev_threads: usize,
    prev_chunk: usize,
    _lock: MutexGuard<'static, ()>,
}

/// Pin `threads` workers and, if `chunk_override > 0`, force every call
/// site's chunk size to `chunk_override` until the guard drops.
pub fn override_scope(threads: usize, chunk_override: usize) -> OverrideGuard {
    let lock = OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let guard = OverrideGuard {
        prev_threads: THREAD_OVERRIDE.load(Ordering::SeqCst),
        prev_chunk: CHUNK_OVERRIDE.load(Ordering::SeqCst),
        _lock: lock,
    };
    THREAD_OVERRIDE.store(threads, Ordering::SeqCst);
    CHUNK_OVERRIDE.store(chunk_override, Ordering::SeqCst);
    guard
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.store(self.prev_threads, Ordering::SeqCst);
        CHUNK_OVERRIDE.store(self.prev_chunk, Ordering::SeqCst);
    }
}

/// Run `f(0), …, f(num_tasks - 1)` and return the results in task
/// order. `label` names the pool in the `parallel/*` metric tree.
///
/// Workers claim task indices from one shared cursor, so a worker that
/// finishes early simply claims the next unclaimed task; results land in
/// slots keyed by task index, which makes the claim order unobservable.
/// With one worker (or at most one task) the loop runs on the caller
/// thread, keeping `obs` span nesting intact. A worker's panic is
/// re-raised on the caller.
pub fn par_tasks<R, F>(label: &str, num_tasks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads().min(num_tasks);
    let next = AtomicUsize::new(0);
    let outputs: Vec<Vec<(usize, R, Duration)>> = if workers <= 1 {
        vec![worker_loop(&next, num_tasks, &f)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| worker_loop(&next, num_tasks, &f)))
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    };

    // Deterministic task → slot merge.
    let worker_tasks: Vec<u64> = outputs.iter().map(|done| done.len() as u64).collect();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(num_tasks);
    slots.resize_with(num_tasks, || None);
    let mut durations = vec![Duration::ZERO; num_tasks];
    for (task, result, elapsed) in outputs.into_iter().flatten() {
        slots[task] = Some(result);
        durations[task] = elapsed;
    }
    record_pool(label, &durations, &worker_tasks);
    slots
        .into_iter()
        .map(|slot| slot.expect("exec: the cursor hands out every task index exactly once"))
        .collect()
}

/// Claim tasks from `next` until it passes `num_tasks`; returns the
/// executed (task, result, latency) triples.
fn worker_loop<R, F>(next: &AtomicUsize, num_tasks: usize, f: &F) -> Vec<(usize, R, Duration)>
where
    F: Fn(usize) -> R,
{
    let mut done = Vec::new();
    loop {
        // Relaxed suffices: the cursor publishes no data (the RMW alone
        // makes each index unique); results reach the caller by return
        // value, through the thread join.
        let task = next.fetch_add(1, Ordering::Relaxed);
        if task >= num_tasks {
            return done;
        }
        let start = Instant::now();
        let result = f(task);
        done.push((task, result, start.elapsed()));
    }
}

/// Run `f` over fixed-size index ranges partitioning `0..len`; results
/// come back in range order. `chunk` is the requested range length
/// (subject to the global test override, never to the worker count).
pub fn par_ranges<R, F>(label: &str, len: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let size = chunk_size(chunk);
    par_tasks(label, len.div_ceil(size), |task| {
        let lo = task * size;
        f(lo..(lo + size).min(len))
    })
}

/// Run `f` over fixed-size chunks of `items`; results come back in chunk
/// order. `chunk` is the requested chunk size, as for [`par_ranges`].
pub fn par_chunks<T, R, F>(label: &str, items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    par_ranges(label, items.len(), chunk, |range| f(&items[range]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use wikistale_obs::MetricsRegistry;

    #[test]
    fn serial_and_stealing_agree_on_task_order() {
        // Task order at one worker (caller thread) and at several.
        let expected: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
        for workers in [1, 2, 3, 4, 7] {
            let _guard = override_scope(workers, 0);
            let results = par_tasks("exec_test_order", 257, |i| i * 3 + 1);
            assert_eq!(results, expected, "workers={workers}");
        }
    }

    #[test]
    fn par_chunks_partitions_exactly() {
        let _guard = override_scope(4, 0);
        let items: Vec<u64> = (0..10_000).collect();
        for chunk in [1, 7, 64, 9_999, 10_000, 20_000] {
            let partials = par_chunks("exec_test_partition", &items, chunk, |c| {
                (c.len(), c.iter().sum::<u64>())
            });
            let total_len: usize = partials.iter().map(|p| p.0).sum();
            let total_sum: u64 = partials.iter().map(|p| p.1).sum();
            assert_eq!(total_len, items.len(), "chunk={chunk}");
            assert_eq!(total_sum, items.iter().sum::<u64>(), "chunk={chunk}");
            assert_eq!(partials.len(), items.len().div_ceil(chunk));
        }
    }

    #[test]
    fn par_ranges_covers_the_full_range_in_order() {
        let _guard = override_scope(3, 0);
        let ranges = par_ranges("exec_test_ranges", 100, 7, |r| r);
        let flat: Vec<usize> = ranges.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let _guard = override_scope(4, 0);
        let empty: Vec<u32> = Vec::new();
        assert!(par_chunks("exec_test_empty", &empty, 8, |c| c.len()).is_empty());
        assert!(par_ranges("exec_test_empty", 0, 8, |r| r.len()).is_empty());
        assert!(par_tasks("exec_test_empty", 0, |i| i).is_empty());
    }

    #[test]
    fn chunk_override_wins_over_requested_size() {
        let _guard = override_scope(2, 5);
        let items: Vec<u32> = (0..23).collect();
        let partials = par_chunks("exec_test_override", &items, 1_000, |c| c.len());
        assert_eq!(partials, vec![5, 5, 5, 5, 3]);
    }

    #[test]
    fn every_task_runs_exactly_once_under_stealing() {
        let _guard = override_scope(7, 0);
        let hits = AtomicU64::new(0);
        let results = par_tasks("exec_test_once", 1_000, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i as u64
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1_000);
        assert_eq!(results, (0..1_000).collect::<Vec<u64>>());
    }

    #[test]
    fn uneven_workloads_still_merge_in_order() {
        let _guard = override_scope(4, 0);
        // Task 0 is much slower than the rest: the other workers drain
        // the cursor meanwhile, the slot merge must not care.
        let results = par_tasks("exec_test_uneven", 64, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            i
        });
        assert_eq!(results, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn threads_resolution_honors_override() {
        let _guard = override_scope(5, 0);
        assert_eq!(threads(), 5);
        drop(_guard);
        let _guard = override_scope(1, 0);
        assert_eq!(threads(), 1);
    }

    #[test]
    fn pool_metrics_account_for_every_chunk() {
        let _guard = override_scope(4, 0);
        let registry = MetricsRegistry::global();
        let worker_tasks = || -> u64 {
            (0..4)
                .map(|k| {
                    registry
                        .counter(&format!("parallel/exec_test_metrics/worker{k}/tasks"))
                        .get()
                })
                .sum()
        };
        let tasks_before = worker_tasks();
        let items: Vec<u64> = (0..4_096).collect();
        par_chunks("exec_test_metrics", &items, 64, |c| c.len());
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.spans["parallel/exec_test_metrics/chunk"].count, 64);
        assert_eq!(snapshot.gauges["parallel/exec_test_metrics/chunks"], 64.0);
        let workers = snapshot.gauges["parallel/exec_test_metrics/workers"];
        assert!((1.0..=4.0).contains(&workers), "workers gauge {workers}");
        assert_eq!(worker_tasks() - tasks_before, 64);
    }

    #[test]
    fn counters_under_parallel_chunks_report_exact_totals() {
        // Worker threads bump a shared counter handle; the registry must
        // see every increment exactly once regardless of chunking.
        let _guard = override_scope(4, 0);
        let registry = MetricsRegistry::global();
        let counter = registry.counter("exec_test_parallel_hits");
        let before = counter.get();
        let items: Vec<u64> = (0..10_000).collect();
        par_chunks("exec_test_counted", &items, 8, |chunk| {
            let counter = registry.counter("exec_test_parallel_hits");
            for _ in chunk {
                counter.incr();
            }
        });
        assert_eq!(counter.get() - before, 10_000);
        // Chunk wall times were recorded: as many observations as chunks.
        let snapshot = registry.snapshot();
        let stat = snapshot.spans["parallel/exec_test_counted/chunk"];
        assert_eq!(
            stat.count,
            snapshot.gauges["parallel/exec_test_counted/chunks"] as u64
        );
    }

    #[test]
    fn worker_panic_propagates() {
        for workers in [1, 3] {
            let _guard = override_scope(workers, 0);
            let caught = std::panic::catch_unwind(|| {
                par_tasks("exec_test_panic", 16, |i| {
                    assert!(i != 9, "boom");
                    i
                })
            });
            assert!(caught.is_err(), "workers={workers}");
        }
    }
}
