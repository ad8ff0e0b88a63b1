//! Metric attribution for parallel execution pools.
//!
//! The execution layer (`wikistale-exec`) is metric-agnostic: it measures
//! per-chunk wall times and per-worker task counts, then hands the raw
//! observations to [`record_pool`], which owns the naming scheme. All
//! pool metrics live under the `parallel/<label>/…` tree that the serial
//! pipeline already used, so `--metrics` output keeps one namespace
//! regardless of thread count:
//!
//! * span `parallel/<label>/chunk` — one observation per executed chunk
//!   (count, total, min/max), the chunk-latency distribution;
//! * gauge `parallel/<label>/chunks` — chunks in the last run;
//! * gauge `parallel/<label>/workers` — workers used by the last run;
//! * gauge `parallel/<label>/imbalance` — max chunk time ÷ mean chunk
//!   time for the last run (1.0 = perfectly balanced);
//! * counters `parallel/<label>/worker<K>/tasks` — cumulative per-worker
//!   attribution (worker indices are stable within one pool run).

use crate::MetricsRegistry;
use std::time::Duration;

/// Record one pool run's observations into the global registry.
///
/// `chunk_durations` holds one wall-time entry per executed chunk (in
/// chunk order, though order does not matter for any derived metric);
/// `worker_tasks` holds the number of chunks each worker executed,
/// indexed by worker id. A serial run passes a single worker.
pub fn record_pool(label: &str, chunk_durations: &[Duration], worker_tasks: &[u64]) {
    if chunk_durations.is_empty() {
        return;
    }
    let registry = MetricsRegistry::global();
    let chunk_path = format!("parallel/{label}/chunk");
    let mut total = Duration::ZERO;
    let mut max = Duration::ZERO;
    for elapsed in chunk_durations {
        registry.record_duration(&chunk_path, *elapsed);
        total += *elapsed;
        max = max.max(*elapsed);
    }
    registry.gauge_set(
        &format!("parallel/{label}/chunks"),
        chunk_durations.len() as f64,
    );
    registry.gauge_set(
        &format!("parallel/{label}/workers"),
        worker_tasks.len() as f64,
    );
    let mean = total.as_secs_f64() / chunk_durations.len() as f64;
    if mean > 0.0 {
        registry.gauge_set(
            &format!("parallel/{label}/imbalance"),
            max.as_secs_f64() / mean,
        );
    }
    for (worker, &tasks) in worker_tasks.iter().enumerate() {
        registry
            .counter(&format!("parallel/{label}/worker{worker}/tasks"))
            .add(tasks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_pool_populates_the_parallel_tree() {
        let registry = MetricsRegistry::global();
        let tasks_before = registry.counter("parallel/pool_test/worker1/tasks").get();
        record_pool(
            "pool_test",
            &[
                Duration::from_millis(2),
                Duration::from_millis(4),
                Duration::from_millis(3),
            ],
            &[1, 2],
        );
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.spans["parallel/pool_test/chunk"].count, 3);
        assert_eq!(snapshot.gauges["parallel/pool_test/chunks"], 3.0);
        assert_eq!(snapshot.gauges["parallel/pool_test/workers"], 2.0);
        assert_eq!(
            registry.counter("parallel/pool_test/worker1/tasks").get() - tasks_before,
            2
        );
        let imbalance = snapshot.gauges["parallel/pool_test/imbalance"];
        assert!(
            (imbalance - 4.0 / 3.0).abs() < 1e-9,
            "imbalance {imbalance}"
        );
    }

    #[test]
    fn record_pool_with_no_chunks_is_a_no_op() {
        let registry = MetricsRegistry::global();
        record_pool("pool_empty_test", &[], &[0]);
        let snapshot = registry.snapshot();
        assert!(!snapshot
            .spans
            .contains_key("parallel/pool_empty_test/chunk"));
    }
}
