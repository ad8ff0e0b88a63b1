//! The serve path: load a checkpoint (which trains the model), warm every
//! granularity, then answer an open-loop request stream over loopback.
//! The traced run also replays the same plan socket-free through
//! `http::parse_request` + `App::handle`.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use wikistale_core::experiment::ExperimentConfig;
use wikistale_core::scoring::PredictedSets;
use wikistale_core::GRANULARITIES;
use wikistale_obs::alloc::AllocScope;
use wikistale_obs::MetricsRegistry;
use wikistale_serve::http::parse_request;
use wikistale_serve::routes::{render_score_response, render_stale_response};
use wikistale_serve::server::ServerHandle;
use wikistale_serve::{App, MetricsFormat, ServeArtifacts, Server, ServerConfig};

use crate::gen::{stale_keys, Check, Kind, Request};
use crate::loadgen::{self, Summary};
use crate::report::Report;
use crate::stats::{self, Laps};
use crate::trace::Tracer;

/// Planned requests answered socket-free before the socket phases, in
/// plan order: the traffic of readers who came earlier. It fills the
/// response cache, so the fixed-rate windows meet the cache of a server
/// that has been running rather than an empty one.
const WARM_REQUESTS: usize = 16_000;
/// The fixed offered rate of `serve_p50_ms` and `serve.p99_ms`.
const FIXED_RATE: f64 = 100.0;
/// Requests in one window at the fixed rate: a second's worth.
const WINDOW_REQUESTS: usize = 100;
/// Fixed-rate windows of an untraced run, for `serve_p50_ms`.
pub const WINDOWS: usize = 6;
/// Fixed-rate windows of the traced run: enough requests for 10 samples
/// beyond p99.
const TRACED_WINDOWS: usize = 11;
/// Plan entries the fixed-rate windows may take, after the warm-up.
const FIXED_REQUESTS: usize = TRACED_WINDOWS * WINDOW_REQUESTS;
/// Tail latency limit of `serve_max_rps`.
const LATENCY_LIMIT_MS: f64 = 25.0;
/// Failed share a rate may have and still count as sustained.
const MAX_FAIL_FRAC: f64 = 0.01;
/// Ladder step from the fixed rate.
const LADDER_STEP: f64 = 1.25;
/// Steps the climb skips from a passing fixed rate: the rates below
/// 244 req/s pass on any host the server runs on.
const LADDER_SKIP: i32 = 4;
/// Rungs tried before giving up on bracketing the limit.
const MAX_RUNGS: usize = 30;
/// Lowest rate the ladder walks down to.
const MIN_RATE: f64 = 10.0;
/// Scheduled seconds per rung.
const RUNG_SECONDS: f64 = 0.5;
/// Fewest requests in one rung.
const MIN_RUNG_REQUESTS: usize = 50;
/// Runs of a rung before it counts as failed.
const RUNG_TRIES: usize = 2;
/// Bisection steps between the last passing and the first failing rung:
/// a whole rung (25 %) is too coarse for a steady figure.
const REFINE_STEPS: usize = 2;
/// Every n-th planned request's body is checked against the batch
/// rendering.
const CHECK_EVERY: usize = 8;
/// Planned requests, all replayed socket-free by the traced run: enough
/// that the rarest class, 5 % `/healthz`, has about 1 200 samples, over
/// 10 beyond its p99.
pub const PLAN_REQUESTS: usize = 24_000;
const _: () = assert!(WARM_REQUESTS + FIXED_REQUESTS < PLAN_REQUESTS);

/// Span of each route's `App::handle` call in the replay, and the route's
/// name in the metrics.
const HANDLE_SPANS: [(&str, &str); 3] = [
    ("stale", "serve.handle.stale"),
    ("score", "serve.handle.score"),
    ("healthz", "serve.handle.healthz"),
];

fn handle_span(kind: Kind) -> &'static str {
    match kind {
        Kind::StaleHot | Kind::StaleAt => HANDLE_SPANS[0].1,
        Kind::Score => HANDLE_SPANS[1].1,
        Kind::Healthz => HANDLE_SPANS[2].1,
    }
}

/// A loaded and warmed server, not yet listening.
struct Loaded {
    server: Server,
    artifacts: Arc<ServeArtifacts>,
    load_s: f64,
    warm_s: f64,
    /// Wall seconds of the load and of each granularity's warm-up.
    laps: Vec<f64>,
}

/// The program's set-up: load and verify the checkpoint and train the
/// predictors (both inside `ServeArtifacts::load`), then warm every
/// granularity's prediction sets so that lazy work lands here and not in
/// the tail latency.
fn load(dir: &Path, threads: usize, tracer: &Tracer) -> Result<Loaded, String> {
    let mut laps = Laps::start();
    let artifacts = tracer
        .span("serve.load", || {
            ServeArtifacts::load(dir, &ExperimentConfig::default())
        })
        .map_err(|e| format!("serve: {e}"))?;
    let artifacts = Arc::new(artifacts);
    laps.lap();
    let load_s = laps.total();
    let server = Server::new(
        Arc::clone(&artifacts),
        ServerConfig {
            threads,
            ..ServerConfig::default()
        },
    );
    tracer.span("serve.warm", || warm(server.app(), || laps.lap()));
    Ok(Loaded {
        server,
        artifacts,
        load_s,
        warm_s: laps.total() - load_s,
        laps: laps.secs().to_vec(),
    })
}

/// Build every granularity's prediction sets, calling `done` after each.
fn warm(app: &App, mut done: impl FnMut()) {
    for g in GRANULARITIES {
        app.sets_for(g);
        done();
    }
}

/// The batch rendering of every [`CHECK_EVERY`]-th planned request, from
/// prediction sets computed through the batch path (`Scorer::predict`)
/// rather than through the app under test.
fn expected(artifacts: &ServeArtifacts, plan: &[Request]) -> Vec<Option<Vec<u8>>> {
    let scorer = artifacts.scorer();
    let mut sets: BTreeMap<u32, PredictedSets> = BTreeMap::new();
    plan.iter()
        .enumerate()
        .map(|(i, request)| {
            if i % CHECK_EVERY != 0 {
                return None;
            }
            match &request.check {
                Check::Stale {
                    page,
                    title,
                    window,
                } => {
                    let flags = scorer.page_flags(*page, *window);
                    Some(render_stale_response(artifacts, title, *window, &flags).into_bytes())
                }
                Check::Score {
                    granularity,
                    queries,
                } => {
                    let sets = sets
                        .entry(*granularity)
                        .or_insert_with(|| scorer.predict(*granularity));
                    render_score_response(artifacts, sets, *granularity, queries)
                        .ok()
                        .map(String::into_bytes)
                }
                Check::Healthz => None,
            }
        })
        .collect()
}

fn account(run: &loadgen::Run, report: &mut Report) {
    report.attempt(run.outcomes.len() as u64);
    report.fail(
        run.outcomes.iter().filter(|o| !o.ok).count() as u64,
        "serve: non-2xx answer, transport error or body mismatch",
    );
}

/// Answer `requests` through `http::parse_request` + `App::handle`, without
/// sockets, each in a span tagged with its index; returns how many failed
/// (non-2xx, or a body other than the expected one).
fn replay(app: &App, requests: &[Request], expected: &[Option<Vec<u8>>], tracer: &Tracer) -> u64 {
    let mut failed = 0;
    for (i, (request, expected)) in requests.iter().zip(expected).enumerate() {
        tracer.set_request(i as u64);
        let ok = tracer.span("serve.request", || {
            let Ok(parsed) = tracer.span("serve.parse", || parse_request(&mut &request.raw[..]))
            else {
                return false;
            };
            let response = tracer.span(handle_span(request.kind), || app.handle(&parsed));
            (200..300).contains(&response.status)
                && expected.as_ref().is_none_or(|e| *e == response.body)
        });
        failed += u64::from(!ok);
    }
    failed
}

/// Response-cache hits and lookups counted so far.
fn cache_counts() -> (u64, u64) {
    let registry = MetricsRegistry::global();
    let hits = registry.counter("serve/cache/hit").get();
    (hits, hits + registry.counter("serve/cache/miss").get())
}

/// A warmed server listening on loopback, and the plan it answers: the
/// fixed-rate requests go out in [`WINDOWS`] windows, which the caller
/// may spread over the run, and the ladder follows the fixed-rate ones in
/// the plan.
pub struct Serving<'p> {
    handle: ServerHandle,
    plan: &'p [Request],
    expected: Vec<Option<Vec<u8>>>,
    threads: usize,
    /// The fixed-rate windows sent so far, in plan order.
    windows: Vec<loadgen::Run>,
    /// Next plan entry of the ladder.
    ladder_cursor: usize,
    max_rps: Option<f64>,
    /// Response-cache hits and lookups during the fixed-rate windows.
    cache_hits: u64,
    cache_lookups: u64,
}

impl<'p> Serving<'p> {
    /// Answer the warm-up prefix of the plan socket-free and start
    /// listening on loopback.
    fn start(
        server: Server,
        plan: &'p [Request],
        expected: Vec<Option<Vec<u8>>>,
        threads: usize,
        report: &mut Report,
    ) -> Result<Serving<'p>, String> {
        report.attempt(WARM_REQUESTS as u64);
        report.fail(
            replay(
                server.app(),
                &plan[..WARM_REQUESTS],
                &expected[..WARM_REQUESTS],
                &Tracer::new(false),
            ),
            "serve warm-up: non-2xx answer or body mismatch",
        );
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("serve: cannot bind a loopback port: {e}"))?;
        let handle = server
            .spawn(listener)
            .map_err(|e| format!("serve: cannot start the server: {e}"))?;
        Ok(Serving {
            handle,
            plan,
            expected,
            threads,
            windows: Vec::new(),
            ladder_cursor: WARM_REQUESTS + FIXED_REQUESTS,
            max_rps: None,
            cache_hits: 0,
            cache_lookups: 0,
        })
    }

    /// Send the next [`WINDOW_REQUESTS`] fixed-rate requests at
    /// [`FIXED_RATE`].
    pub fn window(&mut self, report: &mut Report) {
        let first = WARM_REQUESTS + self.windows.len() * WINDOW_REQUESTS;
        let before = cache_counts();
        let run = self.send(first, WINDOW_REQUESTS, FIXED_RATE);
        let after = cache_counts();
        self.cache_hits += after.0 - before.0;
        self.cache_lookups += after.1 - before.1;
        account(&run, report);
        self.windows.push(run);
    }

    fn send(&self, first: usize, count: usize, rate: f64) -> loadgen::Run {
        let addr = self.handle.addr();
        loadgen::run(addr, self.plan, &self.expected, first, count, rate, self.threads)
    }

    /// Climb the rate ladder (see [`max_rate`]), its first rung being the
    /// fixed-rate windows sent so far. A rung that misses the limits is
    /// run once more before it counts as failed: a stall from another
    /// tenant ruins one rung, while a rate beyond the server's fails both.
    pub fn ladder(&mut self, report: &mut Report) {
        let fixed = Summary::of(&loadgen::Run::pooled(&self.windows));
        let fixed_rps = fixed
            .meets(LATENCY_LIMIT_MS, MAX_FAIL_FRAC)
            .then_some(fixed.rps);
        let max_rps = max_rate(fixed_rps, |rate| {
            (0..RUNG_TRIES).find_map(|_| {
                let count = ((rate * RUNG_SECONDS).ceil() as usize).max(MIN_RUNG_REQUESTS);
                let run = self.send(self.ladder_cursor, count, rate);
                self.ladder_cursor += count;
                account(&run, report);
                let rung = Summary::of(&run);
                let pass = rung.meets(LATENCY_LIMIT_MS, MAX_FAIL_FRAC);
                eprintln!(
                    "perfbench: serve at {rate:.0} req/s: {:.1} req/s answered, p{:.1} {:.2} ms, \
                     backlog {:.2} ms, {} of {} failed — {}",
                    rung.rps,
                    f64::from(rung.tail_pm) / 10.0,
                    rung.tail_ms,
                    rung.backlog_ms,
                    rung.failed,
                    rung.requests,
                    if pass { "sustained" } else { "not sustained" }
                );
                pass.then_some(rung.rps)
            })
        });
        self.max_rps = Some(max_rps);
    }

    /// Stop the server and log what the fixed-rate windows sent; returns
    /// the windows.
    fn stop(self) -> Result<Stopped, String> {
        self.handle
            .stop()
            .map_err(|e| format!("serve: server shutdown failed: {e}"))?;
        let fixed = &self.plan[WARM_REQUESTS..WARM_REQUESTS + self.windows.len() * WINDOW_REQUESTS];
        let keys = stale_keys(fixed);
        let earlier = stale_keys(&self.plan[..WARM_REQUESTS]);
        eprintln!(
            "perfbench: serve fixed rate: {} distinct /v1/stale keys, {} of them among the \
             warm-up's {} against {} cache entries; response cache hit {} of {} lookups",
            keys.len(),
            keys.intersection(&earlier).count(),
            earlier.len(),
            ServerConfig::default().cache_entries,
            self.cache_hits,
            self.cache_lookups
        );
        Ok(Stopped {
            windows: self.windows,
            max_rps: self.max_rps,
            cache_hits: self.cache_hits,
            cache_lookups: self.cache_lookups,
        })
    }
}

/// What a stopped [`Serving`] measured.
struct Stopped {
    windows: Vec<loadgen::Run>,
    max_rps: Option<f64>,
    cache_hits: u64,
    cache_lookups: u64,
}

/// The throughput achieved at the highest offered rate on the ladder —
/// ×1.25 steps from the fixed rate, refined by bisection between the last
/// passing and the first failing rung — that passes. `probe` runs a rung
/// and returns its throughput when it passes; `fixed` is the fixed-rate
/// phase's, the ladder's first rung. When that passes, the climb starts
/// [`LADDER_SKIP`] steps up and walks back down if it must. 0 when no
/// rate down to [`MIN_RATE`] passes. Reporting the achieved rather than
/// the offered rate keeps the figure a measurement, not one of the
/// ladder's few fixed steps.
fn max_rate(fixed: Option<f64>, mut probe: impl FnMut(f64) -> Option<f64>) -> f64 {
    // The highest passing (offered, achieved) rate and the lowest failing
    // offered rate found so far.
    let (mut pass, mut fail) = match fixed {
        Some(achieved) => (Some((FIXED_RATE, achieved)), None),
        None => (None, Some(FIXED_RATE)),
    };
    let mut rate = match fixed {
        Some(_) => FIXED_RATE * LADDER_STEP.powi(LADDER_SKIP),
        None => FIXED_RATE / LADDER_STEP,
    };
    for _ in 0..MAX_RUNGS {
        match probe(rate) {
            Some(achieved) => pass = Some((rate, achieved)),
            None => fail = Some(rate),
        }
        rate = match (pass, fail) {
            (Some((p, _)), None) => p * LADDER_STEP,
            (None, Some(f)) if f / LADDER_STEP >= MIN_RATE => f / LADDER_STEP,
            // A skipped stretch failed at its top: walk down it.
            (Some((p, _)), Some(f)) if f / p > LADDER_STEP * 1.001 => f / LADDER_STEP,
            _ => break,
        };
    }
    let (Some(mut lo), Some(mut hi)) = (pass, fail) else {
        return pass.map_or(0.0, |(_, achieved)| achieved);
    };
    for _ in 0..REFINE_STEPS {
        let mid = (lo.0 * hi).sqrt();
        match probe(mid) {
            Some(achieved) => lo = (mid, achieved),
            None => hi = mid,
        }
    }
    lo.1
}

/// Untraced set-ups of the server, taken one at a time. One of them
/// builds the server that answers over sockets ([`Setups::start_serving`]);
/// the others are timed and dropped ([`Setups::rep`]).
pub struct Setups<'a> {
    dir: &'a Path,
    threads: usize,
    /// Each set-up's lap times.
    laps: Vec<Vec<f64>>,
    peak: usize,
}

impl<'a> Setups<'a> {
    pub fn new(dir: &'a Path, threads: usize) -> Setups<'a> {
        Setups {
            dir,
            threads,
            laps: Vec::new(),
            peak: 0,
        }
    }

    fn load(&mut self) -> Result<Loaded, String> {
        let loaded = load(self.dir, self.threads, &Tracer::new(false))?;
        self.laps.push(loaded.laps.clone());
        Ok(loaded)
    }

    /// One timed set-up, dropped once done.
    pub fn rep(&mut self) -> Result<(), String> {
        let scope = AllocScope::begin();
        let loaded = self.load()?;
        self.peak = self.peak.max(scope.peak_delta());
        drop(loaded);
        Ok(())
    }

    /// Set up once, answer the warm-up and start listening, then send the
    /// first fixed-rate window. The serving peak is taken over these
    /// steps, which fill the response cache; it includes the batch
    /// renderings kept for the checks, a few MB.
    pub fn start_serving<'p>(
        &mut self,
        plan: &'p [Request],
        report: &mut Report,
    ) -> Result<Serving<'p>, String> {
        let scope = AllocScope::begin();
        let Loaded {
            server, artifacts, ..
        } = self.load()?;
        let expected = expected(&artifacts, plan);
        let mut serving = Serving::start(server, plan, expected, self.threads, report)?;
        serving.window(report);
        self.peak = self.peak.max(scope.peak_delta());
        Ok(serving)
    }

    /// Report the set-up time with the load and each warm-up at its
    /// median (see [`stats::median_laps`]). Returns the highest heap a
    /// set-up or the serving needed above what was live when it began.
    pub fn finish(self, report: &mut Report) -> usize {
        let secs: Vec<f64> = self.laps.iter().map(|laps| laps.iter().sum()).collect();
        let setup_s = stats::median_laps(&self.laps);
        eprintln!(
            "perfbench: serve {} set-ups: {setup_s:.3}s of median laps, {:.3}s fastest, \
             {:.3}s median",
            secs.len(),
            stats::fastest(&secs),
            stats::median(&secs)
        );
        report.metric("setup_s", setup_s, "s");
        self.peak
    }
}

/// Stop the server and report the serving metrics: the median latency
/// of all fixed-rate requests and the ladder's rate.
pub fn finish(serving: Serving, report: &mut Report) -> Result<(), String> {
    let stopped = serving.stop()?;
    let max_rps = stopped.max_rps.ok_or("serve: the rate ladder did not run")?;
    let summary = Summary::of(&loadgen::Run::pooled(&stopped.windows));
    eprintln!(
        "perfbench: serve fixed {FIXED_RATE} req/s: p50 {:.3} ms, p{:.1} {:.3} ms, \
         generator late p{:.1} {:.3} ms; max {max_rps:.0} req/s",
        summary.p50_ms,
        f64::from(summary.tail_pm) / 10.0,
        summary.tail_ms,
        f64::from(summary.tail_pm) / 10.0,
        summary.late_tail_ms
    );
    report.metric("serve_p50_ms", summary.p50_ms, "ms");
    report.metric("serve_max_rps", max_rps, "1/s");
    Ok(())
}

/// Replay the whole plan on a fresh, warmed app; returns the wall seconds.
fn timed_replay(
    artifacts: &Arc<ServeArtifacts>,
    plan: &[Request],
    expected: &[Option<Vec<u8>>],
    tracer: &Tracer,
    report: &mut Report,
) -> f64 {
    let app = App::new(
        Arc::clone(artifacts),
        ServerConfig::default().cache_entries,
        MetricsFormat::Json,
    );
    warm(&app, || ());
    let started = Instant::now();
    let failed = replay(&app, plan, expected, tracer);
    let secs = started.elapsed().as_secs_f64();
    report.attempt(plan.len() as u64);
    report.fail(failed, "serve replay: non-2xx answer or body mismatch");
    secs
}

/// Traced: one traced set-up, the fixed-rate phase over sockets, then the
/// plan replayed socket-free on fresh apps, untraced and traced. Returns
/// the replays' (traced, untraced) wall seconds.
pub fn trace(
    dir: &Path,
    plan: &[Request],
    threads: usize,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(f64, f64), String> {
    let Loaded {
        server,
        artifacts,
        load_s,
        warm_s,
        ..
    } = load(dir, threads, tracer)?;
    let expected = expected(&artifacts, plan);
    let registry = MetricsRegistry::global();
    let counter = |name: &str| registry.counter(name).get();
    let (shed, late) = (counter("serve/shed"), counter("serve/deadline_exceeded"));
    let mut serving = Serving::start(server, plan, expected.clone(), threads, report)?;
    for _ in 0..TRACED_WINDOWS {
        serving.window(report);
    }
    let fixed = serving.stop()?;
    let run = loadgen::Run::pooled(&fixed.windows);
    let connects_per_req = run.connects as f64 / run.outcomes.len() as f64;
    let summary = Summary::of(&run);

    let untraced = timed_replay(&artifacts, plan, &expected, &Tracer::new(false), report);
    let traced = timed_replay(&artifacts, plan, &expected, tracer, report);
    let handle_us = tracer.durations_us_where(|span| span.name.starts_with("serve.handle."));

    report.metric("serve.load_s", load_s, "s");
    report.metric("serve.warm_s", warm_s, "s");
    report.metric(
        "serve.parse_us",
        stats::median(&tracer.durations_us("serve.parse")),
        "us",
    );
    for (route, span) in HANDLE_SPANS {
        let durations = tracer.durations_us(span);
        let name = format!("serve.handle_us.{route}");
        report.metric(&format!("{name}.p50"), stats::median(&durations), "us");
        report.metric(
            &format!("{name}.p99"),
            stats::percentile(&durations, stats::P99),
            "us",
        );
    }
    report.metric("serve.p99_ms", summary.tail_ms, "ms");
    report.metric(
        "serve.cache_hit_ratio",
        fixed.cache_hits as f64 / fixed.cache_lookups.max(1) as f64,
        "ratio",
    );
    report.metric("serve.cache_lookups", fixed.cache_lookups as f64, "count");
    report.metric(
        "serve.transport_ms",
        summary.p50_ms - stats::median(&handle_us) / 1e3,
        "ms",
    );
    report.metric("serve.connects_per_req", connects_per_req, "ratio");
    report.metric("serve.shed", (counter("serve/shed") - shed) as f64, "count");
    report.metric(
        "serve.deadline_504",
        (counter("serve/deadline_exceeded") - late) as f64,
        "count",
    );
    report.metric("serve.gen_late_ms", summary.late_tail_ms, "ms");
    Ok((traced, untraced))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_phase_and_replay_support_p99() {
        assert_eq!(stats::tail_per_mille(FIXED_REQUESTS), stats::P99);
        assert!(WINDOWS <= TRACED_WINDOWS);
        assert!(stats::tail_per_mille(PLAN_REQUESTS / 20) >= stats::P99);
    }

    #[test]
    fn ladder_brackets_then_refines_the_limit() {
        let resolution = LADDER_STEP.powf(1.0 / f64::from(1 << REFINE_STEPS));
        // Achieved throughput a little under the offered rate, as a rung's
        // last response comes after its last due time.
        let probe = |limit: f64| move |rate: f64| (rate <= limit).then_some(rate * 0.99);
        let up = max_rate(Some(99.0), probe(300.0));
        assert!(up <= 300.0 && up >= 0.99 * 300.0 / resolution, "{up}");
        // The skipped stretch holds the limit.
        let skipped = max_rate(Some(99.0), probe(200.0));
        assert!(skipped <= 200.0 && skipped >= 0.99 * 200.0 / resolution, "{skipped}");
        let down = max_rate(None, probe(50.0));
        assert!(down <= 50.0 && down >= 0.99 * 50.0 / resolution, "{down}");
        assert_eq!(max_rate(Some(99.0), probe(101.0)), 99.0);
        assert_eq!(max_rate(None, |_| None), 0.0);
    }
}
