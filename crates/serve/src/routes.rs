//! Route dispatch and JSON rendering — the socket-free application
//! core.
//!
//! [`App::handle`] maps a parsed [`Request`] to a [`Response`] with no
//! I/O beyond the in-memory caches, so the route surface is unit-tested
//! (and differential-tested against the batch predictor) without a
//! single TCP connection. The server glue in [`crate::server`] only
//! frames bytes and schedules calls into this module.
//!
//! Determinism contract: for a fixed artifact generation, every route's
//! response bytes are a pure function of the request — no timestamps,
//! no map iteration order (rendering walks sorted structures), no
//! thread-count dependence. `/metrics` is the one deliberate exception
//! (it reports live counters) and is excluded from the differential
//! contract.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::artifacts::ServeArtifacts;
use crate::cache::ResponseCache;
use crate::http::{Request, Response};
use wikistale_core::explain::{Explanation, Reason};
use wikistale_core::scoring::{PredictedSets, ScoreQuery, MAX_WINDOW_DAYS};
use wikistale_obs::json::{self, Value};
use wikistale_obs::MetricsRegistry;
use wikistale_wikicube::{Date, DateRange};

/// Default `/metrics` rendering when the request has no `format=` param.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Machine-readable JSON (the default).
    Json,
    /// Human-readable aligned table.
    Table,
}

impl MetricsFormat {
    /// Parse a `--metrics-format` / `format=` value.
    pub fn parse(text: &str) -> Option<MetricsFormat> {
        match text {
            "json" => Some(MetricsFormat::Json),
            "table" => Some(MetricsFormat::Table),
            _ => None,
        }
    }
}

/// Upper bound for `delay_ms` on `/healthz` — a load-testing aid, not a
/// denial-of-service lever.
const MAX_DELAY_MS: u64 = 5_000;

/// The application: owns the artifact generation, the response cache,
/// and the per-granularity prediction sets.
pub struct App {
    artifacts: Arc<ServeArtifacts>,
    cache: ResponseCache,
    /// Full-range prediction sets per granularity, computed on first
    /// use through the same `scoring::predict_all` path as the batch
    /// evaluation. Bounded: only the paper granularities are admitted.
    sets: Mutex<BTreeMap<u32, Arc<PredictedSets>>>,
    metrics_format: MetricsFormat,
}

impl App {
    /// An app serving `artifacts` with a response cache of
    /// `cache_entries` entries.
    pub fn new(
        artifacts: Arc<ServeArtifacts>,
        cache_entries: usize,
        metrics_format: MetricsFormat,
    ) -> App {
        App {
            artifacts,
            cache: ResponseCache::new(cache_entries),
            sets: Mutex::new(BTreeMap::new()),
            metrics_format,
        }
    }

    /// The served artifact generation.
    pub fn artifacts(&self) -> &ServeArtifacts {
        &self.artifacts
    }

    /// Dispatch one parsed request.
    pub fn handle(&self, req: &Request) -> Response {
        let segments: Vec<&str> = req.segments.iter().map(String::as_str).collect();
        let (route, response) = match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => ("healthz", self.healthz(req)),
            ("GET", ["metrics"]) => ("metrics", self.metrics(req)),
            ("GET", ["v1", "stale", page]) => ("v1/stale", self.stale(req, page)),
            ("POST", ["v1", "score"]) => ("v1/score", self.score(req)),
            ("GET", ["v1", "score"])
            | ("POST", ["healthz" | "metrics"])
            | ("POST", ["v1", "stale", _]) => (
                "method",
                Response::error(405, "wrong method for this route"),
            ),
            _ => (
                "unknown",
                Response::error(404, &format!("no route for {}", req.raw_path)),
            ),
        };
        let metrics = MetricsRegistry::global();
        metrics.counter(&format!("serve/requests/{route}")).incr();
        metrics
            .counter(&format!("serve/responses/{}", response.status))
            .incr();
        response
    }

    fn healthz(&self, req: &Request) -> Response {
        if let Some(delay) = req.query_param("delay_ms") {
            match delay.parse::<u64>() {
                Ok(ms) => {
                    std::thread::sleep(std::time::Duration::from_millis(ms.min(MAX_DELAY_MS)))
                }
                Err(_) => return Response::error(400, "delay_ms must be an integer"),
            }
        }
        Response::json(
            200,
            format!(
                "{{\"status\": \"ok\", \"fingerprint\": {}, \"generation\": {}, \
                 \"eval_range\": {}}}\n",
                json::escape(&self.artifacts.fingerprint),
                json::escape(&self.artifacts.generation),
                render_range(self.artifacts.eval_range),
            ),
        )
    }

    fn metrics(&self, req: &Request) -> Response {
        let format = match req.query_param("format") {
            None => self.metrics_format,
            Some(text) => match MetricsFormat::parse(text) {
                Some(f) => f,
                None => return Response::error(400, "format must be 'json' or 'table'"),
            },
        };
        let registry = MetricsRegistry::global();
        match format {
            MetricsFormat::Json => Response::json(200, registry.render_json()),
            MetricsFormat::Table => Response::text(200, registry.render_table()),
        }
    }

    fn stale(&self, req: &Request, page_title: &str) -> Response {
        let artifacts = &self.artifacts;
        let span_end = artifacts.eval_range.end();
        let at = match req.query_param("at") {
            None => span_end,
            Some(text) => match text.parse::<Date>() {
                Ok(date) => date,
                Err(e) => return Response::error(400, &format!("bad 'at' date: {e}")),
            },
        };
        let window_days = match req.query_param("window") {
            None => 7i64,
            Some(text) => match text.parse::<i64>() {
                Ok(days) if (1..=i64::from(MAX_WINDOW_DAYS)).contains(&days) => days,
                Ok(days) => {
                    return Response::error(
                        400,
                        &format!("window of {days} days out of 1..={MAX_WINDOW_DAYS}"),
                    )
                }
                Err(e) => return Response::error(400, &format!("bad 'window': {e}")),
            },
        };

        // Cache key: generation ⊕ the canonicalized query. A re-trained
        // artifact set changes the generation and thus misses.
        let key = format!(
            "{}|stale|{page_title}|{at}|{window_days}",
            artifacts.generation
        );
        if let Some(body) = self.cache.get(&key) {
            return Response::json(200, body.as_ref().clone());
        }

        let cube = artifacts.data().cube;
        let Some(page) = cube.page_id(page_title) else {
            return Response::error(404, &format!("unknown page {page_title:?}"));
        };
        let window = DateRange::new(at.plus_days(-(window_days as i32)), at);
        let flags = artifacts.scorer().page_flags(page, window);
        let body = render_stale_response(artifacts, page_title, window, &flags);
        self.cache.insert(&key, Arc::new(body.clone().into_bytes()));
        Response::json(200, body)
    }

    fn score(&self, req: &Request) -> Response {
        let body = String::from_utf8_lossy(&req.body);
        let parsed = match json::parse(&body) {
            Ok(value) => value,
            Err(e) => return Response::error(400, &format!("bad JSON body: {e}")),
        };
        let granularity = match parsed.get("granularity").and_then(Value::as_f64) {
            Some(g) if g.fract() == 0.0 && g > 0.0 => g as u32,
            _ => return Response::error(400, "body needs integer 'granularity'"),
        };
        if !wikistale_core::GRANULARITIES.contains(&granularity) {
            return Response::error(
                400,
                &format!(
                    "granularity {granularity} unsupported (use one of {:?})",
                    wikistale_core::GRANULARITIES
                ),
            );
        }
        let Some(triples) = parsed.get("triples").and_then(Value::as_array) else {
            return Response::error(400, "body needs a 'triples' array");
        };
        let mut queries = Vec::with_capacity(triples.len());
        for (i, triple) in triples.iter().enumerate() {
            let entity = triple.get("entity").and_then(Value::as_str);
            let property = triple.get("property").and_then(Value::as_str);
            let window = triple.get("window").and_then(Value::as_f64);
            match (entity, property, window) {
                (Some(e), Some(p), Some(w)) if w.fract() == 0.0 && w >= 0.0 => {
                    queries.push(ScoreQuery {
                        entity: e.to_string(),
                        property: p.to_string(),
                        window: w as u32,
                    });
                }
                _ => {
                    return Response::error(
                        400,
                        &format!(
                            "triple {i} needs string 'entity'/'property' and \
                             a non-negative integer 'window'"
                        ),
                    )
                }
            }
        }

        let sets = self.sets_for(granularity);
        match render_score_response(&self.artifacts, &sets, granularity, &queries) {
            Ok(body) => Response::json(200, body),
            Err(message) => Response::error(400, &message),
        }
    }

    /// The full-range prediction sets for `granularity`, computed once
    /// per generation through the shared batch code path. The lock is
    /// held across the first computation on purpose: concurrent first
    /// requests must not duplicate the sweep.
    pub fn sets_for(&self, granularity: u32) -> Arc<PredictedSets> {
        let mut sets = self.sets.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(sets.entry(granularity).or_insert_with(|| {
            MetricsRegistry::global()
                .counter("serve/sets_computed")
                .incr();
            Arc::new(self.artifacts.scorer().predict(granularity))
        }))
    }
}

fn render_range(range: DateRange) -> String {
    format!(
        "{{\"start\": \"{}\", \"end\": \"{}\"}}",
        range.start(),
        range.end()
    )
}

fn render_days(days: &[Date]) -> String {
    let mut out = String::from("[");
    for (i, day) in days.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        out.push_str(&day.to_string());
        out.push('"');
    }
    out.push(']');
    out
}

/// Render the `/v1/stale/{page}` body. Public so the end-to-end suite
/// can render the expected bytes straight from the batch-side API.
pub fn render_stale_response(
    artifacts: &ServeArtifacts,
    page_title: &str,
    window: DateRange,
    flags: &[Explanation],
) -> String {
    let cube = artifacts.data().cube;
    let mut out = format!(
        "{{\n  \"fingerprint\": {},\n  \"generation\": {},\n  \"page\": {},\n  \
         \"window\": {},\n  \"flags\": [",
        json::escape(&artifacts.fingerprint),
        json::escape(&artifacts.generation),
        json::escape(page_title),
        render_range(window),
    );
    for (i, flag) in flags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"entity\": {}, \"property\": {}, \"reasons\": [",
            json::escape(cube.entity_name(flag.field.entity)),
            json::escape(cube.property_name(flag.field.property)),
        ));
        for (j, reason) in flag.reasons.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("\n      ");
            out.push_str(&match reason {
                Reason::CorrelatedPartnerChanged { partner, days } => format!(
                    "{{\"kind\": \"correlated_partner_changed\", \"partner\": {}, \
                     \"days\": {}}}",
                    json::escape(cube.property_name(partner.property)),
                    render_days(days),
                ),
                Reason::RuleFired {
                    trigger,
                    days,
                    confidence,
                    validation_precision,
                } => format!(
                    "{{\"kind\": \"rule_fired\", \"trigger\": {}, \"days\": {}, \
                     \"confidence\": {}, \"validation_precision\": {}}}",
                    json::escape(cube.property_name(trigger.property)),
                    render_days(days),
                    json::number(*confidence),
                    match validation_precision {
                        Some(p) => json::number(*p),
                        None => "null".to_string(),
                    },
                ),
                Reason::AnnualRecurrence { hits, observable } => format!(
                    "{{\"kind\": \"annual_recurrence\", \"hits\": {hits}, \
                     \"observable\": {observable}}}"
                ),
            });
        }
        if !flag.reasons.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("]}");
    }
    if !flags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Render the `/v1/score` body by membership lookup in `sets`. Public
/// so the end-to-end suite can render the expected bytes from the batch
/// prediction sets and compare byte-for-byte with the served response.
pub fn render_score_response(
    artifacts: &ServeArtifacts,
    sets: &PredictedSets,
    granularity: u32,
    queries: &[ScoreQuery],
) -> Result<String, String> {
    let scorer = artifacts.scorer();
    let mut out = format!(
        "{{\n  \"generation\": {},\n  \"granularity\": {granularity},\n  \
         \"num_windows\": {},\n  \"results\": [",
        json::escape(&artifacts.generation),
        sets.or.num_windows(),
    );
    for (i, query) in queries.iter().enumerate() {
        let score = scorer
            .score_triple(sets, query)
            .map_err(|e| format!("triple {i}: {e}"))?;
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"entity\": {}, \"property\": {}, \"window\": {}, \
             \"window_start\": \"{}\", \"field_correlations\": {}, \
             \"association_rules\": {}, \"mean_baseline\": {}, \
             \"threshold_baseline\": {}, \"and_ensemble\": {}, \"or_ensemble\": {}}}",
            json::escape(&query.entity),
            json::escape(&query.property),
            query.window,
            score.window_start,
            score.field_correlations,
            score.association_rules,
            score.mean_baseline,
            score.threshold_baseline,
            score.and_ensemble,
            score.or_ensemble,
        ));
    }
    if !queries.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_request;
    use std::io::BufReader;
    use wikistale_core::checkpoint::CheckpointManifest;
    use wikistale_core::experiment::ExperimentConfig;
    use wikistale_core::filters::FilterPipeline;
    use wikistale_synth::{generate, SynthConfig};
    use wikistale_wikicube::binio;

    fn test_app() -> App {
        let dir = std::env::temp_dir().join(format!(
            "wikistale-serve-routes-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = generate(&SynthConfig::tiny());
        let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
        let bytes = binio::encode(&filtered);
        binio::write_bytes_atomic(&dir.join("filter.wcube"), &bytes).unwrap();
        let mut manifest = CheckpointManifest::new("routesfp");
        manifest.record_stage("filter", "filter.wcube", &bytes);
        manifest.save(&dir).unwrap();
        let artifacts = ServeArtifacts::load(&dir, &ExperimentConfig::default()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        App::new(Arc::new(artifacts), 256, MetricsFormat::Json)
    }

    fn get(app: &App, target: &str) -> Response {
        let raw = format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n");
        let req = parse_request(&mut BufReader::new(raw.as_bytes())).unwrap();
        app.handle(&req)
    }

    fn post(app: &App, target: &str, body: &str) -> Response {
        let raw = format!(
            "POST {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = parse_request(&mut BufReader::new(raw.as_bytes())).unwrap();
        app.handle(&req)
    }

    #[test]
    fn healthz_reports_generation() {
        let app = test_app();
        let resp = get(&app, "/healthz");
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        json::validate(&body).unwrap();
        assert!(body.contains("routesfp"));
        assert!(body.contains(&app.artifacts().generation));
    }

    #[test]
    fn unknown_routes_and_methods() {
        let app = test_app();
        assert_eq!(get(&app, "/nope").status, 404);
        assert_eq!(get(&app, "/v1/score").status, 405);
        assert_eq!(post(&app, "/healthz", "").status, 405);
        assert_eq!(post(&app, "/v1/stale/x", "").status, 405);
    }

    #[test]
    fn stale_route_serves_and_caches() {
        let app = test_app();
        let registry = MetricsRegistry::global();
        let hits_before = registry.counter("serve/cache/hit").get();
        // Pick a real page title.
        let title = app
            .artifacts()
            .data()
            .cube
            .page_title(wikistale_wikicube::PageId(0))
            .to_string();
        let encoded = title.replace(' ', "%20");
        let first = get(&app, &format!("/v1/stale/{encoded}?window=7"));
        assert_eq!(
            first.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&first.body)
        );
        let body = String::from_utf8(first.body.clone()).unwrap();
        json::validate(&body).unwrap();
        assert!(body.contains(&format!("\"page\": {}", json::escape(&title))));
        // Second identical request: cache hit, identical bytes.
        let second = get(&app, &format!("/v1/stale/{encoded}?window=7"));
        assert_eq!(second.body, first.body);
        assert!(registry.counter("serve/cache/hit").get() > hits_before);
        // Unknown page is a 404, not a panic.
        assert_eq!(get(&app, "/v1/stale/No%20Such%20Page").status, 404);
        // Bad parameters are 400s.
        assert_eq!(get(&app, "/v1/stale/x?at=not-a-date").status, 400);
        // Signed date components are a 400, not silently accepted
        // (Date::from_str used to tolerate `+2019-+06-+01`).
        assert_eq!(get(&app, "/v1/stale/x?at=%2B2019-%2B06-%2B01").status, 400);
        assert_eq!(get(&app, "/v1/stale/x?window=0").status, 400);
        assert_eq!(get(&app, "/v1/stale/x?window=9999").status, 400);
    }

    #[test]
    fn score_route_matches_batch_membership() {
        let app = test_app();
        let sets = app.sets_for(7);
        let index = app.artifacts().data().index;
        let cube = app.artifacts().data().cube;
        // Use the first OR positive and one certain negative.
        let &(pos, w) = sets.or.items().first().expect("OR positives exist");
        let field = index.field(pos as usize);
        let entity = cube.entity_name(field.entity);
        let property = cube.property_name(field.property);
        let body = format!(
            "{{\"granularity\": 7, \"triples\": [\
             {{\"entity\": {}, \"property\": {}, \"window\": {w}}}]}}",
            json::escape(entity),
            json::escape(property),
        );
        let resp = post(&app, "/v1/score", &body);
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let text = String::from_utf8(resp.body).unwrap();
        json::validate(&text).unwrap();
        assert!(text.contains("\"or_ensemble\": true"));
        // The response must equal the directly rendered batch bytes.
        let expected = render_score_response(
            app.artifacts(),
            &sets,
            7,
            &[ScoreQuery {
                entity: entity.to_string(),
                property: property.to_string(),
                window: w,
            }],
        )
        .unwrap();
        assert_eq!(text, expected);
    }

    #[test]
    fn score_route_rejects_bad_bodies() {
        let app = test_app();
        assert_eq!(post(&app, "/v1/score", "not json").status, 400);
        assert_eq!(post(&app, "/v1/score", "{}").status, 400);
        assert_eq!(
            post(&app, "/v1/score", "{\"granularity\": 3, \"triples\": []}").status,
            400,
            "non-paper granularity rejected"
        );
        assert_eq!(
            post(&app, "/v1/score", "{\"granularity\": 7, \"triples\": [{}]}").status,
            400
        );
        let unknown = post(
            &app,
            "/v1/score",
            "{\"granularity\": 7, \"triples\": [\
             {\"entity\": \"ghost\", \"property\": \"ghost\", \"window\": 0}]}",
        );
        assert_eq!(unknown.status, 400);
        assert!(String::from_utf8_lossy(&unknown.body).contains("unknown entity"));
    }

    #[test]
    fn metrics_route_renders_both_formats() {
        let app = test_app();
        MetricsRegistry::global()
            .counter("serve/test_marker")
            .incr();
        let as_json = get(&app, "/metrics");
        assert_eq!(as_json.status, 200);
        json::validate(&String::from_utf8(as_json.body).unwrap()).unwrap();
        let as_table = get(&app, "/metrics?format=table");
        assert_eq!(as_table.status, 200);
        assert_eq!(as_table.content_type, "text/plain; charset=utf-8");
        assert_eq!(get(&app, "/metrics?format=xml").status, 400);
    }
}
