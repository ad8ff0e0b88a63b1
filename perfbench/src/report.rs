//! The result: the metric names `BENCHMARK.json` declares, and the one
//! JSON object the benchmark prints as its last line.

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_mb",
    "ingest_mb_s",
    "retrain_s",
    "or7_precision",
    "or7_recall",
    "serve_p50_ms",
    "serve_max_rps",
];

/// Per-layer metrics: every traced run reports each of them.
pub const PER_LAYER: &[&str] = &[
    "wikitext.stream_s",
    "wikitext.diff_s",
    "wikitext.finish_s",
    "wikitext.pages",
    "wikitext.revisions",
    "wikitext.changes",
    "wikicube.decode_s",
    "wikicube.daylists_s",
    "wikicube.index_s",
    "wikicube.change_table_bytes",
    "wikicube.day_store_bytes",
    "filters.apply_s",
    "filters.changes_in",
    "filters.changes_out",
    "filters.peak_mb",
    "train.field_corr_s",
    "train.assoc_s",
    "train.mean_s",
    "train.rules_field_corr",
    "train.rules_assoc",
    "predict.g1_s",
    "predict.g7_s",
    "predict.g30_s",
    "predict.g365_s",
    "predict.field_corr_s",
    "predict.assoc_s",
    "predict.ensembles_s",
    "predict.emitted",
    "eval.truth_s",
    "eval.score_s",
    "exec.threads",
    "exec.speedup.decode",
    "exec.speedup.filter",
    "exec.speedup.index",
    "exec.speedup.train",
    "exec.speedup.predict",
    "exec.speedup.eval",
    "serve.load_s",
    "serve.warm_s",
    "serve.parse_us",
    "serve.handle_us.stale.p50",
    "serve.handle_us.stale.p99",
    "serve.handle_us.score.p50",
    "serve.handle_us.score.p99",
    "serve.handle_us.healthz.p50",
    "serve.handle_us.healthz.p99",
    "serve.p99_ms",
    "serve.cache_hit_ratio",
    "serve.cache_lookups",
    "serve.transport_ms",
    "serve.connects_per_req",
    "serve.shed",
    "serve.deadline_504",
    "serve.gen_late_ms",
    "fail_frac",
    "trace.overhead_ms",
];

/// Operations attempted and failed, and the metrics measured so far.
pub struct Report {
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty report for a traced or untraced run.
    pub fn new(trace: bool) -> Report {
        Report {
            trace,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count `n` failed operations (failures, mismatches), logging why.
    pub fn fail(&mut self, n: u64, what: &str) {
        if n > 0 {
            eprintln!("perfbench: {n} failed: {what}");
            self.failed += n;
        }
    }

    /// Record a measured value.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Failed ÷ attempted operations.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every operation succeeded and every check matched.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line. Errs when the metrics are not exactly the declared
    /// set or a value is not finite: a defect of the benchmark, never a
    /// measurement.
    pub fn render(&self) -> Result<String, String> {
        let mut declared = if self.trace { PER_LAYER } else { END_TO_END }.to_vec();
        declared.sort_unstable();
        let mut names: Vec<&str> = self.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        names.sort_unstable();
        if names != declared {
            return Err(format!(
                "reported metrics {names:?} differ from the declared {declared:?}"
            ));
        }
        if let Some((name, value, _)) = self.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wikistale_obs::json;

    #[test]
    fn declared_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let spec = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(json::Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(json::Value::as_str)
                        .unwrap()
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }

    #[test]
    fn renders_exactly_the_declared_metrics() {
        let mut report = Report::new(false);
        report.attempt(3);
        for (i, name) in END_TO_END.iter().enumerate() {
            report.metric(name, 0.5 + i as f64, "s");
        }
        let line = report.render().unwrap();
        let parsed = json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("attempted").and_then(json::Value::as_f64),
            Some(3.0)
        );
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("retrain_s"))
                .and_then(|m| m.get("value"))
                .and_then(json::Value::as_f64),
            Some(3.5)
        );

        report.metric("stray", 1.0, "s");
        assert!(report.render().is_err());
        let mut missing = Report::new(true);
        missing.metric("fail_frac", 0.0, "ratio");
        assert!(missing.render().is_err());
    }
}
