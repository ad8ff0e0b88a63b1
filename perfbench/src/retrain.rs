//! The retrain path: raw binio-v3 bytes → decode → the paper's filter →
//! day lists + index → train → predict at every granularity → evaluate.

use wikistale_core::experiment::{ExperimentConfig, TrainedPredictors};
use wikistale_core::filters::FilterPipeline;
use wikistale_core::predictors::{
    AssociationRulePredictor, FieldCorrelation, MeanBaseline, ThresholdBaseline,
};
use wikistale_core::scoring::{predict_all, PredictedSets};
use wikistale_core::split::EvalSplit;
use wikistale_core::{
    and_ensemble, eval, or_ensemble, truth_set, ChangePredictor, EvalData, EvalOutcome,
    GRANULARITIES,
};
use wikistale_obs::alloc::AllocScope;
use wikistale_wikicube::{binio, CubeIndex, DateRange};

use crate::report::Report;
use crate::stats::{self, Laps};
use crate::trace::Tracer;

/// Span of each granularity's prediction, in [`GRANULARITIES`] order.
const PREDICT_SPANS: [&str; 4] = ["predict.g1", "predict.g7", "predict.g30", "predict.g365"];

/// Each retrain stage's speed-up metric and the spans that make it up.
const STAGES: [(&str, &[&str]); 6] = [
    ("exec.speedup.decode", &["wikicube.decode"]),
    ("exec.speedup.filter", &["filters.apply"]),
    (
        "exec.speedup.index",
        &["wikicube.daylists", "wikicube.index"],
    ),
    ("exec.speedup.train", &["train"]),
    ("exec.speedup.predict", &PREDICT_SPANS),
    ("exec.speedup.eval", &["eval"]),
];

/// Outcomes of the six prediction sets of one granularity, in the order
/// mean, threshold, field correlations, association rules, AND, OR.
type Outcomes = [EvalOutcome; 6];

/// What one retrain produced.
pub struct Retrain {
    pub secs: f64,
    /// Wall seconds of each stage: decode, filter, day lists + index,
    /// train, predict at each granularity, evaluate.
    pub laps: Vec<f64>,
    pub predicted: Vec<PredictedSets>,
    pub outcomes: Vec<Outcomes>,
    pub changes_in: usize,
    pub changes_out: usize,
    pub change_table_bytes: usize,
    pub day_store_bytes: usize,
    pub rules_field_corr: usize,
    pub rules_assoc: usize,
    /// Heap the filter needed above what was live; traced runs only.
    pub filter_peak_bytes: usize,
}

impl Retrain {
    /// The OR ensemble at 7-day windows: the paper's headline predictor.
    fn or7(&self) -> EvalOutcome {
        let g7 = GRANULARITIES
            .iter()
            .position(|&g| g == 7)
            .expect("7 days is a paper granularity");
        self.outcomes[g7][5]
    }

    fn same_results(&self, other: &Retrain) -> bool {
        self.predicted == other.predicted && self.outcomes == other.outcomes
    }
}

/// Retrain once from raw cube bytes, at the current thread count.
pub fn run(bytes: &[u8], tracer: &Tracer) -> Result<Retrain, String> {
    let config = ExperimentConfig::default();
    let mut laps = Laps::start();
    let raw = tracer
        .span("wikicube.decode", || binio::decode(bytes))
        .map_err(|e| format!("retrain: cannot decode the raw cube: {e}"))?;
    let changes_in = raw.num_changes();
    laps.lap();
    // Scopes share one global mark, so only the traced run, which reports
    // no whole-run peak, measures the filter on its own.
    let filter_scope = tracer.enabled().then(AllocScope::begin);
    let filtered = tracer.span("filters.apply", || FilterPipeline::paper().apply(&raw).0);
    let filter_peak_bytes = filter_scope.map_or(0, |scope| scope.peak_delta());
    drop(raw);
    laps.lap();
    tracer.span("wikicube.daylists", || {
        filtered.day_lists();
    });
    let index = tracer.span("wikicube.index", || CubeIndex::build(&filtered));
    laps.lap();
    let span = filtered
        .time_span()
        .ok_or("retrain: the filtered cube is empty")?;
    let split = EvalSplit::for_span(span).ok_or("retrain: the corpus spans under two years")?;
    let data = EvalData::new(&filtered, &index);
    let trained = tracer.span("train", || {
        train(&data, split.train_and_validation(), &config, tracer)
    });
    laps.lap();
    let predicted: Vec<PredictedSets> = GRANULARITIES
        .iter()
        .zip(PREDICT_SPANS)
        .map(|(&g, name)| {
            let sets = tracer.span(name, || predict(&data, &trained, split.test, g, tracer));
            laps.lap();
            sets
        })
        .collect();
    let outcomes = tracer.span("eval", || {
        GRANULARITIES
            .iter()
            .zip(&predicted)
            .map(|(&g, sets)| {
                let truth = tracer.span("eval.truth", || truth_set(&index, split.test, g));
                tracer.span("eval.score", || {
                    [
                        &sets.mean,
                        &sets.threshold,
                        &sets.field_corr,
                        &sets.assoc,
                        &sets.and,
                        &sets.or,
                    ]
                    .map(|set| eval::evaluate(set, &truth))
                })
            })
            .collect()
    });
    laps.lap();
    Ok(Retrain {
        secs: laps.total(),
        laps: laps.secs().to_vec(),
        predicted,
        outcomes,
        changes_in,
        changes_out: filtered.num_changes(),
        change_table_bytes: filtered.change_table_bytes(),
        day_store_bytes: filtered.day_lists().heap_bytes(),
        rules_field_corr: trained.field_corr.num_rules(),
        rules_assoc: trained.assoc.num_rules(),
        filter_peak_bytes,
    })
}

/// Train every predictor: the program's `TrainedPredictors::train` when
/// untraced; traced, the same trainings one by one so each gets a span.
fn train(
    data: &EvalData<'_>,
    range: DateRange,
    config: &ExperimentConfig,
    tracer: &Tracer,
) -> TrainedPredictors {
    if !tracer.enabled() {
        return TrainedPredictors::train(data, range, config);
    }
    TrainedPredictors {
        field_corr: tracer.span("train.field_corr", || {
            FieldCorrelation::train(data, range, config.field_corr.clone())
        }),
        assoc: tracer.span("train.assoc", || {
            AssociationRulePredictor::train(data, range, config.assoc.clone())
        }),
        mean: tracer.span("train.mean", || MeanBaseline::train(data, range)),
        threshold: ThresholdBaseline {
            threshold: config.threshold_baseline.threshold,
        },
    }
}

/// Predict at one granularity: the program's `predict_all` when
/// untraced; traced, its predictor calls one by one. The traced run
/// checks that both give the same sets.
fn predict(
    data: &EvalData<'_>,
    trained: &TrainedPredictors,
    range: DateRange,
    granularity: u32,
    tracer: &Tracer,
) -> PredictedSets {
    if !tracer.enabled() {
        return predict_all(data, trained, range, granularity);
    }
    let field_corr = tracer.span("predict.field_corr", || {
        trained.field_corr.predict(data, range, granularity)
    });
    let assoc = tracer.span("predict.assoc", || {
        trained.assoc.predict(data, range, granularity)
    });
    let mean = tracer.span("predict.mean", || {
        trained.mean.predict(data, range, granularity)
    });
    let threshold = tracer.span("predict.threshold", || {
        trained.threshold.predict(data, range, granularity)
    });
    let (and, or) = tracer.span("predict.ensembles", || {
        (
            and_ensemble(&field_corr, &assoc),
            or_ensemble(&field_corr, &assoc),
        )
    });
    PredictedSets {
        field_corr,
        assoc,
        mean,
        threshold,
        and,
        or,
    }
}

/// Untraced, timed retrains of one raw cube at `threads`, taken one at
/// a time.
pub struct Reps<'a> {
    bytes: &'a [u8],
    threads: usize,
    /// Each repetition's stage times.
    laps: Vec<Vec<f64>>,
    peak: usize,
    first: Option<Retrain>,
}

impl<'a> Reps<'a> {
    pub fn new(bytes: &'a [u8], threads: usize) -> Reps<'a> {
        Reps {
            bytes,
            threads,
            laps: Vec::new(),
            peak: 0,
            first: None,
        }
    }

    /// One timed retrain.
    pub fn rep(&mut self, report: &mut Report) -> Result<(), String> {
        wikistale_exec::set_threads(self.threads);
        let scope = AllocScope::begin();
        let retrain = run(self.bytes, &Tracer::new(false))?;
        self.peak = self.peak.max(scope.peak_delta());
        self.laps.push(retrain.laps.clone());
        report.attempt(1);
        self.first.get_or_insert(retrain);
        Ok(())
    }

    /// Check the first retrain's results against a 1-thread run of the
    /// same bytes, outside the timed repetitions, and report the wall
    /// time with each stage at its median repetition (see
    /// [`stats::median_laps`]) and the OR ensemble's 7-day quality. Returns the highest heap a retrain needed above what was
    /// live when it began.
    pub fn finish(self, report: &mut Report) -> Result<usize, String> {
        let first = self.first.ok_or("retrain: no repetition ran")?;
        wikistale_exec::set_threads(1);
        let serial = run(self.bytes, &Tracer::new(false));
        wikistale_exec::set_threads(self.threads);
        report.attempt(1);
        if !serial?.same_results(&first) {
            report.fail(1, "retrain: results differ from a 1-thread run");
        }
        let secs: Vec<f64> = self.laps.iter().map(|laps| laps.iter().sum()).collect();
        let retrain_s = stats::median_laps(&self.laps);
        eprintln!(
            "perfbench: retrain {} reps on {} raw changes at {} threads: {retrain_s:.3}s \
             of median stages, {:.3}s fastest, {:.3}s median",
            secs.len(),
            first.changes_in,
            self.threads,
            stats::fastest(&secs),
            stats::median(&secs)
        );
        report.metric("retrain_s", retrain_s, "s");
        report.metric("or7_precision", first.or7().precision(), "ratio");
        report.metric("or7_recall", first.or7().recall(), "ratio");
        Ok(self.peak)
    }
}

/// Traced: one untraced and one traced retrain at `threads`, then a traced
/// 1-thread retrain for the per-stage speed-ups, which doubles as the
/// correctness check. Returns the (traced, untraced) wall seconds.
pub fn trace(
    bytes: &[u8],
    threads: usize,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(f64, f64), String> {
    wikistale_exec::set_threads(threads);
    let untraced = run(bytes, &Tracer::new(false))?;
    let traced = run(bytes, tracer)?;
    let serial_tracer = Tracer::new(true);
    wikistale_exec::set_threads(1);
    let serial = run(bytes, &serial_tracer);
    wikistale_exec::set_threads(threads);
    let serial = serial?;
    report.attempt(3);
    if !traced.same_results(&untraced) || !serial.same_results(&untraced) {
        report.fail(
            1,
            "retrain: traced or 1-thread results differ from the untraced run",
        );
    }

    let s = |name: &str| tracer.total_s(name);
    report.metric("wikicube.decode_s", s("wikicube.decode"), "s");
    report.metric("wikicube.daylists_s", s("wikicube.daylists"), "s");
    report.metric("wikicube.index_s", s("wikicube.index"), "s");
    report.metric(
        "wikicube.change_table_bytes",
        traced.change_table_bytes as f64,
        "bytes",
    );
    report.metric(
        "wikicube.day_store_bytes",
        traced.day_store_bytes as f64,
        "bytes",
    );
    report.metric("filters.apply_s", s("filters.apply"), "s");
    report.metric("filters.changes_in", traced.changes_in as f64, "count");
    report.metric("filters.changes_out", traced.changes_out as f64, "count");
    report.metric(
        "filters.peak_mb",
        traced.filter_peak_bytes as f64 / 1e6,
        "MB",
    );
    report.metric("train.field_corr_s", s("train.field_corr"), "s");
    report.metric("train.assoc_s", s("train.assoc"), "s");
    report.metric("train.mean_s", s("train.mean"), "s");
    report.metric(
        "train.rules_field_corr",
        traced.rules_field_corr as f64,
        "count",
    );
    report.metric("train.rules_assoc", traced.rules_assoc as f64, "count");
    for name in PREDICT_SPANS {
        report.metric(&format!("{name}_s"), s(name), "s");
    }
    report.metric("predict.field_corr_s", s("predict.field_corr"), "s");
    report.metric("predict.assoc_s", s("predict.assoc"), "s");
    report.metric("predict.ensembles_s", s("predict.ensembles"), "s");
    let emitted: usize = traced
        .predicted
        .iter()
        .map(|sets| {
            sets.field_corr.len() + sets.assoc.len() + sets.mean.len() + sets.threshold.len()
        })
        .sum();
    report.metric("predict.emitted", emitted as f64, "count");
    report.metric("eval.truth_s", s("eval.truth"), "s");
    report.metric("eval.score_s", s("eval.score"), "s");
    report.metric("exec.threads", threads as f64, "count");
    for (metric, spans) in STAGES {
        let at = |t: &Tracer| spans.iter().map(|name| t.total_s(name)).sum::<f64>();
        report.metric(metric, at(&serial_tracer) / at(tracer), "x");
    }
    Ok((traced.secs, untraced.secs))
}
