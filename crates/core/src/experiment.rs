//! End-to-end orchestration of the paper's evaluation (§5): train the
//! predictors, run every granularity, and collect everything the tables
//! and figures need.

use crate::checkpoint::ResultsSummary;
use crate::eval::{evaluate, overlap, per_window_series, truth_set, EvalOutcome, Overlap};
use crate::predictor::EvalData;
use crate::predictors::{
    AssocParams, AssociationRulePredictor, FieldCorrelation, FieldCorrelationParams, MeanBaseline,
    ThresholdBaseline,
};
use crate::split::EvalSplit;
use wikistale_wikicube::{ChangeCube, CubeIndex, DateRange, TemplateId};

/// Hyper-parameters of the full experiment; defaults are the paper's
/// grid-search optima (§5.2).
#[derive(Debug, Clone, Default)]
pub struct ExperimentConfig {
    /// Field-correlation parameters (θ = 0.1).
    pub field_corr: FieldCorrelationParams,
    /// Association-rule parameters (support 0.25 %, confidence 60 %,
    /// 10 % rule-validation holdout at 90 % precision).
    pub assoc: AssocParams,
    /// Threshold-baseline threshold (85 %).
    pub threshold_baseline: ThresholdBaselineConfig,
}

/// Wrapper so the config stays plain-old-data.
#[derive(Debug, Clone)]
pub struct ThresholdBaselineConfig {
    /// Required fraction of reference windows with a change.
    pub threshold: f64,
}

impl Default for ThresholdBaselineConfig {
    fn default() -> ThresholdBaselineConfig {
        ThresholdBaselineConfig { threshold: 0.85 }
    }
}

/// Everything §5 reports for one window granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct GranularityResults {
    /// Window size in days.
    pub granularity: u32,
    /// Total (field, window) pairs containing a change — the paper quotes
    /// these as "the total number of windows containing changes".
    pub truth_total: usize,
    /// Table 1 rows.
    pub mean_baseline: EvalOutcome,
    /// Table 1 rows.
    pub threshold_baseline: EvalOutcome,
    /// Table 1 rows.
    pub field_correlations: EvalOutcome,
    /// Table 1 rows.
    pub association_rules: EvalOutcome,
    /// Table 1 rows.
    pub and_ensemble: EvalOutcome,
    /// Table 1 rows.
    pub or_ensemble: EvalOutcome,
    /// §5.3.4: prediction overlap between field correlations and
    /// association rules.
    pub fc_ar_overlap: Overlap,
    /// Figure 4 input: per-window outcome series for the four §3
    /// predictors, in the order FC, AR, AND, OR.
    pub weekly_series: Option<[Vec<EvalOutcome>; 4]>,
}

/// The complete evaluation output.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperResults {
    /// One entry per granularity (1, 7, 30, 365 by default).
    pub per_granularity: Vec<GranularityResults>,
    /// Figure 3 input: surviving association-rule count per template.
    pub rules_per_template: Vec<(TemplateId, usize)>,
    /// Number of undirected field-correlation rules.
    pub num_field_corr_rules: usize,
    /// Number of surviving association rules.
    pub num_assoc_rules: usize,
    /// Entities covered by at least one association rule's template.
    pub covered_entities: usize,
}

impl PaperResults {
    /// The results for a given window size, if evaluated.
    pub fn granularity(&self, days: u32) -> Option<&GranularityResults> {
        self.per_granularity.iter().find(|g| g.granularity == days)
    }
}

/// The §3 predictors trained on one range, bundled for reuse by the
/// experiments and the grid searches.
#[derive(Debug)]
pub struct TrainedPredictors {
    /// Field correlations (§3.2).
    pub field_corr: FieldCorrelation,
    /// Association rules (§3.3).
    pub assoc: AssociationRulePredictor,
    /// Mean baseline (§5.2).
    pub mean: MeanBaseline,
    /// Threshold baseline (§5.2).
    pub threshold: ThresholdBaseline,
}

impl TrainedPredictors {
    /// Train everything on `range`.
    pub fn train(
        data: &EvalData<'_>,
        range: DateRange,
        config: &ExperimentConfig,
    ) -> TrainedPredictors {
        let obs = wikistale_obs::MetricsRegistry::global();
        let _span = obs.span("train");
        let field_corr = {
            let _s = obs.span("field_corr");
            FieldCorrelation::train(data, range, config.field_corr.clone())
        };
        let assoc = {
            let _s = obs.span("assoc");
            AssociationRulePredictor::train(data, range, config.assoc.clone())
        };
        let mean = {
            let _s = obs.span("mean");
            MeanBaseline::train(data, range)
        };
        let threshold = {
            let _s = obs.span("threshold");
            ThresholdBaseline {
                threshold: config.threshold_baseline.threshold,
            }
        };
        obs.counter("train/field_corr_rules")
            .add(field_corr.num_rules() as u64);
        obs.counter("train/assoc_rules")
            .add(assoc.num_rules() as u64);
        TrainedPredictors {
            field_corr,
            assoc,
            mean,
            threshold,
        }
    }
}

/// Evaluate trained predictors on `eval_range` at one granularity.
pub fn evaluate_granularity(
    data: &EvalData<'_>,
    predictors: &TrainedPredictors,
    eval_range: DateRange,
    granularity: u32,
    with_weekly_series: bool,
) -> GranularityResults {
    let obs = wikistale_obs::MetricsRegistry::global();
    let _span = obs.span(&format!("granularity_{granularity}d"));
    let truth = {
        let _s = obs.span("truth");
        truth_set(data.index, eval_range, granularity)
    };
    // The predictor sweep lives in `scoring::predict_all` so the serving
    // layer answers queries through the very same code path.
    let crate::scoring::PredictedSets {
        field_corr: fc,
        assoc: ar,
        mean,
        threshold,
        and,
        or,
    } = crate::scoring::predict_all(data, predictors, eval_range, granularity);

    let _s = obs.span("eval");
    let weekly_series = with_weekly_series.then(|| {
        [
            per_window_series(&fc, &truth),
            per_window_series(&ar, &truth),
            per_window_series(&and, &truth),
            per_window_series(&or, &truth),
        ]
    });

    GranularityResults {
        granularity,
        truth_total: truth.len(),
        mean_baseline: evaluate(&mean, &truth),
        threshold_baseline: evaluate(&threshold, &truth),
        field_correlations: evaluate(&fc, &truth),
        association_rules: evaluate(&ar, &truth),
        and_ensemble: evaluate(&and, &truth),
        or_ensemble: evaluate(&or, &truth),
        fc_ar_overlap: overlap(&fc, &ar),
        weekly_series,
    }
}

/// Run the full §5 evaluation on a *filtered* cube: train the final models
/// on training + validation, evaluate on the test year at every paper
/// granularity.
pub fn run_paper_evaluation(
    filtered: &ChangeCube,
    split: &EvalSplit,
    config: &ExperimentConfig,
) -> PaperResults {
    let index = {
        let _s = wikistale_obs::MetricsRegistry::global().span("index");
        CubeIndex::build(filtered)
    };
    let data = EvalData::new(filtered, &index);
    let predictors = TrainedPredictors::train(&data, split.train_and_validation(), config);
    results_for(&data, &predictors, split.test)
}

/// [`run_paper_evaluation`] with checkpoint/resume support. The
/// granularities run one after another on the calling thread.
///
/// Work already recorded in `manifest` (granularity results, the
/// training summary) is skipped; freshly completed work is recorded into
/// `manifest`, and `on_stage` is invoked after each newly finished stage
/// (`train`, then `granularity_1`, `granularity_7`, …) so the caller can
/// persist the manifest — or, in the fault-injection harness, die right
/// there. When the manifest already holds everything, the saved results
/// are returned without touching the cube; they are exact (all counts
/// are integers), so a resumed run reproduces the uninterrupted run's
/// [`PaperResults`] precisely.
pub fn run_paper_evaluation_resumable(
    filtered: &ChangeCube,
    split: &EvalSplit,
    config: &ExperimentConfig,
    manifest: &mut crate::checkpoint::CheckpointManifest,
    on_stage: &mut dyn FnMut(&str, &crate::checkpoint::CheckpointManifest) -> Result<(), String>,
) -> Result<PaperResults, String> {
    if let Some(results) = manifest.assemble_results(&crate::GRANULARITIES) {
        return Ok(results);
    }
    let index = {
        let _s = wikistale_obs::MetricsRegistry::global().span("index");
        CubeIndex::build(filtered)
    };
    let data = EvalData::new(filtered, &index);
    let predictors = TrainedPredictors::train(&data, split.train_and_validation(), config);
    manifest.set_summary(ResultsSummary::of(&predictors, &data));
    on_stage("train", manifest)?;
    for &g in &crate::GRANULARITIES {
        if manifest.granularity(g).is_none() {
            let results = evaluate_granularity(&data, &predictors, split.test, g, g == 7);
            manifest.record_granularity(results);
            on_stage(&format!("granularity_{g}"), manifest)?;
        }
    }
    manifest
        .assemble_results(&crate::GRANULARITIES)
        .ok_or_else(|| "internal error: evaluation left the checkpoint incomplete".to_owned())
}

/// Run the same evaluation against the validation year with models trained
/// only on the training range — the setting the grid searches score in.
pub fn run_validation_evaluation(
    filtered: &ChangeCube,
    split: &EvalSplit,
    config: &ExperimentConfig,
) -> PaperResults {
    let index = {
        let _s = wikistale_obs::MetricsRegistry::global().span("index");
        CubeIndex::build(filtered)
    };
    let data = EvalData::new(filtered, &index);
    let predictors = TrainedPredictors::train(&data, split.train, config);
    results_for(&data, &predictors, split.validation)
}

fn results_for(
    data: &EvalData<'_>,
    predictors: &TrainedPredictors,
    eval_range: DateRange,
) -> PaperResults {
    // The four granularities are independent window sweeps; run them as
    // tasks (slot-merged, so the result order is always the
    // `GRANULARITIES` order).
    let per_granularity =
        wikistale_exec::par_tasks("granularities", crate::GRANULARITIES.len(), |task| {
            let g = crate::GRANULARITIES[task];
            evaluate_granularity(data, predictors, eval_range, g, g == 7)
        });
    ResultsSummary::of(predictors, data).into_results(per_granularity)
}

impl ResultsSummary {
    /// The training summary of `predictors`: rule counts, coverage, and
    /// the Figure 3 histogram sorted by descending rule count, ties by
    /// template id.
    pub(crate) fn of(predictors: &TrainedPredictors, data: &EvalData<'_>) -> ResultsSummary {
        let mut rules_per_template: Vec<(TemplateId, usize)> =
            predictors.assoc.rules_per_template().into_iter().collect();
        rules_per_template.sort_unstable_by_key(|&(t, n)| (std::cmp::Reverse(n), t));
        ResultsSummary {
            num_field_corr_rules: predictors.field_corr.num_rules(),
            num_assoc_rules: predictors.assoc.num_rules(),
            covered_entities: predictors.assoc.covered_entities(data),
            rules_per_template,
        }
    }

    /// The complete results: this summary plus the per-granularity tables.
    pub(crate) fn into_results(self, per_granularity: Vec<GranularityResults>) -> PaperResults {
        PaperResults {
            per_granularity,
            rules_per_template: self.rules_per_template,
            num_field_corr_rules: self.num_field_corr_rules,
            num_assoc_rules: self.num_assoc_rules,
            covered_entities: self.covered_entities,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::FilterPipeline;
    use wikistale_synth::{generate, SynthConfig};

    fn tiny_results() -> PaperResults {
        let corpus = generate(&SynthConfig::tiny());
        let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
        let split = EvalSplit::for_span(filtered.time_span().unwrap()).unwrap();
        run_paper_evaluation(&filtered, &split, &ExperimentConfig::default())
    }

    #[test]
    fn full_pipeline_produces_all_granularities() {
        let results = tiny_results();
        assert_eq!(results.per_granularity.len(), 4);
        for g in crate::GRANULARITIES {
            let r = results.granularity(g).unwrap();
            assert_eq!(r.granularity, g);
            assert!(r.truth_total > 0, "no truth at {g}d");
        }
        assert!(results.granularity(2).is_none());
    }

    #[test]
    fn predictors_fire_and_meet_sane_precision_on_tiny() {
        let results = tiny_results();
        let seven = results.granularity(7).unwrap();
        assert!(seven.field_correlations.predictions > 0, "FC silent");
        assert!(seven.association_rules.predictions > 0, "AR silent");
        assert!(
            seven.field_correlations.precision() > 0.5,
            "FC precision {:.3}",
            seven.field_correlations.precision()
        );
        assert!(
            seven.association_rules.precision() > 0.5,
            "AR precision {:.3}",
            seven.association_rules.precision()
        );
        assert!(results.num_field_corr_rules > 0);
        assert!(results.num_assoc_rules > 0);
        assert!(results.covered_entities > 0);
    }

    #[test]
    fn ensemble_sandwich_holds_everywhere() {
        let results = tiny_results();
        for r in &results.per_granularity {
            // AND predicts a subset of each; OR a superset.
            assert!(r.and_ensemble.predictions <= r.field_correlations.predictions);
            assert!(r.and_ensemble.predictions <= r.association_rules.predictions);
            assert!(r.or_ensemble.predictions >= r.field_correlations.predictions);
            assert!(r.or_ensemble.predictions >= r.association_rules.predictions);
            // Recall ordering follows.
            assert!(r.or_ensemble.recall() + 1e-12 >= r.field_correlations.recall());
            assert!(r.and_ensemble.recall() <= r.association_rules.recall() + 1e-12);
            // Overlap bookkeeping is consistent.
            assert_eq!(r.fc_ar_overlap.a_total, r.field_correlations.predictions);
            assert_eq!(r.fc_ar_overlap.b_total, r.association_rules.predictions);
            assert_eq!(
                r.or_ensemble.predictions,
                r.field_correlations.predictions + r.association_rules.predictions
                    - r.fc_ar_overlap.shared
            );
        }
    }

    #[test]
    fn weekly_series_only_for_7d() {
        let results = tiny_results();
        assert!(results.granularity(7).unwrap().weekly_series.is_some());
        assert!(results.granularity(1).unwrap().weekly_series.is_none());
        let series = results
            .granularity(7)
            .unwrap()
            .weekly_series
            .as_ref()
            .unwrap();
        for s in series {
            assert_eq!(s.len(), 52);
        }
    }

    #[test]
    fn resumable_evaluation_matches_serial_exactly() {
        let corpus = generate(&SynthConfig::tiny());
        let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
        let split = EvalSplit::for_span(filtered.time_span().unwrap()).unwrap();
        let config = ExperimentConfig::default();
        let reference = run_paper_evaluation(&filtered, &split, &config);

        // Fresh manifest: every stage computed, results identical.
        let mut manifest = crate::checkpoint::CheckpointManifest::new("fp");
        let mut stages = Vec::new();
        let fresh = run_paper_evaluation_resumable(
            &filtered,
            &split,
            &config,
            &mut manifest,
            &mut |name, _m| {
                stages.push(name.to_owned());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(fresh, reference);
        assert_eq!(
            stages,
            vec![
                "train",
                "granularity_1",
                "granularity_7",
                "granularity_30",
                "granularity_365"
            ]
        );

        // Simulate a crash after 7d: keep train + first two granularities,
        // resume must recompute only the rest and agree exactly.
        let mut partial = crate::checkpoint::CheckpointManifest::new("fp");
        run_paper_evaluation_resumable(
            &filtered,
            &split,
            &config,
            &mut partial,
            &mut |name, _m| {
                if name == "granularity_7" {
                    Err("simulated crash".to_owned())
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert!(partial.granularity(7).is_some());
        assert!(partial.granularity(30).is_none());
        let mut resumed_stages = Vec::new();
        let resumed = run_paper_evaluation_resumable(
            &filtered,
            &split,
            &config,
            &mut partial,
            &mut |name, _m| {
                resumed_stages.push(name.to_owned());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(resumed, reference);
        assert_eq!(
            resumed_stages,
            vec!["train", "granularity_30", "granularity_365"]
        );

        // Fully complete manifest: nothing recomputed.
        let complete = run_paper_evaluation_resumable(
            &filtered,
            &split,
            &config,
            &mut partial,
            &mut |_n, _m| panic!("no stage should run on a complete checkpoint"),
        )
        .unwrap();
        assert_eq!(complete, reference);
    }

    #[test]
    fn validation_evaluation_runs() {
        let corpus = generate(&SynthConfig::tiny());
        let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
        let split = EvalSplit::for_span(filtered.time_span().unwrap()).unwrap();
        let results = run_validation_evaluation(&filtered, &split, &ExperimentConfig::default());
        assert_eq!(results.per_granularity.len(), 4);
    }
}
