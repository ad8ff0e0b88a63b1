//! Hyper-parameter grid searches (§5.2).
//!
//! Both searches score candidate configurations on the validation year
//! with models trained on the training range only, then pick the
//! configuration with the highest recall among those whose precision
//! clears the 85 % target — exactly the paper's selection rule.

use crate::eval::{evaluate, truth_set, EvalOutcome};
use crate::experiment::ExperimentConfig;
use crate::predictor::{ChangePredictor, EvalData};
use crate::predictors::{
    AssocParams, AssociationRulePredictor, FieldCorrelation, FieldCorrelationParams,
};
use crate::split::EvalSplit;
use wikistale_apriori::{AprioriParams, Support};
use wikistale_wikicube::{ChangeCube, CubeIndex};

/// One grid-search sample: a candidate configuration and its validation
/// outcome.
#[derive(Debug, Clone)]
pub struct GridPoint<P> {
    /// Candidate parameters.
    pub params: P,
    /// Validation-year outcome at the scoring granularity.
    pub outcome: EvalOutcome,
}

/// Result of a grid search: all sampled points plus the winner under the
/// paper's rule (max recall subject to precision ≥ target).
#[derive(Debug, Clone)]
pub struct GridSearch<P> {
    /// Every sampled point, in sweep order.
    pub points: Vec<GridPoint<P>>,
    /// Index of the selected point, if any candidate met the target.
    pub best: Option<usize>,
    /// The precision target used for selection.
    pub target_precision: f64,
}

impl<P> GridSearch<P> {
    fn select(points: Vec<GridPoint<P>>, target_precision: f64) -> GridSearch<P> {
        let best = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.outcome.precision() >= target_precision)
            .max_by(|(_, a), (_, b)| {
                a.outcome
                    .recall()
                    .partial_cmp(&b.outcome.recall())
                    .expect("recall is finite")
            })
            .map(|(i, _)| i);
        GridSearch {
            points,
            best,
            target_precision,
        }
    }

    /// The winning parameters, if any candidate met the target.
    pub fn best_params(&self) -> Option<&P> {
        self.best.map(|i| &self.points[i].params)
    }
}

/// The θ values the paper sweeps: 0.01 to 0.15.
pub fn paper_theta_grid() -> Vec<f64> {
    (1..=15).map(|i| i as f64 / 100.0).collect()
}

/// Sweep the field-correlation threshold θ (§5.2) and score each value on
/// the validation year at `granularity` days (the paper quotes the daily
/// numbers).
pub fn theta_grid_search(
    filtered: &ChangeCube,
    split: &EvalSplit,
    base: &FieldCorrelationParams,
    thetas: &[f64],
    granularity: u32,
) -> GridSearch<FieldCorrelationParams> {
    let index = CubeIndex::build(filtered);
    let data = EvalData::new(filtered, &index);
    let truth = truth_set(&index, split.validation, granularity);
    let points = thetas
        .iter()
        .map(|&theta| {
            let params = FieldCorrelationParams {
                theta,
                ..base.clone()
            };
            let fc = FieldCorrelation::train(&data, split.train, params.clone());
            let set = fc.predict(&data, split.validation, granularity);
            GridPoint {
                params,
                outcome: evaluate(&set, &truth),
            }
        })
        .collect();
    GridSearch::select(points, crate::TARGET_PRECISION)
}

/// The Apriori grid the `gridsearch` experiment sweeps by default:
/// min-support × min-confidence × validation fraction, centered on the
/// paper's optimum (0.25 %, 60 %, 10 %).
pub fn paper_apriori_grid() -> Vec<AssocParams> {
    let mut grid = Vec::new();
    for &support in &[0.001, 0.0025, 0.005, 0.01] {
        for &confidence in &[0.5, 0.6, 0.7, 0.8] {
            for &fraction in &[0.05, 0.10, 0.20] {
                grid.push(AssocParams {
                    apriori: AprioriParams {
                        min_support: Support::Fraction(support),
                        min_confidence: confidence,
                    },
                    validation_fraction: fraction,
                    min_rule_precision: 0.90,
                });
            }
        }
    }
    grid
}

/// Sweep association-rule parameters (§5.2) on the validation year.
pub fn apriori_grid_search(
    filtered: &ChangeCube,
    split: &EvalSplit,
    candidates: Vec<AssocParams>,
    granularity: u32,
) -> GridSearch<AssocParams> {
    let index = CubeIndex::build(filtered);
    let data = EvalData::new(filtered, &index);
    let truth = truth_set(&index, split.validation, granularity);
    let points = candidates
        .into_iter()
        .map(|params| {
            let ar = AssociationRulePredictor::train(&data, split.train, params.clone());
            let set = ar.predict(&data, split.validation, granularity);
            GridPoint {
                params,
                outcome: evaluate(&set, &truth),
            }
        })
        .collect();
    GridSearch::select(points, crate::TARGET_PRECISION)
}

/// Convenience: an [`ExperimentConfig`] assembled from grid-search
/// winners, falling back to the paper defaults where a search found no
/// qualifying candidate.
pub fn config_from_searches(
    theta: &GridSearch<FieldCorrelationParams>,
    apriori: &GridSearch<AssocParams>,
) -> ExperimentConfig {
    let mut config = ExperimentConfig::default();
    if let Some(p) = theta.best_params() {
        config.field_corr = p.clone();
    }
    if let Some(p) = apriori.best_params() {
        config.assoc = p.clone();
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::FilterPipeline;
    use wikistale_synth::{generate, SynthConfig};

    fn filtered_tiny() -> (ChangeCube, EvalSplit) {
        let corpus = generate(&SynthConfig::tiny());
        let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
        let split = EvalSplit::for_span(filtered.time_span().unwrap()).unwrap();
        (filtered, split)
    }

    #[test]
    fn paper_grids_have_expected_shape() {
        let thetas = paper_theta_grid();
        assert_eq!(thetas.len(), 15);
        assert!((thetas[0] - 0.01).abs() < 1e-12);
        assert!((thetas[14] - 0.15).abs() < 1e-12);
        assert_eq!(paper_apriori_grid().len(), 4 * 4 * 3);
    }

    #[test]
    fn theta_search_selects_qualifying_point() {
        let (filtered, split) = filtered_tiny();
        let search = theta_grid_search(
            &filtered,
            &split,
            &FieldCorrelationParams::default(),
            &[0.02, 0.1],
            7,
        );
        assert_eq!(search.points.len(), 2);
        if let Some(best) = search.best {
            let b = &search.points[best];
            assert!(b.outcome.precision() >= search.target_precision);
            // No qualifying point has strictly higher recall.
            for p in &search.points {
                if p.outcome.precision() >= search.target_precision {
                    assert!(p.outcome.recall() <= b.outcome.recall() + 1e-12);
                }
            }
        }
    }

    #[test]
    fn selection_rule_max_recall_under_target() {
        let mk = |precision: f64, recall: f64| {
            // Construct an outcome with the given rates over 1000 truths.
            let predictions = 1000usize;
            let tp = (precision * predictions as f64) as usize;
            let truth_total = (tp as f64 / recall.max(1e-9)) as usize;
            GridPoint {
                params: (),
                outcome: EvalOutcome {
                    predictions,
                    true_positives: tp,
                    truth_total,
                },
            }
        };
        let points = vec![
            mk(0.95, 0.02),
            mk(0.88, 0.05), // winner: qualifies, highest recall
            mk(0.70, 0.50), // disqualified by precision
        ];
        let search = GridSearch::select(points, 0.85);
        assert_eq!(search.best, Some(1));
        let none = GridSearch::select(vec![mk(0.5, 0.9)], 0.85);
        assert!(none.best.is_none());
        assert!(none.best_params().is_none());
    }
}
