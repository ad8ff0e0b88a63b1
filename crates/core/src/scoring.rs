//! Reusable query-path scoring shared by the batch evaluation and the
//! serving layer.
//!
//! The §5 evaluation and an online staleness service answer the same
//! question — "does some predictor expect field *f* to change inside
//! window *w*?" — so they must run the *same* code. [`predict_all`] is
//! the predictor sweep extracted verbatim from the batch evaluation
//! loop (`experiment::evaluate_granularity` now calls it), and
//! [`Scorer`] answers individual (entity, property, window) triples and
//! per-page queries by membership lookup in those very
//! [`PredictionSet`]s. Served scores are therefore byte-identical to
//! batch `predict` output by construction: there is no second
//! implementation to drift.
//!
//! A staleness banner ([`Scorer::page_flags`], `StalenessDetector::flag`)
//! is decided per field by [`explain()`], so a page's banner reads only
//! that page's fields; a reference test pins it to the batch OR-ensemble
//! sets.

use crate::ensemble::{and_ensemble, or_ensemble};
use crate::experiment::TrainedPredictors;
use crate::explain::{explain, Explanation, Reason};
use crate::predictions::PredictionSet;
use crate::predictor::{ChangePredictor, EvalData};
use crate::predictors::SeasonalPredictor;
use wikistale_wikicube::{Date, DateRange, FieldId, PageId};

/// The longest staleness window, in days, a flag query accepts (the
/// `/v1/stale` route and the `monitor` command). Windows run 1..=this.
pub const MAX_WINDOW_DAYS: u32 = 365;

/// The six per-granularity prediction sets of §5: four predictors plus
/// the two ensembles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictedSets {
    /// Field correlations (§3.2).
    pub field_corr: PredictionSet,
    /// Association rules (§3.3).
    pub assoc: PredictionSet,
    /// Mean baseline (§5.2).
    pub mean: PredictionSet,
    /// Threshold baseline (§5.2).
    pub threshold: PredictionSet,
    /// AND ensemble (§3.4).
    pub and: PredictionSet,
    /// OR ensemble (§3.4).
    pub or: PredictionSet,
}

/// Run every trained predictor over `eval_range` at one granularity and
/// form the ensembles — the single prediction code path shared by the
/// batch evaluation and the serving layer.
pub fn predict_all(
    data: &EvalData<'_>,
    predictors: &TrainedPredictors,
    eval_range: DateRange,
    granularity: u32,
) -> PredictedSets {
    let obs = wikistale_obs::MetricsRegistry::global();
    let _s = obs.span("predict");
    let field_corr = {
        let _p = obs.span("field_corr");
        predictors.field_corr.predict(data, eval_range, granularity)
    };
    let assoc = {
        let _p = obs.span("assoc");
        predictors.assoc.predict(data, eval_range, granularity)
    };
    let mean = {
        let _p = obs.span("mean");
        predictors.mean.predict(data, eval_range, granularity)
    };
    let threshold = {
        let _p = obs.span("threshold");
        predictors.threshold.predict(data, eval_range, granularity)
    };
    let (and, or) = {
        let _p = obs.span("ensembles");
        (
            and_ensemble(&field_corr, &assoc),
            or_ensemble(&field_corr, &assoc),
        )
    };
    obs.counter("predict/emitted").add(
        (field_corr.items().len()
            + assoc.items().len()
            + mean.items().len()
            + threshold.items().len()) as u64,
    );
    PredictedSets {
        field_corr,
        assoc,
        mean,
        threshold,
        and,
        or,
    }
}

/// One (entity, property, window) scoring request, by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreQuery {
    /// Entity (infobox instance) name.
    pub entity: String,
    /// Property (infobox attribute) name.
    pub property: String,
    /// Tumbling-window index into the evaluation range.
    pub window: u32,
}

/// Per-predictor verdicts for one scored triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TripleScore {
    /// First day of the scored window.
    pub window_start: Date,
    /// Field-correlation verdict.
    pub field_correlations: bool,
    /// Association-rule verdict.
    pub association_rules: bool,
    /// Mean-baseline verdict.
    pub mean_baseline: bool,
    /// Threshold-baseline verdict.
    pub threshold_baseline: bool,
    /// AND-ensemble verdict.
    pub and_ensemble: bool,
    /// OR-ensemble verdict.
    pub or_ensemble: bool,
}

/// Why a [`ScoreQuery`] could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScoreError {
    /// No entity with this name exists in the corpus.
    UnknownEntity(String),
    /// No property with this name exists in the corpus.
    UnknownProperty(String),
    /// Entity and property both exist, but the field never changed in
    /// the (filtered) corpus, so no predictor tracks it.
    UnknownField {
        /// The requested entity name.
        entity: String,
        /// The requested property name.
        property: String,
    },
    /// The window index lies past the last complete window.
    WindowOutOfRange {
        /// The requested window index.
        window: u32,
        /// Number of complete windows at this granularity.
        num_windows: u32,
    },
}

impl std::fmt::Display for ScoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreError::UnknownEntity(name) => write!(f, "unknown entity {name:?}"),
            ScoreError::UnknownProperty(name) => write!(f, "unknown property {name:?}"),
            ScoreError::UnknownField { entity, property } => {
                write!(f, "field ({entity:?}, {property:?}) is not tracked")
            }
            ScoreError::WindowOutOfRange {
                window,
                num_windows,
            } => write!(
                f,
                "window {window} out of range (0..{num_windows} complete windows)"
            ),
        }
    }
}

impl std::error::Error for ScoreError {}

/// Answers staleness queries against one trained model generation.
///
/// Borrows the cube, index, and trained predictors (the serving layer
/// owns them for the process lifetime) plus the evaluation range whose
/// tumbling windows `window` indices refer to.
#[derive(Clone, Copy)]
pub struct Scorer<'a> {
    data: EvalData<'a>,
    predictors: &'a TrainedPredictors,
    eval_range: DateRange,
}

impl<'a> Scorer<'a> {
    /// A scorer answering window indices over `eval_range`.
    pub fn new(
        data: EvalData<'a>,
        predictors: &'a TrainedPredictors,
        eval_range: DateRange,
    ) -> Scorer<'a> {
        Scorer {
            data,
            predictors,
            eval_range,
        }
    }

    /// The cube + index being served.
    pub fn data(&self) -> EvalData<'a> {
        self.data
    }

    /// The range whose tumbling windows queries index into.
    pub fn eval_range(&self) -> DateRange {
        self.eval_range
    }

    /// The full prediction sweep at `granularity` — identical to one
    /// batch-evaluation granularity leg.
    pub fn predict(&self, granularity: u32) -> PredictedSets {
        predict_all(&self.data, self.predictors, self.eval_range, granularity)
    }

    /// Score one triple by membership lookup in `sets` (obtained from
    /// [`Scorer::predict`] at the desired granularity).
    pub fn score_triple(
        &self,
        sets: &PredictedSets,
        query: &ScoreQuery,
    ) -> Result<TripleScore, ScoreError> {
        let cube = self.data.cube;
        let entity = cube
            .entity_id(&query.entity)
            .ok_or_else(|| ScoreError::UnknownEntity(query.entity.clone()))?;
        let property = cube
            .property_id(&query.property)
            .ok_or_else(|| ScoreError::UnknownProperty(query.property.clone()))?;
        let pos = self
            .data
            .index
            .position(FieldId::new(entity, property))
            .ok_or_else(|| ScoreError::UnknownField {
                entity: query.entity.clone(),
                property: query.property.clone(),
            })? as u32;
        let num_windows = sets.or.num_windows();
        if query.window >= num_windows {
            return Err(ScoreError::WindowOutOfRange {
                window: query.window,
                num_windows,
            });
        }
        let w = query.window;
        Ok(TripleScore {
            window_start: sets.or.window_range(w).start(),
            field_correlations: sets.field_corr.contains(pos, w),
            association_rules: sets.assoc.contains(pos, w),
            mean_baseline: sets.mean.contains(pos, w),
            threshold_baseline: sets.threshold.contains(pos, w),
            and_ensemble: sets.and.contains(pos, w),
            or_ensemble: sets.or.contains(pos, w),
        })
    }

    /// Flag potentially stale fields of one page for `window`, each with
    /// its provenance from [`explain()`]. Only the page's own fields are
    /// read, so this costs O(page), not O(corpus). Same semantics as
    /// [`crate::detector::StalenessDetector::flag`] without its seasonal
    /// extension, restricted to one page.
    pub fn page_flags(&self, page: PageId, window: DateRange) -> Vec<Explanation> {
        let fields = self.data.index.fields_on_page(page);
        let fields = fields.iter().map(|&pos| pos as usize);
        stale_flags(&self.data, self.predictors, None, fields, window)
    }
}

/// The one banner decision, made per field over the index positions
/// `fields`: a field that did not visibly change inside `window` is
/// flagged when [`explain()`] finds a partner or rule reason (exactly the
/// OR ensemble's positives) or `seasonal` expects an annual recurrence.
pub(crate) fn stale_flags(
    data: &EvalData<'_>,
    predictors: &TrainedPredictors,
    seasonal: Option<&SeasonalPredictor>,
    fields: impl IntoIterator<Item = usize>,
    window: DateRange,
) -> Vec<Explanation> {
    let (index, fc, ar) = (data.index, &predictors.field_corr, &predictors.assoc);
    let flag = |pos: usize| {
        // An empty window holds no prediction, and a field the reader
        // already sees freshly updated needs no banner (in the §5
        // protocol those are the true positives).
        if window.is_empty() || index.changed_in(pos, window.start(), window.end()) {
            return None;
        }
        let field = index.field(pos);
        let mut explanation = explain(data, fc, ar, field, window);
        if let Some(seasonal) = seasonal {
            let days = index.days(pos);
            if explanation.is_none() && !seasonal.recurs(days, window) {
                return None;
            }
            let explanation = explanation.get_or_insert(Explanation {
                field,
                window,
                reasons: Vec::new(),
            });
            if let Some((hits, observable)) = seasonal.recurrence(days, window) {
                // Only attach when it actually carries signal.
                if observable >= seasonal.params.min_years && hits > 0 {
                    explanation
                        .reasons
                        .push(Reason::AnnualRecurrence { hits, observable });
                }
            }
        }
        explanation
    };
    fields.into_iter().filter_map(flag).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{evaluate_granularity, ExperimentConfig};
    use crate::filters::FilterPipeline;
    use crate::predictors::SeasonalParams;
    use crate::split::EvalSplit;
    use wikistale_synth::{generate, SynthConfig};
    use wikistale_wikicube::{ChangeCube, CubeIndex};

    fn fixture() -> (ChangeCube, EvalSplit) {
        let corpus = generate(&SynthConfig::tiny());
        let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
        let split = EvalSplit::for_span(filtered.time_span().unwrap()).unwrap();
        (filtered, split)
    }

    #[test]
    fn predict_all_matches_batch_evaluation_counts() {
        let (filtered, split) = fixture();
        let index = CubeIndex::build(&filtered);
        let data = EvalData::new(&filtered, &index);
        let config = ExperimentConfig::default();
        let predictors = TrainedPredictors::train(&data, split.train_and_validation(), &config);
        for g in crate::GRANULARITIES {
            let sets = predict_all(&data, &predictors, split.test, g);
            let batch = evaluate_granularity(&data, &predictors, split.test, g, false);
            assert_eq!(sets.field_corr.len(), batch.field_correlations.predictions);
            assert_eq!(sets.assoc.len(), batch.association_rules.predictions);
            assert_eq!(sets.mean.len(), batch.mean_baseline.predictions);
            assert_eq!(sets.threshold.len(), batch.threshold_baseline.predictions);
            assert_eq!(sets.and.len(), batch.and_ensemble.predictions);
            assert_eq!(sets.or.len(), batch.or_ensemble.predictions);
        }
    }

    #[test]
    fn score_triple_agrees_with_set_membership_everywhere() {
        let (filtered, split) = fixture();
        let index = CubeIndex::build(&filtered);
        let data = EvalData::new(&filtered, &index);
        let config = ExperimentConfig::default();
        let predictors = TrainedPredictors::train(&data, split.train_and_validation(), &config);
        let scorer = Scorer::new(data, &predictors, split.test);
        let sets = scorer.predict(7);
        // Every positive OR prediction must score true through the
        // by-name API, and a window with no prediction must score false.
        let mut positives = 0;
        for &(pos, w) in sets.or.items().iter().take(50) {
            let field = index.field(pos as usize);
            let query = ScoreQuery {
                entity: filtered.entity_name(field.entity).to_string(),
                property: filtered.property_name(field.property).to_string(),
                window: w,
            };
            let score = scorer.score_triple(&sets, &query).unwrap();
            assert!(score.or_ensemble);
            assert_eq!(score.field_correlations, sets.field_corr.contains(pos, w));
            assert_eq!(score.and_ensemble, sets.and.contains(pos, w));
            assert_eq!(score.window_start, sets.or.window_range(w).start());
            positives += 1;
        }
        assert!(positives > 0, "no OR positives to cross-check");
    }

    #[test]
    fn score_errors_are_precise() {
        let (filtered, split) = fixture();
        let index = CubeIndex::build(&filtered);
        let data = EvalData::new(&filtered, &index);
        let config = ExperimentConfig::default();
        let predictors = TrainedPredictors::train(&data, split.train_and_validation(), &config);
        let scorer = Scorer::new(data, &predictors, split.test);
        let sets = scorer.predict(7);
        let field = index.field(0);
        let entity = filtered.entity_name(field.entity).to_string();
        let property = filtered.property_name(field.property).to_string();
        let q = |e: &str, p: &str, w: u32| ScoreQuery {
            entity: e.to_string(),
            property: p.to_string(),
            window: w,
        };
        assert!(matches!(
            scorer.score_triple(&sets, &q("no-such-entity", &property, 0)),
            Err(ScoreError::UnknownEntity(_))
        ));
        assert!(matches!(
            scorer.score_triple(&sets, &q(&entity, "no-such-property", 0)),
            Err(ScoreError::UnknownProperty(_))
        ));
        let oob = scorer
            .score_triple(&sets, &q(&entity, &property, sets.or.num_windows()))
            .unwrap_err();
        assert!(matches!(oob, ScoreError::WindowOutOfRange { .. }));
        assert!(oob.to_string().contains("out of range"));
    }

    #[test]
    fn page_flags_match_detector_semantics() {
        let (filtered, split) = fixture();
        let index = CubeIndex::build(&filtered);
        let data = EvalData::new(&filtered, &index);
        let config = ExperimentConfig::default();
        let predictors = TrainedPredictors::train(&data, split.train_and_validation(), &config);
        let scorer = Scorer::new(data, &predictors, split.test);
        // Sweep the test year week by week across all pages; every flag
        // must belong to the queried page, carry reasons, and point at a
        // field that did not change in the window. A page's flags must
        // also equal the whole-cube flags restricted to that page.
        let mut total = 0;
        for week in 0..52 {
            let start = split.test.start() + week * 7;
            let window = DateRange::with_len(start, 7);
            let whole = stale_flags(&data, &predictors, None, 0..index.num_fields(), window);
            for page in 0..filtered.num_pages() {
                let page = wikistale_wikicube::PageId(page as u32);
                let flags = scorer.page_flags(page, window);
                for flag in &flags {
                    assert_eq!(data.cube.page_of(flag.field.entity), page);
                    assert!(!flag.reasons.is_empty());
                    let pos = index.position(flag.field).unwrap();
                    assert!(!index.changed_in(pos, window.start(), window.end()));
                    total += 1;
                }
                let restricted: Vec<&Explanation> = whole
                    .iter()
                    .filter(|flag| data.cube.page_of(flag.field.entity) == page)
                    .collect();
                assert_eq!(flags.iter().collect::<Vec<_>>(), restricted);
            }
        }
        assert!(total > 0, "no page flags across the test year");
    }

    /// The banner decision before it was made per field: the whole-cube
    /// OR-ensemble positives for `window` (plus `seasonal`'s), each
    /// explained, restricted to `page` when given. Kept as the reference
    /// [`stale_flags`] must reproduce.
    fn reference_stale_flags(
        data: &EvalData<'_>,
        predictors: &TrainedPredictors,
        seasonal: Option<&SeasonalPredictor>,
        page: Option<PageId>,
        window: DateRange,
    ) -> Vec<Explanation> {
        let granularity = window.len_days().max(1);
        let fc = predictors.field_corr.predict(data, window, granularity);
        let ar = predictors.assoc.predict(data, window, granularity);
        let mut positives = or_ensemble(&fc, &ar);
        if let Some(seasonal) = seasonal {
            positives = or_ensemble(&positives, &seasonal.predict(data, window, granularity));
        }

        let index = data.index;
        let flag = |pos: u32| {
            let pos = pos as usize;
            if index.changed_in(pos, window.start(), window.end()) {
                return None;
            }
            let field = index.field(pos);
            let mut explanation = explain(
                data,
                &predictors.field_corr,
                &predictors.assoc,
                field,
                window,
            )
            .unwrap_or(Explanation {
                field,
                window,
                reasons: Vec::new(),
            });
            if let Some(seasonal) = seasonal {
                let days = index.days(pos).to_vec();
                if let Some((hits, observable)) = seasonal.recurrence(&days, window) {
                    if observable >= seasonal.params.min_years && hits > 0 {
                        explanation
                            .reasons
                            .push(Reason::AnnualRecurrence { hits, observable });
                    }
                }
            }
            (!explanation.reasons.is_empty()).then_some(explanation)
        };
        match page {
            Some(page) => index
                .fields_on_page(page)
                .iter()
                .copied()
                .filter(|&pos| positives.contains(pos, 0))
                .filter_map(flag)
                .collect(),
            None => positives
                .items()
                .iter()
                .filter_map(|&(pos, _)| flag(pos))
                .collect(),
        }
    }

    /// Assert that the per-field [`stale_flags`] equals the whole-cube
    /// reference on the paper-filtered `config` corpus, for every
    /// `window_stride`-th tumbling window of 1, 7, 30 and 365 days in the
    /// test year, with the seasonal predictor off and at its defaults.
    /// Every page is checked against the whole-cube reference restricted
    /// to it, and every `page_stride`-th page against the per-page
    /// reference call.
    fn assert_banners_match_reference(
        config: &SynthConfig,
        window_stride: usize,
        page_stride: usize,
    ) {
        let corpus = generate(config);
        let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
        let split = EvalSplit::for_span(filtered.time_span().unwrap()).unwrap();
        let index = CubeIndex::build(&filtered);
        let data = EvalData::new(&filtered, &index);
        let predictors = TrainedPredictors::train(
            &data,
            split.train_and_validation(),
            &ExperimentConfig::default(),
        );
        let seasonal = SeasonalPredictor::new(SeasonalParams::default());
        let mut flagged = [0usize; 2];
        for len in [1, 7, 30, 365] {
            let windows = (0..split.test.len_days() / len)
                .map(|w| DateRange::with_len(split.test.start() + (w * len) as i32, len));
            for window in windows.step_by(window_stride) {
                for (s, seasonal) in [None, Some(&seasonal)].into_iter().enumerate() {
                    let whole =
                        stale_flags(&data, &predictors, seasonal, 0..index.num_fields(), window);
                    let reference =
                        reference_stale_flags(&data, &predictors, seasonal, None, window);
                    assert_eq!(whole, reference, "whole cube, {window:?}, seasonal {s}");
                    flagged[s] += whole.len();
                    for p in 0..filtered.num_pages() {
                        let page = PageId(p as u32);
                        let fields = index.fields_on_page(page).iter().map(|&pos| pos as usize);
                        let flags = stale_flags(&data, &predictors, seasonal, fields, window);
                        let restricted: Vec<&Explanation> = reference
                            .iter()
                            .filter(|flag| filtered.page_of(flag.field.entity) == page)
                            .collect();
                        assert_eq!(flags.iter().collect::<Vec<_>>(), restricted);
                        if p % page_stride == 0 {
                            let paged = reference_stale_flags(
                                &data,
                                &predictors,
                                seasonal,
                                Some(page),
                                window,
                            );
                            assert_eq!(flags, paged, "page {p}, {window:?}, seasonal {s}");
                        }
                    }
                }
            }
        }
        assert!(
            flagged.iter().all(|&n| n > 0),
            "too few banners to compare: {flagged:?}"
        );
    }

    #[test]
    fn banners_match_the_whole_cube_reference_on_synth_tiny() {
        assert_banners_match_reference(&SynthConfig::tiny(), 1, 16);
    }

    #[test]
    fn banners_match_the_whole_cube_reference_on_synth_small() {
        assert_banners_match_reference(&SynthConfig::small(), 11, 1999);
    }
}
