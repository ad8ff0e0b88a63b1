//! The one-call deployment facade: [`StalenessDetector`].
//!
//! Everything the paper's envisioned Wikipedia deployment needs in one
//! owned object — feed it a raw change cube (from a dump or the
//! generator), it filters, trains all predictors, and then answers the
//! production question: *which fields should be flagged "this value might
//! be out of date" for the week that just ended, and why?*
//!
//! ```
//! use wikistale_core::detector::{DetectorConfig, StalenessDetector};
//! use wikistale_synth::{generate, SynthConfig};
//!
//! let corpus = generate(&SynthConfig::tiny());
//! let detector =
//!     StalenessDetector::train_from_raw(&corpus.cube, &DetectorConfig::default()).unwrap();
//! let last_monday = "2019-06-03".parse().unwrap();
//! for flag in detector.flag_week(last_monday) {
//!     println!("{}", flag.render(&detector.data()));
//! }
//! ```

use crate::experiment::{ExperimentConfig, TrainedPredictors};
use crate::explain::Explanation;
use crate::filters::{FilterPipeline, FilterReport};
use crate::predictor::EvalData;
use crate::predictors::{SeasonalParams, SeasonalPredictor};
use crate::scoring::stale_flags;
use wikistale_wikicube::{ChangeCube, CubeIndex, Date, DateRange};

/// Configuration of the full detector stack.
#[derive(Debug, Clone, Default)]
pub struct DetectorConfig {
    /// Filter pipeline applied to the raw cube (paper defaults).
    pub filter: FilterPipeline,
    /// Predictor hyper-parameters (paper grid-search optima).
    pub experiment: ExperimentConfig,
    /// Also run the §6 seasonal-recurrence extension. `None` disables it;
    /// it only adds flags (never removes), so leaving it on is safe for
    /// recall and costs a bounded amount of precision at fine
    /// granularities (see experiment X1).
    pub seasonal: Option<SeasonalParams>,
}

/// Errors constructing a detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectorError {
    /// The raw cube is empty or everything was filtered away.
    NoTrainingData,
    /// The training cutoff leaves no history.
    EmptyTrainingRange,
}

impl std::fmt::Display for DetectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectorError::NoTrainingData => {
                f.write_str("no changes survive filtering — nothing to train on")
            }
            DetectorError::EmptyTrainingRange => {
                f.write_str("training cutoff leaves no history before it")
            }
        }
    }
}

impl std::error::Error for DetectorError {}

/// A trained, self-contained staleness detector.
#[derive(Debug)]
pub struct StalenessDetector {
    filtered: ChangeCube,
    index: CubeIndex,
    trained: TrainedPredictors,
    seasonal: Option<SeasonalPredictor>,
    filter_report: FilterReport,
    train_range: DateRange,
}

impl StalenessDetector {
    /// Filter `raw` and train on its entire history.
    pub fn train_from_raw(
        raw: &ChangeCube,
        config: &DetectorConfig,
    ) -> Result<StalenessDetector, DetectorError> {
        let cutoff = raw
            .time_span()
            .map(|s| s.end())
            .ok_or(DetectorError::NoTrainingData)?;
        StalenessDetector::train_until(raw, cutoff, config)
    }

    /// Filter `raw` and train only on changes strictly before `cutoff` —
    /// the deployment shape, where the detector must not see the window it
    /// will later be asked about.
    pub fn train_until(
        raw: &ChangeCube,
        cutoff: Date,
        config: &DetectorConfig,
    ) -> Result<StalenessDetector, DetectorError> {
        let (filtered, filter_report) = config.filter.apply(raw);
        let span = filtered.time_span().ok_or(DetectorError::NoTrainingData)?;
        if cutoff <= span.start() {
            return Err(DetectorError::EmptyTrainingRange);
        }
        let train_range = DateRange::new(span.start(), cutoff);
        let index = CubeIndex::build(&filtered);
        let trained = {
            let data = EvalData::new(&filtered, &index);
            TrainedPredictors::train(&data, train_range, &config.experiment)
        };
        Ok(StalenessDetector {
            filtered,
            index,
            trained,
            seasonal: config.seasonal.clone().map(SeasonalPredictor::new),
            filter_report,
            train_range,
        })
    }

    /// The filtered cube + index the detector runs on.
    pub fn data(&self) -> EvalData<'_> {
        EvalData::new(&self.filtered, &self.index)
    }

    /// Per-stage accounting of the filter pipeline run at construction.
    pub fn filter_report(&self) -> &FilterReport {
        &self.filter_report
    }

    /// The range the predictors were trained on.
    pub fn train_range(&self) -> DateRange {
        self.train_range
    }

    /// The trained predictors, for direct access.
    pub fn predictors(&self) -> &TrainedPredictors {
        &self.trained
    }

    /// Flag potentially stale fields for the 7 days before `week_end`
    /// (exclusive) — the paper's deployment cadence.
    pub fn flag_week(&self, week_end: Date) -> Vec<Explanation> {
        self.flag(DateRange::new(week_end - 7, week_end))
    }

    /// Flag potentially stale fields for an arbitrary window: fields some
    /// predictor expected to change inside `window` that did not visibly
    /// change there, each with its explanation.
    pub fn flag(&self, window: DateRange) -> Vec<Explanation> {
        stale_flags(
            &self.data(),
            &self.trained,
            self.seasonal.as_ref(),
            0..self.index.num_fields(),
            window,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::Reason;
    use wikistale_synth::{generate, SynthConfig};

    fn detector() -> (StalenessDetector, wikistale_synth::SynthCorpus) {
        let corpus = generate(&SynthConfig::tiny());
        let cutoff = Date::from_ymd(2019, 1, 1).unwrap();
        let detector = StalenessDetector::train_until(
            &corpus.cube,
            cutoff,
            &DetectorConfig {
                seasonal: Some(SeasonalParams::default()),
                ..DetectorConfig::default()
            },
        )
        .unwrap();
        (detector, corpus)
    }

    #[test]
    fn trains_and_flags_with_explanations() {
        let (detector, _corpus) = detector();
        assert!(detector.predictors().field_corr.num_rules() > 0);
        assert!(detector.predictors().assoc.num_rules() > 0);
        // Scan every complete week after the cutoff; banner flags are
        // rare by design (high precision ⇒ most predictions were real
        // changes, which need no banner), so cover the whole remainder
        // of the corpus. Deterministic via the fixed seed.
        let mut total_flags = 0;
        for week in 0..34 {
            let end = Date::from_ymd(2019, 1, 8).unwrap() + week * 7;
            for flag in detector.flag_week(end) {
                total_flags += 1;
                assert!(!flag.reasons.is_empty());
                let text = flag.render(&detector.data());
                assert!(text.contains("might be out of date"));
            }
        }
        assert!(total_flags > 0, "no flags across 34 weeks");
    }

    #[test]
    fn flagged_fields_did_not_change_in_window() {
        let (detector, _) = detector();
        let window = DateRange::new(
            Date::from_ymd(2019, 3, 1).unwrap(),
            Date::from_ymd(2019, 3, 8).unwrap(),
        );
        for flag in detector.flag(window) {
            let pos = detector.data().index.position(flag.field).unwrap();
            assert!(!detector
                .data()
                .index
                .changed_in(pos, window.start(), window.end()));
        }
    }

    #[test]
    fn train_range_respects_cutoff() {
        let (detector, _) = detector();
        assert_eq!(
            detector.train_range().end(),
            Date::from_ymd(2019, 1, 1).unwrap()
        );
        assert!(detector.filter_report().original > 0);
    }

    #[test]
    fn error_paths() {
        let empty = wikistale_wikicube::ChangeCubeBuilder::new().finish();
        assert_eq!(
            StalenessDetector::train_from_raw(&empty, &DetectorConfig::default()).unwrap_err(),
            DetectorError::NoTrainingData
        );
        let corpus = generate(&SynthConfig::tiny());
        let too_early = Date::from_ymd(1990, 1, 1).unwrap();
        assert_eq!(
            StalenessDetector::train_until(&corpus.cube, too_early, &DetectorConfig::default())
                .unwrap_err(),
            DetectorError::EmptyTrainingRange
        );
        assert!(DetectorError::NoTrainingData
            .to_string()
            .contains("nothing"));
    }

    #[test]
    fn seasonal_flag_reasons_render() {
        // Build a purely seasonal field: no correlations, no rules — only
        // the seasonal predictor can flag it.
        let mut b = wikistale_wikicube::ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("annual");
        for year in 0..10 {
            for k in 0..5 {
                // Five changes per burst keep the field past the min-5
                // filter; bursts always start on day 100 of the year.
                b.change(
                    Date::EPOCH + year * 365 + 100 + k,
                    e,
                    p,
                    &format!("v{year}-{k}"),
                    wikistale_wikicube::ChangeKind::Update,
                );
            }
        }
        let cube = b.finish();
        let detector = StalenessDetector::train_until(
            &cube,
            Date::EPOCH + 10 * 365,
            &DetectorConfig {
                seasonal: Some(SeasonalParams::default()),
                ..DetectorConfig::default()
            },
        )
        .unwrap();
        let window = DateRange::new(Date::EPOCH + 10 * 365 + 98, Date::EPOCH + 10 * 365 + 105);
        let flags = detector.flag(window);
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert!(matches!(
            flags[0].reasons[0],
            Reason::AnnualRecurrence { hits, observable } if hits >= 8 && observable >= 8
        ));
        let text = flags[0].render(&detector.data());
        assert!(text.contains("time of year"), "{text}");
    }
}
