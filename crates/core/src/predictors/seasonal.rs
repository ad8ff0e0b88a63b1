//! The seasonality predictor — the first future-work extension the paper
//! proposes (§6): "adding predictors to the ensemble that focus on other
//! aspects of the data: they could capture seasonality".
//!
//! Neither base predictor can flag a field whose related properties are
//! *also* stale, or which has no related properties at all. But many
//! Wikipedia fields recur annually on their own — league tables during the
//! season, award fields around ceremony dates. This predictor flags field
//! *f* for window *w* when, in at least [`SeasonalParams::min_years`]
//! previous years, *f* changed inside the same calendar window
//! (± [`SeasonalParams::slack_days`]), in a sufficiently large fraction of
//! those years.
//!
//! The predictor consults only *f*'s own changes strictly before the
//! window starts (every year-shifted window ends before the current one
//! begins), so the masked-field protocol of §5.1 holds by construction.

use crate::predictions::PredictionSet;
use crate::predictor::{ChangePredictor, EvalData};
use wikistale_wikicube::{Date, DateRange};

/// Tuning knobs for [`SeasonalPredictor`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeasonalParams {
    /// Minimum number of observable previous years before the predictor
    /// dares a prediction for a field.
    pub min_years: u32,
    /// Fraction of observable years that must contain a change in the
    /// shifted window.
    pub recurrence_threshold: f64,
    /// Calendar jitter tolerance: each year-shifted window is widened by
    /// this many days on both sides (seasons do not start on the exact
    /// same day every year).
    pub slack_days: u32,
    /// How many years back to look at most.
    pub max_years: u32,
    /// Liveness guard: skip fields whose most recent change (before the
    /// window) is older than this many days — a perfect annual history is
    /// worthless if the field has since been deleted or its event
    /// discontinued.
    pub max_staleness_days: u32,
}

impl Default for SeasonalParams {
    fn default() -> SeasonalParams {
        SeasonalParams {
            min_years: 4,
            recurrence_threshold: 0.88,
            slack_days: 1,
            max_years: 12,
            max_staleness_days: 550,
        }
    }
}

/// The annual-recurrence predictor. Stateless apart from its parameters:
/// recurrence is computed against the field history at prediction time
/// (always restricted to days before the window).
#[derive(Debug, Clone, Default)]
pub struct SeasonalPredictor {
    /// Parameters.
    pub params: SeasonalParams,
}

impl SeasonalPredictor {
    /// Predictor with default parameters.
    pub fn new(params: SeasonalParams) -> SeasonalPredictor {
        SeasonalPredictor { params }
    }

    fn max_staleness_days(&self) -> i32 {
        self.params.max_staleness_days as i32
    }

    /// Count `(hits, observable)` year-shifted recurrences of `window` in
    /// `days` (sorted, the field's full history). Returns `None` when the
    /// liveness guard fails or the field has no history before the window.
    pub fn recurrence(&self, days: &[Date], window: DateRange) -> Option<(u32, u32)> {
        if days.is_empty() {
            return None;
        }
        // Liveness: the field must have changed somewhat recently.
        let before = days.partition_point(|&d| d < window.start());
        let last = days[..before].last()?;
        if window.start() - *last > self.max_staleness_days() {
            return None;
        }
        let first = days[0];
        // Only whole-year shifts that keep the shifted window strictly
        // before the evaluation window are considered (masking).
        let mut observable = 0u32;
        let mut hits = 0u32;
        for k in 1..=self.params.max_years {
            let shift = (k * 365) as i32;
            let lo = window.start() - shift - self.params.slack_days as i32;
            let hi = window.end() - shift + self.params.slack_days as i32;
            if hi > window.start() {
                continue; // would peek into the masked window
            }
            if hi <= first {
                break; // before the field existed
            }
            observable += 1;
            let from = days.partition_point(|&d| d < lo);
            if from < days.len() && days[from] < hi {
                hits += 1;
            }
        }
        Some((hits, observable))
    }

    /// Whether `days` supports a seasonal prediction for `window`.
    pub(crate) fn recurs(&self, days: &[Date], window: DateRange) -> bool {
        let Some((hits, observable)) = self.recurrence(days, window) else {
            return false;
        };
        // Add-one smoothing in the denominator: with only a handful of
        // observable years, a lucky perfect streak is not yet evidence of
        // a true ≥ threshold recurrence (winner's curse across thousands
        // of candidate windows). The smoothed estimate demands either a
        // long streak or a very long history.
        observable >= self.params.min_years
            && hits as f64 / (observable + 1) as f64 + f64::EPSILON
                >= self.params.recurrence_threshold
    }
}

impl ChangePredictor for SeasonalPredictor {
    fn name(&self) -> &'static str {
        "Seasonal recurrence"
    }

    fn predict(&self, data: &EvalData<'_>, range: DateRange, granularity: u32) -> PredictionSet {
        let mut set = PredictionSet::new(range, granularity);
        for pos in 0..data.index.num_fields() {
            let days = data.index.days(pos);
            for w in 0..set.num_windows() {
                if self.recurs(days, set.window_range(w)) {
                    set.insert(pos as u32, w);
                }
            }
        }
        set.seal();
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wikistale_wikicube::{ChangeCubeBuilder, ChangeKind, CubeIndex, FieldId};

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    /// How many years of history the fixture carries; the evaluation year
    /// is the one after.
    const YEARS: i32 = 10;

    /// `annual` changes around day 200 of every year; `erratic` changes on
    /// random-looking days; `young` has only two years of history.
    fn cube() -> (wikistale_wikicube::ChangeCube, CubeIndex) {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let annual = b.property("annual");
        let erratic = b.property("erratic");
        let young = b.property("young");
        for year in 0..YEARS {
            // ±2 days of jitter around day 200.
            let jitter = [0, 2, -1, 1, -2, 0, 1, -1, 2, 0][year as usize];
            b.change(
                day(year * 365 + 200 + jitter),
                e,
                annual,
                "v",
                ChangeKind::Update,
            );
        }
        for d in [37, 411, 799, 1205, 1933, 2501, 3007] {
            b.change(day(d), e, erratic, "v", ChangeKind::Update);
        }
        for year in YEARS - 2..YEARS {
            b.change(day(year * 365 + 100), e, young, "v", ChangeKind::Update);
        }
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        (cube, index)
    }

    fn pos(cube: &wikistale_wikicube::ChangeCube, index: &CubeIndex, name: &str) -> u32 {
        index
            .position(FieldId::new(
                cube.entity_id("E").unwrap(),
                cube.property_id(name).unwrap(),
            ))
            .unwrap() as u32
    }

    #[test]
    fn annual_field_is_predicted_in_its_season_only() {
        let (cube, index) = cube();
        let data = EvalData::new(&cube, &index);
        let predictor = SeasonalPredictor::default();
        // Evaluate the year after the history in 30-day windows.
        let eval = DateRange::with_len(day(YEARS * 365), 365);
        let set = predictor.predict(&data, eval, 30);
        let annual = pos(&cube, &index, "annual");
        // Day 200 of the year falls into window 6 ([180, 210)).
        assert!(set.contains(annual, 6), "season window must be predicted");
        let predicted_windows: Vec<u32> = set
            .items()
            .iter()
            .filter(|&&(p, _)| p == annual)
            .map(|&(_, w)| w)
            .collect();
        assert!(
            predicted_windows.iter().all(|&w| (5..=7).contains(&w)),
            "only near-season windows may fire, got {predicted_windows:?}"
        );
    }

    #[test]
    fn erratic_and_young_fields_stay_silent() {
        let (cube, index) = cube();
        let data = EvalData::new(&cube, &index);
        let predictor = SeasonalPredictor::default();
        let eval = DateRange::with_len(day(YEARS * 365), 365);
        let set = predictor.predict(&data, eval, 30);
        assert!(!set
            .items()
            .iter()
            .any(|&(p, _)| p == pos(&cube, &index, "erratic")));
        assert!(!set
            .items()
            .iter()
            .any(|&(p, _)| p == pos(&cube, &index, "young")));
    }

    #[test]
    fn fine_granularity_requires_tight_recurrence() {
        let (cube, index) = cube();
        let data = EvalData::new(&cube, &index);
        let predictor = SeasonalPredictor::default();
        let eval = DateRange::with_len(day(YEARS * 365), 365);
        // At 1-day windows the jittered history cannot clear the smoothed
        // recurrence for any single day (±1 slack helps some days but the
        // jitter spreads hits across several).
        let set = predictor.predict(&data, eval, 1);
        let annual = pos(&cube, &index, "annual");
        let daily_hits = set.items().iter().filter(|&&(p, _)| p == annual).count();
        // A few individual days may still qualify — but far fewer than
        // the 30-day case, and never outside the season.
        for &(p, w) in set.items() {
            if p == annual {
                assert!((190..215).contains(&w), "window {w} outside season");
            }
        }
        let yearly = predictor.predict(&data, eval, 365);
        assert!(yearly.contains(annual, 0), "yearly prediction must fire");
        let _ = daily_hits;
    }

    #[test]
    fn masked_protocol_no_future_peeking() {
        // A field that changes ONLY in the evaluation year must never be
        // predicted, however dense those changes are.
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("fresh");
        let old = b.property("old");
        for d in 0..30 {
            b.change(day(10 * 365 + 100 + d), e, p, "v", ChangeKind::Update);
        }
        for year in 0..10 {
            b.change(day(year * 365 + 100), e, old, "v", ChangeKind::Update);
        }
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        let data = EvalData::new(&cube, &index);
        let eval = DateRange::with_len(day(10 * 365), 365);
        let set = SeasonalPredictor::default().predict(&data, eval, 30);
        let fresh = pos(&cube, &index, "fresh");
        assert!(!set.items().iter().any(|&(p2, _)| p2 == fresh));
    }

    #[test]
    fn thresholds_are_respected() {
        let (cube, index) = cube();
        let data = EvalData::new(&cube, &index);
        let eval = DateRange::with_len(day(YEARS * 365), 365);
        // Demand more years than exist → silent even for the annual field.
        let strict = SeasonalPredictor::new(SeasonalParams {
            min_years: 20,
            ..SeasonalParams::default()
        });
        assert!(strict.predict(&data, eval, 30).is_empty());
        // A perfect-recurrence demand can never be met under add-one
        // smoothing: hits/(observable + 1) < 1 always.
        let perfect = SeasonalPredictor::new(SeasonalParams {
            recurrence_threshold: 1.0,
            ..SeasonalParams::default()
        });
        assert!(perfect.predict(&data, eval, 30).is_empty());
        // A liveness guard of under a year silences the annual field too.
        let stale = SeasonalPredictor::new(SeasonalParams {
            max_staleness_days: 30,
            ..SeasonalParams::default()
        });
        assert!(stale.predict(&data, eval, 30).is_empty());
    }
}
