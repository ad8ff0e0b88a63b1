//! The mean baseline (§5.2).
//!
//! A per-field regressor: the next change is forecast `n` days after the
//! last one, where `n` is the field's mean inter-change gap observed in
//! the training range. Stepping the forecast forward from the last change
//! known *before* each window converts the regression into the window
//! classification the evaluation needs.
//!
//! As §1 argues, this baseline fails on seasonal and bursty histories —
//! the paper reports ≤ 55 % precision everywhere — but it calibrates how
//! hard the task is.
//!
//! Training binary-searches each field's sorted days for the range start
//! and end. Prediction walks one forward index through the days and
//! visits only the windows a forecast can land in: after a positive window
//! the next one, after a negative one the window just before the
//! forecast's, but never past the window after the field's next change,
//! which resets the last change. Every visited window is decided by the
//! per-window expression, so a field costs O(days + hits), not O(W).

use crate::predictions::PredictionSet;
use crate::predictor::{ChangePredictor, EvalData};
use wikistale_wikicube::{Date, DateRange};

/// The trained mean baseline: one mean gap per field position.
#[derive(Debug, Clone)]
pub struct MeanBaseline {
    /// Mean inter-change gap in days, per field position; `None` when the
    /// field has fewer than two training changes (no gap to average).
    mean_gap: Vec<Option<f64>>,
}

impl MeanBaseline {
    /// Compute per-field mean gaps from the changes inside `range`.
    pub fn train(data: &EvalData<'_>, range: DateRange) -> MeanBaseline {
        let index = data.index;
        let mean_gap = (0..index.num_fields())
            .map(|pos| {
                let days = index.days(pos);
                let lo = days.partition_point(|&d| d < range.start());
                let hi = days.partition_point(|&d| d < range.end());
                let n = hi - lo;
                if n < 2 {
                    return None;
                }
                let span = (days[hi - 1] - days[lo]) as f64;
                let gap = span / (n - 1) as f64;
                // Identical-day histories cannot happen after
                // day-deduplication, but guard the division downstream.
                (gap > 0.0).then_some(gap)
            })
            .collect();
        MeanBaseline { mean_gap }
    }

    /// The trained mean gap of a field position, if any.
    pub fn gap_of(&self, field_pos: usize) -> Option<f64> {
        self.mean_gap.get(field_pos).copied().flatten()
    }

    /// Number of fields with a usable gap estimate.
    pub fn num_modeled_fields(&self) -> usize {
        self.mean_gap.iter().flatten().count()
    }
}

impl ChangePredictor for MeanBaseline {
    fn name(&self) -> &'static str {
        "Mean baseline"
    }

    /// For each window starting at `s`: take the field's last change
    /// strictly before `s` (full history — the §5.1 protocol exposes all
    /// of the field's past), step forward in multiples of the mean gap,
    /// and predict positive iff the first forecast ≥ `s` lands inside the
    /// window.
    fn predict(&self, data: &EvalData<'_>, range: DateRange, granularity: u32) -> PredictionSet {
        let mut set = PredictionSet::new(range, granularity);
        let num_windows = set.num_windows();
        let start = range.start();
        // The window holding `day` (≥ the range start), possibly past the
        // last one.
        let window_of = |day: Date| (day - start) as u32 / granularity;
        for pos in 0..data.index.num_fields() {
            let Some(gap) = self.gap_of(pos) else {
                continue;
            };
            let days = data.index.days(pos);
            // Number of days before the current window start.
            let mut before = 0;
            let mut w = 0;
            while w < num_windows {
                let window = set.window_range(w);
                while before < days.len() && days[before] < window.start() {
                    before += 1;
                }
                // The windows up to the next change's share its `last`;
                // the one after it sees the change itself.
                let reset = days
                    .get(before)
                    .map_or(num_windows, |&next| window_of(next) + 1);
                let Some(&last) = days[..before].last() else {
                    w = reset;
                    continue;
                };
                let elapsed = (window.start() - last) as f64;
                let steps = (elapsed / gap).ceil().max(1.0);
                let forecast = last.day_number() as f64 + steps * gap;
                if forecast < window.end().day_number() as f64 {
                    set.insert(pos as u32, w);
                    w += 1;
                    continue;
                }
                // Later windows see the same forecast until `reset`. Land
                // one window early so float rounding at a window edge
                // cannot skip the forecast's own window (`as` saturates
                // a landing past the last window).
                let landing = ((forecast - start.day_number() as f64) / granularity as f64).floor();
                w = ((landing - 1.0) as u32).max(w + 1).min(reset);
            }
        }
        set.seal();
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wikistale_wikicube::{ChangeCubeBuilder, ChangeKind, CubeIndex, Date};

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    /// Reference formulation with random access: training asks four
    /// independent questions per field, and prediction seeks the last
    /// change before every window start on its own. Each question is
    /// answered on the decoded day list.
    mod reference {
        use super::*;

        fn count_before(days: &[Date], before: Date) -> usize {
            days.partition_point(|&d| d < before)
        }

        fn last_before(days: &[Date], before: Date) -> Option<Date> {
            count_before(days, before).checked_sub(1).map(|i| days[i])
        }

        pub fn train(data: &EvalData<'_>, range: DateRange) -> Vec<Option<f64>> {
            (0..data.index.num_fields())
                .map(|pos| {
                    let days = data.index.days(pos).to_vec();
                    let n = count_before(&days, range.end()) - count_before(&days, range.start());
                    if n < 2 {
                        return None;
                    }
                    let first = days.iter().copied().find(|&d| d >= range.start())?;
                    let last = last_before(&days, range.end())?;
                    let gap = (last - first) as f64 / (n - 1) as f64;
                    (gap > 0.0).then_some(gap)
                })
                .collect()
        }

        pub fn predict(
            mb: &MeanBaseline,
            data: &EvalData<'_>,
            range: DateRange,
            granularity: u32,
        ) -> PredictionSet {
            let mut set = PredictionSet::new(range, granularity);
            for pos in 0..data.index.num_fields() {
                let Some(gap) = mb.gap_of(pos) else {
                    continue;
                };
                let days = data.index.days(pos).to_vec();
                for w in 0..set.num_windows() {
                    let window = set.window_range(w);
                    let Some(last) = last_before(&days, window.start()) else {
                        continue;
                    };
                    let elapsed = (window.start() - last) as f64;
                    let steps = (elapsed / gap).ceil().max(1.0);
                    let forecast = last.day_number() as f64 + steps * gap;
                    if forecast < window.end().day_number() as f64 {
                        set.insert(pos as u32, w);
                    }
                }
            }
            set.seal();
            set
        }
    }

    /// Train on `train` and predict `eval` at each granularity, asserting
    /// gaps and prediction sets equal the reference. Returns the number of
    /// positive predictions, so callers can check the case is not vacuous.
    fn assert_matches_reference(
        data: &EvalData<'_>,
        train: DateRange,
        eval: DateRange,
        granularities: &[u32],
    ) -> usize {
        let mb = MeanBaseline::train(data, train);
        assert_eq!(mb.mean_gap, reference::train(data, train));
        let mut emitted = 0;
        for &g in granularities {
            let set = mb.predict(data, eval, g);
            assert_eq!(
                set,
                reference::predict(&mb, data, eval, g),
                "granularity {g}"
            );
            emitted += set.len();
        }
        emitted
    }

    /// Paper-filter a synth corpus, then check the test year trained on
    /// the training range and, swapped, the training range trained on the
    /// validation year, which moves the probes across every part of each
    /// history.
    fn assert_matches_reference_on_synth(config: &wikistale_synth::SynthConfig) {
        use crate::filters::FilterPipeline;
        use crate::split::EvalSplit;

        let corpus = wikistale_synth::generate(config);
        let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
        let split = EvalSplit::for_span(filtered.time_span().unwrap()).unwrap();
        let index = CubeIndex::build(&filtered);
        let data = EvalData::new(&filtered, &index);
        let grans = [1, 7, 30, 365];
        assert!(assert_matches_reference(&data, split.train, split.test, &grans) > 0);
        assert!(assert_matches_reference(&data, split.validation, split.train, &grans) > 0);
    }

    #[test]
    fn sweep_matches_reference_on_synth_tiny() {
        assert_matches_reference_on_synth(&wikistale_synth::SynthConfig::tiny());
    }

    #[test]
    fn sweep_matches_reference_on_synth_small() {
        assert_matches_reference_on_synth(&wikistale_synth::SynthConfig::small());
    }

    #[test]
    fn sweep_matches_reference_on_fixtures() {
        let (cube, index) = cube();
        let data = EvalData::new(&cube, &index);
        let whole = DateRange::with_len(Date::EPOCH, 200);
        let grans = [1, 5, 7, 10, 30, 365];
        // Periodic and sparse fields, inside and after the history.
        assert!(
            assert_matches_reference(&data, whole, DateRange::new(day(100), day(200)), &grans) > 0
        );
        assert!(
            assert_matches_reference(&data, whole, DateRange::new(day(200), day(350)), &grans) > 0
        );
        // An evaluation range that begins before any change.
        assert!(
            assert_matches_reference(&data, whole, DateRange::new(day(-100), day(400)), &grans) > 0
        );
        assert_eq!(
            assert_matches_reference(&data, whole, DateRange::new(day(-100), day(-50)), &grans),
            0
        );
        // A training range that begins mid-history and one with no change.
        assert_matches_reference(&data, DateRange::new(day(45), day(151)), whole, &grans);
        assert_matches_reference(&data, DateRange::new(day(500), day(600)), whole, &grans);

        // The long-silence fixture.
        let (cube, index) = silence_cube();
        let data = EvalData::new(&cube, &index);
        let train = DateRange::with_len(Date::EPOCH, 100);
        assert!(
            assert_matches_reference(&data, train, DateRange::new(day(99), day(400)), &grans) > 0
        );
        assert!(
            assert_matches_reference(&data, train, DateRange::new(day(-30), day(60)), &grans) > 0
        );
    }

    #[test]
    fn jump_keeps_a_forecast_a_hair_below_a_window_start() {
        // Changes at -13, -8, -4 and 0 train the gap 13/3, whose 54th
        // step lands at 233.99999999999997, inside window [232, 234) of a
        // range starting at -300. Measured from the range start that
        // forecast rounds to 534.0, the start of the next window, so
        // landing exactly where the window index says would skip it.
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        for d in [-13, -8, -4, 0] {
            b.change(day(d), e, p, "v", ChangeKind::Update);
        }
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        let data = EvalData::new(&cube, &index);
        let mb = MeanBaseline::train(&data, DateRange::new(day(-20), day(10)));
        assert_eq!(mb.gap_of(0), Some(13.0 / 3.0));
        let eval = DateRange::with_len(day(-300), 800);
        let set = mb.predict(&data, eval, 2);
        assert_eq!(set, reference::predict(&mb, &data, eval, 2));
        assert!(set.contains(0, 266));
    }

    /// One perfectly periodic field (every 10 days) and one sparse field.
    fn cube() -> (wikistale_wikicube::ChangeCube, CubeIndex) {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let periodic = b.property("periodic");
        let sparse = b.property("sparse");
        let single = b.property("single");
        for k in 0..20 {
            b.change(day(k * 10), e, periodic, "v", ChangeKind::Update);
        }
        b.change(day(3), e, sparse, "v", ChangeKind::Update);
        b.change(day(150), e, sparse, "v", ChangeKind::Update);
        b.change(day(42), e, single, "v", ChangeKind::Update);
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        (cube, index)
    }

    #[test]
    fn training_computes_mean_gaps() {
        let (cube, index) = cube();
        let data = EvalData::new(&cube, &index);
        let mb = MeanBaseline::train(&data, DateRange::with_len(Date::EPOCH, 200));
        let pos_of = |name: &str| {
            index
                .position(wikistale_wikicube::FieldId::new(
                    cube.entity_id("E").unwrap(),
                    cube.property_id(name).unwrap(),
                ))
                .unwrap()
        };
        assert_eq!(mb.gap_of(pos_of("periodic")), Some(10.0));
        assert_eq!(mb.gap_of(pos_of("sparse")), Some(147.0));
        assert_eq!(mb.gap_of(pos_of("single")), None);
        assert_eq!(mb.num_modeled_fields(), 2);
        assert_eq!(mb.gap_of(999), None);
    }

    #[test]
    fn periodic_field_is_predicted_every_matching_window() {
        let (cube, index) = cube();
        let data = EvalData::new(&cube, &index);
        let mb = MeanBaseline::train(&data, DateRange::with_len(Date::EPOCH, 100));
        // Evaluate days 100..200 with 10-day windows: the field changes at
        // 100, 110, …; forecast from last-before-start always lands in the
        // window → predicted everywhere.
        let eval = DateRange::new(day(100), day(200));
        let set = mb.predict(&data, eval, 10);
        let pos = index
            .position(wikistale_wikicube::FieldId::new(
                cube.entity_id("E").unwrap(),
                cube.property_id("periodic").unwrap(),
            ))
            .unwrap() as u32;
        for w in 0..10u32 {
            assert!(set.contains(pos, w), "window {w}");
        }
    }

    #[test]
    fn sparse_field_predicted_only_near_due_date() {
        let (cube, index) = cube();
        let data = EvalData::new(&cube, &index);
        let mb = MeanBaseline::train(&data, DateRange::with_len(Date::EPOCH, 200));
        // sparse gap = 147, last change at 150 → forecast 297.
        let eval = DateRange::new(day(200), day(350));
        let set = mb.predict(&data, eval, 10);
        let pos = index
            .position(wikistale_wikicube::FieldId::new(
                cube.entity_id("E").unwrap(),
                cube.property_id("sparse").unwrap(),
            ))
            .unwrap() as u32;
        // Window containing day 297 is (297-200)/10 = 9.
        for w in 0..15u32 {
            assert_eq!(set.contains(pos, w), w == 9, "window {w}");
        }
    }

    #[test]
    fn no_history_before_window_means_no_prediction() {
        let (cube, index) = cube();
        let data = EvalData::new(&cube, &index);
        let mb = MeanBaseline::train(&data, DateRange::with_len(Date::EPOCH, 200));
        // Evaluate *before* all changes.
        let set = mb.predict(&data, DateRange::new(day(-100), day(-50)), 10);
        assert!(set.is_empty());
    }

    /// One field changing every 7 days from day 0 to day 28, then silent.
    fn silence_cube() -> (wikistale_wikicube::ChangeCube, CubeIndex) {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        for k in 0..5 {
            b.change(day(k * 7), e, p, "v", ChangeKind::Update);
        }
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        (cube, index)
    }

    #[test]
    fn forecast_steps_over_long_silences() {
        // Last change long ago: forecast must step by ⌈elapsed/gap⌉, not
        // predict in every window after the silence.
        let (cube, index) = silence_cube();
        let data = EvalData::new(&cube, &index);
        let mb = MeanBaseline::train(&data, DateRange::with_len(Date::EPOCH, 100));
        // Last change day 28, gap 7. Window [100, 107): elapsed 72 →
        // steps = ⌈72/7⌉ = 11 → forecast 28 + 77 = 105 → inside.
        let set = mb.predict(&data, DateRange::new(day(100), day(107)), 7);
        assert_eq!(set.len(), 1);
        // Window [106, 113): steps = ⌈78/7⌉ = 12 → forecast 112 → inside.
        let set2 = mb.predict(&data, DateRange::new(day(106), day(113)), 7);
        assert_eq!(set2.len(), 1);
        // Window [99, 104): forecast 105 → outside (the change is due but
        // not within this window).
        let set3 = mb.predict(&data, DateRange::new(day(99), day(104)), 5);
        assert!(set3.is_empty());
    }

    /// A gap for the proptest: a whole number of days, a rational
    /// `span / (n - 1)` as training computes it (forecasts then land on
    /// window edges up to float rounding), or an arbitrary float.
    fn gap_strategy() -> impl Strategy<Value = f64> {
        (0u8..3, 1u32..400, 2u32..40, 0.2f64..90.0).prop_map(|(kind, span, n, free)| match kind {
            0 => (span % 60 + 1) as f64,
            1 => span as f64 / (n - 1) as f64,
            _ => free,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The jumping `predict` equals the per-window reference on random
        /// histories and gaps, for evaluation ranges before, inside and
        /// after the history, at granularities from 1 to 365 days.
        #[test]
        fn prop_jump_matches_reference(
            fields in proptest::collection::vec(
                (proptest::collection::btree_set(-40i32..400, 0..30), gap_strategy()),
                1..6,
            ),
            place in 0u8..3,
            offset in 0i32..400,
            len in 0u32..900,
        ) {
            let mut b = ChangeCubeBuilder::new();
            let e = b.entity("E", "t", "P");
            for (i, (days, _)) in fields.iter().enumerate() {
                let p = b.property(&format!("p{i}"));
                for &d in days {
                    b.change(day(d), e, p, "v", ChangeKind::Update);
                }
            }
            let cube = b.finish();
            let index = CubeIndex::build(&cube);
            let data = EvalData::new(&cube, &index);
            // The index orders fields by property id, which follows `i`.
            let mean_gap = (0..index.num_fields())
                .map(|pos| {
                    let name = cube.properties().resolve(index.field(pos).property.0);
                    let i: usize = name[1..].parse().unwrap();
                    Some(fields[i].1)
                })
                .collect();
            let mb = MeanBaseline { mean_gap };
            let start = match place {
                0 => -450 + offset,
                1 => offset,
                _ => 350 + offset,
            };
            let range = DateRange::with_len(day(start), len);
            for g in [1, 2, 3, 5, 7, 30, 365] {
                prop_assert_eq!(
                    mb.predict(&data, range, g),
                    reference::predict(&mb, &data, range, g)
                );
            }
        }
    }
}
