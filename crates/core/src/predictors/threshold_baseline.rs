//! The threshold baseline (§5.2).
//!
//! If a field changed in at least 85 % of the windows of a given size
//! during the reference year (the 365 days before the evaluation range —
//! the validation year when evaluating on test), predict a change in
//! *every* window of the evaluation range. At daily granularity no real
//! field clears 311 of 365 days, so the baseline goes silent there — the
//! paper observes exactly that.

use crate::predictions::PredictionSet;
use crate::predictor::{ChangePredictor, EvalData};
use crate::split::EvalSplit;
use wikistale_wikicube::daylist::in_range;
use wikistale_wikicube::DateRange;

/// The threshold baseline. Stateless apart from its threshold: the
/// reference counting happens per prediction call because it depends on
/// the granularity.
#[derive(Debug, Clone)]
pub struct ThresholdBaseline {
    /// Required fraction of reference windows with a change (paper: 0.85).
    pub threshold: f64,
}

impl ThresholdBaseline {
    /// Baseline with the paper's 85 % threshold.
    pub fn paper() -> ThresholdBaseline {
        ThresholdBaseline { threshold: 0.85 }
    }

    /// Number of reference windows a field must have changed in, for a
    /// reference year tiled into `num_windows` windows. The paper rounds
    /// up: "at least 45 (85 % of 52)".
    pub fn required_windows(&self, num_windows: u32) -> u32 {
        (self.threshold * num_windows as f64).ceil() as u32
    }
}

impl Default for ThresholdBaseline {
    fn default() -> ThresholdBaseline {
        ThresholdBaseline::paper()
    }
}

impl ChangePredictor for ThresholdBaseline {
    fn name(&self) -> &'static str {
        "Threshold baseline"
    }

    fn predict(&self, data: &EvalData<'_>, range: DateRange, granularity: u32) -> PredictionSet {
        let reference = EvalSplit::reference_year_before(range);
        let ref_windows = PredictionSet::new(reference, granularity);
        let required = self.required_windows(ref_windows.num_windows());
        let mut set = PredictionSet::new(range, granularity);
        if required == 0 {
            // Degenerate thresholds would predict everything for every
            // field; keep the baseline honest.
            return set;
        }
        for pos in 0..data.index.num_fields() {
            let days = data.index.days(pos);
            let mut windows_with_change = 0u32;
            let mut last_window = None;
            for &day in in_range(days, reference) {
                let w = ref_windows.window_of(day);
                if w.is_some() && w != last_window {
                    windows_with_change += 1;
                    last_window = w;
                }
            }
            if windows_with_change >= required {
                for w in 0..set.num_windows() {
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
    use wikistale_wikicube::{ChangeCubeBuilder, ChangeKind, CubeIndex, Date};

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    /// A weekly-changing field (active in every 7-day reference window), a
    /// monthly field, and a dead field.
    fn cube() -> (wikistale_wikicube::ChangeCube, CubeIndex) {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let weekly = b.property("weekly");
        let monthly = b.property("monthly");
        let dead = b.property("dead");
        for k in 0..52 {
            b.change(day(k * 7 + 2), e, weekly, "v", ChangeKind::Update);
        }
        for k in 0..12 {
            b.change(day(k * 30 + 1), e, monthly, "v", ChangeKind::Update);
        }
        b.change(day(-500), e, dead, "v", ChangeKind::Update);
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        (cube, index)
    }

    fn pos(cube: &wikistale_wikicube::ChangeCube, index: &CubeIndex, name: &str) -> u32 {
        index
            .position(wikistale_wikicube::FieldId::new(
                cube.entity_id("E").unwrap(),
                cube.property_id(name).unwrap(),
            ))
            .unwrap() as u32
    }

    #[test]
    fn required_windows_rounds_up() {
        let tb = ThresholdBaseline::paper();
        assert_eq!(tb.required_windows(52), 45); // the paper's example
        assert_eq!(tb.required_windows(365), 311);
        assert_eq!(tb.required_windows(12), 11);
        assert_eq!(tb.required_windows(1), 1);
    }

    #[test]
    fn weekly_field_triggers_weekly_granularity() {
        let (cube, index) = cube();
        let data = EvalData::new(&cube, &index);
        let tb = ThresholdBaseline::paper();
        // Evaluation year right after the reference year [0, 365).
        let eval = DateRange::with_len(day(365), 365);
        let set = tb.predict(&data, eval, 7);
        let weekly = pos(&cube, &index, "weekly");
        let monthly = pos(&cube, &index, "monthly");
        // Weekly field: changed in all 52 reference windows → predicted in
        // all 52 eval windows.
        assert_eq!(
            set.items().iter().filter(|&&(p, _)| p == weekly).count(),
            52
        );
        // Monthly field: 12 of 52 windows → silent.
        assert!(!set.items().iter().any(|&(p, _)| p == monthly));
    }

    #[test]
    fn daily_granularity_is_silent() {
        // The paper: "the threshold baseline makes no predictions for the
        // daily prediction because no field had 311 or more changes".
        let (cube, index) = cube();
        let data = EvalData::new(&cube, &index);
        let set = ThresholdBaseline::paper().predict(&data, DateRange::with_len(day(365), 365), 1);
        assert!(set.is_empty());
    }

    #[test]
    fn yearly_granularity_fires_for_any_active_field() {
        let (cube, index) = cube();
        let data = EvalData::new(&cube, &index);
        let set =
            ThresholdBaseline::paper().predict(&data, DateRange::with_len(day(365), 365), 365);
        // One reference window; weekly and monthly changed in it, dead did
        // not (its only change predates the reference year).
        assert_eq!(set.len(), 2);
        assert!(!set
            .items()
            .iter()
            .any(|&(p, _)| p == pos(&cube, &index, "dead")));
    }

    #[test]
    fn zero_threshold_is_rejected() {
        let (cube, index) = cube();
        let data = EvalData::new(&cube, &index);
        let tb = ThresholdBaseline { threshold: 0.0 };
        let set = tb.predict(&data, DateRange::with_len(day(365), 365), 365);
        assert!(set.is_empty());
    }
}
