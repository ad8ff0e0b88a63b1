//! Precision / recall evaluation of prediction sets (§5).

use crate::predictions::PredictionSet;
use wikistale_wikicube::daylist::in_range;
use wikistale_wikicube::{CubeIndex, DateRange};

/// Evaluation result of one predictor at one granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOutcome {
    /// Positive predictions (true + false positives — the paper's "#").
    pub predictions: usize,
    /// Predictions whose field indeed changed in the window.
    pub true_positives: usize,
    /// Total (field, window) pairs with a change — the recall denominator.
    pub truth_total: usize,
}

impl EvalOutcome {
    /// `TP / (TP + FP)`; 0 when nothing was predicted (a predictor that
    /// stays silent earns no precision).
    pub fn precision(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.true_positives as f64 / self.predictions as f64
        }
    }

    /// `TP / truth`; 0 for an empty truth set.
    pub fn recall(&self) -> f64 {
        if self.truth_total == 0 {
            0.0
        } else {
            self.true_positives as f64 / self.truth_total as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// 95 % Wilson score interval for the precision — how much the
    /// measured rate could move given the number of predictions it is
    /// based on. The paper quotes point estimates on ~10⁵ predictions
    /// where the interval is negligible; at laptop scale it is not, so
    /// honest comparisons should carry it.
    pub fn precision_ci95(&self) -> (f64, f64) {
        wilson_interval(self.true_positives, self.predictions)
    }
}

/// 95 % Wilson score interval for `successes` out of `trials`.
/// Returns `(0, 1)` for zero trials.
pub fn wilson_interval(successes: usize, trials: usize) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    const Z: f64 = 1.959_963_985; // 97.5th percentile of the normal
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = Z * Z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (Z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// The ground-truth positive set: every (field, window) pair in which the
/// field actually changed.
///
/// This is what the paper measures against — note §5.4's caveat that a
/// *genuinely* forgotten update counts as a false positive here.
pub fn truth_set(index: &CubeIndex, range: DateRange, granularity: u32) -> PredictionSet {
    // Field chunks produce (field, window) items independently; the
    // chunk results are concatenated in chunk (= field) order and the
    // final sort+dedup in `from_items` canonicalizes, so the set is
    // byte-identical at any thread count.
    let probe = PredictionSet::new(range, granularity);
    let chunk_items =
        wikistale_exec::par_ranges("truth_fields", index.num_fields(), 4_096, |positions| {
            let mut items: Vec<(u32, u32)> = Vec::new();
            for pos in positions {
                for &day in in_range(index.days(pos), range) {
                    if let Some(window) = probe.window_of(day) {
                        items.push((pos as u32, window));
                    }
                }
            }
            items
        });
    PredictionSet::from_items(range, granularity, chunk_items.concat())
}

/// Score `predictions` against `truth`.
pub fn evaluate(predictions: &PredictionSet, truth: &PredictionSet) -> EvalOutcome {
    EvalOutcome {
        predictions: predictions.len(),
        true_positives: predictions.intersection_len(truth),
        truth_total: truth.len(),
    }
}

/// Per-window outcomes (Figure 4: precision and recall over the 52 weeks
/// of the test year at 7-day granularity).
pub fn per_window_series(predictions: &PredictionSet, truth: &PredictionSet) -> Vec<EvalOutcome> {
    assert_eq!(predictions.granularity(), truth.granularity());
    assert_eq!(predictions.range(), truth.range());
    let n = predictions.num_windows() as usize;
    let mut out = vec![
        EvalOutcome {
            predictions: 0,
            true_positives: 0,
            truth_total: 0,
        };
        n
    ];
    for &(_, w) in predictions.items() {
        out[w as usize].predictions += 1;
    }
    for &(_, w) in truth.items() {
        out[w as usize].truth_total += 1;
    }
    // True positives via one merge pass.
    let (mut i, mut j) = (0, 0);
    let (a, b) = (predictions.items(), truth.items());
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out[a[i].1 as usize].true_positives += 1;
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Overlap statistics between two predictors' positive sets (§5.3.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overlap {
    /// `|A ∩ B|`.
    pub shared: usize,
    /// `|A|`.
    pub a_total: usize,
    /// `|B|`.
    pub b_total: usize,
}

impl Overlap {
    /// Shared fraction of A's predictions.
    pub fn of_a(&self) -> f64 {
        if self.a_total == 0 {
            0.0
        } else {
            self.shared as f64 / self.a_total as f64
        }
    }

    /// Shared fraction of B's predictions.
    pub fn of_b(&self) -> f64 {
        if self.b_total == 0 {
            0.0
        } else {
            self.shared as f64 / self.b_total as f64
        }
    }
}

/// Compute prediction overlap between two predictors.
pub fn overlap(a: &PredictionSet, b: &PredictionSet) -> Overlap {
    Overlap {
        shared: a.intersection_len(b),
        a_total: a.len(),
        b_total: b.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wikistale_wikicube::{ChangeCubeBuilder, ChangeKind, Date};

    fn range() -> DateRange {
        DateRange::with_len(Date::EPOCH, 28)
    }

    fn set(items: &[(u32, u32)]) -> PredictionSet {
        PredictionSet::from_items(range(), 7, items.to_vec())
    }

    #[test]
    fn outcome_math() {
        let o = EvalOutcome {
            predictions: 10,
            true_positives: 9,
            truth_total: 100,
        };
        assert!((o.precision() - 0.9).abs() < 1e-12);
        assert!((o.recall() - 0.09).abs() < 1e-12);
        assert!(o.f1() > 0.0);
        let silent = EvalOutcome {
            predictions: 0,
            true_positives: 0,
            truth_total: 5,
        };
        assert_eq!(silent.precision(), 0.0);
        assert_eq!(silent.recall(), 0.0);
        assert_eq!(silent.f1(), 0.0);
    }

    #[test]
    fn wilson_interval_behaviour() {
        // Degenerate cases.
        assert_eq!(wilson_interval(0, 0), (0.0, 1.0));
        let (lo, hi) = wilson_interval(0, 10);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.35);
        let (lo, hi) = wilson_interval(10, 10);
        assert!(lo > 0.65 && lo < 1.0);
        assert_eq!(hi, 1.0);
        // Interval contains the point estimate and shrinks with n.
        let narrow = wilson_interval(900, 1000);
        let wide = wilson_interval(9, 10);
        assert!(narrow.0 <= 0.9 && 0.9 <= narrow.1);
        assert!(narrow.1 - narrow.0 < wide.1 - wide.0);
        // Known value: 85/100 → roughly [0.766, 0.907].
        let (lo, hi) = wilson_interval(85, 100);
        assert!((lo - 0.766).abs() < 0.01, "{lo}");
        assert!((hi - 0.907).abs() < 0.01, "{hi}");
        // Through the outcome accessor.
        let o = EvalOutcome {
            predictions: 100,
            true_positives: 85,
            truth_total: 1000,
        };
        assert_eq!(o.precision_ci95(), wilson_interval(85, 100));
    }

    #[test]
    fn truth_set_marks_changed_windows() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        let q = b.property("q");
        b.change(Date::EPOCH + 1, e, p, "a", ChangeKind::Update); // window 0
        b.change(Date::EPOCH + 8, e, p, "b", ChangeKind::Update); // window 1
        b.change(Date::EPOCH + 9, e, p, "c", ChangeKind::Update); // window 1 (dedup)
        b.change(Date::EPOCH + 27, e, q, "d", ChangeKind::Update); // window 3
        b.change(Date::EPOCH + 100, e, q, "e", ChangeKind::Update); // outside
        let cube = b.finish();
        let index = wikistale_wikicube::CubeIndex::build(&cube);
        let truth = truth_set(&index, range(), 7);
        assert_eq!(truth.len(), 3);
        // Field positions are (entity, property)-sorted: p=0, q=1.
        assert!(truth.contains(0, 0));
        assert!(truth.contains(0, 1));
        assert!(truth.contains(1, 3));
    }

    #[test]
    fn evaluate_counts() {
        let truth = set(&[(0, 0), (0, 1), (1, 2)]);
        let pred = set(&[(0, 0), (1, 2), (2, 3)]);
        let o = evaluate(&pred, &truth);
        assert_eq!(o.predictions, 3);
        assert_eq!(o.true_positives, 2);
        assert_eq!(o.truth_total, 3);
    }

    #[test]
    fn per_window_series_sums_to_totals() {
        let truth = set(&[(0, 0), (0, 1), (1, 1), (1, 3)]);
        let pred = set(&[(0, 0), (1, 1), (2, 1)]);
        let series = per_window_series(&pred, &truth);
        assert_eq!(series.len(), 4);
        assert_eq!(series[0].predictions, 1);
        assert_eq!(series[0].true_positives, 1);
        assert_eq!(series[1].predictions, 2);
        assert_eq!(series[1].true_positives, 1);
        assert_eq!(series[1].truth_total, 2);
        let total: usize = series.iter().map(|o| o.true_positives).sum();
        assert_eq!(total, evaluate(&pred, &truth).true_positives);
    }

    #[test]
    fn overlap_fractions() {
        let a = set(&[(0, 0), (1, 1), (2, 2)]);
        let b = set(&[(1, 1), (2, 2), (3, 3), (4, 0)]);
        let o = overlap(&a, &b);
        assert_eq!(o.shared, 2);
        assert!((o.of_a() - 2.0 / 3.0).abs() < 1e-12);
        assert!((o.of_b() - 0.5).abs() < 1e-12);
        let empty = overlap(&set(&[]), &set(&[]));
        assert_eq!(empty.of_a(), 0.0);
        assert_eq!(empty.of_b(), 0.0);
    }
}
