//! The field-correlation predictor (§3.2).
//!
//! Semantically linked fields of one page change in unison (a club's home
//! and away kit colors). The predictor represents each field's change
//! history as a vector of per-day change counts over the training range,
//! measures how *uncorrelated* two fields are with a normalized Manhattan
//! distance, and keeps same-page pairs below an error threshold θ as
//! symmetric rules `X ∼ Y`. At prediction time, a change to one side of a
//! rule inside a window predicts a change of the other side in the same
//! window.
//!
//! ## Distance normalization
//!
//! The paper describes M as "the Manhattan-distance normalized by the
//! vector length k" but also states that "1 indicates no overlapping
//! changes". The two statements disagree: dividing by the *dimension* k
//! (the number of training days) maps two disjoint sparse histories to a
//! value near 0, not 1. Dividing by the *total change mass* |X|₁ + |Y|₁ —
//! the maximum possible Manhattan distance of two non-negative vectors —
//! satisfies the stated semantics, keeps θ comparable across fields of
//! different activity, and is what makes an 85 %-precision operating point
//! reachable at all. We therefore default to
//! [`DistanceNorm::TotalMass`] and keep [`DistanceNorm::DayCount`]
//! (the literal reading) available for the ablation experiment, which
//! demonstrates its failure mode.

use crate::predictions::PredictionSet;
use crate::predictor::{ChangePredictor, EvalData};
use wikistale_wikicube::daylist::in_range;
use wikistale_wikicube::{Date, DateRange, FxHashMap, PageId};

/// How to normalize the Manhattan distance between change vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceNorm {
    /// Normalize by the summed change mass `|X|₁ + |Y|₁`: 0 means the
    /// fields always change together, 1 means they never do. The default.
    #[default]
    TotalMass,
    /// Normalize by the number of training days k (the paper's literal
    /// wording). Kept for the ablation bench: sparse disjoint histories
    /// score near 0 and flood the rule set with spurious pairs.
    DayCount,
}

/// Training parameters for [`FieldCorrelation`].
#[derive(Debug, Clone, PartialEq)]
pub struct FieldCorrelationParams {
    /// Error threshold θ: pairs with distance below it become rules. The
    /// paper's grid search (§5.2) selects 0.1.
    pub theta: f64,
    /// Distance normalization (see module docs).
    pub norm: DistanceNorm,
    /// Delayed-update tolerance in days: two changes within this many days
    /// of each other count as co-changes during training. The paper tried
    /// delayed periods and found same-day (0) worked best (§3.2); the
    /// `ablation_lag` experiment reproduces that comparison.
    pub lag_days: u32,
}

impl Default for FieldCorrelationParams {
    fn default() -> FieldCorrelationParams {
        FieldCorrelationParams {
            theta: 0.1,
            norm: DistanceNorm::TotalMass,
            lag_days: 0,
        }
    }
}

/// Normalized Manhattan distance between two change-day histories
/// restricted to `range`.
///
/// Day lists must be sorted; duplicate days act as per-day counts, so the
/// function is exact both before and after day-deduplication. Returns 1.0
/// (maximally uncorrelated) when both histories are empty in `range`.
///
/// The result is always in `[0, 1]`. Under [`DistanceNorm::DayCount`] the
/// raw quotient can exceed 1 when per-day multiplicities push the change
/// mass past the day span (k days cannot normalize more than k changes of
/// disagreement), so that arm clamps to 1.0 — beyond "no overlapping
/// changes" there is no meaningful gradation, and an unclamped value
/// would make θ comparisons depend on history length rather than
/// correlation.
pub fn change_distance(a: &[Date], b: &[Date], range: DateRange, norm: DistanceNorm) -> f64 {
    let a = in_range(a, range);
    let b = in_range(b, range);
    let mut diff = 0u64; // Σ per-day |count_a − count_b|
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                let run = run_len(a, i);
                diff += run as u64;
                i += run;
            }
            std::cmp::Ordering::Greater => {
                let run = run_len(b, j);
                diff += run as u64;
                j += run;
            }
            std::cmp::Ordering::Equal => {
                let ra = run_len(a, i);
                let rb = run_len(b, j);
                diff += ra.abs_diff(rb) as u64;
                i += ra;
                j += rb;
            }
        }
    }
    diff += (a.len() - i) as u64 + (b.len() - j) as u64;

    match norm {
        DistanceNorm::TotalMass => {
            let mass = (a.len() + b.len()) as u64;
            if mass == 0 {
                1.0
            } else {
                diff as f64 / mass as f64
            }
        }
        DistanceNorm::DayCount => {
            if a.is_empty() && b.is_empty() {
                return 1.0;
            }
            let k = range.len_days().max(1);
            (diff as f64 / k as f64).min(1.0)
        }
    }
}

/// Lag-tolerant variant of [`change_distance`]: change days of the two
/// histories are greedily matched when they lie within `lag_days` of each
/// other; unmatched days contribute to the distance. With `lag_days = 0`
/// on day-deduplicated histories this equals [`change_distance`].
///
/// Greedy nearest-first matching over two sorted sequences is optimal for
/// interval matching, so the result is the true minimum number of
/// unmatched changes.
pub fn change_distance_lagged(
    a: &[Date],
    b: &[Date],
    range: DateRange,
    norm: DistanceNorm,
    lag_days: u32,
) -> f64 {
    if lag_days == 0 {
        return change_distance(a, b, range, norm);
    }
    let a = in_range(a, range);
    let b = in_range(b, range);
    let lag = lag_days as i32;
    let (mut i, mut j) = (0usize, 0usize);
    let mut unmatched = 0u64;
    while i < a.len() && j < b.len() {
        let delta = a[i] - b[j];
        if delta.abs() <= lag {
            i += 1;
            j += 1;
        } else if delta < 0 {
            unmatched += 1;
            i += 1;
        } else {
            unmatched += 1;
            j += 1;
        }
    }
    unmatched += (a.len() - i) as u64 + (b.len() - j) as u64;
    match norm {
        DistanceNorm::TotalMass => {
            let mass = (a.len() + b.len()) as u64;
            if mass == 0 {
                1.0
            } else {
                unmatched as f64 / mass as f64
            }
        }
        // Clamped for the same reason as in `change_distance`: more
        // unmatched changes than days would push the quotient past 1.
        DistanceNorm::DayCount => {
            if a.is_empty() && b.is_empty() {
                return 1.0;
            }
            (unmatched as f64 / range.len_days().max(1) as f64).min(1.0)
        }
    }
}

/// Length of the run of equal days starting at `i`.
fn run_len(days: &[Date], i: usize) -> usize {
    let day = days[i];
    days[i..].iter().take_while(|&&d| d == day).count()
}

/// The trained field-correlation predictor: a set of symmetric same-page
/// field-pair rules.
#[derive(Debug, Clone)]
pub struct FieldCorrelation {
    /// Adjacency: field position → correlated partner positions (sorted).
    partners: FxHashMap<u32, Vec<u32>>,
    /// Number of undirected rules.
    num_rules: usize,
    params: FieldCorrelationParams,
}

impl FieldCorrelation {
    /// Discover correlation rules from the change histories inside
    /// `range`, restricted to field pairs of the same page (§3.2's
    /// complexity reduction — the paper reports that cross-page search was
    /// computationally infeasible and symmetric-link variants gained
    /// recall only in the third decimal digit).
    pub fn train(
        data: &EvalData<'_>,
        range: DateRange,
        params: FieldCorrelationParams,
    ) -> FieldCorrelation {
        let index = data.index;
        let pages: Vec<PageId> = (0..index.num_pages())
            .map(PageId::from_index)
            .filter(|&p| index.fields_on_page(p).len() >= 2)
            .collect();

        let chunk_rules = wikistale_exec::par_chunks("field_corr_pages", &pages, 64, |chunk| {
            let mut rules: Vec<(u32, u32)> = Vec::new();
            for &page in chunk {
                let fields = index.fields_on_page(page);
                for (i, &a) in fields.iter().enumerate() {
                    let a_days = index.days(a as usize);
                    if in_range(a_days, range).is_empty() {
                        continue;
                    }
                    for &b in &fields[i + 1..] {
                        let d = change_distance_lagged(
                            a_days,
                            index.days(b as usize),
                            range,
                            params.norm,
                            params.lag_days,
                        );
                        if d < params.theta {
                            rules.push((a, b));
                        }
                    }
                }
            }
            rules
        });

        let mut partners: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        let mut num_rules = 0;
        for rules in chunk_rules {
            for (a, b) in rules {
                partners.entry(a).or_default().push(b);
                partners.entry(b).or_default().push(a);
                num_rules += 1;
            }
        }
        for list in partners.values_mut() {
            list.sort_unstable();
            list.dedup();
        }
        FieldCorrelation {
            partners,
            num_rules,
            params,
        }
    }

    /// Number of undirected correlation rules found.
    pub fn num_rules(&self) -> usize {
        self.num_rules
    }

    /// Number of fields that participate in at least one rule.
    pub fn num_correlated_fields(&self) -> usize {
        self.partners.len()
    }

    /// Partner positions of `field_pos`, if it participates in any rule.
    pub fn partners_of(&self, field_pos: u32) -> &[u32] {
        self.partners.get(&field_pos).map_or(&[], |v| v.as_slice())
    }

    /// Training parameters used.
    pub fn params(&self) -> &FieldCorrelationParams {
        &self.params
    }
}

impl ChangePredictor for FieldCorrelation {
    fn name(&self) -> &'static str {
        "Field correlations"
    }

    /// Predict a change for field *f* in window *w* whenever any partner
    /// of *f* changed inside *w*. *f*'s own in-window changes are never
    /// consulted, satisfying the masked-field protocol.
    fn predict(&self, data: &EvalData<'_>, range: DateRange, granularity: u32) -> PredictionSet {
        let mut set = PredictionSet::new(range, granularity);
        for (&field, partners) in &self.partners {
            for &partner in partners {
                for &day in in_range(data.index.days(partner as usize), range) {
                    set.insert_day(field, day);
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
    use proptest::prelude::*;
    use wikistale_wikicube::{ChangeCubeBuilder, ChangeKind, CubeIndex, FieldId};

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    fn range(len: u32) -> DateRange {
        DateRange::with_len(Date::EPOCH, len)
    }

    #[test]
    fn distance_identical_zero_disjoint_one() {
        let a = [day(1), day(5), day(9)];
        let b = [day(2), day(6), day(10)];
        let r = range(100);
        assert_eq!(change_distance(&a, &a, r, DistanceNorm::TotalMass), 0.0);
        assert_eq!(change_distance(&a, &b, r, DistanceNorm::TotalMass), 1.0);
        // Literal day-count normalization: disjoint yet near zero — the
        // pathology the module docs describe.
        let dc = change_distance(&a, &b, r, DistanceNorm::DayCount);
        assert!((dc - 6.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn distance_partial_overlap() {
        let a = [day(1), day(2), day(3), day(4)];
        let b = [day(1), day(2), day(3), day(9)];
        // Symmetric difference 2, mass 8 → 0.25.
        let d = change_distance(&a, &b, range(100), DistanceNorm::TotalMass);
        assert!((d - 0.25).abs() < 1e-12);
    }

    #[test]
    fn distance_counts_multiplicity() {
        let a = [day(1), day(1), day(1)];
        let b = [day(1)];
        // Per-day counts 3 vs 1 → diff 2, mass 4 → 0.5.
        let d = change_distance(&a, &b, range(10), DistanceNorm::TotalMass);
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distance_respects_range() {
        let a = [day(1), day(50)];
        let b = [day(1), day(60)];
        // Inside [0, 10): both have only day 1 → identical.
        assert_eq!(
            change_distance(&a, &b, range(10), DistanceNorm::TotalMass),
            0.0
        );
        // Empty range on both: maximally uncorrelated by convention.
        assert_eq!(
            change_distance(
                &a,
                &b,
                DateRange::with_len(day(70), 10),
                DistanceNorm::TotalMass
            ),
            1.0
        );
    }

    #[test]
    fn day_count_norm_clamps_when_mass_exceeds_span() {
        // 30 changes on one day vs an empty history over a 10-day range:
        // the raw quotient would be 3.0; the clamp caps it at 1.0.
        let a: Vec<Date> = std::iter::repeat_n(day(1), 30).collect();
        let d = change_distance(&a, &[], range(10), DistanceNorm::DayCount);
        assert_eq!(d, 1.0);
        let dl = change_distance_lagged(&a, &[], range(10), DistanceNorm::DayCount, 2);
        assert_eq!(dl, 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Multiplicity-aware bounds: histories drawn as multisets (vec
        /// with duplicate days) over a short range, so the change mass can
        /// exceed the day span — the regime where the unclamped DayCount
        /// quotient escaped [0, 1]. Checks symmetry, bounds, and
        /// zero-iff-identical-in-range for both norms and for the lagged
        /// variant.
        #[test]
        fn prop_distance_bounded_with_multiplicity(
            a in proptest::collection::vec(0i32..12, 0..80),
            b in proptest::collection::vec(0i32..12, 0..80),
            lag in 0u32..4,
        ) {
            let mut a = a; a.sort_unstable();
            let mut b = b; b.sort_unstable();
            let av: Vec<Date> = a.iter().map(|&d| day(d)).collect();
            let bv: Vec<Date> = b.iter().map(|&d| day(d)).collect();
            let r = range(10);
            for norm in [DistanceNorm::TotalMass, DistanceNorm::DayCount] {
                let dab = change_distance(&av, &bv, r, norm);
                let dba = change_distance(&bv, &av, r, norm);
                prop_assert!((dab - dba).abs() < 1e-12, "symmetry under {norm:?}");
                prop_assert!((0.0..=1.0).contains(&dab), "bounds under {norm:?}: {dab}");
                let daa = change_distance(&av, &av, r, norm);
                if av.iter().any(|&d| r.contains(d)) {
                    prop_assert_eq!(daa, 0.0, "identity under {:?}", norm);
                } else {
                    // Both empty in range: 1.0 by convention.
                    prop_assert_eq!(daa, 1.0);
                }
                let dlag = change_distance_lagged(&av, &bv, r, norm, lag);
                let dlag_rev = change_distance_lagged(&bv, &av, r, norm, lag);
                prop_assert!((0.0..=1.0).contains(&dlag), "lagged bounds: {dlag}");
                prop_assert!((dlag - dlag_rev).abs() < 1e-12, "lagged symmetry");
            }
        }

        /// Metamorphic relation: duplicating a single day's change k times
        /// in one history moves it monotonically *away* from the original.
        /// Under TotalMass the exact value is k / (2|a∩r| + k); DayCount
        /// gives min(k / |r|, 1). Both are increasing in k, and the greedy
        /// lagged matcher inherits the property because the padded copies
        /// can never free up a better match for the shared prefix.
        #[test]
        fn prop_duplicate_multiplicity_is_monotone(
            a in proptest::collection::vec(0i32..10, 0..40),
            x in 0i32..10,
            k1 in 1usize..5,
            extra in 1usize..5,
            lag in 0u32..3,
        ) {
            let mut base = a; base.sort_unstable();
            let av: Vec<Date> = base.iter().map(|&d| day(d)).collect();
            let k2 = k1 + extra;
            let pad = |k: usize| -> Vec<Date> {
                let mut v = base.clone();
                v.extend(std::iter::repeat_n(x, k));
                v.sort_unstable();
                v.iter().map(|&d| day(d)).collect()
            };
            let (b1, b2) = (pad(k1), pad(k2));
            let r = range(10);
            for norm in [DistanceNorm::TotalMass, DistanceNorm::DayCount] {
                let d1 = change_distance(&av, &b1, r, norm);
                let d2 = change_distance(&av, &b2, r, norm);
                prop_assert!(d1 <= d2 + 1e-12,
                    "plain {norm:?}: k={k1} gave {d1}, k={k2} gave {d2}");
                let l1 = change_distance_lagged(&av, &b1, r, norm, lag);
                let l2 = change_distance_lagged(&av, &b2, r, norm, lag);
                prop_assert!(l1 <= l2 + 1e-12,
                    "lagged {norm:?}: k={k1} gave {l1}, k={k2} gave {l2}");
            }
            // Closed form under TotalMass: the shared prefix matches
            // exactly, leaving the k padded copies as the whole diff.
            let mass = 2 * av.len() + k1;
            let want = k1 as f64 / mass as f64;
            let got = change_distance(&av, &b1, r, DistanceNorm::TotalMass);
            prop_assert!((got - want).abs() < 1e-12, "closed form: {got} vs {want}");
        }
    }

    /// Cube with a page hosting a tight pair, a loose pair, and an
    /// unrelated second page.
    fn training_cube() -> (wikistale_wikicube::ChangeCube, CubeIndex) {
        let mut b = ChangeCubeBuilder::new();
        let club = b.entity("Club", "infobox club", "FC Example");
        let other = b.entity("Other", "infobox club", "FC Other");
        let home = b.property("home_color");
        let away = b.property("away_color");
        let loose = b.property("stadium");
        let far = b.property("home_color2");
        // home/away co-change on 6 days; one forgotten away update.
        for d in [10, 50, 90, 130, 170, 210] {
            b.change(day(d), club, home, "h", ChangeKind::Update);
            if d != 130 {
                b.change(day(d), club, away, "a", ChangeKind::Update);
            }
        }
        // stadium changes on unrelated days.
        for d in [20, 60, 100, 140, 180] {
            b.change(day(d), club, loose, "s", ChangeKind::Update);
        }
        // Other page mirrors home's days exactly — must NOT correlate
        // (cross-page pairs are not searched).
        for d in [10, 50, 90, 130, 170, 210] {
            b.change(day(d), other, far, "x", ChangeKind::Update);
        }
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        (cube, index)
    }

    #[test]
    fn train_finds_tight_pair_only() {
        let (cube, index) = training_cube();
        let data = EvalData::new(&cube, &index);
        let fc = FieldCorrelation::train(
            &data,
            range(250),
            FieldCorrelationParams {
                theta: 0.15,
                norm: DistanceNorm::TotalMass,
                lag_days: 0,
            },
        );
        assert_eq!(fc.num_rules(), 1);
        assert_eq!(fc.num_correlated_fields(), 2);
        let home_pos = index
            .position(FieldId::new(
                cube.entity_id("Club").unwrap(),
                cube.property_id("home_color").unwrap(),
            ))
            .unwrap() as u32;
        let away_pos = index
            .position(FieldId::new(
                cube.entity_id("Club").unwrap(),
                cube.property_id("away_color").unwrap(),
            ))
            .unwrap() as u32;
        assert_eq!(fc.partners_of(home_pos), &[away_pos]);
        assert_eq!(fc.partners_of(away_pos), &[home_pos]);
        assert!(fc.partners_of(9999).is_empty());
    }

    #[test]
    fn day_count_norm_floods_with_spurious_rules() {
        let (cube, index) = training_cube();
        let data = EvalData::new(&cube, &index);
        let fc = FieldCorrelation::train(
            &data,
            range(250),
            FieldCorrelationParams {
                theta: 0.1,
                norm: DistanceNorm::DayCount,
                lag_days: 0,
            },
        );
        // Even stadium (disjoint days) correlates under the literal norm:
        // 11 differing days / 250 ≈ 0.04 < 0.1.
        assert!(fc.num_rules() > 1, "got {} rules", fc.num_rules());
    }

    #[test]
    fn prediction_fires_on_partner_changes() {
        let (cube, index) = training_cube();
        let data = EvalData::new(&cube, &index);
        let fc = FieldCorrelation::train(&data, range(250), FieldCorrelationParams::default());
        // Evaluate over the same span with 10-day windows: home changed in
        // windows 1, 5, 9, 13, 17, 21 → away predicted there (and home
        // predicted in windows where away changed).
        let set = fc.predict(&data, range(250), 10);
        let away_pos = index
            .position(FieldId::new(
                cube.entity_id("Club").unwrap(),
                cube.property_id("away_color").unwrap(),
            ))
            .unwrap() as u32;
        for w in [1u32, 5, 9, 13, 17, 21] {
            assert!(set.contains(away_pos, w), "away not predicted in {w}");
        }
        // Window 13 is where the forgotten update lives: prediction made,
        // actual change absent — the §5.4 scenario.
        let truth = crate::eval::truth_set(&index, range(250), 10);
        assert!(!truth.contains(away_pos, 13));
        assert!(set.contains(away_pos, 13));
    }

    #[test]
    fn empty_training_range_yields_no_rules() {
        let (cube, index) = training_cube();
        let data = EvalData::new(&cube, &index);
        let fc = FieldCorrelation::train(
            &data,
            DateRange::with_len(day(300), 10),
            FieldCorrelationParams::default(),
        );
        assert_eq!(fc.num_rules(), 0);
        let set = fc.predict(&data, range(250), 7);
        assert!(set.is_empty());
    }

    #[test]
    fn lagged_distance_matches_nearby_days() {
        let a = [day(10), day(50), day(90)];
        let b = [day(12), day(48), day(91)];
        let r = range(200);
        // Same-day: fully disjoint.
        assert_eq!(
            change_distance_lagged(&a, &b, r, DistanceNorm::TotalMass, 0),
            1.0
        );
        // ±2 days: everything matches.
        assert_eq!(
            change_distance_lagged(&a, &b, r, DistanceNorm::TotalMass, 2),
            0.0
        );
        // ±1 day: only the 90/91 pair matches → 4 unmatched / 6 mass.
        let d1 = change_distance_lagged(&a, &b, r, DistanceNorm::TotalMass, 1);
        assert!((d1 - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn lagged_distance_zero_equals_plain() {
        let a = [day(1), day(5)];
        let b = [day(1), day(9)];
        let r = range(100);
        for norm in [DistanceNorm::TotalMass, DistanceNorm::DayCount] {
            assert_eq!(
                change_distance_lagged(&a, &b, r, norm, 0),
                change_distance(&a, &b, r, norm)
            );
        }
    }

    #[test]
    fn lag_widens_the_rule_set() {
        // A pair that co-changes with a one-day delay is invisible at
        // lag 0 and becomes a rule at lag ≥ 1.
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let fast = b.property("fast");
        let slow = b.property("slow");
        for k in 0..8 {
            b.change(day(k * 20), e, fast, "v", ChangeKind::Update);
            b.change(day(k * 20 + 1), e, slow, "v", ChangeKind::Update);
        }
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        let data = EvalData::new(&cube, &index);
        let strict = FieldCorrelation::train(&data, range(200), FieldCorrelationParams::default());
        assert_eq!(strict.num_rules(), 0);
        let lagged = FieldCorrelation::train(
            &data,
            range(200),
            FieldCorrelationParams {
                lag_days: 1,
                ..FieldCorrelationParams::default()
            },
        );
        assert_eq!(lagged.num_rules(), 1);
    }

    /// Metamorphic relation: the trained rule set is a function of the
    /// *logical* change log, not of the order pages/properties/changes
    /// were fed to the builder. Interned ids differ between the two
    /// cubes, so the comparison resolves every rule back to name pairs.
    #[test]
    fn training_invariant_under_page_insertion_order() {
        use std::collections::BTreeSet;

        // (entity, template, page, property, day) tuples for two pages
        // with a tight pair each plus an uncorrelated field.
        let log: Vec<(&str, &str, &str, &str, i32)> = {
            let mut v = Vec::new();
            for d in [10, 40, 70, 100, 130] {
                v.push(("Club", "infobox club", "FC A", "home", d));
                v.push(("Club", "infobox club", "FC A", "away", d));
                v.push(("Person", "infobox person", "B. Person", "club", d + 1));
                v.push(("Person", "infobox person", "B. Person", "caps", d + 1));
            }
            for d in [5, 55, 105] {
                v.push(("Club", "infobox club", "FC A", "stadium", d));
            }
            v
        };

        let build = |order: &[usize]| {
            let mut b = ChangeCubeBuilder::new();
            for &i in order {
                let (ent, tpl, page, prop, d) = log[i];
                let e = b.entity(ent, tpl, page);
                let p = b.property(prop);
                b.change(day(d), e, p, "v", ChangeKind::Update);
            }
            let cube = b.finish();
            let index = CubeIndex::build(&cube);
            (cube, index)
        };

        // Resolve every directed rule edge to names so the sets compare
        // across cubes with different interner orderings.
        let rule_names = |cube: &wikistale_wikicube::ChangeCube,
                          index: &CubeIndex|
         -> BTreeSet<(String, String, String)> {
            let mut out = BTreeSet::new();
            let data = EvalData::new(cube, index);
            let fc = FieldCorrelation::train(&data, range(150), FieldCorrelationParams::default());
            for pos in 0..index.num_fields() {
                let f = index.field(pos);
                for &partner in fc.partners_of(pos as u32) {
                    let g = index.field(partner as usize);
                    assert_eq!(f.entity, g.entity, "rules never cross pages");
                    out.insert((
                        cube.entity_name(f.entity).to_string(),
                        cube.property_name(f.property).to_string(),
                        cube.property_name(g.property).to_string(),
                    ));
                }
            }
            out
        };

        let forward: Vec<usize> = (0..log.len()).collect();
        // A fixed "shuffle": reversed, so the Person page and the later
        // days are interned first, flipping every id assignment.
        let reversed: Vec<usize> = (0..log.len()).rev().collect();
        // And an order that alternates between the two ends of the log.
        let n = log.len();
        let interleaved: Vec<usize> = (0..n)
            .map(|i| if i % 2 == 0 { n - 1 - i / 2 } else { i / 2 })
            .collect();

        let (c1, i1) = build(&forward);
        let names = rule_names(&c1, &i1);
        assert!(!names.is_empty(), "baseline training found no rules");
        for order in [&reversed, &interleaved] {
            let (c2, i2) = build(order);
            assert_eq!(
                names,
                rule_names(&c2, &i2),
                "rule set changed under insertion order {order:?}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_lag_is_monotone(
            a in proptest::collection::btree_set(0i32..200, 1..25),
            b in proptest::collection::btree_set(0i32..200, 1..25),
            lag in 0u32..10,
        ) {
            // More tolerance can only shrink the distance.
            let av: Vec<Date> = a.iter().map(|&d| day(d)).collect();
            let bv: Vec<Date> = b.iter().map(|&d| day(d)).collect();
            let r = range(200);
            let tight = change_distance_lagged(&av, &bv, r, DistanceNorm::TotalMass, lag);
            let loose = change_distance_lagged(&av, &bv, r, DistanceNorm::TotalMass, lag + 1);
            prop_assert!(loose <= tight + 1e-12);
            // Symmetry holds for the greedy matcher too.
            let rev = change_distance_lagged(&bv, &av, r, DistanceNorm::TotalMass, lag);
            prop_assert!((tight - rev).abs() < 1e-12);
        }

        #[test]
        fn prop_distance_is_a_bounded_symmetric_premetric(
            a in proptest::collection::btree_set(0i32..200, 0..30),
            b in proptest::collection::btree_set(0i32..200, 0..30),
        ) {
            let av: Vec<Date> = a.iter().map(|&d| day(d)).collect();
            let bv: Vec<Date> = b.iter().map(|&d| day(d)).collect();
            let r = range(200);
            for norm in [DistanceNorm::TotalMass, DistanceNorm::DayCount] {
                let dab = change_distance(&av, &bv, r, norm);
                let dba = change_distance(&bv, &av, r, norm);
                prop_assert!((dab - dba).abs() < 1e-12, "symmetry");
                prop_assert!((0.0..=1.0).contains(&dab), "bounded: {dab}");
                if !av.is_empty() || !bv.is_empty() {
                    let daa = change_distance(&av, &av, r, norm);
                    prop_assert!(daa.abs() < 1e-12 || av.is_empty(), "identity");
                }
            }
            // Under TotalMass, disjoint non-empty histories are exactly 1.
            if !av.is_empty() && !bv.is_empty() && a.is_disjoint(&b) {
                prop_assert_eq!(
                    change_distance(&av, &bv, r, DistanceNorm::TotalMass), 1.0);
            }
        }
    }
}
