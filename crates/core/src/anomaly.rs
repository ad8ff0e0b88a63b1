//! Counter-anomaly detection on value histories.
//!
//! §5.4 of the paper tells the story of the Handball-Bundesliga's
//! `total goals`: editors kept incrementing a mistyped running total
//! (9,880 became 1,073 instead of 10,073) for weeks until a bulk
//! correction. The staleness predictors ignore values entirely, but the
//! change cube keeps them — so this module turns that §5.4 observation
//! into a detector: find fields whose values behave like monotone
//! counters, and flag the updates that break the monotone pattern
//! (sudden collapses and their later corrections).

use wikistale_wikicube::{ChangeCube, CubeIndex, Date, FieldId};

/// Tuning knobs for [`find_counter_anomalies`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyParams {
    /// Minimum number of numeric updates for a field to be considered.
    pub min_points: usize,
    /// Minimum fraction of a field's update values that must parse as
    /// numbers.
    pub min_numeric_fraction: f64,
    /// Minimum fraction of numeric steps that must be non-decreasing for
    /// the field to count as a counter.
    pub min_monotone_fraction: f64,
    /// A decrease is anomalous when the value falls below this fraction of
    /// its predecessor (the paper's typo dropped to ~11 %).
    pub max_drop_ratio: f64,
}

impl Default for AnomalyParams {
    fn default() -> AnomalyParams {
        AnomalyParams {
            min_points: 6,
            min_numeric_fraction: 0.9,
            min_monotone_fraction: 0.8,
            max_drop_ratio: 0.5,
        }
    }
}

/// One suspicious update of a counter-like field.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterAnomaly {
    /// The affected field.
    pub field: FieldId,
    /// Day of the suspicious update.
    pub day: Date,
    /// The previous numeric value.
    pub previous: i64,
    /// The newly assigned numeric value.
    pub value: i64,
    /// What kind of break this is.
    pub kind: AnomalyKind,
}

/// The direction of the break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// The counter collapsed (likely a truncation/typo such as
    /// 9,880 → 1,073).
    Collapse,
    /// The counter jumped upward far beyond its usual step right after a
    /// collapse — the likely bulk correction (6,197 → 16,227).
    Correction,
}

/// Parse an infobox numeric value: digits with optional thousands
/// separators (`,` or thin spaces) and surrounding whitespace.
pub fn parse_counter(value: &str) -> Option<i64> {
    let cleaned: String = value
        .trim()
        .chars()
        .filter(|c| !matches!(c, ',' | ' ' | '\u{2009}' | '\u{00a0}' | '_'))
        .collect();
    if cleaned.is_empty() || !cleaned.chars().all(|c| c.is_ascii_digit() || c == '-') {
        return None;
    }
    cleaned.parse().ok()
}

/// Scan every field of `cube` (via its `index`) for counter anomalies.
/// Returns anomalies sorted by `(day, field)`.
///
/// A field is considered when the index holds at least
/// `params.min_points` days for it; its value series is every change row
/// of the field (any kind) between its first and last indexed day, in
/// canonical order. All series are collected in one pass over the change
/// table.
pub fn find_counter_anomalies(
    cube: &ChangeCube,
    index: &CubeIndex,
    params: &AnomalyParams,
) -> Vec<CounterAnomaly> {
    let mut anomalies = Vec::new();
    for (pos, series) in collect_series(cube, index, params.min_points)
        .iter()
        .enumerate()
    {
        if let Some(series) = series {
            flag_series(index.field(pos), series, params, &mut anomalies);
        }
    }
    anomalies.sort_by_key(|a| (a.day, a.field));
    anomalies
}

/// The value history of one field: its numeric `(day, value)` points and
/// the number of rows whose value is not a number.
#[derive(Debug, Clone, Default)]
struct FieldSeries {
    points: Vec<(Date, i64)>,
    non_numeric: usize,
}

impl FieldSeries {
    fn push(&mut self, day: Date, value: &str) {
        match parse_counter(value) {
            Some(v) => self.points.push((day, v)),
            None => self.non_numeric += 1,
        }
    }
}

/// The series of every field position with at least `min_points` indexed
/// days (`None` for the others), gathered in one pass over the change
/// table.
fn collect_series(
    cube: &ChangeCube,
    index: &CubeIndex,
    min_points: usize,
) -> Vec<Option<FieldSeries>> {
    // Each considered field with the inclusive day span its rows must
    // fall in.
    let mut fields: Vec<Option<(Date, Date, FieldSeries)>> = (0..index.num_fields())
        .map(|pos| {
            let days = index.days(pos);
            if days.len() < min_points {
                return None;
            }
            Some((*days.first()?, *days.last()?, FieldSeries::default()))
        })
        .collect();
    for c in cube.iter_changes() {
        let Some((first, last, series)) = index
            .position(c.field())
            .and_then(|pos| fields[pos].as_mut())
        else {
            continue;
        };
        if (*first..=*last).contains(&c.day) {
            series.push(c.day, cube.value_text(c.value));
        }
    }
    fields
        .into_iter()
        .map(|field| field.map(|(_, _, series)| series))
        .collect()
}

/// Append the anomalies of one field's series, if it behaves like a
/// counter.
fn flag_series(
    field: FieldId,
    series: &FieldSeries,
    params: &AnomalyParams,
    anomalies: &mut Vec<CounterAnomaly>,
) {
    let points = &series.points;
    let total = points.len() + series.non_numeric;
    if points.len() < params.min_points
        || (points.len() as f64 / total as f64) < params.min_numeric_fraction
    {
        return;
    }
    // Counter check: most steps must be non-decreasing.
    let steps = points.len() - 1;
    let monotone = points.windows(2).filter(|w| w[1].1 >= w[0].1).count();
    if (monotone as f64 / steps as f64) < params.min_monotone_fraction {
        return;
    }
    // Flag collapses, and the recovery jump right after a collapse.
    let mut collapsed = false;
    for w in points.windows(2) {
        let (prev, next) = (w[0], w[1]);
        if prev.1 > 0 && (next.1 as f64) < prev.1 as f64 * params.max_drop_ratio {
            anomalies.push(CounterAnomaly {
                field,
                day: next.0,
                previous: prev.1,
                value: next.1,
                kind: AnomalyKind::Collapse,
            });
            collapsed = true;
        } else if collapsed && prev.1 > 0 && next.1 as f64 > prev.1 as f64 / params.max_drop_ratio {
            anomalies.push(CounterAnomaly {
                field,
                day: next.0,
                previous: prev.1,
                value: next.1,
                kind: AnomalyKind::Correction,
            });
            collapsed = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wikistale_wikicube::{ChangeCubeBuilder, ChangeKind, DateRange};

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    /// Reference formulation, one scan per field: for every considered
    /// field, scan the change rows inside its indexed day span and keep
    /// that field's rows.
    fn reference_anomalies(
        cube: &ChangeCube,
        index: &CubeIndex,
        params: &AnomalyParams,
    ) -> Vec<CounterAnomaly> {
        let mut anomalies = Vec::new();
        for pos in 0..index.num_fields() {
            let field = index.field(pos);
            let days = index.days(pos);
            if days.len() < params.min_points {
                continue;
            }
            let (Some(&first), Some(&last)) = (days.first(), days.last()) else {
                continue;
            };
            let mut series = FieldSeries::default();
            for c in cube.changes_in(DateRange::new(first, last + 1)) {
                if c.field() == field {
                    series.push(c.day, cube.value_text(c.value));
                }
            }
            flag_series(field, &series, params, &mut anomalies);
        }
        anomalies.sort_by_key(|a| (a.day, a.field));
        anomalies
    }

    /// Default parameters plus a permissive set that turns most numeric
    /// fields into counters, so the comparison sees many anomalies.
    fn param_sets() -> [AnomalyParams; 2] {
        [
            AnomalyParams::default(),
            AnomalyParams {
                min_points: 3,
                min_numeric_fraction: 0.5,
                min_monotone_fraction: 0.3,
                max_drop_ratio: 0.9,
            },
        ]
    }

    fn assert_matches_reference(cube: &ChangeCube, index: &CubeIndex) -> usize {
        let mut found = 0;
        for params in param_sets() {
            let got = find_counter_anomalies(cube, index, &params);
            assert_eq!(got, reference_anomalies(cube, index, &params), "{params:?}");
            found += got.len();
        }
        found
    }

    /// Synth `tiny`, and the same corpus with its `u{n}` values rewritten
    /// to the numbers `n`. Synth's per-field value counters wrap modulo
    /// 977, so the numeric copy is full of counters that collapse.
    fn synth_tiny_cubes() -> [ChangeCube; 2] {
        use wikistale_synth::{generate, SynthConfig};
        let cube = generate(&SynthConfig::tiny()).cube;
        let mut b = ChangeCubeBuilder::new();
        for c in cube.iter_changes() {
            let e = b.entity(
                cube.entity_name(c.entity),
                cube.template_name(cube.template_of(c.entity)),
                cube.page_title(cube.page_of(c.entity)),
            );
            let p = b.property(cube.property_name(c.property));
            let value = cube.value_text(c.value);
            b.change(c.day, e, p, value.trim_start_matches('u'), c.kind);
        }
        let numeric = b.finish();
        [cube, numeric]
    }

    #[test]
    fn one_pass_matches_reference_on_synth_tiny() {
        let all = [ChangeKind::Create, ChangeKind::Update, ChangeKind::Delete];
        let mut found = 0;
        for cube in synth_tiny_cubes() {
            found += assert_matches_reference(&cube, &CubeIndex::build(&cube));
            found += assert_matches_reference(&cube, &CubeIndex::build_for_kinds(&cube, &all));
        }
        assert!(found > 0);
    }

    #[test]
    fn one_pass_matches_reference_on_fixtures() {
        let (cube, index) = handball_cube();
        assert!(assert_matches_reference(&cube, &index) >= 2);
        let (cube, index) = mixed_kinds_cube();
        assert!(assert_matches_reference(&cube, &index) > 0);
    }

    /// A counter whose update history is bracketed and interleaved by
    /// create and delete rows: only rows inside the first..last update
    /// span count, whatever their kind.
    fn mixed_kinds_cube() -> (ChangeCube, CubeIndex) {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("count");
        let q = b.property("other");
        b.change(day(0), e, p, "1", ChangeKind::Create);
        for (i, v) in ["100", "200", "300", "30", "40", "400", "500"]
            .iter()
            .enumerate()
        {
            b.change(day(10 + i as i32 * 5), e, p, v, ChangeKind::Update);
            b.change(day(10 + i as i32 * 5), e, q, v, ChangeKind::Update);
        }
        b.change(day(22), e, p, "350", ChangeKind::Delete);
        b.change(day(90), e, p, "1", ChangeKind::Delete);
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        (cube, index)
    }

    #[test]
    fn rows_of_every_kind_inside_the_update_span_count() {
        let (cube, index) = mixed_kinds_cube();
        let anomalies = find_counter_anomalies(&cube, &index, &AnomalyParams::default());
        let count = cube.property_id("count").unwrap();
        let mine: Vec<_> = anomalies
            .iter()
            .filter(|a| a.field.property == count)
            .collect();
        // The day-22 delete row sits between 300 and 30, so the collapse
        // starts from it; the day-0 and day-90 rows lie outside the
        // update span and are ignored (500 → 1 would be a collapse).
        assert_eq!(mine.len(), 2, "{anomalies:?}");
        assert_eq!((mine[0].previous, mine[0].value), (350, 30));
        assert_eq!((mine[1].previous, mine[1].value), (40, 400));
    }

    #[test]
    fn parses_wiki_style_numbers() {
        assert_eq!(parse_counter("9,880"), Some(9_880));
        assert_eq!(parse_counter(" 16 227 "), Some(16_227));
        assert_eq!(parse_counter("1\u{00a0}073"), Some(1_073));
        assert_eq!(parse_counter("12_500"), Some(12_500));
        assert_eq!(parse_counter("-3"), Some(-3));
        assert_eq!(parse_counter("mid-2018"), None);
        assert_eq!(parse_counter(""), None);
        assert_eq!(parse_counter("12 goals"), None);
    }

    /// The paper's §5.4 history: a healthy counter, the typo collapse, the
    /// continued incrementing of the wrong value, and the final bulk
    /// correction.
    fn handball_cube() -> (ChangeCube, CubeIndex) {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity(
            "HBL",
            "infobox football league season",
            "2018-19 Handball-Bundesliga",
        );
        let goals = b.property("total goals");
        let values = [
            "8,900", "9,200", "9,500", "9,880", // healthy growth
            "1,073", // the typo (should have been 10,073)
            "1,800", "3,000", "5,000", "6,197",  // incremented wrong value
            "16,227", // the correction
        ];
        for (i, v) in values.iter().enumerate() {
            b.change(day(i as i32 * 7), e, goals, v, ChangeKind::Update);
        }
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        (cube, index)
    }

    #[test]
    fn detects_the_papers_typo_and_correction() {
        let (cube, index) = handball_cube();
        let anomalies = find_counter_anomalies(&cube, &index, &AnomalyParams::default());
        assert_eq!(anomalies.len(), 2, "{anomalies:?}");
        assert_eq!(anomalies[0].kind, AnomalyKind::Collapse);
        assert_eq!(anomalies[0].previous, 9_880);
        assert_eq!(anomalies[0].value, 1_073);
        assert_eq!(anomalies[1].kind, AnomalyKind::Correction);
        assert_eq!(anomalies[1].previous, 6_197);
        assert_eq!(anomalies[1].value, 16_227);
    }

    #[test]
    fn healthy_counters_and_non_counters_stay_silent() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let healthy = b.property("healthy");
        let text = b.property("text");
        let noisy = b.property("noisy");
        for i in 0..10 {
            b.change(
                day(i * 3),
                e,
                healthy,
                &format!("{}", 100 + i * 10),
                ChangeKind::Update,
            );
            b.change(
                day(i * 3),
                e,
                text,
                &format!("value {i}"),
                ChangeKind::Update,
            );
            // Oscillating numbers are not a counter (fails monotone check).
            b.change(
                day(i * 3),
                e,
                noisy,
                &format!("{}", if i % 2 == 0 { 10 } else { 1 }),
                ChangeKind::Update,
            );
        }
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        let anomalies = find_counter_anomalies(&cube, &index, &AnomalyParams::default());
        assert!(anomalies.is_empty(), "{anomalies:?}");
    }

    #[test]
    fn short_histories_are_skipped() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        for (i, v) in ["100", "200", "5"].iter().enumerate() {
            b.change(day(i as i32), e, p, v, ChangeKind::Update);
        }
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        assert!(find_counter_anomalies(&cube, &index, &AnomalyParams::default()).is_empty());
    }

    #[test]
    fn mixed_value_fields_need_numeric_majority() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        // Half text, half numbers — not a counter field.
        for i in 0..5 {
            b.change(
                day(i * 2),
                e,
                p,
                &format!("{}", 100 * (i + 1)),
                ChangeKind::Update,
            );
            b.change(day(i * 2 + 1), e, p, "unknown", ChangeKind::Update);
        }
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        assert!(find_counter_anomalies(&cube, &index, &AnomalyParams::default()).is_empty());
    }
}
