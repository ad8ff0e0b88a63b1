//! Cross-crate property tests: randomized generator configurations and
//! randomized cubes driven through the full pipeline. These catch the
//! interactions unit tests cannot — a filter meeting a pathological corpus
//! shape, a split meeting a short span, composition laws between slice,
//! merge, and serialization.

use proptest::prelude::*;
use wikistale_core::eval::{evaluate, truth_set};
use wikistale_core::filters::FilterPipeline;
use wikistale_core::predictions::PredictionSet;
use wikistale_core::split::EvalSplit;
use wikistale_synth::{generate, SynthConfig};
use wikistale_wikicube::{
    binio, merge, slice, ChangeCube, ChangeCubeBuilder, ChangeKind, CubeIndex, Date, DateRange,
};

/// A randomized but valid generator configuration, small enough to run
/// hundreds of times.
fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (
        0u64..1_000_000, // seed
        2usize..8,       // templates
        20usize..120,    // entities
        0.0f64..0.3,     // special fraction
        0.0f64..0.9,     // static fraction
        0.0f64..1.5,     // sessions per year
        0.0f64..0.6,     // delete prob
    )
        .prop_map(
            |(seed, templates, entities, special, statics, sessions, delete)| SynthConfig {
                seed,
                num_templates: templates,
                num_entities: entities,
                special_entity_fraction: special,
                static_fraction: statics,
                sessions_per_year: sessions,
                field_delete_prob: delete,
                static_delete_prob: delete,
                start: Date::from_ymd(2013, 6, 1).unwrap(),
                ..SynthConfig::tiny()
            },
        )
}

/// An arbitrary small cube.
fn arb_cube() -> impl Strategy<Value = ChangeCube> {
    proptest::collection::vec(
        (0i32..1_500, 0usize..6, 0usize..5, 0u8..3, "[a-z0-9]{0,6}"),
        1..120,
    )
    .prop_map(|rows| {
        let mut b = ChangeCubeBuilder::new();
        let entities: Vec<_> = (0..6)
            .map(|i| {
                b.entity(
                    &format!("e{i}"),
                    &format!("t{}", i % 3),
                    &format!("pg{}", i % 4),
                )
            })
            .collect();
        let props: Vec<_> = (0..5).map(|i| b.property(&format!("p{i}"))).collect();
        // Skip exact duplicate tuples: `merge` collapses them by contract,
        // which would make count-based properties flaky.
        let mut seen = std::collections::HashSet::new();
        for (day, e, p, kind, value) in rows {
            if !seen.insert((day, e, p, kind, value.clone())) {
                continue;
            }
            let kind = ChangeKind::from_u8(kind).unwrap();
            b.change(Date::EPOCH + day, entities[e], props[p], &value, kind);
        }
        b.finish()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid configuration generates, filters, and (when long enough)
    /// evaluates without panicking, and the filter report always accounts
    /// for every change.
    #[test]
    fn prop_pipeline_never_panics(config in arb_config()) {
        let corpus = generate(&config);
        let (filtered, report) = FilterPipeline::paper().apply(&corpus.cube);
        let removed: usize = report.stages.iter().map(|s| s.removed).sum();
        prop_assert_eq!(removed + filtered.num_changes(), report.original);
        prop_assert!(filtered.iter_changes().all(|c| c.kind == ChangeKind::Update));
        if let Some(span) = filtered.time_span() {
            if let Some(split) = EvalSplit::for_span(span) {
                let index = CubeIndex::build(&filtered);
                let truth = truth_set(&index, split.test, 7);
                // Truth never exceeds fields × windows.
                prop_assert!(truth.len() <= index.num_fields() * 52);
            }
        }
    }

    /// Filtering is idempotent for arbitrary configurations.
    #[test]
    fn prop_filter_idempotent(config in arb_config()) {
        let corpus = generate(&config);
        let (once, _) = FilterPipeline::paper().apply(&corpus.cube);
        let (twice, report) = FilterPipeline::paper().apply(&once);
        prop_assert_eq!(once.changes_vec(), twice.changes_vec());
        prop_assert!(report.stages.iter().all(|s| s.removed == 0));
    }

    /// Filtering only removes: the output rows are a subsequence of the
    /// input rows, and every stage keeps at most what it was given.
    #[test]
    fn prop_filter_monotone(config in arb_config()) {
        let corpus = generate(&config);
        let (filtered, report) = FilterPipeline::paper().apply(&corpus.cube);
        let mut input = corpus.cube.iter_changes();
        prop_assert!(filtered.iter_changes().all(|row| input.any(|c| c == row)));
        let mut before = report.original;
        for stage in &report.stages {
            prop_assert_eq!(stage.removed + stage.remaining, before);
            before = stage.remaining;
        }
        prop_assert_eq!(before, filtered.num_changes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serialization round-trips arbitrary cubes.
    #[test]
    fn prop_binio_round_trip(cube in arb_cube()) {
        let back = binio::decode(&binio::encode(&cube)).unwrap();
        prop_assert_eq!(back.changes_vec(), cube.changes_vec());
        prop_assert_eq!(binio::encode(&back), binio::encode(&cube));
    }

    /// Slicing at any boundary and re-merging reproduces the cube's
    /// change content.
    #[test]
    fn prop_slice_merge_partition(cube in arb_cube(), cut in 0i32..1_500) {
        let cut = Date::EPOCH + cut;
        let lo = DateRange::new(Date::EPOCH - 10, cut);
        let hi = DateRange::new(cut, Date::EPOCH + 2_000);
        let left = slice(&cube, lo);
        let right = slice(&cube, hi);
        prop_assert_eq!(left.num_changes() + right.num_changes(), cube.num_changes());
        let merged = merge([&left, &right]).unwrap();
        prop_assert_eq!(merged.num_changes(), cube.num_changes());
        // Content equality modulo interner numbering.
        let render = |c: &ChangeCube| -> Vec<(Date, String, String, String, ChangeKind)> {
            c.iter_changes()
                .map(|ch| (
                    ch.day,
                    c.entity_name(ch.entity).to_owned(),
                    c.property_name(ch.property).to_owned(),
                    c.value_text(ch.value).to_owned(),
                    ch.kind,
                ))
                .collect()
        };
        let mut a = render(&merged);
        let mut b = render(&cube);
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Merging a cube with itself changes nothing (duplicate collapse).
    #[test]
    fn prop_merge_self_idempotent(cube in arb_cube()) {
        let merged = merge([&cube, &cube]).unwrap();
        // Non-identical duplicate tuples (same slot, different value) can
        // exist in the random input; self-merge still must not grow.
        prop_assert!(merged.num_changes() <= 2 * cube.num_changes());
        let again = merge([&merged, &merged]).unwrap();
        prop_assert_eq!(again.num_changes(), merged.num_changes());
    }

    /// Precision/recall algebra: evaluating the truth against itself is
    /// perfect; evaluating the empty set is silent, never negative.
    #[test]
    fn prop_eval_algebra(items in proptest::collection::vec((0u32..40, 0u32..52), 0..120)) {
        let range = DateRange::with_len(Date::TEST_START, 365);
        let truth = PredictionSet::from_items(range, 7, items.clone());
        let perfect = evaluate(&truth, &truth);
        if !truth.is_empty() {
            prop_assert!((perfect.precision() - 1.0).abs() < 1e-12);
            prop_assert!((perfect.recall() - 1.0).abs() < 1e-12);
            prop_assert!((perfect.f1() - 1.0).abs() < 1e-12);
        }
        let silent = evaluate(&PredictionSet::new(range, 7), &truth);
        prop_assert_eq!(silent.predictions, 0);
        prop_assert_eq!(silent.precision(), 0.0);
    }
}

/// Pinned regression (tests/props.proptest-regressions): two same-day
/// changes to one (entity, property) slot with different values. The cube
/// constructor canonicalizes such duplicates to the last value written, so
/// every composition law below must hold on the canonical form.
#[test]
fn regression_same_day_same_slot_duplicate_values() {
    let mut b = ChangeCubeBuilder::new();
    let entities: Vec<_> = (0..6)
        .map(|i| {
            b.entity(
                &format!("e{i}"),
                &format!("t{}", i % 3),
                &format!("pg{}", i % 4),
            )
        })
        .collect();
    let props: Vec<_> = (0..5).map(|i| b.property(&format!("p{i}"))).collect();
    let day = Date::from_ymd(1970, 3, 16).unwrap();
    b.change(day, entities[3], props[1], "", ChangeKind::Create);
    b.change(day, entities[3], props[1], "0", ChangeKind::Create);
    let cube = b.finish();

    // Last-value-wins canonicalization: one change survives, value "0".
    assert_eq!(cube.num_changes(), 1);
    assert_eq!(cube.value_text(cube.change_at(0).value), "0");

    // Serialization round-trips the canonical form.
    let back = binio::decode(&binio::encode(&cube)).unwrap();
    assert_eq!(back.changes_vec(), cube.changes_vec());
    assert_eq!(binio::encode(&back), binio::encode(&cube));

    // Slice/merge partition reproduces the canonical cube.
    for cut in [Date::EPOCH, day, day + 1] {
        let left = slice(&cube, DateRange::new(Date::EPOCH - 10, cut));
        let right = slice(&cube, DateRange::new(cut, Date::EPOCH + 2_000));
        assert_eq!(left.num_changes() + right.num_changes(), cube.num_changes());
        let merged = merge([&left, &right]).unwrap();
        assert_eq!(merged.num_changes(), cube.num_changes());
    }

    // Self-merge is idempotent on the canonical form.
    let merged = merge([&cube, &cube]).unwrap();
    assert_eq!(merged.num_changes(), cube.num_changes());
}

/// Coarse-to-fine consistency: a field predicted in a 1-day window lies in
/// exactly one 7-day window; truth sets respect the same nesting (a change
/// day marks the containing window at every granularity).
#[test]
fn truth_sets_nest_across_granularities() {
    let corpus = generate(&SynthConfig::tiny());
    let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
    let split = EvalSplit::for_span(filtered.time_span().unwrap()).unwrap();
    let index = CubeIndex::build(&filtered);
    let day_truth = truth_set(&index, split.test, 1);
    let week_truth = truth_set(&index, split.test, 7);
    let year_truth = truth_set(&index, split.test, 365);
    for &(field, day_window) in day_truth.items() {
        let week_window = day_window / 7;
        if week_window < week_truth.num_windows() {
            assert!(
                week_truth.contains(field, week_window),
                "field {field} day-window {day_window} missing from week truth"
            );
        }
        assert!(year_truth.contains(field, 0));
    }
    // And the counts shrink monotonically with the window size.
    assert!(day_truth.len() >= week_truth.len());
    assert!(week_truth.len() >= year_truth.len());
}
