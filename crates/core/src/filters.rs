//! The noise-filter pipeline of §4.
//!
//! Before training, the paper removes data that carries no update signal:
//!
//! 1. changes directly reverted by Wikipedia bots (0.008 % of the raw
//!    corpus),
//! 2. same-day churn: all changes of one field on one day collapse into a
//!    single change (19.185 % of the raw corpus),
//! 3. creations and deletions, which the predictors do not model
//!    (61.373 %),
//! 4. changes of fields with fewer than five remaining changes
//!    (10.241 %),
//!
//! leaving 9.2 % of the raw changes. The same-day collapse is not a stage
//! here: it happens when the cube is built, since a [`ChangeCube`] keeps
//! one change per `(day, entity, property)`, the day's last write. The
//! generator counts what it collapses (`SynthCorpus::same_day_collapsed`).
//! [`FilterPipeline::apply`] runs the other three stages and reports
//! per-stage removal counts so the `dataset_stats` experiment can print
//! them next to the paper's numbers.

use wikistale_wikicube::{ChangeColumns, ChangeCube, ChangeKind, FieldId, FxHashMap};

/// Which filter stages to run. [`FilterPipeline::paper`] enables all three.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterPipeline {
    /// Drop changes flagged as bot-reverted.
    pub drop_bot_reverted: bool,
    /// Drop creations and deletions.
    pub drop_creations_deletions: bool,
    /// Drop fields with fewer than this many changes (`None` disables; the
    /// paper uses `Some(5)`).
    pub min_changes: Option<usize>,
}

impl FilterPipeline {
    /// The full pipeline of §4.
    pub fn paper() -> FilterPipeline {
        FilterPipeline {
            drop_bot_reverted: true,
            drop_creations_deletions: true,
            min_changes: Some(5),
        }
    }

    /// The §4 ablation: everything except the minimum-change filter (the
    /// paper notes the association rules reach similar precision without
    /// it).
    pub fn without_min_changes() -> FilterPipeline {
        FilterPipeline {
            min_changes: None,
            ..FilterPipeline::paper()
        }
    }

    /// Run the enabled stages in paper order, returning the filtered cube
    /// and the per-stage report.
    ///
    /// Two passes over the change columns: `count` tallies what each stage
    /// removes and, per field, the changes that pass the bot-revert and
    /// kind predicates; `write` then copies the survivors that also meet
    /// `min_changes` into exact-length columns. The output shares the
    /// input's dimension tables.
    pub fn apply(&self, cube: &ChangeCube) -> (ChangeCube, FilterReport) {
        let obs = wikistale_obs::MetricsRegistry::global();
        let _span = obs.span("filter");
        let cols = cube.columns();
        let tally = {
            let _s = obs.span("count");
            self.count(cols)
        };
        let report = self.report(cols.len(), &tally);
        let filtered = {
            let _s = obs.span("write");
            // `retain_rows` visits rows in order, so the passing rows'
            // field slots come up in the order the count pass recorded them.
            let mut slots = tally.row_slots.iter();
            cube.retain_rows(|i| {
                (tally.passing[i / 64] >> (i % 64)) & 1 == 1
                    && self.min_changes.is_none_or(|min| {
                        slots
                            .next()
                            .is_some_and(|&slot| tally.per_field[slot as usize] as usize >= min)
                    })
            })
        };
        debug_assert_eq!(
            report
                .stages
                .last()
                .map_or(report.original, |s| s.remaining),
            filtered.num_changes()
        );
        obs.counter("filter/removed")
            .add((report.original - filtered.num_changes()) as u64);
        obs.counter("filter/surviving")
            .add(filtered.num_changes() as u64);
        (filtered, report)
    }

    /// The count pass: one walk over the kind, flag and field columns.
    fn count(&self, cols: &ChangeColumns) -> Tally {
        debug_assert_eq!(
            same_day_duplicates(cols),
            0,
            "a cube holds one change per (day, entity, property)"
        );
        let mut tally = Tally {
            passing: vec![0; cols.len().div_ceil(64)],
            ..Tally::default()
        };
        let mut slot_of: FxHashMap<FieldId, u32> = FxHashMap::default();
        for (i, (&kind, flags)) in cols.kinds().iter().zip(cols.flags()).enumerate() {
            if self.drop_bot_reverted && flags.is_bot_reverted() {
                tally.bot_reverted += 1;
            } else if self.drop_creations_deletions && kind != ChangeKind::Update {
                tally.creations_deletions += 1;
            } else {
                tally.passing[i / 64] |= 1 << (i % 64);
                if self.min_changes.is_some() {
                    let field = FieldId::new(cols.entities()[i], cols.properties()[i]);
                    let next = slot_of.len() as u32;
                    let slot = *slot_of.entry(field).or_insert(next);
                    if slot == next {
                        tally.per_field.push(0);
                    }
                    tally.per_field[slot as usize] += 1;
                    tally.row_slots.push(slot);
                }
            }
        }
        tally
    }

    /// The stage list of [`FilterPipeline::apply`], derived from the
    /// count pass.
    fn report(&self, original: usize, tally: &Tally) -> FilterReport {
        let mut report = FilterReport {
            original,
            stages: Vec::with_capacity(3),
        };
        if self.drop_bot_reverted {
            report.push_stage("bot-reverted", tally.bot_reverted);
        }
        if self.drop_creations_deletions {
            report.push_stage("creations & deletions", tally.creations_deletions);
        }
        if let Some(min) = self.min_changes {
            let sparse: u64 = tally
                .per_field
                .iter()
                .filter(|&&n| (n as usize) < min)
                .map(|&n| u64::from(n))
                .sum();
            report.push_stage("fields with < min changes", sparse as usize);
        }
        report
    }
}

/// What the count pass of [`FilterPipeline::apply`] found.
#[derive(Default)]
struct Tally {
    /// Bit `i % 64` of word `i / 64` is set when row `i` survives the
    /// bot-revert and kind stages.
    passing: Vec<u64>,
    /// Changes the bot-revert stage removes.
    bot_reverted: usize,
    /// Changes the creation/deletion stage removes.
    creations_deletions: usize,
    /// Per field slot (fields numbered in first-seen order), the changes
    /// that survive both predicates. Filled only when the minimum-change
    /// stage is enabled, as is `row_slots`.
    per_field: Vec<u32>,
    /// The field slot of each change that survives both predicates, in
    /// row order.
    row_slots: Vec<u32>,
}

/// Adjacent rows sharing `(day, entity, property)`: the changes a
/// same-day collapse would remove.
fn same_day_duplicates(cols: &ChangeColumns) -> usize {
    (1..cols.len())
        .filter(|&i| {
            cols.days()[i] == cols.days()[i - 1]
                && cols.entities()[i] == cols.entities()[i - 1]
                && cols.properties()[i] == cols.properties()[i - 1]
        })
        .count()
}

impl Default for FilterPipeline {
    fn default() -> FilterPipeline {
        FilterPipeline::paper()
    }
}

/// One stage's effect inside a [`FilterReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterStage {
    /// Human-readable stage name.
    pub name: &'static str,
    /// Changes removed by this stage.
    pub removed: usize,
    /// Changes remaining after this stage.
    pub remaining: usize,
}

/// Per-stage accounting of a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterReport {
    /// Changes before any filtering.
    pub original: usize,
    /// Stages in execution order.
    pub stages: Vec<FilterStage>,
}

impl FilterReport {
    fn push_stage(&mut self, name: &'static str, removed: usize) {
        let before = self.stages.last().map_or(self.original, |s| s.remaining);
        self.stages.push(FilterStage {
            name,
            removed,
            remaining: before - removed,
        });
    }

    /// Fraction of the *original* corpus a stage removed — the way the
    /// paper reports its percentages (they sum to 100 % − 9.2 %).
    pub fn removed_fraction_of_original(&self, stage: usize) -> f64 {
        if self.original == 0 {
            0.0
        } else {
            self.stages[stage].removed as f64 / self.original as f64
        }
    }

    /// Fraction of the original corpus that survived all stages.
    pub fn surviving_fraction(&self) -> f64 {
        if self.original == 0 {
            return 0.0;
        }
        let last = self.stages.last().map_or(self.original, |s| s.remaining);
        last as f64 / self.original as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;
    use wikistale_synth::{generate, SynthConfig};
    use wikistale_wikicube::{
        binio, merge, slice, ChangeCubeBuilder, ChangeFlags, Date, DateRange,
    };

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    /// The staged pipeline `apply` replaced, kept as its reference: a
    /// clone of the input, then one derived cube per enabled stage.
    fn staged_reference(p: &FilterPipeline, cube: &ChangeCube) -> (ChangeCube, FilterReport) {
        fn record(report: &mut FilterReport, name: &'static str, next: &ChangeCube) {
            let before = report
                .stages
                .last()
                .map_or(report.original, |s| s.remaining);
            report.stages.push(FilterStage {
                name,
                removed: before - next.num_changes(),
                remaining: next.num_changes(),
            });
        }
        let mut report = FilterReport {
            original: cube.num_changes(),
            stages: Vec::new(),
        };
        let mut current = cube.clone();
        if p.drop_bot_reverted {
            current = current.retain_changes(|c| !c.flags.is_bot_reverted());
            record(&mut report, "bot-reverted", &current);
        }
        if p.drop_creations_deletions {
            current = current.retain_changes(|c| c.kind == ChangeKind::Update);
            record(&mut report, "creations & deletions", &current);
        }
        if let Some(min) = p.min_changes {
            let mut counts: FxHashMap<FieldId, usize> = FxHashMap::default();
            for c in current.iter_changes() {
                *counts.entry(c.field()).or_insert(0) += 1;
            }
            current = current.retain_changes(|c| counts[&c.field()] >= min);
            record(&mut report, "fields with < min changes", &current);
        }
        (current, report)
    }

    /// All 8 configurations: two stage switches × `min_changes` ∈
    /// {None, Some(5)}.
    fn all_pipelines() -> impl Iterator<Item = FilterPipeline> {
        (0..8u32).map(|bits| FilterPipeline {
            drop_bot_reverted: bits & 1 != 0,
            drop_creations_deletions: bits & 2 != 0,
            min_changes: (bits & 4 != 0).then_some(5),
        })
    }

    /// Run `apply` and the staged reference and compare them: the same
    /// rows, report and dimension tables, with the output rows a
    /// subsequence of the input rows (filtering only ever removes).
    fn check_against_reference(p: &FilterPipeline, cube: &ChangeCube) -> Result<(), String> {
        let (got, report) = p.apply(cube);
        let (want, want_report) = staged_reference(p, cube);
        let rows = got.changes_vec();
        if rows != want.changes_vec() {
            return Err(format!("{p:?}: rows differ from the staged reference"));
        }
        if report != want_report {
            return Err(format!("{p:?}: {report:?} != {want_report:?}"));
        }
        if **got.dimensions() != **want.dimensions() || **got.dimensions() != **cube.dimensions() {
            return Err(format!("{p:?}: dimension tables differ"));
        }
        let mut input = cube.iter_changes();
        if !rows.iter().all(|r| input.any(|c| c == *r)) {
            return Err(format!("{p:?}: output is not a subsequence of the input"));
        }
        Ok(())
    }

    /// Random cubes over few days, entities and properties, so fields
    /// cross the minimum-change threshold both ways, with every change
    /// kind, some bot-reverted rows and same-day writes to one slot.
    fn arb_cube() -> impl Strategy<Value = ChangeCube> {
        proptest::collection::vec(
            (0i32..40, 0usize..4, 0usize..3, 0u8..3, 0u8..5, "[a-c]"),
            0..160,
        )
        .prop_map(|rows| {
            let mut b = ChangeCubeBuilder::new();
            let entities: Vec<_> = (0..4)
                .map(|i| b.entity(&format!("e{i}"), &format!("t{}", i % 2), &format!("pg{i}")))
                .collect();
            let props: Vec<_> = (0..3).map(|i| b.property(&format!("p{i}"))).collect();
            for (d, e, p, kind, bot, value) in rows {
                let flags = if bot == 0 {
                    ChangeFlags::BOT_REVERTED
                } else {
                    ChangeFlags::NONE
                };
                let kind = ChangeKind::from_u8(kind).unwrap();
                b.change_full(day(d), entities[e], props[p], &value, kind, flags);
            }
            b.finish()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn prop_filters_match_staged_reference(cube in arb_cube()) {
            for p in all_pipelines() {
                let checked = check_against_reference(&p, &cube);
                prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
            }
        }
    }

    #[test]
    fn filters_match_staged_reference_on_synth_tiny() {
        let cube = generate(&SynthConfig::tiny()).cube;
        for p in all_pipelines() {
            check_against_reference(&p, &cube).unwrap();
        }
    }

    #[test]
    fn paper_filters_match_staged_reference_on_synth_small() {
        let cube = generate(&SynthConfig::small()).cube;
        check_against_reference(&FilterPipeline::paper(), &cube).unwrap();
    }

    #[test]
    fn filter_output_shares_dimension_tables() {
        let cube = generate(&SynthConfig::tiny()).cube;
        let (filtered, _) = FilterPipeline::paper().apply(&cube);
        assert!(filtered.num_changes() < cube.num_changes());
        assert!(Arc::ptr_eq(filtered.dimensions(), cube.dimensions()));
    }

    /// A paper-filtered cube holds only updates, so its update-only index
    /// borrows the cube's day-list store instead of building a copy.
    #[test]
    fn paper_filtered_index_shares_the_cube_day_lists() {
        let cube = generate(&SynthConfig::tiny()).cube;
        let (filtered, _) = FilterPipeline::paper().apply(&cube);
        let index = wikistale_wikicube::CubeIndex::build(&filtered);
        assert!(index.num_fields() > 0);
        assert!(Arc::ptr_eq(index.day_lists(), filtered.day_lists()));
    }

    /// Every way the workspace builds a cube leaves it canonical: sorted
    /// by `(day, entity, property)` with no two adjacent rows sharing that
    /// key. This is why the pipeline has no same-day stage.
    #[test]
    fn filters_see_only_canonical_cubes() {
        fn assert_canonical(cube: &ChangeCube, built_by: &str) {
            let cols = cube.columns();
            assert_eq!(
                same_day_duplicates(cols),
                0,
                "{built_by}: same-day duplicates"
            );
            assert!(
                cube.iter_changes().is_sorted_by_key(|c| c.sort_key()),
                "{built_by}: not in canonical order"
            );
        }

        // Unsorted builder input with same-day writes to one slot.
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let f = b.entity("F", "t", "Q");
        let p = b.property("p");
        let q = b.property("q");
        for (d, ent, prop, v) in [
            (3, f, q, "a"),
            (1, e, p, "b"),
            (3, f, q, "c"),
            (1, e, p, "d"),
        ] {
            b.change(day(d), ent, prop, v, ChangeKind::Update);
        }
        b.change(day(2), e, q, "e", ChangeKind::Create);
        let built = b.finish();
        assert_eq!(built.num_changes(), 3);
        assert_canonical(&built, "ChangeCubeBuilder::finish");

        let synth = generate(&SynthConfig::tiny()).cube;
        assert_canonical(&synth, "synth");
        let decoded = binio::decode(&binio::encode(&synth)).unwrap();
        assert_canonical(&decoded, "binio::decode");

        let mut rows = synth.changes_vec();
        rows.extend(synth.changes_vec().into_iter().step_by(7));
        rows.reverse();
        let rebuilt = synth.with_changes(rows).unwrap();
        assert_eq!(rebuilt.num_changes(), synth.num_changes());
        assert_canonical(&rebuilt, "with_changes");

        assert_canonical(
            &synth.retain_changes(|c| c.kind != ChangeKind::Delete),
            "retain_changes",
        );
        let span = synth.time_span().unwrap();
        let mid = span.start().plus_days((span.end() - span.start()) / 2);
        let (left, right) = (
            slice(&synth, DateRange::new(span.start(), mid)),
            slice(&synth, DateRange::new(mid, span.end())),
        );
        assert_canonical(&left, "slice");
        let merged = merge([&left, &right, &synth]).unwrap();
        assert_eq!(merged.num_changes(), synth.num_changes());
        assert_canonical(&merged, "merge");

        let xml = wikistale_wikitext::render_export(&wikistale_wikitext::cube_to_dump(&synth));
        let pages = wikistale_wikitext::parse_export(&xml).unwrap();
        assert_canonical(&wikistale_wikitext::build_cube(&pages), "wikitext ingest");
    }

    #[test]
    fn bot_reverted_changes_are_dropped() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        b.change(day(1), e, p, "a", ChangeKind::Update);
        b.change_full(
            day(2),
            e,
            p,
            "b",
            ChangeKind::Update,
            ChangeFlags::BOT_REVERTED,
        );
        let pipeline = FilterPipeline {
            drop_bot_reverted: true,
            drop_creations_deletions: false,
            min_changes: None,
        };
        let (cube, report) = pipeline.apply(&b.finish());
        assert_eq!(cube.num_changes(), 1);
        assert_eq!(report.stages[0].removed, 1);
        assert_eq!(report.stages[0].name, "bot-reverted");
    }

    #[test]
    fn dedup_picks_mode_value() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        // Vandal value once, real value twice: the cube keeps the day's
        // last write, which here is also the mode.
        b.change(day(1), e, p, "vandal", ChangeKind::Update);
        b.change(day(1), e, p, "real", ChangeKind::Update);
        b.change(day(1), e, p, "real", ChangeKind::Update);
        let pipeline = FilterPipeline {
            drop_bot_reverted: false,
            drop_creations_deletions: false,
            min_changes: None,
        };
        let (cube, _) = pipeline.apply(&b.finish());
        assert_eq!(cube.num_changes(), 1);
        assert_eq!(cube.value_text(cube.change_at(0).value), "real");
    }

    #[test]
    fn dedup_tie_keeps_most_recent() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        // A tie: the cube keeps the day's last write.
        b.change(day(1), e, p, "first", ChangeKind::Update);
        b.change(day(1), e, p, "second", ChangeKind::Update);
        let (cube, _) = FilterPipeline {
            drop_bot_reverted: false,
            drop_creations_deletions: false,
            min_changes: None,
        }
        .apply(&b.finish());
        assert_eq!(cube.num_changes(), 1);
        assert_eq!(cube.value_text(cube.change_at(0).value), "second");
    }

    #[test]
    fn dedup_is_per_field_and_per_day() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        let q = b.property("q");
        b.change(day(1), e, p, "a", ChangeKind::Update);
        b.change(day(1), e, q, "b", ChangeKind::Update); // other field
        b.change(day(2), e, p, "c", ChangeKind::Update); // other day
        let (cube, report) = FilterPipeline {
            drop_bot_reverted: false,
            drop_creations_deletions: false,
            min_changes: None,
        }
        .apply(&b.finish());
        assert_eq!(cube.num_changes(), 3);
        assert!(report.stages.is_empty());
    }

    #[test]
    fn creations_and_deletions_dropped() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        b.change(day(0), e, p, "a", ChangeKind::Create);
        b.change(day(1), e, p, "b", ChangeKind::Update);
        b.change(day(2), e, p, "", ChangeKind::Delete);
        let (cube, report) = FilterPipeline {
            drop_bot_reverted: false,
            drop_creations_deletions: true,
            min_changes: None,
        }
        .apply(&b.finish());
        assert_eq!(cube.num_changes(), 1);
        assert_eq!(cube.change_at(0).kind, ChangeKind::Update);
        assert_eq!(report.stages[0].removed, 2);
    }

    #[test]
    fn min_changes_drops_sparse_fields() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let busy = b.property("busy");
        let quiet = b.property("quiet");
        for d in 0..5 {
            b.change(day(d), e, busy, "v", ChangeKind::Update);
        }
        for d in 0..4 {
            b.change(day(d), e, quiet, "v", ChangeKind::Update);
        }
        let (cube, report) = FilterPipeline {
            drop_bot_reverted: false,
            drop_creations_deletions: false,
            min_changes: Some(5),
        }
        .apply(&b.finish());
        assert_eq!(cube.num_changes(), 5);
        assert_eq!(report.stages[0].removed, 4);
        assert!(cube
            .iter_changes()
            .all(|c| cube.property_name(c.property) == "busy"));
    }

    #[test]
    fn full_pipeline_reports_all_stages_and_fractions() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        b.change(day(0), e, p, "init", ChangeKind::Create);
        for d in 1..=6 {
            b.change(day(d), e, p, &format!("v{d}"), ChangeKind::Update);
        }
        // Same-day duplicate: collapsed by cube canonicalization before the
        // pipeline ever sees it, so it does not count toward `original`.
        b.change(day(6), e, p, "v6-later", ChangeKind::Update);
        b.change_full(
            day(7),
            e,
            p,
            "x",
            ChangeKind::Update,
            ChangeFlags::BOT_REVERTED,
        );
        let (cube, report) = FilterPipeline::paper().apply(&b.finish());
        assert_eq!(report.stages.len(), 3);
        assert_eq!(report.original, 8);
        // bot (1) and create (1) removed; 6 updates ≥ 5 survive.
        assert_eq!(cube.num_changes(), 6);
        let total_removed: usize = report.stages.iter().map(|s| s.removed).sum();
        assert_eq!(total_removed + cube.num_changes(), report.original);
        let frac_sum: f64 = (0..3)
            .map(|i| report.removed_fraction_of_original(i))
            .sum::<f64>()
            + report.surviving_fraction();
        assert!((frac_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dedup_preserves_sort_order_for_downstream_filters() {
        // Same-day writes collapse at construction and the filtered cube
        // stays canonically ordered, so a second application is a no-op
        // (idempotence).
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        for d in 0..3 {
            b.change(day(d), e, p, "a", ChangeKind::Update);
            b.change(day(d), e, p, "b", ChangeKind::Update);
        }
        let pipeline = FilterPipeline {
            drop_bot_reverted: false,
            drop_creations_deletions: false,
            min_changes: None,
        };
        let (once, _) = pipeline.apply(&b.finish());
        let (twice, report) = pipeline.apply(&once);
        assert_eq!(once.changes_vec(), twice.changes_vec());
        assert_eq!(report.original, once.num_changes());
        assert!(report.stages.is_empty());
    }

    #[test]
    fn empty_cube_passes_through() {
        let (cube, report) = FilterPipeline::paper().apply(&ChangeCubeBuilder::new().finish());
        assert_eq!(cube.num_changes(), 0);
        assert_eq!(report.surviving_fraction(), 0.0);
    }
}
