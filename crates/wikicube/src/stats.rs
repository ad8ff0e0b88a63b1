//! Corpus statistics over a change cube.
//!
//! These are the quantities §4 of the paper reports about its dataset
//! (change-kind mix, bot reverts, field change counts); the
//! `dataset_stats` experiment binary prints them next to the paper's
//! numbers. Same-day churn is not among them: a cube keeps one change per
//! `(day, entity, property)`, so the churn is counted where it is
//! collapsed (`SynthCorpus::same_day_collapsed` in the generator).

use crate::change::ChangeKind;
use crate::cube::ChangeCube;
use crate::date::DateRange;
use crate::fxhash::FxHashMap;
use crate::ids::FieldId;

/// Aggregate statistics of one cube snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusStats {
    /// Total number of changes.
    pub total_changes: usize,
    /// Changes by kind: `[creates, updates, deletes]`.
    pub by_kind: [usize; 3],
    /// Changes flagged as bot-reverted.
    pub bot_reverted: usize,
    /// Number of distinct fields with at least one change.
    pub distinct_fields: usize,
    /// Number of distinct fields with fewer than `min_changes_threshold`
    /// changes.
    pub fields_below_min_changes: usize,
    /// Changes belonging to fields with fewer than `min_changes_threshold`
    /// changes.
    pub changes_in_sparse_fields: usize,
    /// The threshold used for the two sparse-field statistics (the paper
    /// uses 5).
    pub min_changes_threshold: usize,
    /// Distinct entities with at least one change.
    pub active_entities: usize,
    /// Distinct templates with at least one change.
    pub active_templates: usize,
    /// Day span covered, if any change exists.
    pub time_span: Option<DateRange>,
}

impl CorpusStats {
    /// Compute statistics with the paper's min-change threshold of 5.
    pub fn compute(cube: &ChangeCube) -> CorpusStats {
        CorpusStats::compute_with_threshold(cube, 5)
    }

    /// Compute statistics, counting fields with fewer than `min_changes`
    /// changes as sparse.
    pub fn compute_with_threshold(cube: &ChangeCube, min_changes: usize) -> CorpusStats {
        let mut by_kind = [0usize; 3];
        let mut bot_reverted = 0usize;
        let mut per_field: FxHashMap<FieldId, usize> = FxHashMap::default();
        let mut active_entities = crate::fxhash::FxHashSet::default();
        let mut active_templates = crate::fxhash::FxHashSet::default();
        for c in cube.iter_changes() {
            by_kind[c.kind as usize] += 1;
            if c.flags.is_bot_reverted() {
                bot_reverted += 1;
            }
            *per_field.entry(c.field()).or_insert(0) += 1;
            active_entities.insert(c.entity);
            active_templates.insert(cube.template_of(c.entity));
        }
        let fields_below_min_changes = per_field.values().filter(|&&n| n < min_changes).count();
        let changes_in_sparse_fields = per_field
            .values()
            .filter(|&&n| n < min_changes)
            .sum::<usize>();
        CorpusStats {
            total_changes: cube.num_changes(),
            by_kind,
            bot_reverted,
            distinct_fields: per_field.len(),
            fields_below_min_changes,
            changes_in_sparse_fields,
            min_changes_threshold: min_changes,
            active_entities: active_entities.len(),
            active_templates: active_templates.len(),
            time_span: cube.time_span(),
        }
    }

    /// Creations as a fraction of all changes (paper: 50.6 % of raw data).
    pub fn create_fraction(&self) -> f64 {
        fraction(
            self.by_kind[ChangeKind::Create as usize],
            self.total_changes,
        )
    }

    /// Deletions as a fraction of all changes (paper: 20.3 % of raw data).
    pub fn delete_fraction(&self) -> f64 {
        fraction(
            self.by_kind[ChangeKind::Delete as usize],
            self.total_changes,
        )
    }

    /// Bot-reverted changes as a fraction of all changes (paper: 0.008 %).
    pub fn bot_reverted_fraction(&self) -> f64 {
        fraction(self.bot_reverted, self.total_changes)
    }
}

fn fraction(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change::ChangeFlags;
    use crate::cube::ChangeCubeBuilder;
    use crate::date::Date;

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    #[test]
    fn counts_kinds_flags_and_duplicates() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        let q = b.property("q");
        b.change(day(1), e, p, "a", ChangeKind::Create);
        b.change(day(2), e, p, "b", ChangeKind::Update);
        // Same-day duplicate: collapsed to the later value by cube
        // canonicalization, so it never reaches the statistics.
        b.change(day(2), e, p, "c", ChangeKind::Update);
        b.change(day(2), e, q, "x", ChangeKind::Update); // different field, same day
        b.change_full(
            day(3),
            e,
            p,
            "d",
            ChangeKind::Delete,
            ChangeFlags::BOT_REVERTED,
        );
        let stats = CorpusStats::compute(&b.finish());
        assert_eq!(stats.total_changes, 4);
        assert_eq!(stats.by_kind, [1, 2, 1]);
        assert_eq!(stats.bot_reverted, 1);
        assert_eq!(stats.distinct_fields, 2);
        assert_eq!(stats.active_entities, 1);
        assert_eq!(stats.active_templates, 1);
        assert!((stats.create_fraction() - 0.25).abs() < 1e-12);
        assert!((stats.delete_fraction() - 0.25).abs() < 1e-12);
        assert!((stats.bot_reverted_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sparse_field_accounting() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let busy = b.property("busy");
        let quiet = b.property("quiet");
        for d in 0..6 {
            b.change(day(d), e, busy, "v", ChangeKind::Update);
        }
        b.change(day(0), e, quiet, "v", ChangeKind::Update);
        let stats = CorpusStats::compute(&b.finish());
        assert_eq!(stats.distinct_fields, 2);
        assert_eq!(stats.fields_below_min_changes, 1);
        assert_eq!(stats.changes_in_sparse_fields, 1);
        assert_eq!(stats.min_changes_threshold, 5);
        let relaxed = CorpusStats::compute_with_threshold(&b_cube_for_threshold_test(), 1);
        assert_eq!(relaxed.fields_below_min_changes, 0);
    }

    fn b_cube_for_threshold_test() -> crate::cube::ChangeCube {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        b.change(day(0), e, p, "v", ChangeKind::Update);
        b.finish()
    }

    #[test]
    fn empty_cube_stats() {
        let stats = CorpusStats::compute(&ChangeCubeBuilder::new().finish());
        assert_eq!(stats.total_changes, 0);
        assert_eq!(stats.create_fraction(), 0.0);
        assert!(stats.time_span.is_none());
    }
}
