//! Scripted corpora: hand-authored change histories with exact dates.
//!
//! The generator ([`crate::generate()`]) builds statistically realistic
//! corpora; tests and case studies often need the opposite — a corpus
//! whose every change is placed deliberately (the §5.4 Handball-Bundesliga
//! reconstruction, predictor unit fixtures, documentation examples).
//! [`Scenario`] wraps the cube builder with a vocabulary matching how the
//! paper talks about change patterns: independent updates, co-updating
//! clusters with forgotten members, and asymmetric driver/dependent pairs.
//!
//! ```
//! use wikistale_synth::scenario::Scenario;
//! use wikistale_wikicube::Date;
//!
//! let mut s = Scenario::new();
//! let club = s.entity("FC Example", "infobox club", "FC Example");
//! let d = |n| Date::EPOCH + n;
//! // Kit colors co-update; the away color is forgotten on day 60.
//! s.co_updates(club, &["home_color", "away_color"], &[d(0), d(30), d(90)]);
//! s.update(club, "home_color", d(60));
//! s.forget(club, "away_color", d(60));
//! let corpus = s.finish();
//! assert_eq!(corpus.cube.num_changes(), 7);
//! assert_eq!(corpus.ground_truth.len(), 1);
//! ```

use crate::ground_truth::GroundTruth;
use crate::SynthCorpus;
use wikistale_wikicube::{ChangeCubeBuilder, ChangeKind, Date, EntityId, FxHashMap, PropertyId};

/// A scripted corpus under construction.
#[derive(Debug, Default)]
pub struct Scenario {
    builder: ChangeCubeBuilder,
    truth: GroundTruth,
    /// Per-field running counters for generated values.
    counters: FxHashMap<(EntityId, PropertyId), u64>,
}

impl Scenario {
    /// Start an empty scenario.
    pub fn new() -> Scenario {
        Scenario::default()
    }

    /// Register (or look up) an infobox.
    pub fn entity(&mut self, name: &str, template: &str, page: &str) -> EntityId {
        self.builder.entity(name, template, page)
    }

    /// One update to `prop` on `day` with an auto-generated value.
    pub fn update(&mut self, entity: EntityId, prop: &str, day: Date) -> &mut Self {
        let value = self.next_value(entity, prop);
        let property = self.builder.property(prop);
        self.builder
            .change(day, entity, property, &value, ChangeKind::Update);
        self
    }

    /// One update with an explicit value (for value-sensitive scenarios
    /// like the counter-anomaly case study).
    pub fn update_with_value(
        &mut self,
        entity: EntityId,
        prop: &str,
        day: Date,
        value: &str,
    ) -> &mut Self {
        let property = self.builder.property(prop);
        self.builder
            .change(day, entity, property, value, ChangeKind::Update);
        self
    }

    /// Updates to `prop` on every day in `days`.
    pub fn updates(&mut self, entity: EntityId, prop: &str, days: &[Date]) -> &mut Self {
        for &day in days {
            self.update(entity, prop, day);
        }
        self
    }

    /// All `props` co-update on every day in `days` — the §3.2 cluster
    /// pattern.
    pub fn co_updates(&mut self, entity: EntityId, props: &[&str], days: &[Date]) -> &mut Self {
        for &day in days {
            for prop in props {
                self.update(entity, prop, day);
            }
        }
        self
    }

    /// Record that `prop` *should* have changed on `day` but did not — the
    /// ground truth a staleness detector is meant to find.
    pub fn forget(&mut self, entity: EntityId, prop: &str, day: Date) -> &mut Self {
        let property = self.builder.property(prop);
        self.truth.record(day, entity, property);
        self
    }

    /// The §3.3 asymmetric pattern: `driver` changes on every day of
    /// `driver_days`; `dependent` co-changes only on the days in
    /// `dependent_days` (which must be a subset to make the rule
    /// `dependent ⇒ driver` hold).
    pub fn driver_pair(
        &mut self,
        entity: EntityId,
        driver: &str,
        dependent: &str,
        driver_days: &[Date],
        dependent_days: &[Date],
    ) -> &mut Self {
        self.updates(entity, driver, driver_days);
        self.updates(entity, dependent, dependent_days);
        self
    }

    /// A create marker for a field (scenarios usually only need updates;
    /// creates matter when exercising the filter pipeline).
    pub fn create(&mut self, entity: EntityId, prop: &str, day: Date) -> &mut Self {
        let value = self.next_value(entity, prop);
        let property = self.builder.property(prop);
        self.builder
            .change(day, entity, property, &value, ChangeKind::Create);
        self
    }

    /// A delete marker for a field.
    pub fn delete(&mut self, entity: EntityId, prop: &str, day: Date) -> &mut Self {
        let property = self.builder.property(prop);
        self.builder
            .change(day, entity, property, "", ChangeKind::Delete);
        self
    }

    /// Finalize into a corpus (cube + ground truth). The config slot holds
    /// the tiny preset for provenance; scripted corpora have no generator
    /// parameters of their own.
    pub fn finish(mut self) -> SynthCorpus {
        self.truth.seal();
        let written = self.builder.num_changes();
        let cube = self.builder.finish();
        SynthCorpus {
            same_day_collapsed: written - cube.num_changes(),
            cube,
            ground_truth: self.truth,
            config: crate::SynthConfig::tiny(),
        }
    }

    fn next_value(&mut self, entity: EntityId, prop: &str) -> String {
        let property = self.builder.property(prop);
        let counter = self.counters.entry((entity, property)).or_insert(0);
        *counter += 1;
        format!("v{counter}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wikistale_wikicube::DateRange;

    fn d(n: i32) -> Date {
        Date::EPOCH + n
    }

    #[test]
    fn scripted_cluster_is_found_by_field_correlations() {
        let mut s = Scenario::new();
        let club = s.entity("FC", "infobox club", "FC Page");
        let days: Vec<Date> = (0..8).map(|k| d(k * 40)).collect();
        s.co_updates(club, &["home_color", "away_color"], &days);
        s.updates(club, "stadium", &[d(13), d(77), d(191), d(301), d(411)]);
        let corpus = s.finish();
        assert_eq!(corpus.cube.num_changes(), 8 * 2 + 5);
        // Values increment independently per field.
        let c0 = corpus.cube.change_at(0);
        assert_eq!(corpus.cube.value_text(c0.value), "v1");
    }

    #[test]
    fn forget_records_ground_truth() {
        let mut s = Scenario::new();
        let e = s.entity("E", "t", "P");
        s.update(e, "a", d(5));
        s.forget(e, "b", d(5));
        let corpus = s.finish();
        assert_eq!(corpus.ground_truth.len(), 1);
        let f = corpus.ground_truth.forgotten()[0];
        assert_eq!(f.day, d(5));
        assert_eq!(corpus.cube.property_name(f.field.property), "b");
        assert!(corpus.ground_truth.was_stale_in(f.field, d(0), d(10)));
    }

    #[test]
    fn driver_pair_is_asymmetric() {
        let mut s = Scenario::new();
        let boxer = s.entity("Boxer", "infobox boxer", "Boxer Page");
        let wins: Vec<Date> = (0..10).map(|k| d(k * 20)).collect();
        let kos: Vec<Date> = wins.iter().step_by(2).copied().collect();
        s.driver_pair(boxer, "wins", "ko", &wins, &kos);
        let corpus = s.finish();
        let cube = &corpus.cube;
        let count = |name: &str| {
            let p = cube.property_id(name).unwrap();
            cube.iter_changes().filter(|c| c.property == p).count()
        };
        assert_eq!(count("wins"), 10);
        assert_eq!(count("ko"), 5);
    }

    #[test]
    fn create_update_delete_lifecycle() {
        let mut s = Scenario::new();
        let e = s.entity("E", "t", "P");
        s.create(e, "p", d(0));
        s.update(e, "p", d(10));
        s.delete(e, "p", d(20));
        let corpus = s.finish();
        let kinds: Vec<ChangeKind> = corpus.cube.iter_changes().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            vec![ChangeKind::Create, ChangeKind::Update, ChangeKind::Delete]
        );
    }

    #[test]
    fn scenario_feeds_the_detector_stack() {
        // End to end: the scripted cluster trains a correlation rule and a
        // forgotten update gets flagged.
        use wikistale_core::predictor::{ChangePredictor, EvalData};
        use wikistale_core::predictors::{FieldCorrelation, FieldCorrelationParams};
        use wikistale_wikicube::CubeIndex;

        let mut s = Scenario::new();
        let club = s.entity("FC", "infobox club", "FC Page");
        let days: Vec<Date> = (0..10).map(|k| d(k * 30)).collect();
        s.co_updates(club, &["home", "away"], &days);
        // Day 300: home changes, away is forgotten.
        s.update(club, "home", d(300));
        s.forget(club, "away", d(300));
        let corpus = s.finish();

        let index = CubeIndex::build(&corpus.cube);
        let data = EvalData::new(&corpus.cube, &index);
        let fc = FieldCorrelation::train(
            &data,
            DateRange::new(d(0), d(295)),
            FieldCorrelationParams::default(),
        );
        assert_eq!(fc.num_rules(), 1);
        let window = DateRange::new(d(295), d(302));
        let set = fc.predict(&data, window, 7);
        let away = index
            .position(wikistale_wikicube::FieldId::new(
                club,
                corpus.cube.property_id("away").unwrap(),
            ))
            .unwrap() as u32;
        assert!(set.items().iter().any(|&(p, _)| p == away));
        assert!(corpus.ground_truth.was_stale_in(
            index.field(away as usize),
            window.start(),
            window.end()
        ));
    }
}
