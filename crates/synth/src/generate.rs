//! Corpus generation: instantiate every template's entities and simulate
//! their editing processes day by day.

use crate::config::SynthConfig;
use crate::dist::{poisson_process_days, uniform_range};
use crate::ground_truth::GroundTruth;
use crate::schema::{build_schemas, PropertyRole, TemplateSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wikistale_wikicube::{
    ChangeCube, ChangeCubeBuilder, ChangeFlags, ChangeKind, Date, EntityId, PropertyId,
};

/// A generated corpus: the raw change cube plus the generator's ground
/// truth about forgotten updates.
#[derive(Debug, Clone)]
pub struct SynthCorpus {
    /// The raw (unfiltered) change cube.
    pub cube: ChangeCube,
    /// Which updates were genuinely forgotten (true staleness).
    pub ground_truth: GroundTruth,
    /// Writes the cube constructor dropped because a later write hit the
    /// same `(day, entity, property)` slot: the generator's same-day
    /// churn, which §4 of the paper collapses (19.185 % of its raw
    /// changes).
    pub same_day_collapsed: usize,
    /// The configuration that produced this corpus.
    pub config: SynthConfig,
}

/// Generate a corpus. Panics on an invalid configuration; use
/// [`try_generate`] to handle validation errors.
pub fn generate(config: &SynthConfig) -> SynthCorpus {
    try_generate(config).expect("invalid SynthConfig")
}

/// Generate a corpus, or report why the configuration is invalid.
pub fn try_generate(config: &SynthConfig) -> Result<SynthCorpus, String> {
    config.validate()?;
    let obs = wikistale_obs::MetricsRegistry::global();
    let _span = obs.span("synth");
    let mut master = StdRng::seed_from_u64(config.seed);
    let templates = build_schemas(config, &mut master);
    let span = config.span_days();

    let mut builder = ChangeCubeBuilder::new();
    let mut truth = GroundTruth::default();
    for (tid, template) in templates.iter().enumerate() {
        // Property ids are interned once per template.
        let prop_ids: Vec<PropertyId> = template
            .properties
            .iter()
            .map(|p| builder.property(&p.name))
            .collect();
        // Sports seasons of one template are aligned across its entities.
        let season_phase = {
            let mut r = StdRng::seed_from_u64(mix(config.seed, tid as u64, u64::MAX));
            r.random_range(0..300u32)
        };
        for e in 0..template.entity_count {
            let mut rng = StdRng::seed_from_u64(mix(config.seed, tid as u64, e as u64));
            let name = format!("synth-{tid}-{e}");
            let page = format!("Page {tid}-{e}");
            let entity = builder.entity(&name, &template.name, &page);
            generate_entity(
                config,
                template,
                &prop_ids,
                entity,
                season_phase,
                span,
                &mut rng,
                &mut builder,
                &mut truth,
            );
        }
    }
    truth.seal();
    let written = builder.num_changes();
    let cube = builder.finish();
    let same_day_collapsed = written - cube.num_changes();
    obs.counter("synth/changes").add(cube.num_changes() as u64);
    obs.counter("synth/same_day_collapsed")
        .add(same_day_collapsed as u64);
    obs.counter("synth/entities")
        .add(cube.num_entities() as u64);
    obs.counter("synth/forgotten_updates")
        .add(truth.len() as u64);
    Ok(SynthCorpus {
        cube,
        ground_truth: truth,
        same_day_collapsed,
        config: config.clone(),
    })
}

/// SplitMix64-style mixing of the seed with template and entity indices,
/// so per-entity streams are independent of generation order.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The life of one field: alive from `birth`, possibly deleted, possibly
/// re-created.
#[derive(Debug, Clone, Copy)]
struct FieldLife {
    birth: u32,
    deleted_at: Option<u32>,
    recreated_at: Option<u32>,
}

impl FieldLife {
    fn alive_on(&self, day: u32) -> bool {
        if day < self.birth {
            return false;
        }
        match (self.deleted_at, self.recreated_at) {
            (Some(d), Some(r)) => day < d || day >= r,
            (Some(d), None) => day < d,
            _ => true,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn generate_entity(
    config: &SynthConfig,
    template: &TemplateSpec,
    prop_ids: &[PropertyId],
    entity: EntityId,
    season_phase: u32,
    span: u32,
    rng: &mut StdRng,
    builder: &mut ChangeCubeBuilder,
    truth: &mut GroundTruth,
) {
    let birth = rng.random_range(0..(span as f64 * 0.8) as u32 + 1);
    let life_days = span - birth;
    let special = rng.random_bool(config.special_entity_fraction);
    let churn_active = rng.random_bool(config.churn_entity_fraction);

    // ---- per-entity shared event schedules ----
    let session_days: Vec<u32> = poisson_process_days(rng, config.sessions_per_year, life_days)
        .into_iter()
        .map(|d| d + birth)
        .collect();

    // Per-property update day lists.
    let mut updates: Vec<Vec<u32>> = vec![Vec::new(); template.properties.len()];

    // Cluster events: all members co-update, each may be forgotten.
    if special {
        let members = template.cluster_members(0);
        if members.len() >= 2 {
            for day in poisson_process_days(rng, config.cluster_events_per_year, life_days) {
                let day = day + birth;
                for &m in &members {
                    if rng.random_bool(config.cluster_forget_prob) {
                        truth.record(date(config, day), entity, prop_ids[m]);
                    } else {
                        updates[m].push(day);
                    }
                }
            }
        }
        // Rule pair: driver events in-season; dependent fires on a subset.
        if let (Some(sup), Some(sub)) = (template.rule_super(), template.rule_sub()) {
            for day in season_event_days(
                rng,
                config.rule_super_events_per_year,
                season_phase,
                birth,
                span,
            ) {
                let sub_fires = rng.random_bool(config.rule_sub_prob);
                if sub_fires {
                    updates[sub].push(day);
                    if rng.random_bool(config.rule_forget_prob) {
                        // `sub` changed but `super` was forgotten: exactly
                        // the staleness the sub ⇒ super rule detects.
                        truth.record(date(config, day), entity, prop_ids[sup]);
                    } else {
                        updates[sup].push(day);
                    }
                } else {
                    updates[sup].push(day);
                }
            }
        }
    }

    // Page-specific correlated pair (the Beale-family pattern, §3.2):
    // two of this entity's non-special properties co-change on a schedule
    // unique to this page. Template-wide confidence stays low, so the
    // association rules cannot mine it — only the per-page correlation
    // search can.
    let mut page_pair: Option<(usize, usize)> = None;
    // Only session properties are eligible. Special roles are covered by
    // template-level rules anyway, and a pair on otherwise-static
    // properties would be template-minable too: since nothing else ever
    // changes those properties, one page's co-changes dominate the
    // template-wide confidence. Session properties change on many pages
    // uncorrelated, which keeps the pair genuinely page-specific.
    let eligible: Vec<usize> = template
        .properties
        .iter()
        .enumerate()
        .filter(|(_, p)| matches!(p.role, PropertyRole::Session { .. }))
        .map(|(i, _)| i)
        .collect();
    if eligible.len() >= 2 && rng.random_bool(config.page_pair_fraction) {
        let ai = rng.random_range(0..eligible.len());
        let mut bi = rng.random_range(0..eligible.len() - 1);
        if bi >= ai {
            bi += 1;
        }
        let (a, b) = (eligible[ai], eligible[bi]);
        page_pair = Some((a, b));
        for day in poisson_process_days(rng, config.page_pair_events_per_year, life_days) {
            let day = day + birth;
            for &m in &[a, b] {
                if rng.random_bool(config.cluster_forget_prob) {
                    truth.record(date(config, day), entity, prop_ids[m]);
                } else {
                    updates[m].push(day);
                }
            }
        }
    }

    for (i, prop) in template.properties.iter().enumerate() {
        match prop.role {
            PropertyRole::Static
            | PropertyRole::ClusterMember { .. }
            | PropertyRole::RuleSub
            | PropertyRole::RuleSuper => {}
            PropertyRole::Session { touch_prob } => {
                for &day in &session_days {
                    if rng.random_bool(touch_prob) {
                        updates[i].push(day);
                    }
                }
            }
            PropertyRole::Seasonal { phase } => {
                let mut year_start = 0u32;
                while year_start < span {
                    let burst = year_start + phase;
                    if burst >= birth && burst < span {
                        let k = uniform_range(rng, config.seasonal_burst_changes);
                        for _ in 0..k {
                            let day = burst + rng.random_range(0..30u32);
                            if day < span {
                                updates[i].push(day);
                            }
                        }
                    }
                    year_start += 365;
                }
            }
            PropertyRole::Churn => {
                if churn_active {
                    // Episode counters churn daily while a season airs,
                    // pause between seasons, and may stop for good when
                    // the show is cancelled — the irregularity that keeps
                    // the threshold baseline below the precision target.
                    let cancel_at = if rng.random_bool(config.churn_cancel_prob) {
                        birth + rng.random_range(1..=span - birth)
                    } else {
                        span
                    };
                    // Daily soaps run nearly year-round with short breaks;
                    // regular series take months off between seasons.
                    let (on_range, off_range) = if rng.random_bool(0.4) {
                        ((120u32, 300u32), (7u32, 21u32))
                    } else {
                        ((100, 280), (25, 80))
                    };
                    let mut day = birth;
                    let mut on_season = true;
                    let mut phase_left: u32 = rng.random_range(on_range.0..on_range.1);
                    while day < cancel_at {
                        if phase_left == 0 {
                            on_season = !on_season;
                            phase_left = if on_season {
                                rng.random_range(on_range.0..on_range.1)
                            } else {
                                rng.random_range(off_range.0..off_range.1)
                            };
                        }
                        if on_season && rng.random_bool(config.churn_daily_prob) {
                            updates[i].push(day);
                        }
                        day += 1;
                        phase_left -= 1;
                    }
                }
            }
        }
    }

    // ---- emit changes per field, applying life cycle and noise ----
    for (i, prop) in template.properties.iter().enumerate() {
        // Fields carrying a page-specific pair are actively maintained and
        // share the low deletion rate of the other special roles.
        let in_page_pair = page_pair.is_some_and(|(a, b)| i == a || i == b);
        let life = sample_life(config, rng, &prop.role, in_page_pair, birth, span);
        emit_field(
            config,
            rng,
            builder,
            entity,
            prop_ids[i],
            &life,
            updates[i].as_mut_slice(),
            span,
        );
    }
}

/// Event days of an annually recurring season: a ~140-day active window
/// each year, events Poisson-distributed inside it.
fn season_event_days(
    rng: &mut StdRng,
    events_per_year: f64,
    phase: u32,
    birth: u32,
    span: u32,
) -> Vec<u32> {
    const SEASON_LEN: u32 = 140;
    // Rate compressed into the window so the annual total matches.
    let window_rate = events_per_year * 365.25 / SEASON_LEN as f64;
    let mut days = Vec::new();
    let mut year_start = 0u32;
    while year_start < span {
        let start = year_start + phase;
        if start < span {
            for d in poisson_process_days(rng, window_rate, SEASON_LEN.min(span - start)) {
                let day = start + d;
                if day >= birth && day < span {
                    days.push(day);
                }
            }
        }
        year_start += 365;
    }
    days.sort_unstable();
    days
}

/// Sample a field's deletion / re-creation life cycle.
fn sample_life(
    config: &SynthConfig,
    rng: &mut StdRng,
    role: &PropertyRole,
    in_page_pair: bool,
    birth: u32,
    span: u32,
) -> FieldLife {
    let delete_prob = if role.is_special() || in_page_pair {
        config.special_delete_prob
    } else if role.is_updatable() {
        config.field_delete_prob
    } else {
        config.static_delete_prob
    };
    let mut life = FieldLife {
        birth,
        deleted_at: None,
        recreated_at: None,
    };
    // A field can only die if it has lived for at least a year.
    if span > birth + 366 && rng.random_bool(delete_prob) {
        let deleted_at = rng.random_range(birth + 365..span);
        life.deleted_at = Some(deleted_at);
        if rng.random_bool(config.recreate_prob) {
            let gap = rng.random_range(30..300u32);
            if deleted_at + gap < span {
                life.recreated_at = Some(deleted_at + gap);
            }
        }
    }
    life
}

/// Emit create / update / delete changes for one field.
#[allow(clippy::too_many_arguments)]
fn emit_field(
    config: &SynthConfig,
    rng: &mut StdRng,
    builder: &mut ChangeCubeBuilder,
    entity: EntityId,
    property: PropertyId,
    life: &FieldLife,
    update_days: &mut [u32],
    span: u32,
) {
    let mut counter = 0usize;
    let emit = |builder: &mut ChangeCubeBuilder,
                rng: &mut StdRng,
                day: u32,
                kind: ChangeKind,
                counter: &mut usize| {
        let flags = if rng.random_bool(config.bot_revert_prob) {
            ChangeFlags::BOT_REVERTED
        } else {
            ChangeFlags::NONE
        };
        let value = format!("u{}", *counter % 977);
        *counter += 1;
        builder.change_full(date(config, day), entity, property, &value, kind, flags);
    };

    emit(builder, rng, life.birth, ChangeKind::Create, &mut counter);

    update_days.sort_unstable();
    for &day in update_days.iter() {
        if day <= life.birth || !life.alive_on(day) {
            continue;
        }
        emit(builder, rng, day, ChangeKind::Update, &mut counter);
        // Vandalism / fix-up churn: extra same-day edits with other values.
        if rng.random_bool(config.same_day_extra_prob) {
            let extras = if rng.random_bool(0.4) { 2 } else { 1 };
            for _ in 0..extras {
                emit(builder, rng, day, ChangeKind::Update, &mut counter);
            }
        }
    }

    if let Some(deleted_at) = life.deleted_at {
        emit(builder, rng, deleted_at, ChangeKind::Delete, &mut counter);
        if let Some(recreated_at) = life.recreated_at {
            emit(builder, rng, recreated_at, ChangeKind::Create, &mut counter);
        }
    }

    // Add/remove war: a burst of same-day delete + create churn.
    if rng.random_bool(config.add_remove_war_prob) && span > life.birth + 2 {
        let day = rng.random_range(life.birth + 1..span);
        if life.alive_on(day) {
            let rounds = if rng.random_bool(0.5) { 2 } else { 1 };
            for _ in 0..rounds {
                emit(builder, rng, day, ChangeKind::Delete, &mut counter);
                emit(builder, rng, day, ChangeKind::Create, &mut counter);
            }
        }
    }
}

fn date(config: &SynthConfig, offset: u32) -> Date {
    config.start.plus_days(offset as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wikistale_wikicube::CorpusStats;

    #[test]
    fn tiny_corpus_generates_and_is_deterministic() {
        let config = SynthConfig::tiny();
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(a.cube.changes_vec(), b.cube.changes_vec());
        assert_eq!(a.ground_truth.forgotten(), b.ground_truth.forgotten());
        assert!(a.cube.num_changes() > 1_000, "{}", a.cube.num_changes());
        assert_eq!(a.cube.num_entities(), config.num_entities);
        assert_eq!(a.cube.num_templates(), config.num_templates);
    }

    #[test]
    fn different_seeds_differ() {
        let mut config = SynthConfig::tiny();
        let a = generate(&config);
        config.seed += 1;
        let b = generate(&config);
        assert_ne!(a.cube.changes_vec(), b.cube.changes_vec());
    }

    #[test]
    fn changes_stay_in_span() {
        let config = SynthConfig::tiny();
        let corpus = generate(&config);
        let span = corpus.cube.time_span().unwrap();
        assert!(span.start() >= config.start);
        assert!(span.end() <= config.end);
    }

    #[test]
    fn composition_is_wikipedia_shaped() {
        let config = SynthConfig::tiny();
        let corpus = generate(&config);
        let stats = CorpusStats::compute(&corpus.cube);
        // Creations dominate; deletions are a sizable minority; some
        // same-day churn and (rarely at this scale) bot reverts.
        assert!(
            stats.create_fraction() > 0.30,
            "creates {:.3}",
            stats.create_fraction()
        );
        assert!(
            stats.delete_fraction() > 0.05,
            "deletes {:.3}",
            stats.delete_fraction()
        );
        // The generator emits same-day churn, which cube construction
        // collapses (last value wins) and the corpus counts.
        assert!(corpus.same_day_collapsed > 0);
        assert!(stats.distinct_fields > 1_000);
    }

    #[test]
    fn ground_truth_points_at_real_fields() {
        let corpus = generate(&SynthConfig::tiny());
        assert!(
            !corpus.ground_truth.is_empty(),
            "forgetting processes should fire at this scale"
        );
        for f in corpus.ground_truth.forgotten().iter().take(50) {
            // Ids must resolve against the cube; any property can be part
            // of a page-specific pair, so only cluster/rule forgets have a
            // constrained name.
            let name = corpus.cube.property_name(f.field.property);
            assert!(!name.is_empty());
        }
        // Cluster and rule-driver forgets must both occur at this scale.
        let names: Vec<&str> = corpus
            .ground_truth
            .forgotten()
            .iter()
            .map(|f| corpus.cube.property_name(f.field.property))
            .collect();
        assert!(names.iter().any(|n| n.starts_with("cluster0_part")));
    }

    #[test]
    fn field_life_alive_logic() {
        let life = FieldLife {
            birth: 10,
            deleted_at: Some(100),
            recreated_at: Some(150),
        };
        assert!(!life.alive_on(5));
        assert!(life.alive_on(10));
        assert!(life.alive_on(99));
        assert!(!life.alive_on(100));
        assert!(!life.alive_on(149));
        assert!(life.alive_on(150));
        let never_deleted = FieldLife {
            birth: 0,
            deleted_at: None,
            recreated_at: None,
        };
        assert!(never_deleted.alive_on(9999));
    }

    #[test]
    fn mix_is_stable_and_spread() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 3, 2));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
    }

    #[test]
    fn try_generate_rejects_invalid() {
        let mut config = SynthConfig::tiny();
        config.num_entities = 0;
        assert!(try_generate(&config).is_err());
    }
}
