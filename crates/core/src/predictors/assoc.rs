//! The association-rule predictor (§3.3).
//!
//! Where field correlations capture page-specific pairs, association rules
//! capture relationships that hold for *all* infoboxes of a template —
//! including instances absent from the training data. Changes are grouped
//! into weekly per-infobox transactions (the expected editing cadence of
//! volunteer contributors); an event type is the changed property within
//! its template (time, entity and value are deliberately excluded, §3.3).
//! Unary rules `lhs ⇒ rhs` are mined per template from item and pair
//! counts and then pruned against a held-out slice of the training range:
//! only rules with ≥ 90 % observed precision survive (the 85 % target
//! plus a 5 % buffer).

use crate::predictions::PredictionSet;
use crate::predictor::{ChangePredictor, EvalData};
use wikistale_apriori::{mine, AprioriParams, TransactionSet, TransactionSetBuilder};
use wikistale_wikicube::daylist::in_range;
use wikistale_wikicube::{ChangeCube, DateRange, FieldId, FxHashMap, PropertyId, TemplateId};

/// Training parameters for [`AssociationRulePredictor`].
///
/// A rule that never fires on the held-out slice is dropped: the paper
/// "discards rules that do not meet 90 % precision on the validation
/// set", and a rule with no firings has not met the bar.
#[derive(Debug, Clone, PartialEq)]
pub struct AssocParams {
    /// Rule-mining thresholds. The paper's grid-search optimum is
    /// min-support 0.25 % (relative to the template's transaction count)
    /// and min-confidence 60 %.
    pub apriori: AprioriParams,
    /// Fraction of the training range (taken from its end) held out to
    /// validate rule precision; the paper uses 10 %.
    pub validation_fraction: f64,
    /// Minimum observed precision on the held-out slice; the paper uses
    /// 90 % — the 85 % target plus a 5 % buffer for train/test drift.
    pub min_rule_precision: f64,
}

impl Default for AssocParams {
    fn default() -> AssocParams {
        AssocParams {
            apriori: AprioriParams::default(),
            validation_fraction: 0.10,
            min_rule_precision: 0.90,
        }
    }
}

/// One surviving unary rule: within `template`, a change of `lhs` in a
/// window implies a change of `rhs` in the same window.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateRule {
    /// The template the rule applies to.
    pub template: TemplateId,
    /// Trigger property (left-hand side).
    pub lhs: PropertyId,
    /// Predicted property (right-hand side).
    pub rhs: PropertyId,
    /// Relative support of `{lhs, rhs}` among the template's transactions.
    pub support: f64,
    /// Mining confidence `P(rhs | lhs)` on the mining slice.
    pub confidence: f64,
    /// Observed precision on the held-out validation slice; `None` only
    /// when the holdout was empty (a rule that never fired on a non-empty
    /// holdout is dropped).
    pub validation_precision: Option<f64>,
}

/// Call `f(template, props)` once per weekly per-infobox transaction of
/// `range`: `props` are the sorted, distinct properties of one entity
/// that changed inside one 7-day bucket counted from `range.start()`.
///
/// Walks the cube's shared [`wikistale_wikicube::DayListStore`], whose
/// fields are sorted by `(entity, property)`, one entity's contiguous
/// run of fields at a time, and slices each field's days to `range` with
/// [`in_range`]; entities come in id order and each entity's weeks in
/// time order.
fn for_each_weekly_transaction(
    cube: &ChangeCube,
    range: DateRange,
    mut f: impl FnMut(TemplateId, &[PropertyId]),
) {
    let store = cube.day_lists();
    let fields = store.fields();
    let mut events: Vec<(u32, PropertyId)> = Vec::new();
    let mut props: Vec<PropertyId> = Vec::new();
    let mut lo = 0;
    while lo < fields.len() {
        let entity = fields[lo].entity;
        let hi = lo + fields[lo..].partition_point(|field| field.entity == entity);
        events.clear();
        for (pos, field) in (lo..hi).zip(&fields[lo..hi]) {
            let mut last_week = None;
            for &day in in_range(store.list(pos), range) {
                let week = (day - range.start()) as u32 / 7;
                if last_week != Some(week) {
                    last_week = Some(week);
                    events.push((week, field.property));
                }
            }
        }
        events.sort_unstable();
        let template = cube.template_of(entity);
        for week in events.chunk_by(|a, b| a.0 == b.0) {
            props.clear();
            props.extend(week.iter().map(|&(_, property)| property));
            f(template, &props);
        }
        lo = hi;
    }
}

/// The trained association-rule predictor.
#[derive(Debug, Clone)]
pub struct AssociationRulePredictor {
    rules: Vec<TemplateRule>,
    /// `(template, lhs)` → indices into `rules`.
    by_trigger: FxHashMap<(TemplateId, PropertyId), Vec<u32>>,
    params: AssocParams,
}

impl AssociationRulePredictor {
    /// Mine and validate rules from the changes inside `range`.
    ///
    /// The last `validation_fraction` of the range (rounded to whole
    /// weeks) is held out: rules are mined on the leading part and pruned
    /// by their precision on the held-out part.
    pub fn train(
        data: &EvalData<'_>,
        range: DateRange,
        params: AssocParams,
    ) -> AssociationRulePredictor {
        let holdout_days = ((range.len_days() as f64 * params.validation_fraction) as u32 / 7) * 7;
        let mine_range = DateRange::new(range.start(), range.end() - holdout_days as i32);
        let holdout_range = DateRange::new(mine_range.end(), range.end());

        let mined = mine_rules(data.cube, mine_range, &params.apriori);
        let validated = validate_rules(data.cube, holdout_range, mined, params.min_rule_precision);

        let mut by_trigger: FxHashMap<(TemplateId, PropertyId), Vec<u32>> = FxHashMap::default();
        for (i, rule) in validated.iter().enumerate() {
            by_trigger
                .entry((rule.template, rule.lhs))
                .or_default()
                .push(i as u32);
        }
        AssociationRulePredictor {
            rules: validated,
            by_trigger,
            params,
        }
    }
    /// All surviving rules, grouped by template and sorted.
    pub fn rules(&self) -> &[TemplateRule] {
        &self.rules
    }

    /// Number of surviving rules.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Rule count per template — the Figure 3 histogram input. Templates
    /// without rules are omitted.
    pub fn rules_per_template(&self) -> FxHashMap<TemplateId, usize> {
        let mut counts: FxHashMap<TemplateId, usize> = FxHashMap::default();
        for rule in &self.rules {
            *counts.entry(rule.template).or_insert(0) += 1;
        }
        counts
    }

    /// Number of distinct entities (of the filtered corpus) whose template
    /// carries at least one rule — the paper's "pages covered" measure.
    pub fn covered_entities(&self, data: &EvalData<'_>) -> usize {
        let templates: std::collections::BTreeSet<TemplateId> =
            self.rules.iter().map(|r| r.template).collect();
        templates
            .iter()
            .map(|&t| data.index.entities_of_template(t).len())
            .sum()
    }

    /// Training parameters used.
    pub fn params(&self) -> &AssocParams {
        &self.params
    }
}

/// Mine unary candidate rules per template over `range`, sorted by
/// `(template, lhs, rhs)`.
fn mine_rules(cube: &ChangeCube, range: DateRange, apriori: &AprioriParams) -> Vec<TemplateRule> {
    // Per template: its transactions in template-local item ids, assigned
    // on first sight, and the properties behind those ids.
    let mut local: FxHashMap<(TemplateId, PropertyId), u32> = FxHashMap::default();
    let mut templates: Vec<(Vec<PropertyId>, TransactionSetBuilder)> = Vec::new();
    templates.resize_with(cube.num_templates(), Default::default);
    for_each_weekly_transaction(cube, range, |template, props| {
        let (items, builder) = &mut templates[template.index()];
        builder.push(props.iter().map(|&p| {
            *local.entry((template, p)).or_insert_with(|| {
                items.push(p);
                items.len() as u32 - 1
            })
        }));
    });
    let jobs: Vec<(TemplateId, Vec<PropertyId>, TransactionSet)> = templates
        .into_iter()
        .enumerate()
        .filter(|(_, (_, builder))| !builder.is_empty())
        .map(|(t, (items, builder))| (TemplateId::from_index(t), items, builder.finish()))
        .collect();

    // Chunk size 8: templates are few but heavy, small chunks let the
    // workers balance skewed template sizes.
    let chunk_results = wikistale_exec::par_chunks("assoc_templates", &jobs, 8, |chunk| {
        let mut rules = Vec::new();
        for (template, items, ts) in chunk {
            rules.extend(mine(ts, apriori).into_iter().map(|rule| TemplateRule {
                template: *template,
                lhs: items[rule.antecedent as usize],
                rhs: items[rule.consequent as usize],
                support: rule.support,
                confidence: rule.confidence,
                validation_precision: None,
            }));
        }
        rules
    });
    let mut rules: Vec<TemplateRule> = chunk_results.into_iter().flatten().collect();
    rules.sort_by_key(|r| (r.template, r.lhs, r.rhs));
    rules
}

/// Score each rule's precision on the held-out slice; keep the rules
/// that fired there with precision ≥ `min_precision`. `rules` must be
/// sorted by `(template, lhs, rhs)`.
fn validate_rules(
    cube: &ChangeCube,
    holdout: DateRange,
    rules: Vec<TemplateRule>,
    min_precision: f64,
) -> Vec<TemplateRule> {
    if rules.is_empty() || holdout.is_empty() {
        return rules;
    }
    let mut fired = vec![0u32; rules.len()];
    let mut hit = vec![0u32; rules.len()];
    for_each_weekly_transaction(cube, holdout, |template, props| {
        for &lhs in props {
            let lo = rules.partition_point(|r| (r.template, r.lhs) < (template, lhs));
            let triggered = rules[lo..]
                .iter()
                .take_while(|r| (r.template, r.lhs) == (template, lhs));
            for (i, rule) in (lo..).zip(triggered) {
                fired[i] += 1;
                if props.binary_search(&rule.rhs).is_ok() {
                    hit[i] += 1;
                }
            }
        }
    });
    rules
        .into_iter()
        .zip(fired.into_iter().zip(hit))
        .filter_map(|(mut rule, (fired, hit))| {
            if fired == 0 {
                return None;
            }
            let precision = hit as f64 / fired as f64;
            rule.validation_precision = Some(precision);
            (precision + f64::EPSILON >= min_precision).then_some(rule)
        })
        .collect()
}

impl ChangePredictor for AssociationRulePredictor {
    fn name(&self) -> &'static str {
        "Association rules"
    }

    /// For every change of a rule's `lhs` inside a window, predict a
    /// change of the same entity's `rhs` field in that window. Predictions
    /// are only emitted for fields present in the index (the evaluation
    /// universe of §5.1).
    fn predict(&self, data: &EvalData<'_>, range: DateRange, granularity: u32) -> PredictionSet {
        let mut set = PredictionSet::new(range, granularity);
        let cube = data.cube;
        for c in cube.changes_in(range) {
            let template = cube.template_of(c.entity);
            let Some(rule_idxs) = self.by_trigger.get(&(template, c.property)) else {
                continue;
            };
            for &ri in rule_idxs {
                let rhs = self.rules[ri as usize].rhs;
                if let Some(pos) = data.index.position(FieldId::new(c.entity, rhs)) {
                    set.insert_day(pos as u32, c.day);
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
    use crate::filters::FilterPipeline;
    use crate::split::EvalSplit;
    use crate::tuning::paper_apriori_grid;
    use std::collections::{BTreeMap, BTreeSet, HashMap};
    use wikistale_apriori::Support;
    use wikistale_synth::{generate, SynthConfig};
    use wikistale_wikicube::{ChangeCubeBuilder, ChangeKind, CubeIndex, Date, EntityId};

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    /// Ten boxer infoboxes: every `ko` change is accompanied by a `wins`
    /// change the same day; `wins` also changes alone. One boxer
    /// (entity 0) keeps forgetting `wins` late in the range.
    fn boxer_cube() -> (wikistale_wikicube::ChangeCube, CubeIndex) {
        let mut b = ChangeCubeBuilder::new();
        let wins_p = b.property("wins");
        let ko_p = b.property("ko");
        for e in 0..10 {
            let boxer = b.entity(&format!("boxer{e}"), "infobox boxer", &format!("Boxer {e}"));
            for fight in 0..24 {
                let d = fight * 15 + e; // spread across weeks
                b.change(
                    day(d),
                    boxer,
                    wins_p,
                    &format!("w{fight}"),
                    ChangeKind::Update,
                );
                if fight % 2 == 0 {
                    b.change(
                        day(d),
                        boxer,
                        ko_p,
                        &format!("k{fight}"),
                        ChangeKind::Update,
                    );
                }
            }
        }
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        (cube, index)
    }

    fn params() -> AssocParams {
        AssocParams {
            apriori: AprioriParams {
                min_support: Support::Fraction(0.01),
                min_confidence: 0.6,
            },
            validation_fraction: 0.10,
            min_rule_precision: 0.90,
        }
    }

    #[test]
    fn weekly_transactions_bucket_and_dedup() {
        let (cube, _) = boxer_cube();
        let range = cube.time_span().unwrap();
        let mut weekly = Vec::new();
        for_each_weekly_transaction(&cube, range, |template, props| {
            weekly.push((template, props.to_vec()));
        });
        // Entity 0, fight 0 happens on day 0 → its first week has both props.
        let boxer = cube.template_of(cube.entity_id("boxer0").unwrap());
        let wins = cube.property_id("wins").unwrap();
        let ko = cube.property_id("ko").unwrap();
        let mut both = vec![wins, ko];
        both.sort_unstable();
        assert_eq!(weekly[0], (boxer, both));
        for (_, tx) in &weekly {
            assert!(tx.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        }
        // One transaction per distinct (entity, week) of the change rows.
        let mut keys: Vec<_> = cube
            .changes_in(range)
            .map(|c| (c.entity, (c.day - range.start()) / 7))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(weekly.len(), keys.len());
    }

    #[test]
    fn mines_asymmetric_rule() {
        let (cube, index) = boxer_cube();
        let data = EvalData::new(&cube, &index);
        let ar = AssociationRulePredictor::train(&data, cube.time_span().unwrap(), params());
        let wins = cube.property_id("wins").unwrap();
        let ko = cube.property_id("ko").unwrap();
        // ko ⇒ wins must be found; wins ⇒ ko (confidence 0.5) must not.
        assert!(
            ar.rules()
                .iter()
                .any(|r| r.lhs == ko && r.rhs == wins && r.confidence > 0.9),
            "rules: {:?}",
            ar.rules()
        );
        assert!(!ar.rules().iter().any(|r| r.lhs == wins && r.rhs == ko));
        assert_eq!(ar.rules_per_template().len(), 1);
        assert_eq!(ar.covered_entities(&data), 10);
    }

    #[test]
    fn predicts_rhs_when_lhs_changes() {
        let (cube, index) = boxer_cube();
        let data = EvalData::new(&cube, &index);
        let span = cube.time_span().unwrap();
        let train = DateRange::new(span.start(), span.end() - 60);
        let eval = DateRange::new(span.end() - 60, span.end());
        let ar = AssociationRulePredictor::train(&data, train, params());
        let set = ar.predict(&data, eval, 7);
        assert!(!set.is_empty());
        // Every prediction targets a wins field (rhs), not ko.
        let wins = cube.property_id("wins").unwrap();
        for &(pos, _) in set.items() {
            assert_eq!(index.field(pos as usize).property, wins);
        }
    }

    #[test]
    fn validation_prunes_low_precision_rules() {
        // lhs ⇒ rhs holds perfectly in the mining slice but breaks in the
        // holdout → the rule must be discarded.
        let mut b = ChangeCubeBuilder::new();
        let lhs_p = b.property("lhs");
        let rhs_p = b.property("rhs");
        for e in 0..6 {
            let ent = b.entity(&format!("e{e}"), "t", &format!("P{e}"));
            // Mining slice: days 0..800, perfect co-change.
            for k in 0..10 {
                let d = k * 77 + e;
                b.change(day(d), ent, lhs_p, "l", ChangeKind::Update);
                b.change(day(d), ent, rhs_p, "r", ChangeKind::Update);
            }
            // Holdout slice (last 10 %): lhs fires alone.
            for k in 0..5 {
                b.change(day(920 + k * 7 + e), ent, lhs_p, "l", ChangeKind::Update);
            }
        }
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        let data = EvalData::new(&cube, &index);
        let range = DateRange::with_len(Date::EPOCH, 1000);
        let ar = AssociationRulePredictor::train(&data, range, params());
        let lhs = cube.property_id("lhs").unwrap();
        let rhs = cube.property_id("rhs").unwrap();
        assert!(
            !ar.rules().iter().any(|r| r.lhs == lhs && r.rhs == rhs),
            "low-precision rule must be pruned, got {:?}",
            ar.rules()
        );
        // Without the holdout the rule would exist.
        let no_holdout = AssociationRulePredictor::train(
            &data,
            DateRange::with_len(Date::EPOCH, 900),
            AssocParams {
                validation_fraction: 0.0,
                ..params()
            },
        );
        assert!(no_holdout
            .rules()
            .iter()
            .any(|r| r.lhs == lhs && r.rhs == rhs));
    }

    #[test]
    fn rules_generalize_to_unseen_entities() {
        // Train on entities 0..8; a brand-new boxer appearing only in the
        // eval range still gets predictions — the key §3.3 property.
        let mut b = ChangeCubeBuilder::new();
        let wins_p = b.property("wins");
        let ko_p = b.property("ko");
        for e in 0..8 {
            let boxer = b.entity(&format!("old{e}"), "infobox boxer", &format!("Old {e}"));
            for fight in 0..12 {
                let d = fight * 30 + e;
                b.change(day(d), boxer, wins_p, "w", ChangeKind::Update);
                b.change(day(d), boxer, ko_p, "k", ChangeKind::Update);
            }
        }
        let rookie = b.entity("rookie", "infobox boxer", "Rookie");
        for fight in 0..6 {
            let d = 400 + fight * 7;
            b.change(day(d), rookie, ko_p, "k", ChangeKind::Update);
            b.change(day(d), rookie, wins_p, "w", ChangeKind::Update);
        }
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        let data = EvalData::new(&cube, &index);
        let ar =
            AssociationRulePredictor::train(&data, DateRange::with_len(Date::EPOCH, 350), params());
        let eval = DateRange::new(day(350), day(450));
        let set = ar.predict(&data, eval, 7);
        let rookie_wins = index
            .position(FieldId::new(
                cube.entity_id("rookie").unwrap(),
                cube.property_id("wins").unwrap(),
            ))
            .unwrap() as u32;
        assert!(
            set.items().iter().any(|&(pos, _)| pos == rookie_wins),
            "rookie must be covered by the template rule"
        );
    }

    #[test]
    fn empty_range_trains_no_rules() {
        let (cube, index) = boxer_cube();
        let data = EvalData::new(&cube, &index);
        let ar =
            AssociationRulePredictor::train(&data, DateRange::with_len(day(5000), 100), params());
        assert_eq!(ar.num_rules(), 0);
        assert_eq!(ar.covered_entities(&data), 0);
    }

    /// Brute-force counts of one range's weekly transactions, built from
    /// a row scan of the change table: transactions per template, item
    /// counts per `(template, property)` and ordered-pair counts per
    /// `(template, a, b)`.
    #[derive(Default)]
    struct RowCounts {
        transactions: BTreeMap<TemplateId, u64>,
        items: BTreeMap<(TemplateId, PropertyId), u64>,
        pairs: BTreeMap<(TemplateId, PropertyId, PropertyId), u64>,
    }

    fn row_counts(cube: &ChangeCube, range: DateRange) -> RowCounts {
        let mut weekly: BTreeMap<(EntityId, i32), BTreeSet<PropertyId>> = BTreeMap::new();
        for c in cube.changes_in(range) {
            let week = (c.day - range.start()) / 7;
            weekly
                .entry((c.entity, week))
                .or_default()
                .insert(c.property);
        }
        let mut counts = RowCounts::default();
        for ((entity, _), props) in weekly {
            let t = cube.template_of(entity);
            *counts.transactions.entry(t).or_default() += 1;
            for &a in &props {
                *counts.items.entry((t, a)).or_default() += 1;
                for &b in props.iter().filter(|&&b| b != a) {
                    *counts.pairs.entry((t, a, b)).or_default() += 1;
                }
            }
        }
        counts
    }

    /// What `train` must return, from [`row_counts`] alone: frequent,
    /// confident pairs of the mining slice, then the holdout precision
    /// filter. `cache` memoizes the counts per range.
    fn reference_rules(
        cube: &ChangeCube,
        range: DateRange,
        params: &AssocParams,
        cache: &mut HashMap<DateRange, RowCounts>,
    ) -> Vec<TemplateRule> {
        let holdout_days = ((range.len_days() as f64 * params.validation_fraction) as u32 / 7) * 7;
        let mine_range = DateRange::new(range.start(), range.end() - holdout_days as i32);
        let holdout = DateRange::new(mine_range.end(), range.end());
        for r in [mine_range, holdout] {
            cache.entry(r).or_insert_with(|| row_counts(cube, r));
        }
        let (mined, validation) = (&cache[&mine_range], &cache[&holdout]);
        let mut rules = Vec::new();
        for (&(t, lhs, rhs), &union) in &mined.pairs {
            let n = mined.transactions[&t];
            if union < params.apriori.min_support.to_count(n as usize) {
                continue;
            }
            let confidence = union as f64 / mined.items[&(t, lhs)] as f64;
            if confidence + f64::EPSILON < params.apriori.min_confidence {
                continue;
            }
            rules.push(TemplateRule {
                template: t,
                lhs,
                rhs,
                support: union as f64 / n as f64,
                confidence,
                validation_precision: None,
            });
        }
        if holdout.is_empty() {
            return rules;
        }
        rules
            .into_iter()
            .filter_map(|mut rule| {
                let fired = *validation.items.get(&(rule.template, rule.lhs))?;
                let hit = validation
                    .pairs
                    .get(&(rule.template, rule.lhs, rule.rhs))
                    .copied()
                    .unwrap_or(0);
                let precision = hit as f64 / fired as f64;
                rule.validation_precision = Some(precision);
                (precision + f64::EPSILON >= params.min_rule_precision).then_some(rule)
            })
            .collect()
    }

    /// `train` against [`reference_rules`] on a paper-filtered synth
    /// corpus: the default parameters and every point of the paper's
    /// grid, over the train and train+validation ranges.
    fn assert_rules_match_reference(config: &SynthConfig) {
        let corpus = generate(config);
        let (cube, _) = FilterPipeline::paper().apply(&corpus.cube);
        let split = EvalSplit::for_span(cube.time_span().unwrap()).unwrap();
        let index = CubeIndex::build(&cube);
        let data = EvalData::new(&cube, &index);
        let mut cache = HashMap::new();
        let mut total = 0;
        for params in std::iter::once(AssocParams::default()).chain(paper_apriori_grid()) {
            for range in [split.train_and_validation(), split.train] {
                let got = AssociationRulePredictor::train(&data, range, params.clone());
                let want = reference_rules(&cube, range, &params, &mut cache);
                assert!(got.rules() == want.as_slice(), "{params:?} over {range:?}");
                total += want.len();
            }
        }
        assert!(total > 0, "the reference mined no rules");
    }

    #[test]
    fn rules_match_row_scan_reference() {
        assert_rules_match_reference(&SynthConfig::tiny());
        assert_rules_match_reference(&SynthConfig::small());
    }
}
