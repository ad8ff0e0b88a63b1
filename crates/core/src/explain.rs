//! Human-readable explanations for predictions.
//!
//! A "key advantage" the paper claims for both models (§1): "they
//! inherently give an explanation for their prediction". This module turns
//! that claim into an API: given a flagged (field, window), it collects
//! *why* — which correlated partner fields changed (field correlations),
//! which template rule fired on which trigger change (association rules),
//! and how strong the rule is — ready to render in a Figure-1-style
//! banner ("'Matches played' changed two days ago and this value has not
//! been updated yet").

use crate::predictor::EvalData;
use crate::predictors::{AssociationRulePredictor, FieldCorrelation};
use wikistale_wikicube::daylist::in_range;
use wikistale_wikicube::{Date, DateRange, FieldId};

/// One reason a field was flagged.
#[derive(Debug, Clone, PartialEq)]
pub enum Reason {
    /// A correlated same-page field changed inside the window.
    CorrelatedPartnerChanged {
        /// The partner field.
        partner: FieldId,
        /// Days the partner changed inside the window.
        days: Vec<Date>,
    },
    /// A template-level rule fired: its left-hand property changed.
    RuleFired {
        /// The trigger field (same entity, the rule's LHS property).
        trigger: FieldId,
        /// Days the trigger changed inside the window.
        days: Vec<Date>,
        /// Mining confidence of the rule.
        confidence: f64,
        /// Observed precision of the rule on its validation slice, if it
        /// fired there.
        validation_precision: Option<f64>,
    },
    /// The field has changed in this calendar window in (nearly) every
    /// previous year but not this one ([`crate::predictors::SeasonalPredictor`]).
    AnnualRecurrence {
        /// Previous years with a change in the corresponding window.
        hits: u32,
        /// Previous years the field was observable.
        observable: u32,
    },
}

/// All reasons a field was flagged in one window.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The flagged field.
    pub field: FieldId,
    /// The window the prediction is for.
    pub window: DateRange,
    /// Every supporting reason, correlations first.
    pub reasons: Vec<Reason>,
}

impl Explanation {
    /// Render the explanation against a cube, one line per reason, in the
    /// spirit of the paper's Figure 1 mock-up.
    pub fn render(&self, data: &EvalData<'_>) -> String {
        let cube = data.cube;
        let mut out = format!(
            "{} · {} — this value might be out of date:\n",
            cube.page_title(cube.page_of(self.field.entity)),
            cube.property_name(self.field.property),
        );
        for reason in &self.reasons {
            match reason {
                Reason::CorrelatedPartnerChanged { partner, days } => {
                    out.push_str(&format!(
                        "  • correlated field {:?} changed on {}\n",
                        cube.property_name(partner.property),
                        render_days(days),
                    ));
                }
                Reason::AnnualRecurrence { hits, observable } => {
                    out.push_str(&format!(
                        "  • this value changed around this time of year in {hits} of the \
                         last {observable} years\n",
                    ));
                }
                Reason::RuleFired {
                    trigger,
                    days,
                    confidence,
                    validation_precision,
                } => {
                    out.push_str(&format!(
                        "  • {:?} changed on {} and implies a change here \
                         (template rule, confidence {:.0} %{})\n",
                        cube.property_name(trigger.property),
                        render_days(days),
                        100.0 * confidence,
                        match validation_precision {
                            Some(p) => format!(", validated at {:.0} %", 100.0 * p),
                            None => String::new(),
                        },
                    ));
                }
            }
        }
        out
    }
}

fn render_days(days: &[Date]) -> String {
    days.iter()
        .map(Date::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Explain why `field` is flagged for `window` by the given trained
/// predictors. Returns `None` when neither predictor supports the flag
/// (e.g. the pair was produced by a different model).
pub fn explain(
    data: &EvalData<'_>,
    field_corr: &FieldCorrelation,
    assoc: &AssociationRulePredictor,
    field: FieldId,
    window: DateRange,
) -> Option<Explanation> {
    let index = data.index;
    let pos = index.position(field)? as u32;
    let mut reasons = Vec::new();

    // Field-correlation reasons: partners that changed inside the window.
    for &partner_pos in field_corr.partners_of(pos) {
        let days = in_range(index.days(partner_pos as usize), window);
        if !days.is_empty() {
            reasons.push(Reason::CorrelatedPartnerChanged {
                partner: index.field(partner_pos as usize),
                days: days.to_vec(),
            });
        }
    }

    // Association-rule reasons: rules of this template (a contiguous run of
    // the sorted rules) whose RHS is this property and whose LHS changed on
    // this entity inside the window.
    let template = data.cube.template_of(field.entity);
    let rules = assoc.rules();
    let first = rules.partition_point(|r| r.template < template);
    for rule in rules[first..].iter().take_while(|r| r.template == template) {
        if rule.rhs != field.property {
            continue;
        }
        let trigger = FieldId::new(field.entity, rule.lhs);
        let Some(trigger_pos) = index.position(trigger) else {
            continue;
        };
        let days = in_range(index.days(trigger_pos), window);
        if !days.is_empty() {
            reasons.push(Reason::RuleFired {
                trigger,
                days: days.to_vec(),
                confidence: rule.confidence,
                validation_precision: rule.validation_precision,
            });
        }
    }

    (!reasons.is_empty()).then_some(Explanation {
        field,
        window,
        reasons,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::{AssocParams, FieldCorrelationParams};
    use wikistale_apriori::{AprioriParams, Support};
    use wikistale_wikicube::{ChangeCubeBuilder, ChangeKind, CubeIndex};

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    /// Home/away colors correlate per page; ko ⇒ wins is a template rule
    /// across ten boxers.
    fn setup() -> (wikistale_wikicube::ChangeCube, CubeIndex) {
        let mut b = ChangeCubeBuilder::new();
        let home = b.property("home_color");
        let away = b.property("away_color");
        let wins = b.property("wins");
        let ko = b.property("ko");
        let club = b.entity("Club", "infobox club", "FC Example");
        for k in 0..8 {
            b.change(day(k * 50), club, home, "h", ChangeKind::Update);
            b.change(day(k * 50), club, away, "a", ChangeKind::Update);
        }
        for e in 0..10 {
            let boxer = b.entity(&format!("boxer{e}"), "infobox boxer", &format!("Boxer {e}"));
            for fight in 0..20 {
                let d = fight * 18 + e;
                b.change(day(d), boxer, wins, "w", ChangeKind::Update);
                if fight % 2 == 0 {
                    b.change(day(d), boxer, ko, "k", ChangeKind::Update);
                }
            }
        }
        let cube = b.finish();
        let index = CubeIndex::build(&cube);
        (cube, index)
    }

    fn trained(
        data: &EvalData<'_>,
        range: DateRange,
    ) -> (FieldCorrelation, AssociationRulePredictor) {
        (
            FieldCorrelation::train(data, range, FieldCorrelationParams::default()),
            AssociationRulePredictor::train(
                data,
                range,
                AssocParams {
                    apriori: AprioriParams {
                        min_support: Support::Fraction(0.01),
                        min_confidence: 0.6,
                    },
                    ..AssocParams::default()
                },
            ),
        )
    }

    #[test]
    fn correlation_reason_names_the_partner() {
        let (cube, index) = setup();
        let data = EvalData::new(&cube, &index);
        let (fc, ar) = trained(&data, DateRange::with_len(Date::EPOCH, 400));
        let away = FieldId::new(
            cube.entity_id("Club").unwrap(),
            cube.property_id("away_color").unwrap(),
        );
        // Home changed on day 350 (k = 7); the away field is explained by
        // that co-change window.
        let window = DateRange::new(day(348), day(355));
        let explanation = explain(&data, &fc, &ar, away, window).expect("explained");
        assert_eq!(explanation.reasons.len(), 1);
        match &explanation.reasons[0] {
            Reason::CorrelatedPartnerChanged { partner, days } => {
                assert_eq!(cube.property_name(partner.property), "home_color");
                assert_eq!(days, &[day(350)]);
            }
            other => panic!("unexpected reason {other:?}"),
        }
        let text = explanation.render(&data);
        assert!(text.contains("FC Example"));
        assert!(text.contains("home_color"));
        assert!(text.contains("might be out of date"));
    }

    #[test]
    fn rule_reason_reports_confidence() {
        let (cube, index) = setup();
        let data = EvalData::new(&cube, &index);
        let (fc, ar) = trained(&data, DateRange::with_len(Date::EPOCH, 300));
        // Boxer 0, fight 18 (day 324): ko fired; the wins field of that
        // entity is explained by the ko ⇒ wins rule.
        let wins = FieldId::new(
            cube.entity_id("boxer0").unwrap(),
            cube.property_id("wins").unwrap(),
        );
        let window = DateRange::new(day(322), day(329));
        let explanation = explain(&data, &fc, &ar, wins, window).expect("explained");
        let rule_reason = explanation
            .reasons
            .iter()
            .find(|r| matches!(r, Reason::RuleFired { .. }))
            .expect("rule reason present");
        match rule_reason {
            Reason::RuleFired {
                trigger,
                confidence,
                days,
                ..
            } => {
                assert_eq!(cube.property_name(trigger.property), "ko");
                assert!(*confidence > 0.9);
                assert_eq!(days, &[day(324)]);
            }
            _ => unreachable!(),
        }
        let text = explanation.render(&data);
        assert!(text.contains("template rule"));
    }

    #[test]
    fn unexplainable_predictions_return_none() {
        let (cube, index) = setup();
        let data = EvalData::new(&cube, &index);
        let (fc, ar) = trained(&data, DateRange::with_len(Date::EPOCH, 400));
        let home = FieldId::new(
            cube.entity_id("Club").unwrap(),
            cube.property_id("home_color").unwrap(),
        );
        // A window with no partner activity.
        assert!(explain(&data, &fc, &ar, home, DateRange::new(day(10), day(20))).is_none());
        // A field the index does not know.
        let ghost = FieldId::new(
            cube.entity_id("Club").unwrap(),
            cube.property_id("ko").unwrap(),
        );
        assert!(explain(&data, &fc, &ar, ghost, DateRange::new(day(0), day(400))).is_none());
    }
}
