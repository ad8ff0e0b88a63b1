//! The §5.4 ground-truth case study, reconstructed: the 2018–19
//! Handball-Bundesliga season.
//!
//! The paper found that for the Handball-Bundesliga (which reuses
//! `infobox football league season`) the mined rule
//! `matches ∼ total goals` correctly flagged three match days on which
//! editors updated `matches` but forgot `total goals` — predictions the
//! observed-change evaluation scores as false positives even though they
//! are exactly the staleness the system exists to find. The paper also
//! observed editors incrementing a typo'd total for weeks (9,880 → 1,073
//! instead of 10,073) until a final correction to 16,227.
//!
//! This example scripts that page history, trains the association-rule
//! predictor on the league's sibling seasons, and shows the three
//! "false" positives being genuine catches.
//!
//! ```sh
//! cargo run --example ground_truth
//! ```

use wikistale_apriori::{AprioriParams, Support};
use wikistale_core::predictor::{ChangePredictor, EvalData};
use wikistale_core::predictors::{AssocParams, AssociationRulePredictor};
use wikistale_wikicube::{
    ChangeCube, ChangeCubeBuilder, ChangeKind, CubeIndex, Date, DateRange, EntityId, FieldId,
};

const TEMPLATE: &str = "infobox football league season";

/// Build the league corpus: 14 well-maintained sibling seasons (training
/// signal) plus the 2018-19 Handball-Bundesliga page, where `total goals`
/// is forgotten on three match days.
fn build_corpus() -> (ChangeCube, EntityId, Vec<Date>) {
    let mut b = ChangeCubeBuilder::new();
    let matches_p = b.property("matches");
    let goals_p = b.property("total goals");

    // Sibling seasons: football leagues where every match day updates
    // both fields (this is where the rule is mined from).
    for league in 0..14 {
        let entity = b.entity(
            &format!("2018-19 League {league} season"),
            TEMPLATE,
            &format!("2018-19 League {league}"),
        );
        let season_start = Date::from_ymd(2018, 8, 24).unwrap() + league;
        let mut total_goals = 0u32;
        for match_day in 0..30 {
            let day = season_start + match_day * 7;
            total_goals += 25 + (match_day as u32 * 7 + league as u32) % 11;
            b.change(
                day,
                entity,
                matches_p,
                &format!("{}", 9 * (match_day + 1)),
                ChangeKind::Update,
            );
            b.change(
                day,
                entity,
                goals_p,
                &format!("{total_goals}"),
                ChangeKind::Update,
            );
        }
    }

    // The Handball-Bundesliga 2018-19 page: same template, but on three
    // match days `total goals` was forgotten. The running value also
    // contains the paper's typo: 9,880 → 1,073 instead of 10,073, carried
    // forward until a final correction.
    let handball = b.entity(
        "2018-19 Handball-Bundesliga season",
        TEMPLATE,
        "2018-19 Handball-Bundesliga",
    );
    let season_start = Date::from_ymd(2018, 8, 23).unwrap();
    let forgotten_match_days = [24usize, 27, 30];
    let mut forgotten_days = Vec::new();
    let mut goals = 6_107u32;
    let mut typo_active = false;
    for match_day in 0..32 {
        let day = season_start + (match_day as i32) * 7;
        b.change(
            day,
            handball,
            matches_p,
            &format!("{}", 9 * (match_day + 1)),
            ChangeKind::Update,
        );
        if forgotten_match_days.contains(&match_day) {
            forgotten_days.push(day);
            continue; // editor forgot total goals
        }
        goals += 380;
        // The §5.4 typo: once the true total crosses 9,880 an editor
        // records it 9,000 short (the paper saw 1,073 instead of 10,073),
        // and later editors keep incrementing the wrong value…
        if goals > 9_880 {
            typo_active = true;
        }
        let display = if typo_active { goals - 9_000 } else { goals };
        // …until the last day of the season, where the total is finally
        // corrected (the paper saw 6,197 jump to the true 16,227).
        let display = if match_day == 31 { goals } else { display };
        b.change(
            day,
            handball,
            goals_p,
            &format!("{display}"),
            ChangeKind::Update,
        );
    }
    (b.finish(), handball, forgotten_days)
}

fn main() {
    let (cube, handball, forgotten_days) = build_corpus();
    let index = CubeIndex::build(&cube);
    let data = EvalData::new(&cube, &index);

    // Train on the first two thirds of the season across all leagues.
    let span = cube.time_span().unwrap();
    let train = DateRange::new(span.start(), span.start() + 160);
    let eval = DateRange::new(train.end(), span.end());
    let ar = AssociationRulePredictor::train(
        &data,
        train,
        AssocParams {
            apriori: AprioriParams {
                min_support: Support::Fraction(0.01),
                min_confidence: 0.6,
            },
            validation_fraction: 0.10,
            min_rule_precision: 0.90,
        },
    );

    println!("mined {} template-level rules:", ar.num_rules());
    for rule in ar.rules() {
        println!(
            "  {} ⇒ {}  (confidence {:.2}, support {:.3})",
            cube.property_name(rule.lhs),
            cube.property_name(rule.rhs),
            rule.confidence,
            rule.support
        );
    }
    // The symmetric pair must be mined in both directions (the paper notes
    // this particular rule is symmetric: matches ∼ total goals).
    assert!(ar.num_rules() >= 2, "expected the matches/total-goals rule");

    // Predict on the remaining season at 7-day windows.
    let predictions = ar.predict(&data, eval, 7);
    let goals_field = FieldId::new(handball, cube.property_id("total goals").unwrap());
    let goals_pos = index.position(goals_field).unwrap();

    println!("\nHandball-Bundesliga, day-by-day:");
    let mut caught = 0;
    for &day in &forgotten_days {
        if day < eval.start() {
            continue;
        }
        let window = (day - eval.start()) as u32 / 7;
        let flagged = predictions.contains(goals_pos as u32, window);
        if flagged {
            caught += 1;
        }
        println!(
            "  {day}: matches updated, total goals forgotten → {}",
            if flagged {
                "FLAGGED as stale ✓ (scored as a false positive by the §5 protocol)"
            } else {
                "missed"
            }
        );
    }
    let in_eval = forgotten_days
        .iter()
        .filter(|&&d| d >= eval.start())
        .count();
    assert_eq!(
        caught, in_eval,
        "every forgotten update in the eval range must be caught"
    );

    // Show the typo story from the value history.
    println!("\ntotal-goals value history (note the 9,000-short typo and the final correction):");
    let days = index.days(goals_pos).to_vec();
    for &day in &days[days.len().saturating_sub(6)..] {
        let change = cube
            .changes_in(DateRange::new(day, day + 1))
            .find(|c| c.field() == goals_field)
            .unwrap();
        println!("  {day}: total goals = {}", cube.value_text(change.value));
    }

    // The counter-anomaly detector finds the §5.4 typo automatically.
    let anomalies = wikistale_core::find_counter_anomalies(
        &cube,
        &index,
        &wikistale_core::AnomalyParams::default(),
    );
    println!("\ncounter anomalies detected:");
    for a in &anomalies {
        println!(
            "  {}: {} — {} → {} ({:?})",
            a.day,
            cube.property_name(a.field.property),
            a.previous,
            a.value,
            a.kind
        );
    }
    assert!(
        anomalies
            .iter()
            .any(|a| a.kind == wikistale_core::AnomalyKind::Collapse && a.field == goals_field),
        "the typo collapse must be detected"
    );
}
