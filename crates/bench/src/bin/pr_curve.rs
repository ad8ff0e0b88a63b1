//! Experiment X3 — **precision–recall trade-off curves** for both §3
//! predictors, generalizing the paper's single grid-search operating
//! point into the full frontier:
//!
//! * field correlations: sweep θ (looser threshold → more rules → more
//!   recall, less precision),
//! * association rules: sweep min-confidence (stricter rules → fewer,
//!   better predictions).
//!
//! Models are trained on training + validation and scored on the test
//! year, so the curve shows the deployable frontier around the paper's
//! chosen points (θ = 0.1, confidence = 0.6).
//!
//! ```sh
//! cargo run -p wikistale-bench --bin pr_curve --release
//! ```

use wikistale_apriori::Support;
use wikistale_bench::run_experiment;
use wikistale_core::eval::{evaluate, truth_set};
use wikistale_core::predictor::{ChangePredictor, EvalData};
use wikistale_core::predictors::{
    AssocParams, AssociationRulePredictor, FieldCorrelation, FieldCorrelationParams,
};
use wikistale_core::TARGET_PRECISION;
use wikistale_wikicube::CubeIndex;

const GRANULARITY: u32 = 7;

fn main() {
    run_experiment("pr_curve", |prepared, _rest| {
        let index = CubeIndex::build(&prepared.filtered);
        let data = EvalData::new(&prepared.filtered, &index);
        let train = prepared.split.train_and_validation();
        let truth = truth_set(&index, prepared.split.test, GRANULARITY);

        println!("field correlations: θ sweep ({GRANULARITY}-day windows, test year)");
        println!(
            "{:>6} {:>8} {:>10} {:>10} {:>10}",
            "theta", "rules", "P [%]", "R [%]", "#"
        );
        for theta in [0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3, 0.5] {
            let fc = FieldCorrelation::train(
                &data,
                train,
                FieldCorrelationParams {
                    theta,
                    ..FieldCorrelationParams::default()
                },
            );
            let outcome = evaluate(&fc.predict(&data, prepared.split.test, GRANULARITY), &truth);
            println!(
                "{:>6.2} {:>8} {:>10.2} {:>10.2} {:>10}{}",
                theta,
                fc.num_rules(),
                100.0 * outcome.precision(),
                100.0 * outcome.recall(),
                outcome.predictions,
                if outcome.precision() >= TARGET_PRECISION {
                    ""
                } else {
                    "   below target"
                }
            );
        }

        println!("\nassociation rules: min-confidence sweep");
        println!(
            "{:>6} {:>8} {:>10} {:>10} {:>10}",
            "conf", "rules", "P [%]", "R [%]", "#"
        );
        for confidence in [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
            let ar = AssociationRulePredictor::train(
                &data,
                train,
                AssocParams {
                    apriori: wikistale_apriori::AprioriParams {
                        min_support: Support::Fraction(0.0025),
                        min_confidence: confidence,
                    },
                    ..AssocParams::default()
                },
            );
            let outcome = evaluate(&ar.predict(&data, prepared.split.test, GRANULARITY), &truth);
            println!(
                "{:>6.2} {:>8} {:>10.2} {:>10.2} {:>10}{}",
                confidence,
                ar.num_rules(),
                100.0 * outcome.precision(),
                100.0 * outcome.recall(),
                outcome.predictions,
                if outcome.precision() >= TARGET_PRECISION {
                    ""
                } else {
                    "   below target"
                }
            );
        }
        println!("\n(the paper operates at θ = 0.10 and confidence = 0.60)");
    });
}
