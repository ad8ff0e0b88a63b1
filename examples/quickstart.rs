//! Quickstart: generate a corpus, filter it, train the predictors, and
//! reproduce the paper's headline result — the OR-ensemble beating the
//! Wikimedia Foundation's 85 % precision bar on 7-day windows.
//!
//! ```sh
//! cargo run --example quickstart --release
//! ```

use wikistale_core::experiment::{run_paper_evaluation, ExperimentConfig};
use wikistale_core::filters::FilterPipeline;
use wikistale_core::split::EvalSplit;
use wikistale_core::TARGET_PRECISION;
use wikistale_synth::{generate, SynthConfig};

fn main() {
    // 1. A corpus. In production this comes from `wikistale ingest` over a
    //    real dump; here the seeded generator stands in for the 15-year
    //    history the paper uses.
    let corpus = generate(&SynthConfig::small());
    println!(
        "raw corpus: {} changes, {} infoboxes, {} templates",
        corpus.cube.num_changes(),
        corpus.cube.num_entities(),
        corpus.cube.num_templates()
    );

    // 2. The §4 filter pipeline: drop bot reverts, creations/deletions
    //    and near-static fields (same-day churn already collapsed when
    //    the cube was built).
    let (filtered, report) = FilterPipeline::paper().apply(&corpus.cube);
    println!(
        "filtered: {} changes remain ({:.1} % of raw; paper keeps 9.2 %)",
        filtered.num_changes(),
        100.0 * report.surviving_fraction()
    );

    // 3. Train on everything before the test year, evaluate on the test
    //    year at 1/7/30/365-day granularity.
    let split = EvalSplit::paper();
    let results = run_paper_evaluation(&filtered, &split, &ExperimentConfig::default());

    println!(
        "\nrules: {} field correlations, {} association rules (covering {} infoboxes)\n",
        results.num_field_corr_rules, results.num_assoc_rules, results.covered_entities
    );
    for g in &results.per_granularity {
        let or = &g.or_ensemble;
        println!(
            "{:>4}-day windows: OR-ensemble precision {:>5.2} % recall {:>5.2} % ({} predictions){}",
            g.granularity,
            100.0 * or.precision(),
            100.0 * or.recall(),
            or.predictions,
            if or.precision() >= TARGET_PRECISION {
                "  ✓ meets the 85 % target"
            } else {
                ""
            }
        );
    }

    let seven = results.granularity(7).expect("7-day granularity evaluated");
    assert!(
        seven.or_ensemble.precision() >= TARGET_PRECISION,
        "the OR-ensemble must meet the Wikimedia precision target"
    );
    println!("\npaper reference (7-day): OR-ensemble 89.69 % precision, 8.19 % recall");
}
