//! Experiment D1 — regenerate the **§4 dataset statistics**: the raw
//! change composition and the per-stage filter removals, next to the
//! paper's numbers (which are fractions of the original corpus and sum,
//! with the 9.2 % survivors, to 100 %).
//!
//! ```sh
//! cargo run -p wikistale-bench --bin dataset_stats --release [-- --scale small]
//! ```

use wikistale_bench::run_experiment;

/// The paper's per-stage removals (§4), as % of its original corpus, by
/// `FilterReport` stage name.
const PAPER_REMOVED: [(&str, f64); 3] = [
    ("bot-reverted", 0.008),
    ("creations & deletions", 61.373),
    ("fields with < min changes", 10.241),
];

fn main() {
    run_experiment("dataset_stats", |prepared, _rest| {
        let stats = &prepared.raw_stats;
        println!("raw corpus composition        ours      paper");
        println!(
            "  changes             {:>12}      283 M",
            stats.total_changes
        );
        println!(
            "  creations           {:>11.2} %     50.6 %",
            100.0 * stats.create_fraction()
        );
        println!(
            "  deletions           {:>11.2} %     20.3 %",
            100.0 * stats.delete_fraction()
        );
        println!(
            "  bot-reverted        {:>11.4} %      0.008 %",
            100.0 * stats.bot_reverted_fraction()
        );
        // The cube keeps one change per field and day, so the churn is
        // counted where it is collapsed, as a share of all raw writes.
        let written = stats.total_changes + prepared.same_day_collapsed;
        println!(
            "  same-day collapsed  {:>11.2} %     ~19 %",
            100.0 * prepared.same_day_collapsed as f64 / written.max(1) as f64
        );

        println!("\nfilter pipeline (removed, as % of original)   ours      paper");
        let report = &prepared.filter_report;
        for (i, stage) in report.stages.iter().enumerate() {
            let paper = PAPER_REMOVED
                .iter()
                .find(|(name, _)| *name == stage.name)
                .map_or(f64::NAN, |&(_, pct)| pct);
            println!(
                "  {:<28} {:>9}  {:>7.3} %  {:>7.3} %",
                stage.name,
                stage.removed,
                100.0 * report.removed_fraction_of_original(i),
                paper
            );
        }
        println!(
            "  {:<28} {:>9}  {:>7.3} %  {:>7.3} %",
            "surviving",
            prepared.filtered.num_changes(),
            100.0 * report.surviving_fraction(),
            9.193
        );
    });
}
