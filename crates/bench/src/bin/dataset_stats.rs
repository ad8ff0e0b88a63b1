//! Experiment D1 — regenerate the **§4 dataset statistics**: the raw
//! change composition and the per-stage filter removals, next to the
//! paper's numbers. The removals are fractions of all raw writes, the
//! same-day writes the cube collapses included, as the paper's are: with
//! the survivors, both columns sum to 100 %.
//!
//! ```sh
//! cargo run -p wikistale-bench --bin dataset_stats --release [-- --scale small]
//! ```

use wikistale_bench::run_experiment;

/// The paper's per-stage removals (§4), as % of its raw writes, by
/// `FilterReport` stage name.
const PAPER_REMOVED: [(&str, f64); 3] = [
    ("bot-reverted", 0.008),
    ("creations & deletions", 61.373),
    ("fields with < min changes", 10.241),
];

/// The paper's same-day writes to one field beyond the day's last, as %
/// of its raw writes (§4).
const PAPER_SAME_DAY: f64 = 19.185;

/// The paper's surviving changes, as % of its raw writes (§4).
const PAPER_SURVIVING: f64 = 9.193;

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
        // The paper's percentages are of all raw writes. The cube keeps
        // one change per field and day, so the writes it collapsed are
        // added back to the denominator and reported as their own row.
        let written = (stats.total_changes + prepared.same_day_collapsed).max(1) as f64;
        println!("\nfilter pipeline (removed, as % of raw writes)   ours      paper");
        println!(
            "  {:<28} {:>9}  {:>7.3} %  {:>7.3} %",
            "same-day collapsed",
            prepared.same_day_collapsed,
            100.0 * prepared.same_day_collapsed as f64 / written,
            PAPER_SAME_DAY
        );
        let report = &prepared.filter_report;
        for stage in &report.stages {
            let paper = PAPER_REMOVED
                .iter()
                .find(|(name, _)| *name == stage.name)
                .map_or(f64::NAN, |&(_, pct)| pct);
            println!(
                "  {:<28} {:>9}  {:>7.3} %  {:>7.3} %",
                stage.name,
                stage.removed,
                100.0 * stage.removed as f64 / written,
                paper
            );
        }
        let surviving = prepared.filtered.num_changes();
        println!(
            "  {:<28} {:>9}  {:>7.3} %  {:>7.3} %",
            "surviving",
            surviving,
            100.0 * surviving as f64 / written,
            PAPER_SURVIVING
        );
    });
}
