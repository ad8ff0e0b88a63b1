//! # wikistale-bench
//!
//! The experiment harness: one binary per table / figure of the paper
//! (see `DESIGN.md` for the experiment index). Timing lives in the
//! `perfbench` package (`BENCHMARK.json`), not here.
//!
//! Every binary accepts `--scale tiny|small|medium` (default `small`) and
//! `--seed N`; the corpus, filter pipeline, and split are shared through
//! [`prepare`], so all experiments run against the same data for a given
//! scale and seed.

use wikistale_core::filters::{FilterPipeline, FilterReport};
use wikistale_core::split::EvalSplit;
use wikistale_synth::{generate, GroundTruth, SynthConfig};
use wikistale_wikicube::{ChangeCube, CorpusStats};

/// Corpus scale presets understood by the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few hundred entities; seconds end to end. For smoke runs.
    Tiny,
    /// ≈ 11 k entities (the default); the full evaluation in seconds.
    Small,
    /// ≈ 55 k entities; minutes end to end.
    Medium,
}

impl Scale {
    /// Parse a scale name.
    pub fn parse(name: &str) -> Result<Scale, String> {
        match name {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            other => Err(format!("unknown scale {other:?} (tiny|small|medium)")),
        }
    }

    /// The corresponding generator configuration.
    pub fn config(self) -> SynthConfig {
        match self {
            Scale::Tiny => SynthConfig::tiny(),
            Scale::Small => SynthConfig::small(),
            Scale::Medium => SynthConfig::medium(),
        }
    }
}

/// Everything the experiment binaries need, prepared once.
pub struct Prepared {
    /// The raw (unfiltered) corpus statistics.
    pub raw_stats: CorpusStats,
    /// Same-day writes collapsed while the raw cube was built (see
    /// `SynthCorpus::same_day_collapsed`).
    pub same_day_collapsed: usize,
    /// The filtered cube the predictors run on.
    pub filtered: ChangeCube,
    /// Per-stage filter accounting.
    pub filter_report: FilterReport,
    /// Train/validation/test split (the paper's fixed dates).
    pub split: EvalSplit,
    /// The generator's ground truth of forgotten updates.
    pub ground_truth: GroundTruth,
}

/// Generate, measure, and filter the corpus for `config`.
pub fn prepare(config: &SynthConfig) -> Prepared {
    let corpus = generate(config);
    let raw_stats = CorpusStats::compute(&corpus.cube);
    let (filtered, filter_report) = FilterPipeline::paper().apply(&corpus.cube);
    let split = EvalSplit::for_span(
        filtered
            .time_span()
            .expect("generated corpus is never empty"),
    )
    .expect("corpus spans more than two years");
    Prepared {
        raw_stats,
        same_day_collapsed: corpus.same_day_collapsed,
        filtered,
        filter_report,
        split,
        ground_truth: corpus.ground_truth,
    }
}

/// Parse the common `--scale` / `--seed` flags of the experiment binaries
/// and return the resolved generator config plus the remaining flags.
pub fn config_from_args(argv: &[String]) -> Result<(SynthConfig, Vec<String>), String> {
    let mut config = SynthConfig::small();
    let mut rest = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                let value = argv.get(i + 1).ok_or("--scale needs a value")?;
                config = Scale::parse(value)?.config();
                i += 2;
            }
            "--seed" => {
                let value = argv.get(i + 1).ok_or("--seed needs a value")?;
                config.seed = value
                    .parse()
                    .map_err(|_| format!("invalid --seed {value:?}"))?;
                i += 2;
            }
            other => {
                rest.push(other.to_owned());
                i += 1;
            }
        }
    }
    Ok((config, rest))
}

/// Standard entry point used by the experiment binaries: parse args,
/// prepare the corpus, hand off to the experiment body.
pub fn run_experiment(name: &str, body: impl FnOnce(&Prepared, &[String])) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (config, rest) = match config_from_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{name}: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "{name}: corpus seed {} / {} entities — generating…",
        config.seed, config.num_entities
    );
    let start = std::time::Instant::now();
    let prepared = prepare(&config);
    eprintln!(
        "{name}: prepared in {:?} ({} filtered changes)",
        start.elapsed(),
        prepared.filtered.num_changes()
    );
    body(&prepared, &rest);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny").unwrap(), Scale::Tiny);
        assert_eq!(Scale::parse("small").unwrap(), Scale::Small);
        assert_eq!(Scale::parse("medium").unwrap(), Scale::Medium);
        assert!(Scale::parse("huge").is_err());
        assert_eq!(Scale::Medium.config().num_entities, 55_000);
    }

    #[test]
    fn config_from_args_handles_flags() {
        let argv: Vec<String> = ["--scale", "tiny", "--seed", "7", "--theta"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (config, rest) = config_from_args(&argv).unwrap();
        assert_eq!(config.num_entities, SynthConfig::tiny().num_entities);
        assert_eq!(config.seed, 7);
        assert_eq!(rest, vec!["--theta"]);
        assert!(config_from_args(&["--scale".to_string()]).is_err());
        assert!(config_from_args(&["--seed".to_string(), "x".to_string()]).is_err());
    }

    #[test]
    fn prepare_produces_consistent_bundle() {
        let prepared = prepare(&SynthConfig::tiny());
        assert!(prepared.raw_stats.total_changes > prepared.filtered.num_changes());
        assert_eq!(
            prepared.filter_report.stages.last().unwrap().remaining,
            prepared.filtered.num_changes()
        );
        assert!(prepared.split.test.len_days() == 365);
        assert!(!prepared.ground_truth.is_empty());
    }
}
