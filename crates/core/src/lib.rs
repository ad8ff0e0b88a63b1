//! # wikistale-core
//!
//! Detection of stale data in Wikipedia infoboxes — a faithful Rust
//! implementation of Barth et al., "Detecting Stale Data in Wikipedia
//! Infoboxes" (EDBT 2023).
//!
//! Given the change history of all infobox fields (a change cube from
//! [`wikistale_wikicube`]), the system answers: *given the current time
//! `t`, a window size `w`, and a field `f` that did not change in
//! `[t − w, t]`, should `f` have changed?* (§3.1). A high-precision answer
//! lets Wikipedia mark fields as potentially stale for readers and
//! editors; the Wikimedia Foundation's bar is 85 % precision.
//!
//! The pipeline:
//!
//! 1. **Filtering** ([`filters`], §4) — drop bot-reverted edits, collapse
//!    each field's edits of one day into one change (done when the cube
//!    is built: the day's last write), drop creations/deletions, drop
//!    fields with fewer than five changes.
//! 2. **Predictors** ([`predictors`], §3.2–3.3) —
//!    [`predictors::FieldCorrelation`] finds same-page field pairs whose
//!    daily change vectors are close under a normalized Manhattan
//!    distance; [`predictors::AssociationRulePredictor`] mines unary
//!    template-level rules with Apriori over weekly per-infobox
//!    transactions, pruned to ≥ 90 % precision on a held-out slice. Two
//!    baselines ([`predictors::MeanBaseline`],
//!    [`predictors::ThresholdBaseline`]) calibrate the difficulty.
//! 3. **Ensembles** ([`ensemble`], §3.4) — OR (recall-oriented; the
//!    paper's headline predictor) and AND (precision-oriented).
//! 4. **Evaluation** ([`eval`], [`experiment`], §5) — time-based
//!    train/validation/test splits, tumbling windows of 1/7/30/365 days,
//!    the masked-field protocol, precision/recall/prediction counts,
//!    per-week series, and grid searches ([`tuning`]).
//!
//! ## Quickstart
//!
//! ```
//! use wikistale_core::experiment::{run_paper_evaluation, ExperimentConfig};
//! use wikistale_core::filters::FilterPipeline;
//! use wikistale_core::split::EvalSplit;
//! use wikistale_synth::{generate, SynthConfig};
//!
//! let corpus = generate(&SynthConfig::tiny());
//! let (filtered, _report) = FilterPipeline::paper().apply(&corpus.cube);
//! let split = EvalSplit::for_span(filtered.time_span().unwrap()).unwrap();
//! let results = run_paper_evaluation(&filtered, &split, &ExperimentConfig::default());
//! let or_7d = &results.granularity(7).unwrap().or_ensemble;
//! assert!(or_7d.predictions > 0);
//! ```

pub mod anomaly;
pub mod checkpoint;
pub mod detector;
pub mod ensemble;
pub mod eval;
pub mod experiment;
pub mod explain;
pub mod figures;
pub mod filters;
pub mod predictions;
pub mod predictor;
pub mod predictors;
pub mod report;
pub mod scoring;
pub mod split;
pub mod tuning;

pub use anomaly::{find_counter_anomalies, AnomalyKind, AnomalyParams, CounterAnomaly};
pub use detector::{DetectorConfig, DetectorError, StalenessDetector};
pub use ensemble::{and_ensemble, or_ensemble};
pub use eval::{truth_set, EvalOutcome};
pub use explain::{explain, Explanation, Reason};
pub use predictions::PredictionSet;
pub use predictor::{ChangePredictor, EvalData};
pub use split::EvalSplit;

/// The precision the Wikimedia Foundation asked for (§1).
pub const TARGET_PRECISION: f64 = 0.85;

/// The window granularities (in days) evaluated throughout the paper.
pub const GRANULARITIES: [u32; 4] = [1, 7, 30, 365];
