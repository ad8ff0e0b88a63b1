//! The change predictors of §3 and the baselines of §5.2.

pub mod assoc;
pub mod field_corr;
pub mod mean_baseline;
pub mod seasonal;
pub mod threshold_baseline;

pub use assoc::{AssocParams, AssociationRulePredictor, TemplateRule};
pub use field_corr::{change_distance, DistanceNorm, FieldCorrelation, FieldCorrelationParams};
pub use mean_baseline::MeanBaseline;
pub use seasonal::{SeasonalParams, SeasonalPredictor};
pub use threshold_baseline::ThresholdBaseline;
