//! # wikistale-apriori
//!
//! Unary association-rule mining `a ⇒ b` for the association-rule
//! staleness predictor of Barth et al. (EDBT 2023, §3.3), with the
//! support and confidence thresholds of Apriori (Agrawal & Srikant,
//! VLDB 1994).
//!
//! The paper mines only rules with one item on each side, so the miner
//! needs nothing beyond pairs: one pass counts every item and every item
//! pair, and support and confidence follow from those counts. Items are
//! dense `u32` ids and transactions are sets of items; memory is
//! quadratic in the number of distinct items, so callers pass small,
//! dense (for example template-local) ids.
//!
//! A brute-force reference (`naive`, test builds only) counts every pair
//! by subset tests; property tests assert the miner agrees with it on
//! random inputs.
//!
//! ## Example
//!
//! ```
//! use wikistale_apriori::{AprioriParams, Support, TransactionSet, mine};
//!
//! let mut b = TransactionSet::builder();
//! // `matches` (0) and `goals` (1) change together; `stadium` (2) rarely.
//! for _ in 0..8 { b.push([0, 1]); }
//! b.push([0]);
//! b.push([2]);
//! let ts = b.finish();
//!
//! let rules = mine(&ts, &AprioriParams {
//!     min_support: Support::Fraction(0.2),
//!     min_confidence: 0.6,
//! });
//! // 0 ⇒ 1 holds with confidence 8/9; 1 ⇒ 0 with confidence 1.
//! assert!(rules.iter().any(|r| r.antecedent == 0 && r.consequent == 1));
//! assert!(rules.iter().any(|r| r.antecedent == 1 && r.consequent == 0));
//! ```

pub mod miner;
#[cfg(test)]
mod naive;
pub mod rules;
pub mod transactions;

pub use miner::Support;
pub use rules::{mine, AssociationRule};
pub use transactions::{TransactionSet, TransactionSetBuilder};

/// Mining parameters.
///
/// The paper's configuration (§5.2) is `min_support = Fraction(0.0025)`
/// and `min_confidence = 0.6`; rules are always unary.
#[derive(Debug, Clone, PartialEq)]
pub struct AprioriParams {
    /// Minimum support for an item pair to be considered frequent.
    pub min_support: Support,
    /// Minimum confidence for a rule to be emitted.
    pub min_confidence: f64,
}

impl Default for AprioriParams {
    /// The paper's grid-search optimum.
    fn default() -> AprioriParams {
        AprioriParams {
            min_support: Support::Fraction(0.0025),
            min_confidence: 0.6,
        }
    }
}
