//! Unary association rules from item and pair counts.

use crate::miner::{cell, count_pairs};
use crate::transactions::TransactionSet;
use crate::AprioriParams;

/// A unary association rule `antecedent ⇒ consequent` with its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationRule {
    /// Left-hand-side item.
    pub antecedent: u32,
    /// Right-hand-side item (never the antecedent).
    pub consequent: u32,
    /// Transactions containing both items.
    pub union_count: u64,
    /// Transactions containing the antecedent.
    pub antecedent_count: u64,
    /// Relative support of `{antecedent, consequent}`.
    pub support: f64,
    /// `union_count / antecedent_count`.
    pub confidence: f64,
}

/// Mine every unary rule `a ⇒ b` whose pair `{a, b}` is frequent and
/// whose confidence reaches `min_confidence`.
///
/// One counting pass yields every item and pair count. A pair is
/// frequent when at least `min_support.to_count(n)` of the `n`
/// transactions contain it (both items are then frequent too). A rule
/// is dropped when `confidence + f64::EPSILON < min_confidence`, so the
/// threshold is inclusive up to rounding. Rules come back sorted by
/// `(antecedent, consequent)`.
pub fn mine(ts: &TransactionSet, params: &AprioriParams) -> Vec<AssociationRule> {
    let _span = wikistale_obs::MetricsRegistry::global().span("apriori_mine");
    let mut rules = Vec::new();
    if ts.is_empty() {
        return rules;
    }
    let counts = count_pairs(ts);
    let min_count = params.min_support.to_count(ts.len());
    let n = ts.len() as f64;
    let universe = ts.max_item().map_or(0, |m| m + 1);
    for antecedent in 0..universe {
        let antecedent_count = counts[cell(antecedent, antecedent)];
        for consequent in (0..universe).filter(|&c| c != antecedent) {
            let union_count = counts[cell(antecedent.min(consequent), antecedent.max(consequent))];
            if union_count < min_count {
                continue;
            }
            let confidence = union_count as f64 / antecedent_count as f64;
            if confidence + f64::EPSILON < params.min_confidence {
                continue;
            }
            rules.push(AssociationRule {
                antecedent,
                consequent,
                union_count,
                antecedent_count,
                support: union_count as f64 / n,
                confidence,
            });
        }
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Support;

    fn ts(rows: &[&[u32]]) -> TransactionSet {
        let mut b = TransactionSet::builder();
        for r in rows {
            b.push(r.iter().copied());
        }
        b.finish()
    }

    #[test]
    fn asymmetric_confidence() {
        // ko ⇒ wins should hold; wins ⇒ ko should not (paper's boxer
        // example: every knockout is a win, not vice versa).
        let wins = 0u32;
        let ko = 1u32;
        let data = ts(&[
            &[wins, ko],
            &[wins, ko],
            &[wins, ko],
            &[wins],
            &[wins],
            &[wins],
        ]);
        let rules = mine(
            &data,
            &AprioriParams {
                min_support: Support::Count(2),
                min_confidence: 0.8,
            },
        );
        assert_eq!(rules.len(), 1);
        let r = &rules[0];
        assert_eq!((r.antecedent, r.consequent), (ko, wins));
        assert_eq!((r.union_count, r.antecedent_count), (3, 3));
        assert!((r.confidence - 1.0).abs() < 1e-12);
        assert!((r.support - 0.5).abs() < 1e-12);
    }

    #[test]
    fn both_directions_when_symmetric() {
        let data = ts(&[&[0, 1], &[0, 1], &[0, 1], &[2]]);
        let rules = mine(
            &data,
            &AprioriParams {
                min_support: Support::Count(2),
                min_confidence: 0.9,
            },
        );
        let sides: Vec<(u32, u32)> = rules.iter().map(|r| (r.antecedent, r.consequent)).collect();
        assert_eq!(sides, vec![(0, 1), (1, 0)]);
        assert!(rules.iter().all(|r| (r.confidence - 1.0).abs() < 1e-12));
    }

    #[test]
    fn confidence_threshold_is_inclusive() {
        // conf(0 ⇒ 1) = 2/3 exactly.
        let data = ts(&[&[0, 1], &[0, 1], &[0], &[1]]);
        let rules = mine(
            &data,
            &AprioriParams {
                min_support: Support::Count(1),
                min_confidence: 2.0 / 3.0,
            },
        );
        assert!(rules.iter().any(|r| r.antecedent == 0 && r.consequent == 1));
        // conf(0 ⇒ 1) = 7/10 rounds one ulp below 0.1 · 7; the EPSILON
        // tolerance keeps the rule.
        let mut rows: Vec<&[u32]> = vec![&[0, 1]; 7];
        rows.extend([&[0][..]; 3]);
        let rules = mine(
            &ts(&rows),
            &AprioriParams {
                min_support: Support::Count(1),
                min_confidence: 0.1 * 7.0,
            },
        );
        assert!(rules.iter().any(|r| r.antecedent == 0 && r.consequent == 1));
    }

    #[test]
    fn no_rules_from_empty_or_singleton_data() {
        let empty = TransactionSet::builder().finish();
        assert!(mine(&empty, &AprioriParams::default()).is_empty());
        let singles = ts(&[&[0], &[1], &[2]]);
        assert!(mine(
            &singles,
            &AprioriParams {
                min_support: Support::Count(1),
                min_confidence: 0.0,
            }
        )
        .is_empty());
    }

    #[test]
    fn default_params_match_paper() {
        let p = AprioriParams::default();
        assert_eq!(p.min_support, Support::Fraction(0.0025));
        assert!((p.min_confidence - 0.6).abs() < 1e-12);
    }

    #[test]
    fn triple_yields_the_six_unary_rules() {
        let rows: Vec<&[u32]> = vec![&[0, 1, 2]; 4];
        let rules = mine(
            &ts(&rows),
            &AprioriParams {
                min_support: Support::Count(2),
                min_confidence: 0.5,
            },
        );
        let sides: Vec<(u32, u32)> = rules.iter().map(|r| (r.antecedent, r.consequent)).collect();
        assert_eq!(sides, vec![(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]);
        assert!(rules
            .iter()
            .all(|r| r.union_count == 4 && r.confidence == 1.0));
    }
}
