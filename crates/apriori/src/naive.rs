//! Brute-force reference for [`crate::mine`]: every ordered item pair is
//! counted by scanning every transaction with a subset test, with no
//! shared counting code.

use crate::miner::Support;
use crate::rules::AssociationRule;
use crate::transactions::{is_subset, TransactionSet};

/// All unary rules with a frequent pair and confidence ≥ `min_confidence`.
pub fn rules(
    ts: &TransactionSet,
    min_support: Support,
    min_confidence: f64,
) -> Vec<AssociationRule> {
    let Some(max_item) = ts.max_item() else {
        return Vec::new();
    };
    let min_count = min_support.to_count(ts.len());
    let count = |itemset: &[u32]| ts.iter().filter(|t| is_subset(itemset, t)).count() as u64;
    let mut result = Vec::new();
    for a in 0..=max_item {
        for b in (0..=max_item).filter(|&b| b != a) {
            let union_count = count(&[a.min(b), a.max(b)]);
            let antecedent_count = count(&[a]);
            let confidence = union_count as f64 / antecedent_count as f64;
            if union_count >= min_count && confidence + f64::EPSILON >= min_confidence {
                result.push(AssociationRule {
                    antecedent: a,
                    consequent: b,
                    union_count,
                    antecedent_count,
                    support: union_count as f64 / ts.len() as f64,
                    confidence,
                });
            }
        }
    }
    result
}

mod tests {
    use super::*;
    use crate::AprioriParams;
    use proptest::prelude::*;

    fn ts_from(rows: &[Vec<u32>]) -> TransactionSet {
        let mut b = TransactionSet::builder();
        for r in rows {
            b.push(r.iter().copied());
        }
        b.finish()
    }

    fn params(min_count: u64, min_confidence: f64) -> AprioriParams {
        AprioriParams {
            min_support: Support::Count(min_count),
            min_confidence,
        }
    }

    #[test]
    fn agrees_on_textbook_example() {
        let ts = ts_from(&[vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5]]);
        let fast = crate::mine(&ts, &params(2, 0.5));
        assert_eq!(fast.len(), 8);
        assert_eq!(fast, rules(&ts, Support::Count(2), 0.5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_miner_equals_naive(
            rows in proptest::collection::vec(
                proptest::collection::vec(0u32..8, 0..6), 1..25),
            min_count in 1u64..4,
        ) {
            let ts = ts_from(&rows);
            let fast = crate::mine(&ts, &params(min_count, 0.0));
            let slow = rules(&ts, Support::Count(min_count), 0.0);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn prop_rules_equal_naive(
            rows in proptest::collection::vec(
                proptest::collection::vec(0u32..6, 0..5), 1..20),
            conf in 0.0f64..1.0,
        ) {
            let ts = ts_from(&rows);
            let fast = crate::mine(&ts, &params(1, conf));
            let slow = rules(&ts, Support::Count(1), conf);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn prop_support_antitone(
            rows in proptest::collection::vec(
                proptest::collection::vec(0u32..8, 0..6), 1..25),
        ) {
            // A pair is never in more transactions than either item.
            let ts = ts_from(&rows);
            let mined = crate::mine(&ts, &params(1, 0.0));
            for r in &mined {
                prop_assert!(r.union_count <= r.antecedent_count);
                let reverse = mined
                    .iter()
                    .find(|s| (s.antecedent, s.consequent) == (r.consequent, r.antecedent));
                prop_assert!(reverse.is_some_and(|s| s.union_count == r.union_count));
            }
        }
    }
}
