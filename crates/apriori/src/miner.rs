//! Item and pair occurrence counting.

use crate::transactions::TransactionSet;

/// A minimum-support threshold, either relative or absolute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Support {
    /// Fraction of the number of transactions, in `[0, 1]`.
    Fraction(f64),
    /// Absolute transaction count.
    Count(u64),
}

impl Support {
    /// Resolve to an absolute count given the number of transactions.
    ///
    /// A `Fraction` resolves to `ceil(f · n)` clamped to at least 1, so
    /// `Fraction(0.0)` still requires one supporting transaction — an
    /// itemset nobody bought is never frequent.
    pub fn to_count(self, num_transactions: usize) -> u64 {
        match self {
            Support::Count(c) => c.max(1),
            Support::Fraction(f) => {
                let f = f.clamp(0.0, 1.0);
                ((f * num_transactions as f64).ceil() as u64).max(1)
            }
        }
    }
}

/// Position of the item pair `{a, b}` (`a ≤ b`) in the lower triangle,
/// diagonal included, of the co-occurrence matrix that [`count_pairs`]
/// returns. The diagonal cell `(a, a)` holds item `a`'s own count.
pub(crate) fn cell(a: u32, b: u32) -> usize {
    debug_assert!(a <= b);
    let b = b as usize;
    b * (b + 1) / 2 + a as usize
}

/// Transactions per counting chunk: infobox-week transactions are tiny,
/// so chunks stay coarse enough to amortize the per-chunk count vectors.
const COUNT_CHUNK: usize = 2_048;

/// Count, in one pass, the transactions of `ts` that contain each item and
/// each item pair, as a triangular matrix over the items `0..=max_item`
/// (see [`cell`]).
///
/// The pass is sharded over transaction chunks. Each chunk fills its own
/// matrix; chunks are merged by element-wise `u64` addition, which is
/// exactly associative and commutative, so the totals do not depend on
/// chunking or scheduling. A chunk covers at least as many transactions
/// as the matrix has cells, so the chunk matrices together add at most
/// 8 bytes per transaction to one matrix. Memory is quadratic in the item
/// universe: pass dense, local item ids.
pub(crate) fn count_pairs(ts: &TransactionSet) -> Vec<u64> {
    let universe = ts.max_item().map_or(0, |m| m as usize + 1);
    let cells = universe * (universe + 1) / 2;
    let chunks =
        wikistale_exec::par_ranges("apriori_pairs", ts.len(), COUNT_CHUNK.max(cells), |range| {
            let mut counts = vec![0u64; cells];
            for i in range {
                let t = ts.transaction(i);
                for (k, &b) in t.iter().enumerate() {
                    for &a in &t[..=k] {
                        counts[cell(a, b)] += 1;
                    }
                }
            }
            counts
        });
    let mut total = vec![0u64; cells];
    for partial in chunks {
        for (t, p) in total.iter_mut().zip(partial) {
            *t += p;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransactionSet;

    fn ts(rows: &[&[u32]]) -> TransactionSet {
        let mut b = TransactionSet::builder();
        for r in rows {
            b.push(r.iter().copied());
        }
        b.finish()
    }

    /// Transactions containing both `a` and `b` (just `a` when equal).
    fn both(counts: &[u64], a: u32, b: u32) -> u64 {
        counts[cell(a.min(b), a.max(b))]
    }

    #[test]
    fn support_resolution() {
        assert_eq!(Support::Fraction(0.5).to_count(10), 5);
        assert_eq!(Support::Fraction(0.0).to_count(10), 1);
        assert_eq!(Support::Fraction(1.0).to_count(10), 10);
        assert_eq!(Support::Fraction(0.25).to_count(10), 3); // ceil(2.5)
        assert_eq!(Support::Count(0).to_count(10), 1);
        assert_eq!(Support::Count(7).to_count(10), 7);
        assert_eq!(Support::Fraction(2.0).to_count(10), 10); // clamped
    }

    #[test]
    fn textbook_example() {
        // Classic Agrawal-style basket data.
        let counts = count_pairs(&ts(&[&[1, 3, 4], &[2, 3, 5], &[1, 2, 3, 5], &[2, 5]]));
        assert_eq!(counts.len(), 21);
        let items: Vec<u64> = (0..6).map(|i| both(&counts, i, i)).collect();
        assert_eq!(items, vec![0, 2, 3, 3, 1, 3]);
        assert_eq!(both(&counts, 1, 3), 2);
        assert_eq!(both(&counts, 2, 3), 2);
        assert_eq!(both(&counts, 5, 2), 3);
        assert_eq!(both(&counts, 3, 5), 2);
        assert_eq!(both(&counts, 1, 4), 1);
        assert_eq!(both(&counts, 1, 2), 1);
        assert_eq!(both(&counts, 4, 5), 0);
    }

    #[test]
    fn empty_inputs() {
        assert!(count_pairs(&TransactionSet::builder().finish()).is_empty());
        assert!(count_pairs(&ts(&[&[], &[]])).is_empty());
        assert_eq!(count_pairs(&ts(&[&[0], &[0]])), vec![2]);
    }

    #[test]
    fn counts_are_exact() {
        let counts = count_pairs(&ts(&[&[0, 1], &[0, 1], &[0], &[1], &[0, 1, 2]]));
        assert_eq!(both(&counts, 0, 0), 4);
        assert_eq!(both(&counts, 1, 1), 4);
        assert_eq!(both(&counts, 2, 2), 1);
        assert_eq!(both(&counts, 0, 1), 3);
        assert_eq!(both(&counts, 0, 2), 1);
        assert_eq!(both(&counts, 1, 2), 1);
    }

    #[test]
    fn cells_are_dense_and_unique() {
        let mut seen = Vec::new();
        for b in 0..6u32 {
            for a in 0..=b {
                seen.push(cell(a, b));
            }
        }
        assert_eq!(seen, (0..21).collect::<Vec<_>>());
    }
}
