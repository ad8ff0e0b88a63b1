//! Order statistics for the benchmark's reports.
//!
//! A timing is reported as its median and as the highest percentile that
//! has at least [`MIN_BEYOND`] samples beyond it, so a tail value never
//! rests on one or two outliers. Percentiles follow the nearest-rank rule
//! and are given in per mille (`990` is p99), which keeps the rank
//! arithmetic exact in integers.

use std::time::Instant;

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The median, in per mille.
pub const P50: u32 = 500;

/// p99, in per mille.
pub const P99: u32 = 990;

/// Tail percentiles the picker may choose, highest first, in per mille.
const TAIL_CANDIDATES: [u32; 5] = [999, P99, 950, 900, 750];

/// 1-based nearest rank of per-mille percentile `pm` among `n` samples.
fn rank(n: usize, pm: u32) -> usize {
    (pm as usize * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest tail percentile with at least [`MIN_BEYOND`] of `n`
/// samples beyond it; the median when none qualifies.
pub fn tail_per_mille(n: usize) -> u32 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&pm| n.saturating_sub(rank(n, pm)) >= MIN_BEYOND)
        .unwrap_or(P50)
}

/// Nearest-rank percentile `pm` (per mille) of `values`; 0 when empty.
pub fn percentile(values: &[f64], pm: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), pm) - 1]
}

/// Nearest-rank median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, P50)
}

/// The shortest of repeated timings of one fixed piece of work; 0 when
/// empty. On a shared host other tenants only ever slow a repetition
/// down, and its speed drifts for tens of seconds at a time, so the
/// median of a run's repetitions follows the drift while the fastest
/// stays close to the program's own cost.
pub fn fastest(secs: &[f64]) -> f64 {
    percentile(secs, 0)
}

/// Repetitions of one piece of work timed lap by lap: `reps[r][l]` is lap
/// `l` of repetition `r`. Returns the sum over the laps of each lap's
/// percentile `pm` (per mille) over the repetitions.
pub fn lap_sum(reps: &[Vec<f64>], pm: u32) -> f64 {
    let laps = reps.iter().map(Vec::len).max().unwrap_or(0);
    (0..laps)
        .map(|l| {
            let secs: Vec<f64> = reps.iter().filter_map(|rep| rep.get(l).copied()).collect();
            percentile(&secs, pm)
        })
        .sum()
}

/// [`lap_sum`] of each lap's [`fastest`] repetition. A stall from another
/// tenant slows the laps it falls in and leaves the others alone, so
/// where laps are short a few repetitions give every lap a quiet moment,
/// which a whole repetition seldom finds.
pub fn fastest_laps(reps: &[Vec<f64>]) -> f64 {
    lap_sum(reps, 0)
}

/// [`lap_sum`] of each lap's median repetition. Where laps are long and
/// use every core, a quiet moment for a whole lap is rare, and whether a
/// run met one moved the fastest lap more than the median.
pub fn median_laps(reps: &[Vec<f64>]) -> f64 {
    lap_sum(reps, P50)
}

/// Split times of one repetition.
pub struct Laps {
    last: Instant,
    secs: Vec<f64>,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            last: Instant::now(),
            secs: Vec::new(),
        }
    }

    /// End the current lap and start the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.secs.push(now.duration_since(self.last).as_secs_f64());
        self.last = now;
    }

    /// Seconds of each lap ended so far.
    pub fn secs(&self) -> &[f64] {
        &self.secs
    }

    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_takes_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_per_mille(10_000), 999); // rank 9 990: 10 beyond
        assert_eq!(tail_per_mille(9_999), P99); // p99.9 rank 9 990: 9 beyond
        assert_eq!(tail_per_mille(1_000), P99); // rank 990: 10 beyond
        assert_eq!(tail_per_mille(999), 950); // p99 rank 990: 9 beyond
        assert_eq!(tail_per_mille(100), 900); // p95 rank 95: 5 beyond
        assert_eq!(tail_per_mille(40), 750); // p90 rank 36: 4 beyond
        assert_eq!(tail_per_mille(12), P50);
        assert_eq!(tail_per_mille(0), P50);
    }

    #[test]
    fn nearest_rank_percentiles_ignore_input_order() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, P50), 50.0);
        assert_eq!(percentile(&values, P99), 99.0);
        assert_eq!(percentile(&values, 1000), 100.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[0.3, 0.1, 0.2]), 0.1);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn lap_sums_take_each_lap_on_its_own() {
        let reps = vec![vec![1.0, 5.0, 2.0], vec![3.0, 1.0, 2.5], vec![2.0, 2.0]];
        assert_eq!(fastest_laps(&reps), 1.0 + 1.0 + 2.0);
        assert_eq!(median_laps(&reps), 2.0 + 2.0 + 2.0);
        assert!(fastest_laps(&reps) <= reps.iter().map(|r| r.iter().sum::<f64>()).fold(f64::MAX, f64::min));
        assert_eq!(fastest_laps(&[vec![0.5, 0.25]]), 0.75);
        assert_eq!(median_laps(&[vec![0.5, 0.25]]), 0.75);
        assert_eq!(fastest_laps(&[]), 0.0);
    }
}
