//! Medians and percentiles, with the rule that a percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it, and the way repeated
//! host timings are reduced to one number.
//!
//! The reference box is a shared two-vCPU guest.  Whatever else the host
//! runs only ever *adds* time to a measurement — a stolen vCPU, a busy
//! hyperthread sibling, a slow spell of some seconds — and it comes in
//! bursts.  So every workload measures in many short trials, computes its
//! percentiles *within* a trial, and reduces *over* trials with an estimator
//! from the undisturbed end: the [`lower_quartile`] of the trials' medians
//! and of the set-up samples (stays put while a quarter of them ran clean,
//! where the median needs half), and the [`least`] of the trials' p99s and of their
//! processor time per operation (a p99 is clean only if fewer than one in a
//! hundred of its samples were disturbed, which few trials manage; the least
//! disturbed trial says most about the program).

use std::collections::VecDeque;

/// A percentile is reported only with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Lower quartile (nearest rank) of `values`; 0 for an empty slice.
pub fn lower_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(4) - 1]
}

/// The least of `values`; 0 for an empty slice.
pub fn least(values: &[f64]) -> f64 {
    values.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

/// Nearest-rank percentile `q` (0 < q < 1) of `sorted` (ascending), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The percentiles one set of timing samples supports.
#[derive(Clone, Copy, Debug, Default)]
pub struct Percentiles {
    /// Sample count.
    pub n: usize,
    /// Median (always present with at least one sample).
    pub p50: f64,
    /// 99th percentile, if supported.
    pub p99: Option<f64>,
}

/// Sorts `samples` in place and extracts the supported percentiles.
pub fn percentiles(samples: &mut [f64]) -> Percentiles {
    samples.sort_by(f64::total_cmp);
    Percentiles {
        n: samples.len(),
        p50: median(samples),
        p99: percentile(samples, 0.99),
    }
}

/// Samples a p99 is taken over: a thousand and some, so that ten lie beyond
/// it.
pub const P99_POOL: usize = 1_100;

/// Takes a p99 over every run of consecutive trials just long enough to
/// carry one ([`P99_POOL`] samples): a window that slides one trial at a
/// time, so that the cleanest stretch of the run is among the candidates
/// wherever it began.
#[derive(Default)]
pub struct P99Pools {
    window: VecDeque<Vec<f64>>,
    p99s: Vec<f64>,
}

impl P99Pools {
    /// Adds one trial's samples.
    pub fn add(&mut self, samples: &[f64]) {
        self.window.push_back(samples.to_vec());
        let mut held: usize = self.window.iter().map(Vec::len).sum();
        while self
            .window
            .front()
            .is_some_and(|t| held - t.len() >= P99_POOL)
        {
            held -= self.window.pop_front().map_or(0, |t| t.len());
        }
        if held >= P99_POOL {
            let mut pool: Vec<f64> = self.window.iter().flatten().copied().collect();
            pool.sort_by(f64::total_cmp);
            self.p99s.extend(percentile(&pool, 0.99));
        }
    }

    /// The p99 of every full window so far.
    pub fn p99s(&self) -> &[f64] {
        &self.p99s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut v: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: rank 990, nine beyond.
        assert_eq!(percentile(&v, 0.99), None);
        v.push(1000.0);
        // 1000 samples: rank 990, ten beyond.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // The same thousand cannot carry a p99.9 (rank 999, one beyond).
        assert_eq!(percentile(&v, 0.999), None);
        let p = percentiles(&mut v);
        assert_eq!((p.n, p.p50, p.p99), (1000, 500.5, Some(990.0)));
        let ten_thousand: Vec<f64> = (1..=10_000).rev().map(f64::from).collect();
        let mut sorted = ten_thousand.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(percentile(&sorted, 0.999), Some(9990.0));
    }

    #[test]
    fn lower_quartile_is_the_nearest_rank() {
        assert_eq!(lower_quartile(&[]), 0.0);
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        // Three trials: the best one.
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.0);
        // Twelve trials: the third best.
        let twelve: Vec<f64> = (1..=12).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&twelve), 3.0);
        assert_eq!(least(&twelve), 1.0);
        assert_eq!(least(&[]), 0.0);
    }

    #[test]
    fn small_trials_pool_until_they_carry_a_p99() {
        let mut pools = P99Pools::default();
        let trial: Vec<f64> = (1..=400).map(f64::from).collect();
        pools.add(&trial);
        pools.add(&trial);
        assert!(pools.p99s().is_empty(), "800 samples carry no p99");
        pools.add(&trial);
        // 1200 samples, three of each value: rank 1188 is the value 396.
        assert_eq!(pools.p99s(), [396.0]);
        // The window slides by one trial: the oldest stays while the rest
        // alone would be too few, and goes once they are enough.
        let slow: Vec<f64> = (1001..=1400).map(f64::from).collect();
        pools.add(&slow);
        assert_eq!(pools.p99s().len(), 2);
        assert_eq!(pools.p99s()[1], 1388.0, "1200 samples, the top 400 slow");
        // A big trial is a window of its own.
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        pools.add(&big);
        assert_eq!(pools.p99s()[2], 1980.0);
    }
}
