//! Summary statistics and sliding windows.
//!
//! The monitor's anomaly detectors (MFU decline, loss spikes) and the
//! experiment harnesses (P99 standby sizing, weighted-average scheduling time,
//! ETTR series) all need small, allocation-light statistics helpers.

use std::collections::VecDeque;

/// Streaming mean / variance / min / max (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observed value (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Maximum observed value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A fixed-capacity sliding window over recent samples, used by the monitor
/// for windowed anomaly checks (e.g. "MFU over the last N iterations").
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    capacity: usize,
    values: VecDeque<f64>,
}

impl SlidingWindow {
    /// Creates a window holding at most `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SlidingWindow capacity must be > 0");
        SlidingWindow {
            capacity,
            values: VecDeque::with_capacity(capacity),
        }
    }

    /// Adds a sample, evicting the oldest if full.
    pub fn push(&mut self, x: f64) {
        if self.values.len() == self.capacity {
            self.values.pop_front();
        }
        self.values.push_back(x);
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the window currently holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the window has reached its capacity.
    pub fn is_full(&self) -> bool {
        self.values.len() == self.capacity
    }

    /// Mean of the held samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Most recent sample.
    pub fn latest(&self) -> Option<f64> {
        self.values.back().copied()
    }

    /// Oldest held sample.
    pub fn oldest(&self) -> Option<f64> {
        self.values.front().copied()
    }

    /// Minimum of the held samples.
    pub fn min(&self) -> Option<f64> {
        self.values
            .iter()
            .copied()
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.min(x))))
    }

    /// Maximum of the held samples.
    pub fn max(&self) -> Option<f64> {
        self.values
            .iter()
            .copied()
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Iterates over held samples from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().copied()
    }

    /// Relative drop of the latest sample versus the window mean, in `[0, 1]`.
    /// Returns 0.0 when the window is empty or the mean is non-positive.
    pub fn relative_drop(&self) -> f64 {
        let mean = self.mean();
        match self.latest() {
            Some(latest) if mean > 0.0 => ((mean - latest) / mean).max(0.0),
            _ => 0.0,
        }
    }
}

/// Computes the `q`-quantile (0.0–1.0) of a sample set using linear
/// interpolation. Returns `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Weighted mean of `(value, weight)` pairs; returns `None` if the total
/// weight is zero. Used for the weighted-average scheduling time (Fig. 12).
pub fn weighted_mean(pairs: &[(f64, f64)]) -> Option<f64> {
    let total_w: f64 = pairs.iter().map(|(_, w)| *w).sum();
    if total_w <= 0.0 {
        return None;
    }
    Some(pairs.iter().map(|(v, w)| v * w).sum::<f64>() / total_w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert!((s.std_dev() - 2.0).abs() < 1e-9);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn online_stats_merge_matches_combined() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for (i, &x) in data.iter().enumerate() {
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn sliding_window_eviction() {
        let mut w = SlidingWindow::new(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.oldest(), Some(2.0));
        assert_eq!(w.latest(), Some(4.0));
        assert!((w.mean() - 3.0).abs() < 1e-9);
        assert!(w.is_full());
    }

    #[test]
    fn sliding_window_relative_drop() {
        let mut w = SlidingWindow::new(10);
        for _ in 0..9 {
            w.push(100.0);
        }
        w.push(50.0);
        let drop = w.relative_drop();
        assert!(drop > 0.4 && drop < 0.55, "drop = {drop}");
    }

    #[test]
    fn sliding_window_min_max() {
        let mut w = SlidingWindow::new(4);
        assert_eq!(w.min(), None);
        for x in [5.0, 1.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.min(), Some(1.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "capacity must be > 0")]
    fn sliding_window_zero_capacity_panics() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert!((percentile(&v, 0.5).unwrap() - 2.5).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn weighted_mean_basic() {
        let pairs = [(10.0, 1.0), (20.0, 3.0)];
        assert!((weighted_mean(&pairs).unwrap() - 17.5).abs() < 1e-9);
        assert_eq!(weighted_mean(&[]), None);
        assert_eq!(weighted_mean(&[(5.0, 0.0)]), None);
    }
}
