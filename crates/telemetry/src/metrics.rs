//! Workload and system metric series.

use std::collections::HashMap;

use byterobust_sim::SimTime;

/// The metrics the monitor collects continuously (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Training loss.
    Loss,
    /// Gradient norm.
    GradNorm,
    /// Model FLOPs utilization.
    Mfu,
    /// Aggregate RDMA traffic (fraction of nominal).
    RdmaTraffic,
    /// TensorCore utilization (fraction of nominal).
    TensorCoreUtil,
    /// Per-machine maximum GPU temperature in Celsius.
    GpuTemperature,
    /// Tokens per second throughput.
    TokensPerSecond,
}

impl MetricKind {
    /// All metric kinds.
    pub const ALL: [MetricKind; 7] = [
        MetricKind::Loss,
        MetricKind::GradNorm,
        MetricKind::Mfu,
        MetricKind::RdmaTraffic,
        MetricKind::TensorCoreUtil,
        MetricKind::GpuTemperature,
        MetricKind::TokensPerSecond,
    ];
}

/// A single timestamped metric sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricPoint {
    /// When the sample was taken.
    pub at: SimTime,
    /// Sample value.
    pub value: f64,
}

/// In-memory metric store (the reproduction's stand-in for wandb).
#[derive(Debug, Clone, Default)]
pub struct MetricStore {
    series: HashMap<MetricKind, Vec<MetricPoint>>,
}

impl MetricStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample. Samples must be recorded in non-decreasing time
    /// order per metric.
    pub fn record(&mut self, kind: MetricKind, at: SimTime, value: f64) {
        let series = self.series.entry(kind).or_default();
        if let Some(last) = series.last() {
            assert!(
                at >= last.at,
                "metric samples must be recorded in time order"
            );
        }
        series.push(MetricPoint { at, value });
    }

    /// All samples of a metric, oldest first.
    pub fn series(&self, kind: MetricKind) -> &[MetricPoint] {
        self.series.get(&kind).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The most recent sample of a metric.
    pub fn latest(&self, kind: MetricKind) -> Option<MetricPoint> {
        self.series(kind).last().copied()
    }

    /// The most recent `n` values of a metric, oldest first.
    pub fn last_n(&self, kind: MetricKind, n: usize) -> Vec<f64> {
        let s = self.series(kind);
        s[s.len().saturating_sub(n)..]
            .iter()
            .map(|p| p.value)
            .collect()
    }

    /// Samples of a metric within the window `(since, until]`.
    pub fn window(&self, kind: MetricKind, since: SimTime, until: SimTime) -> Vec<MetricPoint> {
        self.series(kind)
            .iter()
            .filter(|p| p.at > since && p.at <= until)
            .copied()
            .collect()
    }

    /// Mean of the metric over the window `(since, until]`, if any samples.
    pub fn window_mean(&self, kind: MetricKind, since: SimTime, until: SimTime) -> Option<f64> {
        let points = self.window(kind, since, until);
        if points.is_empty() {
            return None;
        }
        Some(points.iter().map(|p| p.value).sum::<f64>() / points.len() as f64)
    }

    /// Total number of stored samples across all metrics.
    pub fn total_samples(&self) -> usize {
        self.series.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut store = MetricStore::new();
        for i in 0..10u64 {
            store.record(MetricKind::Loss, SimTime::from_secs(i), 10.0 - i as f64);
        }
        assert_eq!(store.series(MetricKind::Loss).len(), 10);
        assert_eq!(store.latest(MetricKind::Loss).unwrap().value, 1.0);
        assert_eq!(store.last_n(MetricKind::Loss, 3), vec![3.0, 2.0, 1.0]);
        assert_eq!(store.series(MetricKind::Mfu).len(), 0);
        assert!(store.latest(MetricKind::Mfu).is_none());
        assert_eq!(store.total_samples(), 10);
    }

    #[test]
    fn window_queries() {
        let mut store = MetricStore::new();
        for i in 0..20u64 {
            store.record(MetricKind::Mfu, SimTime::from_secs(i * 10), 0.4);
        }
        let w = store.window(
            MetricKind::Mfu,
            SimTime::from_secs(50),
            SimTime::from_secs(100),
        );
        assert_eq!(w.len(), 5);
        assert_eq!(
            store.window_mean(
                MetricKind::Mfu,
                SimTime::from_secs(50),
                SimTime::from_secs(100)
            ),
            Some(0.4)
        );
        assert_eq!(
            store.window_mean(
                MetricKind::Mfu,
                SimTime::from_secs(1000),
                SimTime::from_secs(2000)
            ),
            None
        );
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_recording_panics() {
        let mut store = MetricStore::new();
        store.record(MetricKind::Loss, SimTime::from_secs(10), 1.0);
        store.record(MetricKind::Loss, SimTime::from_secs(5), 1.0);
    }

    #[test]
    fn last_n_larger_than_series() {
        let mut store = MetricStore::new();
        store.record(MetricKind::GradNorm, SimTime::ZERO, 2.0);
        assert_eq!(store.last_n(MetricKind::GradNorm, 10), vec![2.0]);
    }
}
