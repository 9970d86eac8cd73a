//! Workload-metric anomaly detection rules (§4.1).
//!
//! The monitor treats the following as fault signals:
//! * NaN loss or gradient-norm values,
//! * a ≥5× jump in loss or gradient norm,
//! * zero RDMA traffic sustained for ten minutes (job hang indicator),
//! * persistently low TensorCore utilization,
//! * MFU decline relative to the recent window (fail-slow indicator).

use byterobust_sim::{SimDuration, SimTime};

use crate::metrics::{MetricKind, MetricStore};

/// An anomaly derived from workload metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Anomaly {
    /// Loss or gradient norm became NaN.
    NanValue,
    /// Loss jumped by the given factor versus the recent baseline.
    LossSpike(f64),
    /// Gradient norm jumped by the given factor versus the recent baseline.
    GradNormSpike(f64),
    /// No RDMA traffic for at least the configured window (likely hang).
    ZeroRdmaTraffic,
    /// TensorCore utilization below threshold for the window (likely hang or
    /// severe degradation).
    LowTensorCoreUtil,
    /// MFU dropped by the given relative fraction versus the window mean
    /// (fail-slow).
    MfuDecline(f64),
}

/// Thresholds for the anomaly rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyDetectorConfig {
    /// Spike factor treated as anomalous for loss and gradient norm (paper: 5×).
    pub spike_factor: f64,
    /// How long RDMA traffic must be (near-)zero before flagging a hang
    /// (paper: 10 minutes).
    pub zero_traffic_window: SimDuration,
    /// TensorCore utilization below which the job is considered stalled.
    pub low_tensorcore_threshold: f64,
    /// Relative MFU drop versus the window mean treated as fail-slow.
    pub mfu_decline_threshold: f64,
    /// Number of recent samples forming the baseline window.
    pub baseline_samples: usize,
}

impl Default for AnomalyDetectorConfig {
    fn default() -> Self {
        AnomalyDetectorConfig {
            spike_factor: 5.0,
            zero_traffic_window: SimDuration::from_mins(10),
            low_tensorcore_threshold: 0.05,
            mfu_decline_threshold: 0.30,
            baseline_samples: 20,
        }
    }
}

/// Stateless detector applying the rules to a [`MetricStore`].
#[derive(Debug, Clone, Default)]
pub struct AnomalyDetector {
    /// Rule thresholds.
    pub config: AnomalyDetectorConfig,
}

impl AnomalyDetector {
    /// Creates a detector with default thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a detector with custom thresholds.
    pub fn with_config(config: AnomalyDetectorConfig) -> Self {
        AnomalyDetector { config }
    }

    /// Evaluates all rules at time `now` and returns every anomaly found.
    pub fn check(&self, metrics: &MetricStore, now: SimTime) -> Vec<Anomaly> {
        let mut anomalies = Vec::new();

        // NaN detection on loss and grad norm.
        for kind in [MetricKind::Loss, MetricKind::GradNorm] {
            if let Some(latest) = metrics.latest(kind) {
                if latest.value.is_nan() {
                    anomalies.push(Anomaly::NanValue);
                    break;
                }
            }
        }

        // Spike detection: latest vs mean of previous window.
        if let Some(factor) = self.spike_factor_for(metrics, MetricKind::Loss) {
            if factor >= self.config.spike_factor {
                anomalies.push(Anomaly::LossSpike(factor));
            }
        }
        if let Some(factor) = self.spike_factor_for(metrics, MetricKind::GradNorm) {
            if factor >= self.config.spike_factor {
                anomalies.push(Anomaly::GradNormSpike(factor));
            }
        }

        // Zero RDMA traffic sustained for the window.
        if self.sustained_below(metrics, MetricKind::RdmaTraffic, 1e-6, now) {
            anomalies.push(Anomaly::ZeroRdmaTraffic);
        }

        // Low TensorCore utilization sustained for the window.
        if self.sustained_below(
            metrics,
            MetricKind::TensorCoreUtil,
            self.config.low_tensorcore_threshold,
            now,
        ) {
            anomalies.push(Anomaly::LowTensorCoreUtil);
        }

        // MFU decline versus window mean.
        let mfu_values = metrics.last_n(MetricKind::Mfu, self.config.baseline_samples);
        if mfu_values.len() >= 4 {
            let latest = *mfu_values.last().expect("non-empty");
            let baseline: f64 = mfu_values[..mfu_values.len() - 1].iter().sum::<f64>()
                / (mfu_values.len() - 1) as f64;
            if baseline > 0.0 {
                let drop = (baseline - latest) / baseline;
                if drop >= self.config.mfu_decline_threshold {
                    anomalies.push(Anomaly::MfuDecline(drop));
                }
            }
        }

        anomalies
    }

    /// Ratio of the latest sample to the mean of the preceding baseline
    /// window, ignoring NaNs.
    fn spike_factor_for(&self, metrics: &MetricStore, kind: MetricKind) -> Option<f64> {
        let values = metrics.last_n(kind, self.config.baseline_samples);
        if values.len() < 4 {
            return None;
        }
        let latest = *values.last().expect("non-empty");
        if latest.is_nan() {
            return None;
        }
        let baseline: Vec<f64> = values[..values.len() - 1]
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .collect();
        if baseline.is_empty() {
            return None;
        }
        let mean = baseline.iter().sum::<f64>() / baseline.len() as f64;
        if mean <= 0.0 {
            return None;
        }
        Some(latest / mean)
    }

    /// Whether every sample of the metric within the zero-traffic window is
    /// below `threshold`, and the window actually contains samples covering
    /// its whole span.
    fn sustained_below(
        &self,
        metrics: &MetricStore,
        kind: MetricKind,
        threshold: f64,
        now: SimTime,
    ) -> bool {
        let window_start = now.saturating_since(SimTime::ZERO);
        let since = if window_start > self.config.zero_traffic_window {
            now - self.config.zero_traffic_window
        } else {
            SimTime::ZERO
        };
        // Require the series to have started before the window to avoid firing
        // at job start.
        let series = metrics.series(kind);
        let Some(first) = series.first() else {
            return false;
        };
        if first.at > since {
            return false;
        }
        let in_window = metrics.window(kind, since, now);
        !in_window.is_empty() && in_window.iter().all(|p| p.value < threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populate_healthy(store: &mut MetricStore, steps: u64) {
        for i in 0..steps {
            let t = SimTime::from_secs(i * 30);
            store.record(MetricKind::Loss, t, 2.5 - 0.001 * i as f64);
            store.record(MetricKind::GradNorm, t, 1.2);
            store.record(MetricKind::Mfu, t, 0.42);
            store.record(MetricKind::RdmaTraffic, t, 0.95);
            store.record(MetricKind::TensorCoreUtil, t, 0.7);
        }
    }

    #[test]
    fn healthy_metrics_raise_nothing() {
        let mut store = MetricStore::new();
        populate_healthy(&mut store, 50);
        let detector = AnomalyDetector::new();
        assert!(detector
            .check(&store, SimTime::from_secs(50 * 30))
            .is_empty());
    }

    #[test]
    fn nan_loss_detected() {
        let mut store = MetricStore::new();
        populate_healthy(&mut store, 20);
        store.record(MetricKind::Loss, SimTime::from_secs(20 * 30), f64::NAN);
        let detector = AnomalyDetector::new();
        let anomalies = detector.check(&store, SimTime::from_secs(20 * 30));
        assert!(anomalies.contains(&Anomaly::NanValue));
    }

    #[test]
    fn loss_spike_detected_at_5x() {
        let mut store = MetricStore::new();
        populate_healthy(&mut store, 20);
        store.record(MetricKind::Loss, SimTime::from_secs(20 * 30), 2.5 * 6.0);
        let detector = AnomalyDetector::new();
        let anomalies = detector.check(&store, SimTime::from_secs(20 * 30));
        assert!(anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::LossSpike(f) if *f > 5.0)));
    }

    #[test]
    fn small_loss_bump_not_flagged() {
        let mut store = MetricStore::new();
        populate_healthy(&mut store, 20);
        store.record(MetricKind::Loss, SimTime::from_secs(20 * 30), 2.5 * 2.0);
        let detector = AnomalyDetector::new();
        assert!(detector
            .check(&store, SimTime::from_secs(20 * 30))
            .is_empty());
    }

    #[test]
    fn zero_rdma_traffic_requires_full_window() {
        let mut store = MetricStore::new();
        let detector = AnomalyDetector::new();
        // 20 healthy samples every 30s, then traffic goes to zero.
        populate_healthy(&mut store, 20);
        let hang_start = 20 * 30;
        for i in 0..25u64 {
            let t = SimTime::from_secs(hang_start + i * 30);
            store.record(MetricKind::RdmaTraffic, t, 0.0);
            store.record(MetricKind::TensorCoreUtil, t, 0.0);
        }
        // 5 minutes into the hang: not yet flagged (window is 10 minutes).
        let at_5min = SimTime::from_secs(hang_start + 300);
        let anomalies = detector.check(&store, at_5min);
        assert!(!anomalies.contains(&Anomaly::ZeroRdmaTraffic));
        // 12 minutes into the hang: flagged.
        let at_12min = SimTime::from_secs(hang_start + 720);
        let anomalies = detector.check(&store, at_12min);
        assert!(anomalies.contains(&Anomaly::ZeroRdmaTraffic));
        assert!(anomalies.contains(&Anomaly::LowTensorCoreUtil));
    }

    #[test]
    fn mfu_decline_detected() {
        let mut store = MetricStore::new();
        populate_healthy(&mut store, 20);
        store.record(MetricKind::Mfu, SimTime::from_secs(20 * 30), 0.42 * 0.5);
        let detector = AnomalyDetector::new();
        let anomalies = detector.check(&store, SimTime::from_secs(20 * 30));
        assert!(anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::MfuDecline(d) if *d > 0.3)));
    }

    #[test]
    fn grad_norm_spike_detected() {
        let mut store = MetricStore::new();
        populate_healthy(&mut store, 20);
        store.record(
            MetricKind::GradNorm,
            SimTime::from_secs(20 * 30),
            1.2 * 10.0,
        );
        let detector = AnomalyDetector::new();
        let anomalies = detector.check(&store, SimTime::from_secs(20 * 30));
        assert!(anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::GradNormSpike(_))));
    }

    #[test]
    fn empty_store_is_quiet() {
        let detector = AnomalyDetector::new();
        assert!(detector
            .check(&MetricStore::new(), SimTime::from_hours(1))
            .is_empty());
    }
}
