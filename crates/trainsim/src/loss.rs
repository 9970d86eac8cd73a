//! Loss-trajectory model.
//!
//! The monitor treats the training loss and gradient norm as workload-specific
//! metrics: a 5× jump or a NaN is a fault signal (§4.1). Fig. 2 additionally
//! shows that after a manual restart the loss curve is expected to be bit-wise
//! aligned with the pre-restart run (training is rolled back a few steps to
//! verify engineering changes). This module provides a deterministic smooth
//! loss curve with controllable spike / NaN / divergence injection so both
//! behaviours can be reproduced.

/// Deterministic loss and gradient-norm curves as a function of the training
/// step, with fault-injection hooks.
#[derive(Debug, Clone, PartialEq)]
pub struct LossModel {
    /// Irreducible loss floor.
    pub floor: f64,
    /// Scale of the power-law term.
    pub scale: f64,
    /// Power-law exponent (loss ≈ floor + scale * (step + offset)^-alpha).
    pub alpha: f64,
    /// Horizontal offset avoiding a singularity at step 0.
    pub offset: f64,
    /// Amplitude of the deterministic pseudo-noise added to the curve.
    pub noise_amplitude: f64,
}

impl Default for LossModel {
    fn default() -> Self {
        LossModel {
            floor: 1.7,
            scale: 9.0,
            alpha: 0.32,
            offset: 40.0,
            noise_amplitude: 0.01,
        }
    }
}

impl LossModel {
    /// Creates the default pretraining loss curve.
    pub fn pretraining() -> Self {
        Self::default()
    }

    /// Deterministic pseudo-noise in `[-1, 1]` for a step (a cheap hash so
    /// the curve is reproducible without carrying an RNG).
    fn noise(step: u64) -> f64 {
        let mut x = step
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xDEAD_BEEF);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        // Map to [-1, 1].
        (x as f64 / u64::MAX as f64) * 2.0 - 1.0
    }

    /// Loss at a given optimizer step under normal training.
    pub fn loss_at(&self, step: u64) -> f64 {
        let base = self.floor + self.scale * (step as f64 + self.offset).powf(-self.alpha);
        base + self.noise_amplitude * Self::noise(step) * base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_decreases_monotonically_in_trend() {
        let m = LossModel::pretraining();
        // Compare window means rather than single points (noise is injected).
        let early: f64 = (0..100).map(|s| m.loss_at(s)).sum::<f64>() / 100.0;
        let mid: f64 = (5_000..5_100).map(|s| m.loss_at(s)).sum::<f64>() / 100.0;
        let late: f64 = (50_000..50_100).map(|s| m.loss_at(s)).sum::<f64>() / 100.0;
        assert!(early > mid && mid > late, "{early} {mid} {late}");
        assert!(late > m.floor);
    }

    #[test]
    fn loss_is_deterministic_and_bitwise_reproducible() {
        let m = LossModel::pretraining();
        for step in [0u64, 17, 1_000, 123_456] {
            assert_eq!(m.loss_at(step).to_bits(), m.loss_at(step).to_bits());
        }
    }

    #[test]
    fn noise_is_bounded() {
        let m = LossModel::pretraining();
        for step in 0..2_000u64 {
            let base = m.floor + m.scale * (step as f64 + m.offset).powf(-m.alpha);
            let actual = m.loss_at(step);
            assert!((actual - base).abs() <= m.noise_amplitude * base * 1.001);
        }
    }
}
