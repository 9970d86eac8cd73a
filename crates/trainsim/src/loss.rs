//! Loss-trajectory model.
//!
//! The monitor treats the training loss and gradient norm as workload-specific
//! metrics: a 5× jump or a NaN is a fault signal (§4.1). Fig. 2 additionally
//! shows that after a manual restart the loss curve is expected to be bit-wise
//! aligned with the pre-restart run (training is rolled back a few steps to
//! verify engineering changes). This module provides the deterministic
//! smooth loss curve, a pure function of the step, so a rolled-back run
//! retraces it bit for bit.

// The pretraining curve: loss ≈ FLOOR + SCALE * (step + OFFSET)^-ALPHA, the
// power-law shape of Fig. 2's loss trajectory.

/// Irreducible loss floor.
const FLOOR: f64 = 1.7;
/// Scale of the power-law term.
const SCALE: f64 = 9.0;
/// Power-law exponent.
const ALPHA: f64 = 0.32;
/// Horizontal offset avoiding a singularity at step 0.
const OFFSET: f64 = 40.0;
/// Amplitude of the deterministic pseudo-noise added to the curve.
const NOISE_AMPLITUDE: f64 = 0.01;

/// Deterministic pseudo-noise in `[-1, 1]` for a step (a cheap hash so the
/// curve is reproducible without carrying an RNG).
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

/// Pretraining loss at a given optimizer step under normal training.
pub fn loss_at(step: u64) -> f64 {
    let base = FLOOR + SCALE * (step as f64 + OFFSET).powf(-ALPHA);
    base + NOISE_AMPLITUDE * noise(step) * base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_decreases_monotonically_in_trend() {
        // Compare window means rather than single points (noise is injected).
        let early: f64 = (0..100).map(loss_at).sum::<f64>() / 100.0;
        let mid: f64 = (5_000..5_100).map(loss_at).sum::<f64>() / 100.0;
        let late: f64 = (50_000..50_100).map(loss_at).sum::<f64>() / 100.0;
        assert!(early > mid && mid > late, "{early} {mid} {late}");
        assert!(late > FLOOR);
    }

    #[test]
    fn loss_is_deterministic_and_bitwise_reproducible() {
        for step in [0u64, 17, 1_000, 123_456] {
            assert_eq!(loss_at(step).to_bits(), loss_at(step).to_bits());
        }
    }

    #[test]
    fn noise_is_bounded() {
        for step in 0..2_000u64 {
            let base = FLOOR + SCALE * (step as f64 + OFFSET).powf(-ALPHA);
            let actual = loss_at(step);
            assert!((actual - base).abs() <= NOISE_AMPLITUDE * base * 1.001);
        }
    }
}
