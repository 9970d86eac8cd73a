//! Per-GPU device state.
//!
//! The monitor's GPU-side inspections (§4.1) query DCGM status, PCIe
//! bandwidth, memory row remapping, and temperature. The diagnoser's EUD and
//! bit-wise-alignment checks (§4.2, §4.3) probe for broken HBM and silent data
//! corruption. This module models exactly the state those checks observe.

use crate::ids::GpuId;

/// Coarse operational state of a GPU as seen by the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuState {
    /// Operating normally.
    Healthy,
    /// Thermally throttled or down-clocked; produces correct results slowly
    /// (a gray failure / fail-slow source).
    Degraded,
    /// Returns errors on kernel launches (e.g. broken HBM, Xid errors).
    Faulty,
    /// Has fallen off the bus entirely ("GPU lost" / "GPU unavailable").
    Lost,
}

impl GpuState {
    /// Whether this state allows the GPU to participate in training at all.
    pub fn is_usable(self) -> bool {
        matches!(self, GpuState::Healthy | GpuState::Degraded)
    }
}

/// A single GPU device.
#[derive(Debug, Clone)]
pub struct Gpu {
    /// Identity (machine + slot).
    pub id: GpuId,
    /// Operational state.
    pub state: GpuState,
    /// Core temperature in Celsius. Normal operating range is roughly 45–75°C;
    /// the monitor's high-temperature inspection fires above
    /// [`Gpu::HIGH_TEMP_THRESHOLD_C`].
    pub temperature_c: f64,
    /// Number of HBM rows that have been remapped due to ECC errors. A rising
    /// count is an early indicator of memory failure.
    pub remapped_rows: u32,
    /// Whether the DCGM daemon on the host can still talk to this GPU.
    pub dcgm_responsive: bool,
    /// Measured PCIe/NVLink bandwidth as a fraction of nominal (1.0 = full).
    pub pcie_bandwidth_frac: f64,
    /// Whether this GPU is prone to silent data corruption. SDC-prone GPUs
    /// produce occasional incorrect results (NaN losses, wrong reductions)
    /// without raising any error — the hardest fault class in the paper (§9).
    pub sdc_prone: bool,
    /// Whether the GPU frequency lock is applied. The paper describes an
    /// incident where the EUD diagnostic lifted the lock and caused
    /// unexpected down-clocking (§9); we model that side effect.
    pub frequency_locked: bool,
}

impl Gpu {
    /// Temperature above which the monitor's GPU-side inspection raises a
    /// high-temperature warning (§8.1.1: detected within 10 s).
    pub const HIGH_TEMP_THRESHOLD_C: f64 = 85.0;

    /// Nominal healthy operating temperature.
    pub const NOMINAL_TEMP_C: f64 = 55.0;

    /// Creates a healthy GPU.
    pub fn healthy(id: GpuId) -> Self {
        Gpu {
            id,
            state: GpuState::Healthy,
            temperature_c: Self::NOMINAL_TEMP_C,
            remapped_rows: 0,
            dcgm_responsive: true,
            pcie_bandwidth_frac: 1.0,
            sdc_prone: false,
            frequency_locked: true,
        }
    }

    /// Whether the GPU currently triggers the high-temperature inspection.
    pub fn is_overheated(&self) -> bool {
        self.temperature_c >= Self::HIGH_TEMP_THRESHOLD_C
    }

    /// Whether the GPU is usable for training (healthy or merely degraded).
    pub fn is_usable(&self) -> bool {
        self.state.is_usable()
    }

    /// Effective relative throughput of this GPU (1.0 = full speed). Thermal
    /// throttling and lifted frequency locks reduce it; unusable GPUs
    /// contribute zero.
    pub fn relative_throughput(&self) -> f64 {
        if !self.is_usable() {
            return 0.0;
        }
        let mut factor: f64 = 1.0;
        if self.is_overheated() {
            factor *= 0.6;
        } else if self.state == GpuState::Degraded {
            factor *= 0.75;
        }
        if !self.frequency_locked {
            factor *= 0.85;
        }
        factor *= self.pcie_bandwidth_frac.clamp(0.0, 1.0).max(0.3);
        factor.clamp(0.0, 1.0)
    }

    /// Marks the GPU as thermally throttled at the given temperature.
    pub fn overheat(&mut self, temperature_c: f64) {
        self.temperature_c = temperature_c;
        if self.state == GpuState::Healthy {
            self.state = GpuState::Degraded;
        }
    }

    /// Marks the GPU as having fallen off the bus.
    pub fn mark_lost(&mut self) {
        self.state = GpuState::Lost;
        self.dcgm_responsive = false;
    }

    /// Marks the GPU as faulty (e.g. uncorrectable ECC / broken HBM).
    pub fn mark_faulty(&mut self) {
        self.state = GpuState::Faulty;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MachineId;

    fn gpu() -> Gpu {
        Gpu::healthy(GpuId::new(MachineId(0), 0))
    }

    #[test]
    fn healthy_gpu_is_usable_full_speed() {
        let g = gpu();
        assert!(g.is_usable());
        assert!(!g.is_overheated());
        assert!((g.relative_throughput() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overheating_degrades_throughput() {
        let mut g = gpu();
        g.overheat(92.0);
        assert!(g.is_overheated());
        assert!(g.is_usable());
        assert!(g.relative_throughput() < 0.7);
    }

    #[test]
    fn lost_gpu_is_unusable() {
        let mut g = gpu();
        g.mark_lost();
        assert!(!g.is_usable());
        assert_eq!(g.relative_throughput(), 0.0);
        assert!(!g.dcgm_responsive);
    }

    #[test]
    fn faulty_gpu_is_unusable() {
        let mut g = gpu();
        g.mark_faulty();
        assert!(!g.is_usable());
    }

    #[test]
    fn lifted_frequency_lock_slows_gpu() {
        let mut g = gpu();
        g.frequency_locked = false;
        assert!(g.relative_throughput() < 1.0);
        assert!(g.relative_throughput() > 0.5);
    }

    #[test]
    fn state_usability() {
        assert!(GpuState::Healthy.is_usable());
        assert!(GpuState::Degraded.is_usable());
        assert!(!GpuState::Faulty.is_usable());
        assert!(!GpuState::Lost.is_usable());
    }
}
