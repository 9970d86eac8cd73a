//! Machine health reports: what the per-pod inspection threads see.
//!
//! The monitor (§4.1) runs lightweight system health queries at second-level
//! intervals covering network-side, GPU-side and host-side items. A
//! [`HealthReport`] is the result of one such sweep over one machine; it lists
//! concrete [`HealthIssue`]s found so the agent can decide whether to raise a
//! warning to the controller.

use crate::gpu::Gpu;
use crate::machine::{Machine, NicState};

/// A single anomalous finding from an inspection sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthIssue {
    /// RDMA NIC is down.
    NicDown,
    /// RDMA NIC is flapping (intermittent).
    NicFlapping,
    /// A GPU no longer responds to DCGM queries.
    DcgmUnresponsive,
    /// A GPU is above the high-temperature threshold.
    GpuHighTemperature,
    /// A GPU has fallen off the bus.
    GpuLost,
    /// A GPU reports uncorrectable memory errors / is faulty.
    GpuFaulty,
    /// PCIe bandwidth measured well below nominal.
    PcieBandwidthLow,
    /// Growing number of remapped HBM rows.
    MemoryRowRemapping,
    /// Host kernel panic observed in dmesg.
    KernelPanic,
    /// Shared filesystem is not mounted.
    FilesystemUnmounted,
    /// Host disk nearly full.
    DiskAlmostFull,
    /// Host memory nearly exhausted.
    HostMemoryPressure,
    /// Host CPU persistently saturated.
    HostCpuOverload,
}

impl HealthIssue {
    /// Whether this finding by itself confidently identifies the machine as
    /// faulty, allowing immediate eviction without stop-time diagnostics
    /// (§4.1 step 1).
    pub fn is_high_confidence(self) -> bool {
        use HealthIssue::*;
        matches!(self, GpuLost | GpuFaulty | KernelPanic | DcgmUnresponsive)
    }

    /// Whether this finding is network-related; network alerts are tolerated
    /// a few times before eviction because they often self-recover.
    pub fn is_network(self) -> bool {
        matches!(self, HealthIssue::NicDown | HealthIssue::NicFlapping)
    }
}

/// Result of one inspection sweep over one machine.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Issues discovered, in detection order.
    pub issues: Vec<HealthIssue>,
}

impl HealthReport {
    /// Runs the full inspection sweep against a machine's current state.
    pub fn inspect(machine: &Machine) -> Self {
        let mut issues = Vec::new();

        // Network-side items.
        match machine.nic {
            NicState::Down => issues.push(HealthIssue::NicDown),
            NicState::Flapping => issues.push(HealthIssue::NicFlapping),
            NicState::Up => {}
        }

        // GPU-side items.
        for gpu in &machine.gpus {
            issues.extend(Self::inspect_gpu(gpu));
        }

        // Host-side items.
        if machine.host.kernel_panicked {
            issues.push(HealthIssue::KernelPanic);
        }
        if !machine.host.filesystem_mounted {
            issues.push(HealthIssue::FilesystemUnmounted);
        }
        if machine.host.free_disk_frac < 0.03 {
            issues.push(HealthIssue::DiskAlmostFull);
        }
        if machine.host.free_memory_frac < 0.03 {
            issues.push(HealthIssue::HostMemoryPressure);
        }
        if machine.host.cpu_utilization > 0.97 {
            issues.push(HealthIssue::HostCpuOverload);
        }

        HealthReport { issues }
    }

    fn inspect_gpu(gpu: &Gpu) -> Vec<HealthIssue> {
        use crate::gpu::GpuState;
        let mut issues = Vec::new();
        match gpu.state {
            GpuState::Lost => issues.push(HealthIssue::GpuLost),
            GpuState::Faulty => issues.push(HealthIssue::GpuFaulty),
            GpuState::Healthy | GpuState::Degraded => {}
        }
        if !gpu.dcgm_responsive && gpu.state != GpuState::Lost {
            issues.push(HealthIssue::DcgmUnresponsive);
        }
        if gpu.is_overheated() {
            issues.push(HealthIssue::GpuHighTemperature);
        }
        if gpu.pcie_bandwidth_frac < 0.5 {
            issues.push(HealthIssue::PcieBandwidthLow);
        }
        if gpu.remapped_rows > 8 {
            issues.push(HealthIssue::MemoryRowRemapping);
        }
        issues
    }

    /// Whether the sweep found nothing.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Whether any finding is high-confidence (justifies immediate eviction).
    pub fn has_high_confidence_issue(&self) -> bool {
        self.issues.iter().any(|i| i.is_high_confidence())
    }

    /// Whether all findings are network-related.
    pub fn is_network_only(&self) -> bool {
        !self.issues.is_empty() && self.issues.iter().all(|i| i.is_network())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MachineId, SwitchId};
    use crate::machine::Machine;

    fn machine() -> Machine {
        Machine::healthy(MachineId(1), SwitchId(0), 8)
    }

    #[test]
    fn healthy_machine_is_clean() {
        let report = HealthReport::inspect(&machine());
        assert!(report.is_clean());
        assert!(!report.has_high_confidence_issue());
    }

    #[test]
    fn lost_gpu_is_high_confidence() {
        let mut m = machine();
        m.gpu_mut(2).mark_lost();
        let report = HealthReport::inspect(&m);
        assert!(report.issues.contains(&HealthIssue::GpuLost));
        assert!(report.has_high_confidence_issue());
    }

    #[test]
    fn nic_issues_are_network_only() {
        let mut m = machine();
        m.nic = NicState::Flapping;
        let report = HealthReport::inspect(&m);
        assert!(report.is_network_only());
        assert!(!report.has_high_confidence_issue());
        m.nic = NicState::Down;
        let report = HealthReport::inspect(&m);
        assert!(report.issues.contains(&HealthIssue::NicDown));
        assert!(report.is_network_only());
    }

    #[test]
    fn overheated_gpu_detected() {
        let mut m = machine();
        m.gpu_mut(0).overheat(90.0);
        let report = HealthReport::inspect(&m);
        assert!(report.issues.contains(&HealthIssue::GpuHighTemperature));
        assert!(!report.has_high_confidence_issue());
    }

    #[test]
    fn host_issues_detected() {
        let mut m = machine();
        m.host.kernel_panicked = true;
        m.host.free_disk_frac = 0.01;
        m.host.cpu_utilization = 0.99;
        let report = HealthReport::inspect(&m);
        assert!(report.issues.contains(&HealthIssue::KernelPanic));
        assert!(report.issues.contains(&HealthIssue::DiskAlmostFull));
        assert!(report.issues.contains(&HealthIssue::HostCpuOverload));
        assert!(report.has_high_confidence_issue());
    }

    #[test]
    fn row_remapping_and_pcie_detected() {
        let mut m = machine();
        m.gpu_mut(1).remapped_rows = 20;
        m.gpu_mut(3).pcie_bandwidth_frac = 0.3;
        let report = HealthReport::inspect(&m);
        assert!(report.issues.contains(&HealthIssue::MemoryRowRemapping));
        assert!(report.issues.contains(&HealthIssue::PcieBandwidthLow));
    }

    #[test]
    fn sdc_prone_gpu_is_invisible_to_inspection() {
        let mut m = machine();
        m.gpu_mut(0).sdc_prone = true;
        let report = HealthReport::inspect(&m);
        assert!(
            report.is_clean(),
            "SDC must not be detectable by passive inspection"
        );
    }
}
