//! Proactive real-time checks (§4.1, Table 3).
//!
//! The monitor runs lightweight inspection threads at second-level intervals
//! against network-side, GPU-side and host-side items. Different components
//! have different inspection intervals and alert thresholds; Table 3 reports
//! the resulting detection times and compares them with a timeout-only
//! baseline.
//!
//! That table is the whole detection model of the reproduction: the
//! controller charges every incident
//! [`Monitor::detection_time_with_inspection`] for its symptom. Detection
//! reads no heartbeat and no workload metric (the lifecycle's MFU and loss
//! series are report output only), so the entries for faults the paper
//! catches by metric rules (hangs, MFU decline) are fixed latencies here.

use std::sync::Arc;

use byterobust_cluster::{FaultKind, HealthIssue, HealthReport, Machine, MachineId};
use byterobust_sim::{SimDuration, SimTime};

/// Network-side inspection interval (Table 3: 30 s).
const NETWORK_INTERVAL: SimDuration = SimDuration::from_secs(30);
/// GPU-side inspection interval (Table 3: 10 s).
const GPU_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// Host-side inspection interval (Table 3: 2 s).
const HOST_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// Consecutive unresponsive events before a switch is declared down
/// (§8.1.1; NIC issues act on the first).
const SWITCH_ALERTS_REQUIRED: u64 = 2;
/// The timeout-only baseline: the PyTorch-distributed collective timeout
/// (~10 minutes, Table 3 "w/o Inspection").
const BASELINE_TIMEOUT: SimDuration = SimDuration::from_mins(10);
/// The metric-alert baseline interval for performance issues (statistics
/// over several training iterations, Table 3).
const BASELINE_MONITOR_INTERVAL: SimDuration = SimDuration::from_mins(5);

/// One finding from an inspection sweep, attributed to a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InspectionFinding {
    /// Machine the issue was found on.
    pub machine: MachineId,
    /// The issue.
    pub issue: HealthIssue,
    /// When it was detected.
    pub at: SimTime,
}

/// The monitor sub-module of the Robust Agent.
#[derive(Debug, Clone)]
pub struct Monitor {
    /// Machines flagged by the fleet's repeat-offender ledger (sorted):
    /// machines with prior incident history across jobs, for which the
    /// eviction threshold is lowered (§9 repeated-occurrence heuristics). The
    /// fleet runner refreshes this set from recorded cross-job incident data;
    /// solo jobs leave it empty. Held behind an `Arc` so a fleet can publish
    /// one set to every job's monitor with a pointer copy instead of cloning
    /// the vector per job per incident.
    repeat_offenders: Arc<[MachineId]>,
}

impl Monitor {
    /// Creates a monitor with an empty repeat-offender set.
    pub fn new() -> Self {
        Monitor {
            repeat_offenders: Arc::from(Vec::new()),
        }
    }

    /// Adopts an already-shared offender set (sorted, deduplicated) without
    /// copying it — the fleet runner's per-incident publish path.
    ///
    /// # Panics
    /// Debug-asserts that the slice is sorted (the binary-searched membership
    /// check relies on it).
    pub fn set_repeat_offenders_shared(&mut self, machines: Arc<[MachineId]>) {
        debug_assert!(
            machines.windows(2).all(|pair| pair[0] < pair[1]),
            "shared repeat-offender set must be sorted and deduplicated"
        );
        self.repeat_offenders = machines;
    }

    /// Whether a machine has been flagged as a repeat offender.
    pub fn is_repeat_offender(&self, machine: MachineId) -> bool {
        self.repeat_offenders.binary_search(&machine).is_ok()
    }

    /// Runs one inspection sweep over a set of machines at time `now`.
    pub fn inspect(&self, machines: &[&Machine], now: SimTime) -> Vec<InspectionFinding> {
        let mut findings = Vec::new();
        for machine in machines {
            let report = HealthReport::inspect(machine);
            for issue in report.issues {
                findings.push(InspectionFinding {
                    machine: machine.id,
                    issue,
                    at: now,
                });
            }
        }
        findings
    }

    /// Detection latency for an infrastructure fault *with* inspections
    /// enabled: the inspection interval of the item's category times the
    /// number of consecutive alerts required (Table 3, "w/ Inspection").
    pub fn detection_time_with_inspection(&self, kind: FaultKind) -> SimDuration {
        use FaultKind::*;
        match kind {
            InfinibandError => NETWORK_INTERVAL,
            GpuUnavailable | GpuMemoryError => GPU_INTERVAL,
            OsKernelPanic | FilesystemMount | InsufficientDiskSpace | DiskFault => HOST_INTERVAL,
            CpuOverload | CpuOom | ContainerError | ExternalServiceError | HdfsError => {
                HOST_INTERVAL.mul(2)
            }
            // Errors raised by the training process itself (CUDA errors, NaN)
            // surface through log collection within about a minute (§2.2).
            CudaError | NanValue => SimDuration::from_secs(60),
            // The paper catches hangs and MFU decline with metric rules (zero
            // RDMA traffic for 10 minutes, the MFU-decline window); this model
            // charges those windows directly.
            JobHang => SimDuration::from_mins(10),
            MfuDecline => BASELINE_MONITOR_INTERVAL,
            CodeDataAdjustment => SimDuration::ZERO,
        }
    }

    /// Detection latency for the same fault with inspections disabled: the
    /// job only notices when the collective-communication timeout fires or
    /// when enough training-iteration statistics accumulate (Table 3,
    /// "w/o Inspection").
    pub fn detection_time_without_inspection(&self, kind: FaultKind) -> SimDuration {
        use FaultKind::*;
        match kind {
            MfuDecline => BASELINE_MONITOR_INTERVAL.mul(3),
            CodeDataAdjustment => SimDuration::ZERO,
            CudaError | NanValue => SimDuration::from_secs(60),
            // Everything that stalls collectives waits for the NCCL/PyTorch
            // timeout (the paper quotes 10-minute defaults, and 30–60 minute
            // NCCL timeouts in older deployments).
            _ => BASELINE_TIMEOUT,
        }
    }

    /// Detection latency for a network switch failure (requires two
    /// consecutive unresponsive events, §8.1.1).
    pub fn switch_down_detection_time(&self) -> SimDuration {
        NETWORK_INTERVAL.mul(SWITCH_ALERTS_REQUIRED)
    }
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_cluster::{Cluster, ClusterSpec, NicState};
    use byterobust_sim::SimTime;

    #[test]
    fn table3_detection_times_with_inspection() {
        let monitor = Monitor::new();
        assert_eq!(
            monitor.detection_time_with_inspection(FaultKind::InfinibandError),
            SimDuration::from_secs(30)
        );
        assert_eq!(
            monitor.detection_time_with_inspection(FaultKind::GpuUnavailable),
            SimDuration::from_secs(10)
        );
        assert_eq!(
            monitor.detection_time_with_inspection(FaultKind::OsKernelPanic),
            SimDuration::from_secs(2)
        );
        assert_eq!(
            monitor.switch_down_detection_time(),
            SimDuration::from_secs(60)
        );
    }

    #[test]
    fn inspection_always_beats_timeout_baseline() {
        let monitor = Monitor::new();
        for kind in byterobust_cluster::FaultKind::ALL {
            let with = monitor.detection_time_with_inspection(kind);
            let without = monitor.detection_time_without_inspection(kind);
            assert!(with <= without, "{kind:?}: {with} > {without}");
        }
    }

    #[test]
    fn inspection_finds_broken_machines() {
        let mut cluster = Cluster::build(ClusterSpec::small_test());
        cluster.machine_mut(MachineId(3)).nic = NicState::Down;
        cluster.machine_mut(MachineId(6)).gpu_mut(0).mark_lost();
        let monitor = Monitor::new();
        let machines: Vec<&Machine> = cluster.machines().iter().collect();
        let findings = monitor.inspect(&machines, SimTime::from_secs(30));
        let affected: Vec<MachineId> = findings.iter().map(|f| f.machine).collect();
        assert!(affected.contains(&MachineId(3)));
        assert!(affected.contains(&MachineId(6)));
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.issue == HealthIssue::GpuLost)
                .count(),
            1
        );
    }

    #[test]
    fn healthy_cluster_has_no_findings() {
        let cluster = Cluster::build(ClusterSpec::small_test());
        let monitor = Monitor::new();
        let machines: Vec<&Machine> = cluster.machines().iter().collect();
        assert!(monitor.inspect(&machines, SimTime::ZERO).is_empty());
    }

    #[test]
    fn repeat_offender_set_is_sorted_and_queryable() {
        let mut monitor = Monitor::new();
        assert!(!monitor.is_repeat_offender(MachineId(3)));
        // The fleet publish path: adopt an already-shared sorted set.
        let shared: Arc<[MachineId]> = vec![MachineId(1), MachineId(7)].into();
        monitor.set_repeat_offenders_shared(shared.clone());
        assert_eq!(monitor.repeat_offenders.as_ref(), shared.as_ref());
        assert!(monitor.is_repeat_offender(MachineId(1)));
        assert!(monitor.is_repeat_offender(MachineId(7)));
        assert!(!monitor.is_repeat_offender(MachineId(2)));
        monitor.set_repeat_offenders_shared(Arc::from(Vec::new()));
        assert!(!monitor.is_repeat_offender(MachineId(7)));
    }
}
