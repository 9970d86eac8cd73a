//! Selective stress testing — the prior-practice baseline of Table 6.
//!
//! Before automated fault tolerance, the common troubleshooting practice was
//! to run targeted stress tests (GPU burn-in, network saturation, storage
//! probes) guided by whatever indicators appear in logs and exit codes
//! (SuperBench-style). Table 6 compares ByteRobust's resolution time against
//! this baseline; for symptoms caused by human mistakes the stress tests
//! never localize the fault at all (reported as `INF` in the paper).

use byterobust_cluster::{FaultKind, RootCause};
use byterobust_sim::SimDuration;

/// The selective stress-testing baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectiveStressTester;

impl SelectiveStressTester {
    /// Creates the baseline tester.
    pub fn new() -> Self {
        SelectiveStressTester
    }

    /// Time for the guided stress tests to localize the fault and allow a
    /// restart, or `None` when the baseline cannot localize it at all
    /// (user-code bugs, storage-service errors and manual adjustments have no
    /// corresponding hardware stress test).
    ///
    /// The durations follow the "Selective" column of Table 6.
    pub fn resolution_time(&self, kind: FaultKind, root_cause: RootCause) -> Option<SimDuration> {
        use FaultKind::*;
        // Human mistakes are invisible to hardware stress testing.
        if root_cause == RootCause::UserCode || root_cause == RootCause::Human {
            return None;
        }
        match kind {
            CudaError => Some(SimDuration::from_secs(518)),
            InfinibandError => Some(SimDuration::from_secs(288)),
            HdfsError => None,
            OsKernelPanic => Some(SimDuration::from_secs(168)),
            GpuMemoryError => Some(SimDuration::from_secs(600)),
            NanValue => Some(SimDuration::from_secs(7_200)),
            GpuUnavailable => Some(SimDuration::from_secs(120)),
            CodeDataAdjustment => None,
            // Other symptoms: assume a generic machine stress sweep.
            CpuOverload
            | CpuOom
            | InsufficientDiskSpace
            | FilesystemMount
            | ContainerError
            | ExternalServiceError
            | DiskFault => Some(SimDuration::from_secs(400)),
            JobHang => Some(SimDuration::from_secs(1_800)),
            MfuDecline => Some(SimDuration::from_secs(3_600)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_baseline_values() {
        let t = SelectiveStressTester::new();
        assert_eq!(
            t.resolution_time(FaultKind::CudaError, RootCause::Infrastructure),
            Some(SimDuration::from_secs(518))
        );
        assert_eq!(
            t.resolution_time(FaultKind::InfinibandError, RootCause::Infrastructure),
            Some(SimDuration::from_secs(288))
        );
        assert_eq!(
            t.resolution_time(FaultKind::GpuUnavailable, RootCause::Infrastructure),
            Some(SimDuration::from_secs(120))
        );
        assert_eq!(
            t.resolution_time(FaultKind::NanValue, RootCause::Infrastructure),
            Some(SimDuration::from_secs(7_200))
        );
    }

    #[test]
    fn human_mistakes_are_unresolvable_by_stress_testing() {
        let t = SelectiveStressTester::new();
        assert_eq!(
            t.resolution_time(FaultKind::CudaError, RootCause::UserCode),
            None
        );
        assert_eq!(
            t.resolution_time(FaultKind::CodeDataAdjustment, RootCause::Human),
            None
        );
        assert_eq!(
            t.resolution_time(FaultKind::HdfsError, RootCause::Infrastructure),
            None
        );
    }

    #[test]
    fn infrastructure_symptoms_have_finite_times() {
        let t = SelectiveStressTester::new();
        for kind in [
            FaultKind::JobHang,
            FaultKind::MfuDecline,
            FaultKind::DiskFault,
        ] {
            assert!(t.resolution_time(kind, RootCause::Infrastructure).is_some());
        }
    }
}
