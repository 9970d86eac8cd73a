//! System events: CUDA, RDMA, host and storage events surfaced by the
//! inspection infrastructure (dmesg Xid entries, DCGM alerts, switch telemetry,
//! storage client errors).

use byterobust_cluster::MachineId;
use byterobust_sim::SimTime;

/// Kinds of system events the lifecycle driver taps into the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// NVIDIA Xid error reported in dmesg.
    XidError,
    /// CUDA runtime error reported by the training process.
    CudaRuntimeError,
    /// RDMA NIC link went down.
    NicDown,
    /// RDMA NIC port flapping.
    NicFlapping,
    /// Leaf switch unresponsive.
    SwitchUnresponsive,
    /// DCGM could not query a GPU.
    DcgmQueryFailure,
    /// GPU ECC row remap event.
    EccRowRemap,
    /// GPU thermal alert.
    ThermalAlert,
    /// Host OS kernel panic.
    KernelPanic,
    /// Host out-of-memory killer fired.
    OomKill,
    /// Shared filesystem mount lost.
    FilesystemMountLost,
    /// Remote storage (HDFS) request failed.
    RemoteStorageError,
    /// Container runtime failure.
    ContainerFailure,
}

impl EventKind {
    /// Whether the event is network-related (tolerated a few times before
    /// eviction because links/switches often self-recover, §4.1).
    pub fn is_network(self) -> bool {
        matches!(
            self,
            EventKind::NicDown | EventKind::NicFlapping | EventKind::SwitchUnresponsive
        )
    }

    /// Whether the event by itself identifies the machine as faulty with high
    /// confidence.
    pub fn is_high_confidence(self) -> bool {
        matches!(
            self,
            EventKind::XidError
                | EventKind::DcgmQueryFailure
                | EventKind::KernelPanic
                | EventKind::EccRowRemap
        )
    }
}

/// A timestamped system event attributed to a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemEvent {
    /// When the event was observed.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
    /// The machine it was observed on.
    pub machine: MachineId,
}

impl SystemEvent {
    /// Creates an event.
    pub fn new(at: SimTime, kind: EventKind, machine: MachineId) -> Self {
        SystemEvent { at, kind, machine }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_flags() {
        assert!(EventKind::NicDown.is_network());
        assert!(EventKind::SwitchUnresponsive.is_network());
        assert!(!EventKind::XidError.is_network());
        assert!(EventKind::KernelPanic.is_high_confidence());
        assert!(!EventKind::NicFlapping.is_high_confidence());
    }
}
