//! System events: CUDA, RDMA, host and storage events surfaced by the
//! inspection infrastructure (dmesg Xid entries, DCGM alerts, switch telemetry,
//! storage client errors).

use byterobust_cluster::MachineId;
use byterobust_sim::SimTime;

/// Kinds of system events the monitor consumes.
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

/// A bounded in-memory event log with windowed queries.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<SystemEvent>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event (must be in non-decreasing time order).
    pub fn push(&mut self, event: SystemEvent) {
        if let Some(last) = self.events.last() {
            assert!(event.at >= last.at, "events must be appended in time order");
        }
        self.events.push(event);
    }

    /// All events.
    pub fn all(&self) -> &[SystemEvent] {
        &self.events
    }

    /// Events on a machine within `(since, until]`.
    pub fn for_machine_in_window(
        &self,
        machine: MachineId,
        since: SimTime,
        until: SimTime,
    ) -> Vec<SystemEvent> {
        self.events
            .iter()
            .filter(|e| e.machine == machine && e.at > since && e.at <= until)
            .copied()
            .collect()
    }

    /// Number of events of a kind on a machine within `(since, until]`.
    pub fn count_kind_in_window(
        &self,
        machine: MachineId,
        kind: EventKind,
        since: SimTime,
        until: SimTime,
    ) -> usize {
        self.for_machine_in_window(machine, since, until)
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut log = EventLog::new();
        let m = MachineId(1);
        log.push(SystemEvent::new(
            SimTime::from_secs(10),
            EventKind::NicFlapping,
            m,
        ));
        log.push(SystemEvent::new(
            SimTime::from_secs(20),
            EventKind::NicFlapping,
            m,
        ));
        log.push(SystemEvent::new(
            SimTime::from_secs(30),
            EventKind::XidError,
            MachineId(2),
        ));
        assert_eq!(log.all().len(), 3);
        assert_eq!(
            log.count_kind_in_window(
                m,
                EventKind::NicFlapping,
                SimTime::ZERO,
                SimTime::from_secs(60)
            ),
            2
        );
        assert_eq!(
            log.count_kind_in_window(
                m,
                EventKind::NicFlapping,
                SimTime::from_secs(15),
                SimTime::from_secs(60)
            ),
            1
        );
        assert_eq!(
            log.for_machine_in_window(MachineId(2), SimTime::ZERO, SimTime::from_secs(60))
                .len(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut log = EventLog::new();
        log.push(SystemEvent::new(
            SimTime::from_secs(10),
            EventKind::OomKill,
            MachineId(0),
        ));
        log.push(SystemEvent::new(
            SimTime::from_secs(5),
            EventKind::OomKill,
            MachineId(0),
        ));
    }

    #[test]
    fn classification_flags() {
        assert!(EventKind::NicDown.is_network());
        assert!(EventKind::SwitchUnresponsive.is_network());
        assert!(!EventKind::XidError.is_network());
        assert!(EventKind::KernelPanic.is_high_confidence());
        assert!(!EventKind::NicFlapping.is_high_confidence());
    }
}
