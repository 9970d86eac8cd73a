//! The flight recorder: a bounded ring buffer tapping the control plane.
//!
//! Modelled on aviation flight recorders (and on the flight-recorder
//! incident-response pattern): the recorder runs *continuously*, keeping the
//! last [`FlightRecorderConfig::capacity`] entries of background telemetry in
//! a ring. When the controller opens an incident, the recorder snapshots the
//! most recent background entries as pre-incident *context* and starts an
//! incident *window*; every monitor verdict, diagnoser decision, analyzer
//! decision, replay verdict, eviction, and recovery-phase transition recorded
//! while the incident is active lands in that window. Closing the incident
//! freezes context + window into an immutable [`IncidentCapture`] that the
//! postmortem generator and the incident store consume.
//!
//! The context is one shared snapshot per ring state: the recorder caches the
//! `Arc<[RecorderEntry]>` it last handed out and drops the cache whenever a
//! background entry is pushed, so every incident opened while the ring is
//! unchanged shares one allocation instead of carrying its own copy of the
//! same stale entries. Window entries accumulate in one buffer per
//! recorder, reused across incidents, and close copies them out exactly
//! sized.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use byterobust_agent::DiagnosisConclusion;
use byterobust_cluster::{FaultKind, MachineId};
use byterobust_sim::{SimDuration, SimTime};
use byterobust_telemetry::{EventKind, SystemEvent};

/// The recovery phases an incident's unproductive time is charged to, in
/// chronological order (the Fig. 3 decomposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecoveryPhase {
    /// Fault occurred → system noticed it.
    Detection,
    /// Locating / isolating the faulty machines.
    Localization,
    /// Scheduling replacement machines or the in-place restart.
    Scheduling,
    /// Rebuilding pod environments.
    PodBuild,
    /// Loading the checkpoint.
    CheckpointLoad,
    /// Recomputing the steps lost since the restored checkpoint.
    Recompute,
}

impl RecoveryPhase {
    /// All phases in chronological order.
    pub const ALL: [RecoveryPhase; 6] = [
        RecoveryPhase::Detection,
        RecoveryPhase::Localization,
        RecoveryPhase::Scheduling,
        RecoveryPhase::PodBuild,
        RecoveryPhase::CheckpointLoad,
        RecoveryPhase::Recompute,
    ];

    /// Human-readable phase name.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPhase::Detection => "detection",
            RecoveryPhase::Localization => "localization",
            RecoveryPhase::Scheduling => "scheduling",
            RecoveryPhase::PodBuild => "pod build",
            RecoveryPhase::CheckpointLoad => "checkpoint load",
            RecoveryPhase::Recompute => "recompute",
        }
    }
}

/// One event captured by the flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub enum RecorderEvent {
    /// A raw system event surfaced by the telemetry tap.
    Telemetry(SystemEvent),
    /// The monitor noticed the incident (detection latency attached).
    Detected {
        /// Observable symptom that fired.
        kind: FaultKind,
        /// Time from the fault occurring to the system noticing.
        latency: SimDuration,
    },
    /// A real-time inspection implicated a machine.
    MonitorVerdict {
        /// Machine implicated.
        machine: MachineId,
        /// Health issue observed, rendered for the record.
        issue: String,
    },
    /// The stop-time diagnoser reached a conclusion.
    DiagnosisDecision {
        /// The conclusion of the hierarchical test suites.
        conclusion: DiagnosisConclusion,
        /// Machines implicated (empty unless faulty machines were found).
        suspects: Vec<MachineId>,
        /// How long the stop-time checks took.
        duration: SimDuration,
    },
    /// The Runtime Analyzer's aggregation analysis produced a decision.
    AnalyzerDecision {
        /// Machines in the over-evicted parallel group.
        machines: Vec<MachineId>,
        /// The shared parallel-group kind, rendered (e.g. "PP"), if any.
        shared_group: Option<String>,
        /// Number of outlier ranks the aggregation flagged.
        outlier_ranks: usize,
        /// Whether the decision knowingly over-evicts healthy machines.
        over_evicts: bool,
    },
    /// Dual-phase replay isolated a suspect set.
    ReplayVerdict {
        /// The suspect machines replay converged on.
        suspects: Vec<MachineId>,
        /// How long the replay took.
        duration: SimDuration,
    },
    /// A recovery phase completed, charging `duration` to the incident.
    PhaseTransition {
        /// Which phase.
        phase: RecoveryPhase,
        /// Time charged to this phase alone; the per-phase durations of one
        /// incident sum to its `FailoverCost::total()`.
        duration: SimDuration,
    },
    /// A machine was evicted and blacklisted.
    Eviction {
        /// The machine.
        machine: MachineId,
        /// Whether this eviction was an over-eviction of a healthy machine.
        over_eviction: bool,
    },
    /// User code was rolled back to an earlier version.
    Rollback {
        /// The code version rolled back to.
        to_version: u32,
    },
    /// A pending hot update was merged into the recovery.
    HotUpdateApplied {
        /// The code version now running.
        version: u32,
    },
    /// Training resumed.
    Resumed {
        /// Optimizer step training resumed from.
        step: u64,
    },
    /// The warm-standby pool could not cover this incident's evictions: part
    /// of the delay is capacity starvation, not failure handling. Records how
    /// the gap was closed (broker preemption / cross-job migration) and what
    /// remained for the slow reschedule path.
    CapacityStarvation {
        /// Machines covered by preempting another job's replenishment slot.
        preempted: usize,
        /// Machines covered by migrating a spare machine from another job.
        migrated: usize,
        /// Machines nothing could cover (rescheduled from the free pool).
        shortfall: usize,
    },
}

impl RecorderEvent {
    /// Machines this event mentions (used by the store's per-machine query).
    pub fn machines(&self) -> Vec<MachineId> {
        self.machines_ref().to_vec()
    }

    /// The machines an event names, as a borrow of the event's own storage —
    /// no allocation, for per-incident hot paths.
    pub fn machines_ref(&self) -> &[MachineId] {
        match self {
            RecorderEvent::Telemetry(event) => std::slice::from_ref(&event.machine),
            RecorderEvent::MonitorVerdict { machine, .. }
            | RecorderEvent::Eviction { machine, .. } => std::slice::from_ref(machine),
            RecorderEvent::DiagnosisDecision { suspects, .. }
            | RecorderEvent::ReplayVerdict { suspects, .. } => suspects,
            RecorderEvent::AnalyzerDecision { machines, .. } => machines,
            _ => &[],
        }
    }
}

impl fmt::Display for RecorderEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecorderEvent::Telemetry(event) => {
                write!(f, "telemetry: {:?} on {}", event.kind, event.machine)
            }
            RecorderEvent::Detected { kind, latency } => {
                write!(f, "detected {} after {latency}", kind.symptom_name())
            }
            RecorderEvent::MonitorVerdict { machine, issue } => {
                write!(f, "real-time inspection flagged {machine}: {issue}")
            }
            RecorderEvent::DiagnosisDecision {
                conclusion,
                suspects,
                duration,
            } => {
                write!(
                    f,
                    "stop-time diagnosis: {conclusion:?} {suspects:?} in {duration}"
                )
            }
            RecorderEvent::AnalyzerDecision {
                machines,
                shared_group,
                outlier_ranks,
                over_evicts,
            } => {
                write!(
                    f,
                    "aggregation analysis: {outlier_ranks} outlier rank(s) -> {} group {machines:?}{}",
                    shared_group.as_deref().unwrap_or("?"),
                    if *over_evicts { " (over-eviction)" } else { "" }
                )
            }
            RecorderEvent::ReplayVerdict { suspects, duration } => {
                write!(f, "dual-phase replay isolated {suspects:?} in {duration}")
            }
            RecorderEvent::PhaseTransition { phase, duration } => {
                write!(f, "phase {} took {duration}", phase.name())
            }
            RecorderEvent::Eviction {
                machine,
                over_eviction,
            } => {
                write!(
                    f,
                    "evicted {machine}{}",
                    if *over_eviction {
                        " (over-eviction)"
                    } else {
                        ""
                    }
                )
            }
            RecorderEvent::Rollback { to_version } => {
                write!(f, "rolled user code back to v{to_version}")
            }
            RecorderEvent::HotUpdateApplied { version } => {
                write!(f, "merged pending hot update -> v{version}")
            }
            RecorderEvent::Resumed { step } => write!(f, "training resumed from step {step}"),
            RecorderEvent::CapacityStarvation {
                preempted,
                migrated,
                shortfall,
            } => {
                write!(
                    f,
                    "standby pool starved: {preempted} covered by preemption, {migrated} by \
                     migration, {shortfall} rescheduled from the free pool"
                )
            }
        }
    }
}

/// A timestamped recorder entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RecorderEntry {
    /// When the event happened (simulated time).
    pub at: SimTime,
    /// What happened.
    pub event: RecorderEvent,
}

impl fmt::Display for RecorderEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.at, self.event)
    }
}

/// The frozen capture of one incident: pre-incident context plus the incident
/// window, immutable once the incident closes.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentCapture {
    /// Incident sequence number (matches the fault injector's `seq`).
    pub seq: u64,
    /// Symptom the incident opened with.
    pub kind: FaultKind,
    /// When the incident opened.
    pub opened_at: SimTime,
    /// When the incident closed.
    pub closed_at: SimTime,
    /// Background entries captured *before* the incident opened (most recent
    /// last), snapshotted at open time. The snapshot is shared: every capture
    /// opened while the recorder's ring was unchanged holds the same
    /// allocation.
    pub context: Arc<[RecorderEntry]>,
    /// Every entry recorded while the incident was active, in order.
    pub window: Vec<RecorderEntry>,
}

impl IncidentCapture {
    /// Whether this incident's recovery was delayed by capacity starvation
    /// (the warm-standby pool could not cover its evictions) rather than by
    /// failure handling alone.
    pub fn capacity_starved(&self) -> bool {
        self.window
            .iter()
            .any(|entry| matches!(entry.event, RecorderEvent::CapacityStarvation { .. }))
    }

    /// An empty capture, for synthesizing dossiers in tests and tools.
    pub fn empty(seq: u64, kind: FaultKind, at: SimTime) -> Self {
        IncidentCapture {
            seq,
            kind,
            opened_at: at,
            closed_at: at,
            context: Arc::from([]),
            window: Vec::new(),
        }
    }

    /// All machines mentioned in the capture: the incident window, plus the
    /// context entries recorded at or after the incident opened. The latter
    /// matters because the telemetry tap fires at fault time, just before the
    /// window opens — for a transient fault resolved by reattempt that
    /// signature is the *only* place the culprit machine is named. Older
    /// context entries are ring carryover from previous incidents and are
    /// deliberately excluded.
    pub fn machines_mentioned(&self) -> Vec<MachineId> {
        let mut machines = Vec::new();
        self.machines_mentioned_into(&mut machines);
        machines.sort();
        machines.dedup();
        machines
    }

    /// Appends every mentioned machine to `out` without allocating (callers
    /// on per-incident hot paths reuse one scratch buffer and sort/dedup
    /// themselves). Order and duplicates follow the capture's entries.
    pub fn machines_mentioned_into(&self, out: &mut Vec<MachineId>) {
        out.extend(
            self.context
                .iter()
                .filter(|entry| entry.at >= self.opened_at)
                .chain(self.window.iter())
                .flat_map(|entry| entry.event.machines_ref())
                .copied(),
        );
    }
}

/// Flight-recorder sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecorderConfig {
    /// Maximum background entries kept in the ring.
    pub capacity: usize,
    /// How many of the most recent background entries are snapshotted as
    /// pre-incident context when an incident opens.
    pub context_entries: usize,
    /// Hard cap on entries captured inside one incident window (a runaway
    /// incident must not grow the record unboundedly).
    pub window_capacity: usize,
}

impl Default for FlightRecorderConfig {
    fn default() -> Self {
        FlightRecorderConfig {
            capacity: 256,
            context_entries: 16,
            window_capacity: 512,
        }
    }
}

/// The currently-open incident; its window entries live in
/// [`FlightRecorder::window`].
#[derive(Debug, Clone, PartialEq)]
struct ActiveIncident {
    seq: u64,
    kind: FaultKind,
    opened_at: SimTime,
    context: Arc<[RecorderEntry]>,
}

/// The flight recorder. One lives inside each `RobustController`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    config: FlightRecorderConfig,
    ring: VecDeque<RecorderEntry>,
    /// The context snapshot of the ring as it stands, shared by every
    /// incident opened until the next background push drops it.
    context: Option<Arc<[RecorderEntry]>>,
    /// The open incident's window entries. Reused across incidents: close
    /// moves them out into an exactly sized `Vec` and keeps the buffer.
    window: Vec<RecorderEntry>,
    active: Option<ActiveIncident>,
}

impl FlightRecorder {
    /// Creates a recorder with the given sizing.
    pub fn new(config: FlightRecorderConfig) -> Self {
        FlightRecorder {
            config,
            ring: VecDeque::with_capacity(config.capacity.min(1024)),
            context: None,
            window: Vec::new(),
            active: None,
        }
    }

    /// Records an event. Outside an incident it lands in the background ring
    /// (evicting the oldest entry at capacity); inside an incident it lands
    /// in the open window (dropped once the window is full).
    pub fn record(&mut self, at: SimTime, event: RecorderEvent) {
        let entry = RecorderEntry { at, event };
        match self.active {
            Some(_) => {
                if self.window.len() < self.config.window_capacity {
                    self.window.push(entry);
                }
            }
            None => {
                if self.config.capacity == 0 {
                    return;
                }
                if self.ring.len() == self.config.capacity {
                    self.ring.pop_front();
                }
                self.ring.push_back(entry);
                self.context = None;
            }
        }
    }

    /// Opens an incident: snapshots the most recent background entries as
    /// context and starts routing subsequent events into the incident window.
    /// The snapshot is built once per ring state and shared by every incident
    /// opened before the next background entry lands.
    /// Returns `false` (and changes nothing) if an incident is already open.
    pub fn open_incident(&mut self, seq: u64, kind: FaultKind, at: SimTime) -> bool {
        if self.active.is_some() {
            return false;
        }
        let context = self.context.get_or_insert_with(|| {
            let skip = self.ring.len().saturating_sub(self.config.context_entries);
            self.ring.iter().skip(skip).cloned().collect()
        });
        self.active = Some(ActiveIncident {
            seq,
            kind,
            opened_at: at,
            context: Arc::clone(context),
        });
        true
    }

    /// Machines named by the open incident's *context* entries recorded at or
    /// after `since` — i.e. the fault-time telemetry signatures that landed in
    /// the background ring just before the incident opened. This is the
    /// recorded-data view of "which machines did the symptom surface on",
    /// available to the controller without consulting injector ground truth.
    /// Returns an empty list when no incident is open. Sorted, deduplicated.
    pub fn context_machines_since(&self, since: SimTime) -> Vec<MachineId> {
        let Some(active) = &self.active else {
            return Vec::new();
        };
        let mut machines: Vec<MachineId> = active
            .context
            .iter()
            .filter(|entry| entry.at >= since)
            .flat_map(|entry| entry.event.machines())
            .collect();
        machines.sort();
        machines.dedup();
        machines
    }

    /// Closes the open incident, freezing its capture: the window entries
    /// move out of the recorder's window buffer into one exactly sized
    /// allocation. Returns `None` if no incident is open.
    pub fn close_incident(&mut self, at: SimTime) -> Option<IncidentCapture> {
        let active = self.active.take()?;
        Some(IncidentCapture {
            seq: active.seq,
            kind: active.kind,
            opened_at: active.opened_at,
            closed_at: at,
            context: active.context,
            window: self.window.drain(..).collect(),
        })
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FlightRecorderConfig::default())
    }
}

/// The telemetry signature an incident symptom leaves behind, if any: the
/// system-event kind the inspection infrastructure would surface for it.
/// Implicit failures (hangs, MFU decline, NaN) and manual restarts produce no
/// explicit system event — which is exactly why they need the analyzer path.
pub fn telemetry_signature(kind: FaultKind) -> Option<EventKind> {
    use FaultKind::*;
    match kind {
        CudaError => Some(EventKind::CudaRuntimeError),
        GpuMemoryError => Some(EventKind::XidError),
        GpuUnavailable => Some(EventKind::DcgmQueryFailure),
        InfinibandError => Some(EventKind::NicDown),
        OsKernelPanic => Some(EventKind::KernelPanic),
        CpuOom => Some(EventKind::OomKill),
        CpuOverload => Some(EventKind::OomKill),
        FilesystemMount => Some(EventKind::FilesystemMountLost),
        HdfsError => Some(EventKind::RemoteStorageError),
        ContainerError => Some(EventKind::ContainerFailure),
        ExternalServiceError => Some(EventKind::RemoteStorageError),
        InsufficientDiskSpace | DiskFault => None,
        JobHang | MfuDecline | NanValue | CodeDataAdjustment => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn telemetry_event(secs: u64, machine: u32) -> RecorderEvent {
        RecorderEvent::Telemetry(SystemEvent::new(
            t(secs),
            EventKind::XidError,
            MachineId(machine),
        ))
    }

    #[test]
    fn background_ring_is_bounded() {
        let mut recorder = FlightRecorder::new(FlightRecorderConfig {
            capacity: 4,
            context_entries: 2,
            window_capacity: 8,
        });
        for i in 0..10 {
            recorder.record(t(i), telemetry_event(i, i as u32));
        }
        assert_eq!(recorder.ring.len(), 4);
    }

    #[test]
    fn open_snapshots_context_and_close_freezes_window() {
        let mut recorder = FlightRecorder::new(FlightRecorderConfig {
            capacity: 8,
            context_entries: 2,
            window_capacity: 8,
        });
        for i in 0..5 {
            recorder.record(t(i), telemetry_event(i, i as u32));
        }
        assert!(recorder.open_incident(1, FaultKind::CudaError, t(10)));
        assert!(recorder.active.is_some());
        recorder.record(
            t(10),
            RecorderEvent::Detected {
                kind: FaultKind::CudaError,
                latency: SimDuration::from_secs(5),
            },
        );
        recorder.record(
            t(11),
            RecorderEvent::Eviction {
                machine: MachineId(3),
                over_eviction: false,
            },
        );
        let capture = recorder.close_incident(t(12)).expect("incident was open");
        assert!(recorder.active.is_none());
        // Context is the *last two* background entries.
        assert_eq!(capture.context.len(), 2);
        assert_eq!(capture.context[1].at, t(4));
        // Window holds exactly the events recorded while open.
        assert_eq!(capture.window.len(), 2);
        assert_eq!(
            capture.closed_at.since(capture.opened_at),
            SimDuration::from_secs(2)
        );
        // Context telemetry (machines 3 and 4, recorded at t=3/t=4) predates
        // the open at t=10 — ring carryover from before this incident — so
        // only the window's eviction of machine 3 counts as a mention.
        assert_eq!(capture.machines_mentioned(), vec![MachineId(3)]);
        // The capture is frozen: further records do not touch it.
        recorder.record(t(13), telemetry_event(13, 9));
        assert_eq!(capture.window.len(), 2);
    }

    #[test]
    fn fault_time_telemetry_in_context_counts_as_a_mention() {
        // The lifecycle's telemetry tap fires at fault time, just before the
        // controller opens the incident, so the signature lands in the
        // background ring and reaches the capture via the context snapshot.
        // For a transient fault resolved by reattempt (no evictions, no
        // window event naming the machine) it is the only mention of the
        // culprit — it must survive into machines_mentioned().
        let mut recorder = FlightRecorder::default();
        recorder.record(t(5), telemetry_event(5, 1)); // stale carryover
        recorder.record(t(10), telemetry_event(10, 2)); // fault-time signature
        recorder.open_incident(1, FaultKind::InfinibandError, t(10));
        recorder.record(
            t(10),
            RecorderEvent::Detected {
                kind: FaultKind::InfinibandError,
                latency: SimDuration::from_secs(3),
            },
        );
        let capture = recorder.close_incident(t(11)).unwrap();
        assert_eq!(capture.machines_mentioned(), vec![MachineId(2)]);
    }

    #[test]
    fn double_open_is_rejected() {
        let mut recorder = FlightRecorder::default();
        assert!(recorder.open_incident(1, FaultKind::JobHang, t(1)));
        assert!(!recorder.open_incident(2, FaultKind::CudaError, t(2)));
        let capture = recorder.close_incident(t(3)).unwrap();
        assert_eq!(capture.seq, 1);
        assert!(recorder.close_incident(t(4)).is_none());
    }

    #[test]
    fn incident_window_is_bounded_and_drops_are_counted() {
        let mut recorder = FlightRecorder::new(FlightRecorderConfig {
            capacity: 4,
            context_entries: 0,
            window_capacity: 3,
        });
        recorder.open_incident(7, FaultKind::JobHang, t(0));
        for i in 0..10 {
            recorder.record(t(i), telemetry_event(i, 0));
        }
        let capture = recorder.close_incident(t(10)).unwrap();
        assert_eq!(capture.window.len(), 3);
    }

    fn detected(secs: u64) -> RecorderEvent {
        RecorderEvent::Detected {
            kind: FaultKind::JobHang,
            latency: SimDuration::from_secs(secs),
        }
    }

    #[test]
    fn incidents_with_no_background_record_between_share_one_context() {
        let mut recorder = FlightRecorder::default();
        recorder.record(t(1), telemetry_event(1, 4));
        recorder.open_incident(1, FaultKind::JobHang, t(2));
        recorder.record(t(2), detected(1));
        let first = recorder.close_incident(t(3)).unwrap();
        recorder.open_incident(2, FaultKind::JobHang, t(4));
        recorder.record(t(4), detected(2));
        let second = recorder.close_incident(t(5)).unwrap();
        assert_eq!(first.context.len(), 1);
        assert!(Arc::ptr_eq(&first.context, &second.context));
    }

    #[test]
    fn a_background_record_breaks_context_sharing() {
        let mut recorder = FlightRecorder::default();
        recorder.record(t(1), telemetry_event(1, 4));
        recorder.open_incident(1, FaultKind::JobHang, t(2));
        let first = recorder.close_incident(t(3)).unwrap();
        recorder.record(t(4), telemetry_event(4, 5));
        recorder.open_incident(2, FaultKind::CudaError, t(4));
        let second = recorder.close_incident(t(5)).unwrap();
        assert!(!Arc::ptr_eq(&first.context, &second.context));
        assert_eq!(first.context.len(), 1);
        assert_eq!(second.context.len(), 2);
        assert_eq!(second.context[1].at, t(4));
        assert_eq!(second.context[1].event, telemetry_event(4, 5));
        assert_eq!(second.machines_mentioned(), vec![MachineId(5)]);
    }

    #[test]
    fn closed_windows_are_exactly_sized() {
        let mut recorder = FlightRecorder::default();
        for (seq, entries) in [(1, 6), (2, 1), (3, 0), (4, 9)] {
            recorder.open_incident(seq, FaultKind::JobHang, t(seq));
            for i in 0..entries {
                recorder.record(t(seq), detected(i));
            }
            let capture = recorder.close_incident(t(seq + 1)).unwrap();
            assert_eq!(capture.window.len() as u64, entries);
            assert_eq!(capture.window.capacity(), capture.window.len());
        }
    }

    #[test]
    fn shared_context_capture_is_a_codec_fixed_point() {
        use crate::codec::{from_json, to_json};
        let mut recorder = FlightRecorder::default();
        recorder.record(t(1), telemetry_event(1, 4));
        recorder.record(t(2), telemetry_event(2, 6));
        let mut captures = Vec::new();
        for seq in 1..=2 {
            recorder.open_incident(seq, FaultKind::JobHang, t(2));
            recorder.record(t(2), detected(seq));
            captures.push(recorder.close_incident(t(3)).unwrap());
        }
        assert!(Arc::ptr_eq(&captures[0].context, &captures[1].context));
        for capture in &captures {
            let exported = to_json(capture);
            let imported: IncidentCapture = from_json(&exported).expect("export decodes");
            assert_eq!(&imported, capture);
            assert_eq!(to_json(&imported), exported);
        }
    }

    #[test]
    fn explicit_symptoms_have_telemetry_signatures_implicit_do_not() {
        assert_eq!(
            telemetry_signature(FaultKind::CudaError),
            Some(EventKind::CudaRuntimeError)
        );
        assert_eq!(
            telemetry_signature(FaultKind::OsKernelPanic),
            Some(EventKind::KernelPanic)
        );
        assert_eq!(telemetry_signature(FaultKind::JobHang), None);
        assert_eq!(telemetry_signature(FaultKind::MfuDecline), None);
        assert_eq!(telemetry_signature(FaultKind::CodeDataAdjustment), None);
    }
}
