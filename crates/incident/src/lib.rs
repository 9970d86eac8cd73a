//! Incident lifecycle subsystem: flight recorder, failure classification,
//! postmortems, and the queryable incident store.
//!
//! The Robust Controller (`byterobust-core`) resolves incidents end to end,
//! but resolving an incident and *explaining* it are different jobs. This
//! crate gives every incident a durable, replayable record of how it
//! unfolded, in four pieces:
//!
//! 1. [`recorder::FlightRecorder`] — a bounded ring buffer that continuously
//!    taps telemetry events, monitor verdicts, diagnoser/analyzer decisions
//!    and recovery-phase transitions. When the controller opens an incident
//!    the recorder snapshots the recent background context; when the incident
//!    closes, the captured window freezes into an immutable
//!    [`recorder::IncidentCapture`].
//! 2. [`classify::ClassificationMatrix`] — maps (incident category, root
//!    cause, resolution mechanism, blast radius) onto `REC-*` severity
//!    classes with escalation rules, in the style of production
//!    incident-response matrices.
//! 3. [`postmortem::Postmortem`] — renders a closed incident into a
//!    structured postmortem: timeline, evidence, unproductive-time breakdown
//!    by recovery phase (summing exactly to the incident's
//!    `FailoverCost::total()`), evicted machines, and recommended follow-ups.
//! 4. [`store::IncidentStore`] — the durable collection of
//!    [`store::IncidentDossier`]s with a query API (by category, severity,
//!    time window, machine, mechanism) that `JobReport` aggregations and the
//!    bench tables read instead of recomputing from raw records.
//! 5. [`codec`] — a hand-rolled, self-describing JSON codec (the
//!    workspace's only serialization layer) with
//!    [`codec::Encode`]/[`codec::Decode`] impls for every incident type,
//!    powering `IncidentStore::export_json` /
//!    `IncidentStore::import_json` and the fleet warehouse's disk-spill
//!    segment files.
//!
//! [`ResolutionMechanism`] lives here (rather than in `byterobust-core`) so
//! the classification matrix can key on it without a dependency cycle; the
//! core crate re-exports it from its historical `ft` path.
//!
//! ```
//! use byterobust_incident::prelude::*;
//! use byterobust_cluster::{FaultCategory, RootCause};
//!
//! let matrix = ClassificationMatrix::byterobust_default();
//! let class = matrix.classify(&ClassificationInput {
//!     category: FaultCategory::Explicit,
//!     root_cause: RootCause::Infrastructure,
//!     mechanism: ResolutionMechanism::ImmediateEviction,
//!     blast_radius: 1,
//!     over_evicted: false,
//!     reproducible: true,
//!     downtime: byterobust_sim::SimDuration::from_mins(12),
//! });
//! assert_eq!(class.severity, Severity::Sev3);
//! ```

pub mod classify;
pub mod codec;
pub mod filter;
pub mod mechanism;
pub mod postmortem;
pub mod recorder;
pub mod store;

pub use codec::{CodecError, Decode, Encode, ErrorPosition, JsonValue};

pub use classify::{
    Classification, ClassificationInput, ClassificationMatrix, Escalation, Severity,
};
pub use mechanism::ResolutionMechanism;
pub use postmortem::{PhaseCost, Postmortem};
pub use recorder::{
    telemetry_signature, EvidenceSource, FlightRecorder, FlightRecorderConfig, IncidentCapture,
    RecorderEntry, RecorderEvent, RecoveryPhase,
};
pub use store::{IncidentDossier, IncidentQuery, IncidentStore};

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::codec::{CodecError, Decode, Encode, ErrorPosition, JsonValue};

    pub use crate::classify::{
        Classification, ClassificationInput, ClassificationMatrix, Escalation, Severity,
    };
    pub use crate::mechanism::ResolutionMechanism;
    pub use crate::postmortem::{PhaseCost, Postmortem};
    pub use crate::recorder::{
        telemetry_signature, EvidenceSource, FlightRecorder, FlightRecorderConfig, IncidentCapture,
        RecorderEntry, RecorderEvent, RecoveryPhase,
    };
    pub use crate::store::{IncidentDossier, IncidentQuery, IncidentStore};
}
