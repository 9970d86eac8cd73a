//! ByteRobust core: the Robust Controller, the automated fault-tolerance
//! framework (Fig. 5), ETTR accounting, and the end-to-end job lifecycle
//! driver that every deployment-style experiment (§8.1) runs on.
//!
//! The crates below this one provide the substrates (cluster, workload,
//! telemetry, checkpointing, recovery mechanisms, analyzer); this crate wires
//! them together exactly the way the paper's control plane does:
//!
//! * [`ft::RobustController`] — handles one incident end to end: detection
//!   latency, real-time-check routing, stop-time checks, reattempt, rollback,
//!   dual-phase replay, aggregation analysis, eviction, and recovery, charging
//!   every phase to the incident's unproductive time,
//! * [`ettr::EttrTracker`] — cumulative and sliding-window effective-training-
//!   time-ratio accounting (Fig. 10),
//! * [`lifecycle::JobLifecycle`] — drives a whole training job (three months
//!   of simulated time if asked) against the fault injector and produces a
//!   [`report::JobReport`] with everything the §8.1 figures and tables need.
//!
//! # Incident lifecycle
//!
//! Every incident the controller handles is also *recorded*, not just
//! resolved, through the `byterobust-incident` subsystem:
//!
//! * the controller owns a flight recorder
//!   ([`RobustController::recorder_mut`](ft::RobustController::recorder_mut));
//!   the lifecycle driver taps telemetry signatures into its background ring, and
//!   `handle_incident` opens an incident window, records monitor verdicts,
//!   diagnoser/analyzer decisions, replay verdicts, evictions, rollbacks,
//!   hot-update merges and recovery-phase transitions into it, and freezes
//!   the capture into the returned [`ft::IncidentOutcome`];
//! * the lifecycle driver classifies each closed incident through the
//!   `REC-*` classification matrix and appends a dossier (record + capture +
//!   classification) to the [`report::JobReport`]'s incident store;
//! * [`report::JobReport`]'s incident aggregations (Table 4 resolution
//!   counts, eviction stats) are computed as incident-store queries, and
//!   `JobReport::incident_store.postmortem(seq)` renders any incident into a
//!   full postmortem artifact.

pub mod config;
pub mod ettr;
pub mod ft;
pub mod lifecycle;
pub mod report;

pub use config::JobConfig;
pub use ettr::EttrTracker;
pub use ft::{IncidentOutcome, ResolutionMechanism, RobustController};
pub use lifecycle::{JobExecution, JobLifecycle, SegmentOutcome};
pub use report::{IncidentRecord, JobReport};

/// Convenience prelude for applications and examples.
pub mod prelude {
    pub use crate::config::JobConfig;
    pub use crate::ettr::EttrTracker;
    pub use crate::ft::{IncidentOutcome, ResolutionMechanism, RobustController};
    pub use crate::lifecycle::{JobExecution, JobLifecycle, SegmentOutcome};
    pub use crate::report::{IncidentRecord, JobReport};
}
