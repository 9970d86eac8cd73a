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
//!   hot-update merges and starvation notices into it as evidence, and
//!   freezes the capture into the returned [`ft::IncidentOutcome`] (the
//!   detection, recovery-phase transitions and resume marker are rebuilt
//!   from the dossier, not recorded);
//! * the lifecycle driver appends a dossier (resolution + capture + the
//!   `reproducible` bit) to the job's incident store, the one per-incident
//!   record of a solo run; the dossier runs the `REC-*` classification
//!   matrix on read, so no classification is stored. A fleet run moves each dossier out
//!   of that store into the fleet warehouse
//!   ([`JobExecution::take_incident`](lifecycle::JobExecution::take_incident)),
//!   which then owns it alone;
//! * [`report::JobReport::incidents`] is read off the store
//!   ([`report::IncidentRecord`] is a projection of a dossier, never kept
//!   beside it, and never written: `JobReport::import_json` reads it off
//!   the imported store again), its incident aggregations (Table 4
//!   resolution counts, eviction stats) are computed as incident-store
//!   queries, and
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
