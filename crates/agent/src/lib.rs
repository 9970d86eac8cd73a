//! The data plane: the four sub-modules of the Robust Agent (§3).
//!
//! In the paper one Robust Agent daemon runs in every training pod. This
//! reproduction models no daemon state machine; the lifecycle driver and the
//! controller call these sub-modules directly:
//!
//! * the [`Monitor`] — the per-category inspection intervals (Table 3) that
//!   give every incident its detection latency, plus inspection sweeps over
//!   machine health (§4.1),
//! * the [`Diagnoser`] — stop-time test suites (EUD,
//!   NCCL intra/inter tests, the MiniGPT bit-wise alignment suite) run after
//!   job suspension (§4.2, §4.3),
//! * the [`OnDemandTracer`] — stack-trace capture
//!   feeding the Runtime Analyzer (§5),
//! * the [`CkptManager`] — records the recovery point of each storage tier
//!   (in-memory with cross-parallel-group backups, local disk, remote) as the
//!   checkpoint plan schedules them, and answers recovery queries (§6.3).
//!   Checkpoint stalls are modelled only by the Table 8 comparison; a run is
//!   never charged one.
//!
//! The [`stress`] module implements the *selective stress testing* baseline
//! that Table 6 compares the automated fault-tolerance framework against.

pub mod ckpt_manager;
pub mod diagnoser;
pub mod monitor;
pub mod stress;
pub mod tracer;

pub use ckpt_manager::CkptManager;
pub use diagnoser::{Diagnoser, DiagnosisConclusion, DiagnosisOutcome};
pub use monitor::{InspectionFinding, Monitor};
pub use stress::SelectiveStressTester;
pub use tracer::OnDemandTracer;

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::ckpt_manager::CkptManager;
    pub use crate::diagnoser::{Diagnoser, DiagnosisConclusion, DiagnosisOutcome};
    pub use crate::monitor::{InspectionFinding, Monitor};
    pub use crate::stress::SelectiveStressTester;
    pub use crate::tracer::OnDemandTracer;
}
