//! Telemetry substrate: system events and the coarse log class.
//!
//! The paper's monitor (§4.1) gathers workload metrics, stdout/stderr logs
//! and system events (CUDA, RDMA, host, storage). This reproduction keeps two
//! of those signals as data: the [`SystemEvent`] the lifecycle driver taps
//! into the flight recorder at fault time, and the [`LogClass`] the
//! controller routes an incident by. Detection latency itself is a table,
//! not a pipeline: `Monitor::detection_time_with_inspection` in the agent
//! crate (Table 3).

pub mod events;
pub mod logs;

pub use events::{EventKind, SystemEvent};
pub use logs::LogClass;

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::events::{EventKind, SystemEvent};
    pub use crate::logs::LogClass;
}
