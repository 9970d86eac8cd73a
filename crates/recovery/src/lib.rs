//! Controlled and swift recovery (§6): warm standby machines, in-place hot
//! updates, restart-strategy cost models, dual-phase replay, and failover
//! cost accounting.
//!
//! This crate contains both ByteRobust's recovery mechanisms and the baseline
//! strategies the paper compares against in Table 7 and Fig. 12 (full requeue,
//! reschedule-only-evicted, and an oracle with unlimited standbys).

pub mod binomial;
pub mod failover;
pub mod hot_update;
pub mod replay;
pub mod restart;
pub mod standby;

pub use binomial::binomial_quantile;
pub use failover::FailoverCost;
pub use hot_update::{HotUpdateManager, UpdateRequest};
pub use replay::{DualPhaseReplay, ReplayConfig, ReplayOutcome};
pub use restart::{RestartCostModel, RestartStrategy, SchedulingOutcome, StandbyScheduler};
pub use standby::{StandbyPoolConfig, WarmStandbyPool};

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::binomial::binomial_quantile;
    pub use crate::failover::FailoverCost;
    pub use crate::hot_update::{HotUpdateManager, UpdateRequest};
    pub use crate::replay::{DualPhaseReplay, ReplayConfig, ReplayOutcome};
    pub use crate::restart::{
        RestartCostModel, RestartStrategy, SchedulingOutcome, StandbyScheduler,
    };
    pub use crate::standby::{StandbyPoolConfig, WarmStandbyPool};
}
