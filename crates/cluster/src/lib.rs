//! Cluster substrate: machines, GPUs, NICs, switches, health states, the
//! incident taxonomy of Table 1/2, and the fault injector that drives every
//! experiment in the reproduction.
//!
//! The original ByteRobust runs on production GPU clusters (8×Hopper or
//! 16×L20 machines, 400 Gbps RDMA). Since no such hardware is available to a
//! reproduction, this crate models the *observable state* ByteRobust's control
//! plane actually consumes: which machines exist, how they are wired, whether
//! their GPUs/NICs/hosts are healthy, and what incidents occur over time.

pub mod fault;
pub mod gpu;
pub mod health;
pub mod ids;
pub mod machine;
pub mod registry;
pub mod topology;

pub use fault::{
    FaultCategory, FaultEvent, FaultInjector, FaultInjectorConfig, FaultKind, RootCause,
};
pub use gpu::{Gpu, GpuState};
pub use health::{HealthIssue, HealthReport};
pub use ids::{GpuId, MachineId, SwitchId};
pub use machine::{Machine, MachineState, NicState};
pub use registry::{FleetMachineRegistry, MigrationRecord};
pub use topology::{Cluster, ClusterSpec};

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::fault::{
        FaultCategory, FaultEvent, FaultInjector, FaultInjectorConfig, FaultKind, RootCause,
    };
    pub use crate::gpu::{Gpu, GpuState};
    pub use crate::health::{HealthIssue, HealthReport};
    pub use crate::ids::{GpuId, MachineId, SwitchId};
    pub use crate::machine::{Machine, MachineState, NicState};
    pub use crate::registry::{FleetMachineRegistry, MigrationRecord};
    pub use crate::topology::{Cluster, ClusterSpec};
}
