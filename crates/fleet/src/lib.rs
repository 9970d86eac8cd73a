//! Fleet orchestration: many concurrent training jobs over a shared cluster,
//! with a cross-job incident warehouse.
//!
//! The paper's control plane operates at fleet scale — many jobs sharing
//! machines, warm standbys, and an incident history — while `byterobust-core`
//! drives exactly one job per report. This crate adds the fleet layer in four
//! pieces:
//!
//! 1. [`runner::FleetRunner`] — drives N concurrent
//!    [`JobExecution`](byterobust_core::JobExecution)s (mixed job specs:
//!    dense, MoE-flavoured, Table-5 scale) in global event order against a
//!    *single shared* warm-standby pool, deterministically interleaved from
//!    the fleet seed. Job selection goes through the
//!    [`scheduler`] — an O(log J) binary heap by default, with the O(J)
//!    linear scan retained as an oracle reference pinned byte-identical.
//! 2. [`warehouse::IncidentWarehouse`] — per-job incident-store shards merged
//!    under secondary indexes (by machine, by severity, by category, by time
//!    bucket), so fleet queries are index lookups instead of
//!    O(total-incidents) scans. `linear_scan` exists purely so tests can pin
//!    the invariant that indexed results equal the brute-force answer.
//! 3. [`drainer::BacklogDrainer`] — consumes the stores' escalation backlog:
//!    `StressTestSweep` items dispatch
//!    [`SelectiveStressTester`](byterobust_agent::SelectiveStressTester)
//!    sweeps whose passing (over-evicted, actually healthy) machines return
//!    to the shared standby pool *within the same run*.
//! 4. [`ledger::RepeatOffenderLedger`] — cross-job per-machine incident
//!    counts, fed into every job's `Monitor` so the controller lowers the
//!    eviction threshold for machines with prior recorded incidents (§9
//!    repeated-occurrence heuristics) instead of consulting injector ground
//!    truth.
//!
//! The result of a fleet run is a [`report::FleetReport`] whose
//! [`render`](report::FleetReport::render) output is byte-identical across
//! runs with the same seed.
//!
//! # The query plane
//!
//! Two modules turn the warehouse from a post-run artifact into a live
//! service. [`query`] is the unified vocabulary: one [`FleetQuery`] request
//! enum and one [`QueryResponse`] result enum (with a JSON codec) covering
//! every read surface — incident rows, full dossiers, the warehouse digest,
//! trace spans, and alert timeline lookups. [`service`] is the resident
//! plane: a [`WarehouseService`] the runner publishes copy-on-write epoch
//! snapshots into after every insert, answering queries concurrently with
//! fleet execution under snapshot isolation, through a selectivity-based
//! planner with a retained `linear_scan` oracle, with spilled shards faulted
//! in through a capacity-bounded LRU.
//!
//! # Machine identity across jobs
//!
//! Every job's cluster addresses one fleet-wide `MachineId` namespace:
//! `MachineId(3)` names the same physical machine in every job, so the
//! *recorded incident history* — what the warehouse's machine index and the
//! repeat-offender ledger aggregate — composes across jobs, which is the
//! cross-job feedback loop this crate exists for. This is a deliberate
//! modelling simplification: per-job cluster state (GPU damage, blacklists,
//! standby activation) stays private to each job rather than flowing through
//! a single shared hardware model, and concurrent jobs may implicate the
//! same machine id independently.
//!
//! The [`broker`] module chips away at that boundary: a
//! [`broker::FleetBroker`] mediates every standby grant, and
//! when the shared pool runs dry it can preempt lower-priority replenishment
//! slots, *migrate* a spare `Machine` object wholesale between jobs'
//! clusters (id, hardware damage, and repeat-offender history travel with
//! it, tracked by the fleet-shared
//! [`FleetMachineRegistry`](byterobust_cluster::FleetMachineRegistry)), and
//! queue job admission behind a fleet capacity limit. Migration is only
//! planned toward a job that does not already hold the donated id, so the
//! shared-namespace fiction never produces a duplicate machine inside one
//! cluster.

pub mod broker;
pub mod drainer;
pub mod ledger;
pub mod query;
pub mod report;
pub mod runner;
pub mod scheduler;
pub mod service;
pub mod warehouse;

pub use broker::{BrokerConfig, BrokerEvent, BrokerSummary, FleetBroker, JobPriority};
pub use drainer::{BacklogDrainer, CompletedSweep};
pub use ledger::RepeatOffenderLedger;
pub use query::{alert_get, AlertQuery, FleetQuery, IncidentRow, QueryResponse, WarehouseDigest};
pub use report::{DrainSummary, FleetJobReport, FleetReport};
pub use runner::{FleetConfig, FleetJob, FleetRunner, SteppingMode};
pub use scheduler::{EventScheduler, SchedulerKind, SchedulerOps};
pub use service::{
    CacheStats, EpochSnapshot, EpochStamp, PlanChoice, ServiceStats, ShardCache, TrafficConfig,
    TrafficGenerator, WarehouseService,
};
pub use warehouse::{IncidentWarehouse, SpillStats, WarehouseHit, WarehouseStorage};

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::broker::{BrokerConfig, BrokerEvent, BrokerSummary, FleetBroker, JobPriority};
    pub use crate::drainer::{BacklogDrainer, CompletedSweep};
    pub use crate::ledger::RepeatOffenderLedger;
    pub use crate::query::{
        alert_get, AlertQuery, FleetQuery, IncidentRow, QueryResponse, WarehouseDigest,
    };
    pub use crate::report::{DrainSummary, FleetJobReport, FleetReport};
    pub use crate::runner::{FleetConfig, FleetJob, FleetRunner};
    pub use crate::scheduler::{EventScheduler, SchedulerKind, SchedulerOps};
    pub use crate::service::{
        CacheStats, EpochSnapshot, EpochStamp, PlanChoice, ServiceStats, ShardCache, TrafficConfig,
        TrafficGenerator, WarehouseService,
    };
    pub use crate::warehouse::{IncidentWarehouse, SpillStats, WarehouseHit, WarehouseStorage};
}
